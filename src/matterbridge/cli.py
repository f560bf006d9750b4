"""Command-line surface tying dataset, training, retrieval, and metrics.

Nine subcommands: gen-data, pretrain, finetune, infer, eval, embed,
retrieve, similarity, project.  Every subcommand accepts --config and
--seed; an unset --seed falls back to the MATTERBRIDGE_SEED environment
variable and then to the config's seed.  Commands whose outputs are
deterministic by construction (infer, eval, embed, retrieve,
similarity, project) accept the flag for interface uniformity.

Exit codes: 0 success, 1 a reported pipeline error, 2 usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import Config, load_config
from .crystal import parse_structure
from .datasetgen import (
    InstructionSample,
    build_instruction_corpus,
    generate_synthetic_records,
    load_instruction_samples,
    load_property_records,
    split_dataset,
    write_instruction_samples,
    write_property_records,
)
from .errors import MatterBridgeError, ValidationError
from .evaluate import (
    DEFAULT_RAG_K,
    NUMERIC_TASKS,
    evaluate_checkpoint,
    generate_answer,  # not called here: perfbench's tracer test reads it
    predict_samples,
    project_2d_pca,
    write_eval_report,
)
from .ioutil import atomic_write
from .rag import (EmbeddingStore, material_prefixes, model_fingerprint,
                  retrieve_topk)
from .rematch import RematchConfig, similarity_matrix
from .soap import SoapConfig
from .templates import TASKS, format_value, render_prompt
from .trainer import build_models, finetune, pretrain
from .trainer import restore_models

SEED_ENV = "MATTERBRIDGE_SEED"


def resolve_seed(arg_seed, cfg):
    """--seed wins, then MATTERBRIDGE_SEED, then the config seed.

    A negative seed is rejected (the config's by ``Config.validate``).
    """
    env = os.environ.get(SEED_ENV)
    if arg_seed is None and env is None:
        return cfg.seed
    source = "--seed" if arg_seed is not None else f"{SEED_ENV}={env!r}"
    try:
        seed = int(arg_seed if arg_seed is not None else env)
    except ValueError:
        raise ValidationError(f"{source} is not an integer") from None
    if seed < 0:
        raise ValidationError(f"{source}: seed must be >= 0")
    return seed


def _structure_from_file(path, fmt):
    if fmt is None:
        fmt = "cif-subset" if path.endswith(".cif") else "structure-json"
    with open(path, "rb") as fh:
        return parse_structure(fh.read(), fmt)


def _rag_store(args):
    """The --rag store, or None without --rag; each flag needs the other."""
    if args.rag != bool(args.store):
        raise ValidationError("--rag and --store go together")
    return EmbeddingStore.load(args.store) if args.rag else None


# -- subcommand bodies -------------------------------------------------------


def cmd_gen_data(args, cfg, seed):
    os.makedirs(args.out, exist_ok=True)
    records = generate_synthetic_records(seed, args.n)
    write_property_records(os.path.join(args.out, "records.jsonl"), records)
    print(f"{len(records)} records -> records.jsonl")
    if len(records) >= 10:
        train, test = split_dataset(records, seed)
        write_property_records(
            os.path.join(args.out, "records_train.jsonl"), train)
        write_property_records(
            os.path.join(args.out, "records_test.jsonl"), test)
        print(f"split {len(records)} -> {len(train)} train / {len(test)} test")
    else:
        train, test = records, []
        print("fewer than 10 records: split skipped, train = all")
    train_samples = build_instruction_corpus(train, seed)
    write_instruction_samples(
        os.path.join(args.out, "samples_train.jsonl"), train_samples)
    print(f"{len(train_samples)} train samples -> samples_train.jsonl")
    if test:
        test_samples = build_instruction_corpus(test, seed)
        write_instruction_samples(
            os.path.join(args.out, "samples_test.jsonl"), test_samples)
        print(f"{len(test_samples)} test samples -> samples_test.jsonl")
    return 0


def cmd_pretrain(args, cfg, seed):
    records = load_property_records(args.records)
    models = build_models(cfg, seed)
    os.makedirs(args.out, exist_ok=True)
    path = pretrain(records, models, cfg, seed=seed, log_path=args.log,
                    ckpt_dir=args.out)
    print(f"pretraining done: {path}")
    return 0


def cmd_finetune(args, cfg, seed):
    records = load_property_records(args.records)
    samples = load_instruction_samples(args.samples)
    os.makedirs(args.out, exist_ok=True)
    path = finetune(samples, records, args.ckpt, cfg, seed=seed,
                    log_path=args.log, ckpt_dir=args.out,
                    allow_config_mismatch=args.allow_config_mismatch)
    print(f"finetuning done: {path}")
    return 0


def cmd_infer(args, cfg, seed):
    if args.task not in TASKS:
        raise ValidationError(
            f"unknown task {args.task!r}; choose from {', '.join(TASKS)}")
    store = _rag_store(args)
    models = restore_models(args.ckpt)
    structure = _structure_from_file(args.structure, args.fmt)
    prompt = render_prompt(args.task, args.template_index)
    # the query is --id, else the file's own material id; retrieval
    # excludes it, and the neighbours' prefixes are their store rows, so
    # no records are read
    query = structure.material_id if args.id is None else args.id
    sample = InstructionSample(query, args.task, prompt, answer="")
    [pred] = predict_samples(models, {query: structure}, [sample], store,
                             args.k, args.max_new)
    if store is None:
        print(pred.answer)
        return 0
    final = pred.value
    if final is None:
        final = pred.answer
    elif args.task in NUMERIC_TASKS:
        final = format_value(final, args.task)
    print(f"self: {pred.answer}")
    print(f"retrieved: {','.join(pred.neighbors)}")
    print(f"final: {final}")
    return 0


def cmd_eval(args, cfg, seed):
    records = load_property_records(args.records)
    samples = load_instruction_samples(args.samples)
    store = _rag_store(args)
    report = evaluate_checkpoint(args.ckpt, records, samples,
                                 rag_store=store, k=args.k,
                                 max_new=args.max_new)
    write_eval_report(args.out, report)
    for task, entry in report.tasks.items():
        print(f"{task}: {entry['metric']}={entry['value']} "
              f"count={entry['count']} parse_errors={entry['parse_errors']}")
    print(f"report written to {args.out}")
    return 0


def cmd_embed(args, cfg, seed):
    models = restore_models(args.ckpt)
    records = load_property_records(args.records)
    if not records:
        raise ValidationError("no records to embed")
    prefixes = material_prefixes([rec.structure for rec in records], models)
    store = EmbeddingStore([rec.material_id for rec in records],
                           prefixes.reshape(len(records), -1),
                           model_fingerprint(models))
    store.save(args.out)
    print(f"wrote {len(store)} embeddings of stride {store.stride} "
          f"to {args.out}")
    return 0


def cmd_retrieve(args, cfg, seed):
    store = EmbeddingStore.load(args.store)
    row = store.row_of(args.query_id)
    if row is None:
        raise ValidationError(
            f"query id {args.query_id!r} not in store")
    query = store.matrix[row]
    exclude = None if args.include_self else args.query_id
    for hit in retrieve_topk(store, query, args.k, exclude_id=exclude):
        print(f"{hit.material_id} {hit.distance!r}")
    return 0


def cmd_similarity(args, cfg, seed):
    records = load_property_records(args.records)
    if args.ids:
        wanted = args.ids.split(",")
        by_id = {r.material_id: r for r in records}
        missing = [w for w in wanted if w not in by_id]
        if missing:
            raise ValidationError(f"unknown material ids: {missing}")
        repeated = sorted({w for w in wanted if wanted.count(w) > 1})
        if repeated:
            raise ValidationError(f"--ids repeats material ids: {repeated}")
        records = [by_id[w] for w in wanted]
    if len(records) < 2:
        raise ValidationError("need at least 2 materials to compare")
    soap_cfg = SoapConfig(r_cut=args.r_cut, n_max=args.n_max,
                          l_max=args.l_max, sigma=args.sigma)
    rem_cfg = RematchConfig(alpha=args.alpha)
    sim = similarity_matrix([r.structure for r in records],
                            soap_cfg=soap_cfg, rematch_cfg=rem_cfg)
    lines = ["id_a,id_b,similarity"]
    for i, ra in enumerate(records):
        for j in range(i, len(records)):
            lines.append(f"{ra.material_id},{records[j].material_id},"
                         f"{float(sim[i, j])!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(text.encode())
        print(f"{len(lines) - 1} pairs -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_project(args, cfg, seed):
    store = EmbeddingStore.load(args.store)
    coords, frac = project_2d_pca(store.matrix)
    lines = ["material_id,x,y"]
    for mid, (x, y) in zip(store.ids, coords):
        lines.append(f"{mid},{float(x)!r},{float(y)!r}")
    with atomic_write(args.out) as fh:
        fh.write(("\n".join(lines) + "\n").encode())
    print(f"projected {len(store)} embeddings -> {args.out}")
    print(f"variance fractions: {float(frac[0])!r} {float(frac[1])!r}")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matterbridge",
        description="crystal-structure instruction tuning at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="JSON config path (defaults built in)")
        p.add_argument("--seed", type=int, default=None,
                       help=f"seed; falls back to ${SEED_ENV}, then config")
        p.set_defaults(fn=fn)
        return p

    p = add("gen-data", cmd_gen_data, "generate a synthetic labeled corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=32)

    p = add("pretrain", cmd_pretrain, "stage-one alignment training")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)

    p = add("finetune", cmd_finetune, "stage-two instruction tuning")
    p.add_argument("--records", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.add_argument("--allow-config-mismatch", action="store_true")

    p = add("infer", cmd_infer, "answer one task for one structure")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--fmt", choices=["structure-json", "cif-subset"],
                   default=None)
    p.add_argument("--task", required=True)
    p.add_argument("--template-index", type=int, default=0)
    p.add_argument("--max-new", type=int, default=None)
    p.add_argument("--rag", action="store_true")
    p.add_argument("--store", default=None)
    p.add_argument("--records", default=None,
                   help="not read: --rag takes neighbour prefixes from "
                        "the --store rows; accepted because command lines "
                        "such as perfbench's infer reads still pass it")
    p.add_argument("--id", default=None,
                   help="store id of the query material, excluded from "
                        "retrieval (default: the structure file's own "
                        "material id)")
    p.add_argument("--k", type=int, default=DEFAULT_RAG_K)

    p = add("eval", cmd_eval, "score a checkpoint and write a report")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-new", type=int, default=None)
    p.add_argument("--rag", action="store_true")
    p.add_argument("--store", default=None)
    p.add_argument("--k", type=int, default=DEFAULT_RAG_K)

    p = add("embed", cmd_embed, "export material embeddings to a store")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)

    p = add("retrieve", cmd_retrieve, "nearest neighbors of a stored material")
    p.add_argument("--store", required=True)
    p.add_argument("--query-id", required=True)
    p.add_argument("--k", type=int, default=DEFAULT_RAG_K)
    p.add_argument("--include-self", action="store_true")

    p = add("similarity", cmd_similarity, "pairwise structural similarity CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--ids", default=None,
                   help="comma-separated material ids (default: all)")
    p.add_argument("--out", default=None)
    p.add_argument("--r-cut", type=float, default=SoapConfig.r_cut)
    p.add_argument("--n-max", type=int, default=SoapConfig.n_max)
    p.add_argument("--l-max", type=int, default=SoapConfig.l_max)
    p.add_argument("--sigma", type=float, default=SoapConfig.sigma)
    p.add_argument("--alpha", type=float, default=RematchConfig.alpha)

    p = add("project", cmd_project, "2D PCA coordinates for a store")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True)

    return parser


def run_cli(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = load_config(args.config) if args.config else Config()
        return args.fn(args, cfg, resolve_seed(args.seed, cfg))
    except (MatterBridgeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
