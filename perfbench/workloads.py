"""The benchmark's three workloads; one runs per fresh process.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out RESULT.json

`run.py` starts this with BLAS pinned to one thread and ``src`` on the
path.  Every user action goes through ``matterbridge.cli.run_cli``
in-process, in a closed loop with one client: the next call starts when
the previous one returns.  Inputs come from ``--seed`` only.  Outputs
are checked after the timed loop, so checks are never timed or traced.

With ``--trace 1`` the loop runs untraced for half the time, then the
same actions again with every public function of the traced modules
wrapped (see `spans.py`); the difference is the tracing overhead.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from matterbridge import cli, datasetgen, evaluate, rag, rematch, trainer
from matterbridge.bridge import bridge_forward, project_to_lm
from matterbridge.crystal import build_graph, structure_to_dict
from matterbridge.encoder import encode_atoms
from matterbridge.errors import MatterBridgeError
from matterbridge.lm import lm_forward
from matterbridge.templates import get_templates, render_prompt
from matterbridge.tensor import Tensor

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CKPT = os.path.join(HERE, "data", "frozen.ckpt")
TRAIN_CONFIG = os.path.join(HERE, "data", "train_config.json")
RAG_K = 2

# Input sizes.  The tests pass smaller ones.
SIZES = {
    # gen-data corpus; its 9:1 split leaves 28 materials / 336 samples
    "train": {"materials": 32},
    # reads query a store of `store` materials; writes embed `shard` of
    # them at a time; the first `oracle` reads are re-decoded by the oracle
    "infer": {"store": 2048, "shard": 512, "oracle": 3},
    # one structure per size 1..9 atoms and target volume per atom (A^3)
    "similarity": {"volumes": (9.0, 18.0), "pool": 1200},
}


class Refused(Exception):
    """The workload cannot run on these inputs; no result is printed."""


@dataclass
class Call:
    """One timed run_cli call."""

    argv: list
    rc: int
    out: str
    err: str
    seconds: float


@dataclass
class Op:
    """One user action of a workload and what its check needs."""

    index: int
    calls: list
    info: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return sum(c.seconds for c in self.calls)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.run_cli(argv)
        seconds = time.perf_counter() - t0
    return Call(list(argv), rc, out.getvalue(), err.getvalue(), seconds)


def call_problem(call):
    if call.rc != 0:
        return f"exit {call.rc}: {call.err.strip()[-200:]}"
    return None


def verify_checkpoint():
    """Refuse to run on a frozen checkpoint whose SHA-256 has changed."""
    with open(CKPT + ".sha256", encoding="utf-8") as fh:
        expected = fh.read().split()[0]
    with open(CKPT, "rb") as fh:
        actual = hashlib.sha256(fh.read()).hexdigest()
    if actual != expected:
        raise Refused(f"{CKPT}: sha256 {actual} != recorded {expected}; "
                      f"regenerate with perfbench/make_checkpoint.py")


def load_frozen_models():
    return trainer.restore_models(trainer.load_checkpoint(CKPT))


def oracle_decode(models, structure, prompt):
    """Greedy answer by a full-recompute argmax loop over lm_forward.

    The reference that generate_answer must match, whatever decoder it
    uses: same prefix, prompt layout, length budget and EOS rule.
    """
    graph = build_graph(structure, cutoff=models.encoder.cutoff)
    atoms = Tensor(encode_atoms(graph, models.encoder))
    prefix = project_to_lm(
        bridge_forward(atoms, None, "inference", models.bridge)["query_out"],
        models.bridge)
    vocab = models.vocab
    ids = [vocab.bos_id] + vocab.tokenize(prompt) + [vocab.sep_id]
    budget = min(evaluate.DEFAULT_MAX_NEW,
                 models.lm.max_len - prefix.shape[0] - len(ids))
    generated = []
    for _ in range(budget):
        nxt = int(np.argmax(lm_forward(prefix, ids, models.lm).data[-1]))
        if nxt == vocab.eos_id:
            break
        generated.append(nxt)
        ids.append(nxt)
    return vocab.detokenize(generated)


def count_lines(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def median_ms(values):
    return 1e3 * statistics.median(values)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Prepares inputs in __init__; act(i) runs action i (timed);
    check(op) returns a problem string or None; finish() runs the
    run-level checks and returns (attempted, failed); metrics(ops)
    returns the end-to-end metrics and the figures."""

    min_ops = 1

    def complete(self, ops):
        """Whether the loop may stop after these actions."""
        return len(ops) >= self.min_ops

    def finish(self):
        return 0, 0


class Train(Workload):
    """gen-data, then `finetune` and `pretrain` calls on its train split.

    Each finetune starts from a pretrain checkpoint made in set-up, and
    PRETRAINS_PER_FINETUNE pretrain calls follow it, so the short pretrain
    calls are sampled across the whole run.
    """

    min_ops = 2  # one finetune and one pretrain
    PRETRAINS_PER_FINETUNE = 2

    def __init__(self, seed, work, sizes):
        self.work = work
        self.base = ["--config", TRAIN_CONFIG, "--seed", str(seed)]
        data = os.path.join(work, "data")
        call = run_cli(["gen-data", "--out", data,
                        "--n", str(sizes["materials"])] + self.base)
        if call_problem(call):
            raise Refused(f"gen-data failed: {call_problem(call)}")
        self.records = os.path.join(data, "records_train.jsonl")
        self.samples = os.path.join(data, "samples_train.jsonl")
        with open(TRAIN_CONFIG, encoding="utf-8") as fh:
            cfg = json.load(fh)
        self.items = count_lines(self.records) * cfg["pretrain_epochs"]
        self.fine_samples = count_lines(self.samples) * cfg["finetune_epochs"]
        self.calls = 0
        start = self.pretrain(os.path.join(work, "start"))
        if call_problem(start):
            raise Refused(f"set-up pretrain failed: {call_problem(start)}")
        self.start = os.path.join(work, "start", "pretrain-final.ckpt")

    def pretrain(self, out):
        return run_cli(["pretrain", "--records", self.records, "--out", out,
                        "--log", os.path.join(out, "pretrain.csv")]
                       + self.base)

    def act(self, i):
        # a fresh directory per call: a traced replay must not overwrite
        # an untraced call's output that is still to be checked
        self.calls += 1
        out = os.path.join(self.work, f"call-{self.calls}")
        if i % (self.PRETRAINS_PER_FINETUNE + 1):
            return Op(i, [self.pretrain(out)], {"out": out,
                                                "stage": "pretrain"})
        call = run_cli(["finetune", "--records", self.records,
                        "--samples", self.samples, "--ckpt", self.start,
                        "--out", out,
                        "--log", os.path.join(out, "finetune.csv")]
                       + self.base)
        return Op(i, [call], {"out": out, "stage": "finetune"})

    def check(self, op):
        out, stage = op.info["out"], op.info["stage"]
        try:
            if call_problem(op.calls[0]):
                return call_problem(op.calls[0])
            with open(os.path.join(out, f"{stage}.csv"), newline="") as fh:
                losses = [float(row["loss"]) for row in csv.DictReader(fh)]
            if not losses or not all(math.isfinite(x) for x in losses):
                return f"{stage} log: missing or non-finite loss"
            ckpt = trainer.load_checkpoint(
                os.path.join(out, f"{stage}-final.ckpt"))
            if ckpt.stage != stage:
                return f"final checkpoint has stage {ckpt.stage!r}"
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def metrics(self, ops):
        pre = [op.seconds for op in ops if op.info["stage"] == "pretrain"]
        fine = [op.seconds for op in ops if op.info["stage"] == "finetune"]
        pretrain_rate = self.items * len(pre) / sum(pre)
        finetune_rate = self.fine_samples * len(fine) / sum(fine)
        return {
            "throughput_per_s": (finetune_rate, "1/s"),
            "latency_p50_ms": (median_ms(pre), "ms"),
        }, {
            "pretrain_items_per_s": (pretrain_rate, "1/s",
                                     f"{self.items} items x {len(pre)} calls"),
            "finetune_samples_per_s": (finetune_rate, "1/s",
                                       f"{self.fine_samples} samples x "
                                       f"{len(fine)} calls"),
        }


class Infer(Workload):
    """Reads: `infer --rag` calls on a seeded store.  Writes: `embed` of
    a shard of the same materials after every few reads."""

    READS_PER_WRITE = 3

    def __init__(self, seed, work, sizes):
        verify_checkpoint()
        self.work = work
        self.pool = datasetgen.generate_synthetic_records(seed, sizes["store"])
        self.records = os.path.join(work, "records.jsonl")
        self.store = os.path.join(work, "store")
        datasetgen.write_property_records(self.records, self.pool)
        build = run_cli(["embed", "--ckpt", CKPT, "--records", self.records,
                         "--out", self.store])
        if call_problem(build):
            raise Refused(f"store build failed: {call_problem(build)}")
        self.build_s = build.seconds
        self.shard = sizes["shard"]
        self.shards = []
        for lo in range(0, len(self.pool), self.shard):
            path = os.path.join(work, f"shard-{len(self.shards)}.jsonl")
            datasetgen.write_property_records(path,
                                              self.pool[lo:lo + self.shard])
            self.shards.append(path)
        self.rng = np.random.default_rng(seed)
        self.queries = []
        self.writes = 0
        self.oracle_size = sizes["oracle"]
        self.oracle = []  # per checked read: own answer == oracle answer
        self.own_parsed = self.own_checked = 0
        self._checker = None

    def query(self, n):
        """Query n of a seeded stream that cycles through the 9 tasks.

        The seed picks the material; the template index is fixed by n,
        so every seed asks the same prompts.
        """
        while len(self.queries) <= n:
            k = len(self.queries)
            task = evaluate.EVAL_TASKS[k % len(evaluate.EVAL_TASKS)]
            rec = self.pool[int(self.rng.integers(len(self.pool)))]
            n_templates = len(get_templates(task).instructions)
            template = (k // len(evaluate.EVAL_TASKS)) % n_templates
            path = os.path.join(self.work, f"{rec.material_id}.json")
            if not os.path.exists(path):
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(structure_to_dict(rec.structure), fh)
            self.queries.append((rec, task, template, path))
        return self.queries[n]

    def complete(self, ops):
        # read latency depends on the task, so a run stops only after a
        # whole cycle through the tasks: every run weighs each task alike
        reads = sum("query" in op.info for op in ops)
        return reads > 0 and reads % len(evaluate.EVAL_TASKS) == 0

    def act(self, i):
        cycle = self.READS_PER_WRITE + 1
        if i % cycle == 0:
            shard = self.shards[(i // cycle) % len(self.shards)]
            # a fresh directory per write: a traced replay must not
            # overwrite a store that is still to be checked
            self.writes += 1
            out = os.path.join(self.work, f"shard-store-{self.writes}")
            return Op(i, [run_cli(["embed", "--ckpt", CKPT,
                                   "--records", shard, "--out", out])],
                      {"store": out, "rows": count_lines(shard)})
        rec, task, template, path = self.query(i - i // cycle - 1)
        call = run_cli(["infer", "--ckpt", CKPT, "--structure", path,
                        "--task", task, "--template-index", str(template),
                        "--rag", "--store", self.store,
                        "--records", self.records, "--id", rec.material_id,
                        "--k", str(RAG_K)])
        return Op(i, [call], {"query": (rec, task, template)})

    def check(self, op):
        call = op.calls[0]
        if call_problem(call):
            return call_problem(call)
        if "store" in op.info:
            try:
                with open(os.path.join(op.info["store"], "store.json")) as fh:
                    count = json.load(fh)["count"]
            finally:
                shutil.rmtree(op.info["store"], ignore_errors=True)
            if count != op.info["rows"]:
                return f"shard store holds {count} of {op.info['rows']} rows"
            return None
        if self._checker is None:
            self._checker = (load_frozen_models(),
                             rag.EmbeddingStore.load(self.store))
        models, store = self._checker
        rec, task, template = op.info["query"]
        lines = dict(line.split(": ", 1)
                     for line in call.out.strip().splitlines()
                     if ": " in line)
        if set(lines) != {"self", "retrieved", "final"}:
            return f"unexpected output {call.out!r}"
        if len(self.oracle) < self.oracle_size:
            prompt = render_prompt(task, template)
            self.oracle.append(
                lines["self"] == oracle_decode(models, rec.structure, prompt))
        hits = rag.retrieve_topk(store, rag.embed_material(rec.structure,
                                                           models),
                                 RAG_K, exclude_id=rec.material_id)
        if lines["retrieved"] != ",".join(h.material_id for h in hits):
            return f"retrieved {lines['retrieved']} != retrieve_topk"
        self.own_checked += 1
        try:
            evaluate.parse_answer_value(lines["self"], task)
        except MatterBridgeError:
            # the model's answer is malformed: infer must print it as is
            if lines["final"] != lines["self"]:
                return "final differs from the unparsed own answer"
            return None
        self.own_parsed += 1
        try:
            evaluate.parse_answer_value(lines["final"], task)
        except MatterBridgeError:
            return f"final answer for {task} does not parse: {lines['final']!r}"
        return None

    def finish(self):
        return len(self.oracle), self.oracle.count(False)

    def metrics(self, ops):
        writes = [op for op in ops if "store" in op.info]
        reads = [op.seconds for op in ops if "query" in op.info]
        embed_rate = (sum(op.info["rows"] for op in writes)
                      / sum(op.seconds for op in writes))
        return {
            "throughput_per_s": (embed_rate, "1/s"),
            "latency_p50_ms": (median_ms(reads), "ms"),
        }, {
            "embed_materials_per_s": (embed_rate, "1/s",
                                      f"{len(writes)} calls of "
                                      f"{self.shard} materials"),
            "infer_p50_ms": (median_ms(reads), "ms",
                             f"n={len(reads)} calls, store of "
                             f"{len(self.pool)}"),
            "answer_match_share": (
                self.oracle.count(True) / max(len(self.oracle), 1), "share",
                f"{len(self.oracle)} reads re-decoded by the oracle"),
            "own_answer_parse_share": (
                self.own_parsed / max(self.own_checked, 1), "share",
                f"{self.own_parsed} of {self.own_checked} infer calls"),
            "store_build_s": (self.build_s, "s",
                              f"set-up embed of {len(self.pool)} materials"),
        }


class Similarity(Workload):
    """`similarity` at CLI defaults over seeded 1-9 atom structures."""

    def __init__(self, seed, work, sizes):
        # SOAP's cost grows with atoms, with the species around each atom
        # and with the neighbours inside r_cut.  So each seed takes, for
        # every size of 1..9 atoms, the structures whose volume per atom
        # is nearest to fixed targets among those with a fixed number of
        # elements: every seed does about the same amount of work.
        pool = datasetgen.generate_synthetic_records(seed, sizes["pool"])
        chosen = []
        for n_atoms in range(1, 10):
            n_elements = (n_atoms + 2) // 3
            same = [r for r in pool if r.structure.n_atoms == n_atoms
                    and len(set(r.structure.species)) == n_elements]
            for target in sizes["volumes"]:
                same.sort(key=lambda r: abs(
                    r.structure.volume / n_atoms - target))
                if not same:
                    raise Refused(f"seed {seed}: pool lacks {n_atoms}-atom "
                                  f"structures of {n_elements} elements")
                chosen.append(same.pop(0))
        self.chosen = chosen
        self.records = os.path.join(work, "records.jsonl")
        self.out = os.path.join(work, "similarity.csv")
        datasetgen.write_property_records(self.records, chosen)
        rng = np.random.default_rng(seed)
        a, b = sorted(rng.choice(len(chosen), 2, replace=False))
        self.pair = (int(a), int(b))
        self._reference = None

    @property
    def pairs(self):
        n = len(self.chosen)
        return n * (n - 1) // 2

    def act(self, i):
        return Op(i, [run_cli(["similarity", "--records", self.records,
                               "--out", self.out])])

    def check(self, op):
        call = op.calls[0]
        if call_problem(call):
            return call_problem(call)
        ids = [r.material_id for r in self.chosen]
        with open(self.out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        n = len(ids)
        if len(rows) != n * (n + 1) // 2:
            return f"{len(rows)} rows for {n} materials"
        sim = {}
        for row in rows:
            value = float(row["similarity"])
            if not 0.0 <= value <= 1.0 + 1e-12:
                return f"similarity {value!r} outside [0, 1]"
            sim[row["id_a"], row["id_b"]] = value
        for m in ids:
            if abs(sim[m, m] - 1.0) > 1e-12:
                return f"diagonal {sim[m, m]!r} for {m}"
        a, b = (self.chosen[k] for k in self.pair)
        if self._reference is None:
            self._reference = (
                rematch.rematch_similarity(a.structure, b.structure),
                rematch.rematch_similarity(b.structure, a.structure))
        forward, backward = self._reference
        got = sim[a.material_id, b.material_id]
        if got != forward or abs(forward - backward) > 1e-12:
            return (f"pair {a.material_id},{b.material_id}: {got!r} vs "
                    f"rematch_similarity {forward!r} / {backward!r}")
        return None

    def metrics(self, ops):
        times = [op.seconds for op in ops]
        rate = self.pairs * len(times) / sum(times)
        return {
            "throughput_per_s": (rate, "1/s"),
            "latency_p50_ms": (median_ms(times), "ms"),
        }, {
            "similarity_pairs_per_s": (rate, "1/s",
                                       f"{self.pairs} pairs of "
                                       f"{len(self.chosen)} structures x "
                                       f"{len(times)} calls"),
        }


WORKLOADS = {"train": Train, "infer": Infer, "similarity": Similarity}


# ---------------------------------------------------------------------------
# the loop


def measure(workload, seconds=None, count=None, tracer=None):
    """Run actions 0, 1, ... until `seconds` of them or `count` of them."""
    ops = []
    busy = 0.0
    while True:
        if count is not None and len(ops) >= count:
            break
        if count is None and busy >= seconds and workload.complete(ops):
            break
        if tracer is not None:
            tracer.rid = len(ops) + 1
        op = workload.act(len(ops))
        ops.append(op)
        busy += op.seconds
    return ops


def environment():
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def blas_threads():
    """Thread count numpy's bundled OpenBLAS reports, or None."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run(name, seed, seconds, trace, work, sizes=None):
    """Run one workload; returns the result record run.py prints."""
    sizes = (sizes or SIZES)[name]
    os.makedirs(work, exist_ok=True)
    workload = WORKLOADS[name](seed, work, sizes)
    metrics = {}
    tracer = None
    if trace:
        plain = measure(workload, seconds=seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = measure(workload, count=len(plain), tracer=tracer)
        finally:
            tracer.uninstall()
        timed, ops = plain, plain + traced
        plain_s = sum(op.seconds for op in plain)
        traced_s = sum(op.seconds for op in traced)
        for key, (value, unit) in spans.layer_metrics(
                tracer.spans, sum("query" in op.info for op in traced),
                RAG_K).items():
            metrics[key] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {"value": traced_s - plain_s,
                                       "unit": "s"}
        metrics["trace.overhead_share"] = {
            "value": (traced_s - plain_s) / plain_s, "unit": "share"}
    else:
        timed = ops = measure(workload, seconds=seconds)
    # before the checks, which load models and stores of their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = [(op.index, workload.check(op)) for op in ops]
    failed = [(i, p) for i, p in problems if p]
    extra_attempted, extra_failed = workload.finish()
    end_to_end, figures = workload.metrics(timed)
    if not trace:
        for key, (value, unit) in end_to_end.items():
            metrics[key] = {"value": value, "unit": unit}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    attempted = len(ops) + extra_attempted
    n_failed = len(failed) + extra_failed
    figures["failed_share"] = (n_failed / attempted, "share",
                               f"{n_failed} of {attempted} operations")
    return {
        "workload": name,
        "seed": seed,
        "trace": bool(trace),
        "measured_s": sum(op.seconds for op in timed),
        "calls": [[c.argv[0], c.seconds] for op in timed for c in op.calls],
        "attempted": attempted,
        "failed": n_failed,
        "problems": [f"action {i}: {p}" for i, p in failed],
        "metrics": metrics,
        "figures": {k: {"value": v, "unit": u, "basis": b}
                    for k, (v, u, b) in figures.items()},
        "environment": environment(),
        "spans": tracer.spans if tracer else [],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace,
                     args.work)
    except Refused as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    span_list = result.pop("spans")
    if span_list:
        result["spans_file"] = os.path.splitext(args.out)[0] + ".spans.jsonl"
        spans.write_jsonl(span_list, result["spans_file"])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
