"""Release acceptance gate: one test per numbered release criterion.

Each test prints exactly one visible ``[criterion NN] PASS/FAIL`` line
(through capsys.disabled, so the line survives output capture) and then
asserts the bound it reports.  Criteria 3 and 8 share one overfit
training run through a module-scoped fixture; its configuration lives
in configs/overfit.json so the same run can be reproduced from the
command line.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import matterbridge
from matterbridge.cli import run_cli
from matterbridge.config import Config, load_config, save_config
from matterbridge.crystal import Structure, neighbor_list_pbc, structure_to_dict
from matterbridge.datasetgen import (
    build_instruction_corpus,
    generate_synthetic_records,
    split_dataset,
    write_property_records,
)
from matterbridge.evaluate import (
    evaluate_checkpoint,
    parse_answer_value,
    predict_samples,
)
from matterbridge.fixtures import build_fixture_corpus
from matterbridge.objectives import (
    association_loss,
    contrastive_loss,
    finetune_loss,
    hard_negative_sample,
    lm_token_loss,
    sim_matrix,
)
from matterbridge.rag import EmbeddingStore, rag_aggregate, retrieve_topk
from matterbridge.rematch import RematchConfig, rematch_score, rematch_similarity, sinkhorn_transport
from matterbridge.soap import SoapConfig, soap_descriptor
from matterbridge.templates import (
    NUMERIC_TASKS,
    format_value,
    get_templates,
    render_answer,
)
from matterbridge.tensor import (Tensor, affine, attention, concat,
                                 embedding, gelu, layer_norm)
from matterbridge.trainer import (
    _bridge_text_ids,
    _finetune_micro_step,
    _finetune_sample_terms,
    _pretrain_micro_step,
    adamw_step,
    build_models,
    caption_for,
    encode_structure,
    finetune,
    finetune_sequences,
    init_optim_state,
    lr_schedule,
    pretrain,
    restore_models,
    trainable_tensors,
    zero_grads,
)
from matterbridge.bridge import bridge_forward, match_score, text_logits

from helpers import (joint_pretrain_loss, random_structure,
                     supercell_neighbor_list)
from test_soap import special_orthogonal

REPO_ROOT = Path(__file__).resolve().parent.parent
OVERFIT_CONFIG = REPO_ROOT / "configs" / "overfit.json"

CLASSIFICATION_TASKS = (
    "is_metal", "direct_bandgap", "stability",
    "exp_observed", "is_magnetic", "magnetic_order",
)


class _Criterion:
    """Prints the one-line verdict for a criterion when the block exits."""

    def __init__(self, capsys, idx):
        self.capsys = capsys
        self.idx = idx
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        state = "PASS" if exc_type is None else "FAIL"
        with self.capsys.disabled():
            print(f"[criterion {self.idx:02d}] {state} {self.detail}".rstrip(),
                  flush=True)
        return False


# ---------------------------------------------------------------------------
# criterion 1: finite-difference gradients through every trainable tensor


def _fd_slope(build, tensor, flat_idx, h=1e-5):
    flat = tensor.data.reshape(-1)
    orig = flat[flat_idx]
    flat[flat_idx] = orig + h
    fp = build().item()
    flat[flat_idx] = orig - h
    fm = build().item()
    flat[flat_idx] = orig
    return (fp - fm) / (2.0 * h)


def _batched_ops_case(seed=5):
    """Leaves and a scalar loss through the ops decoding runs batched.

    Every op whose shape rule takes leading batch axes sees a 3-D input:
    embedding of (B, T) ids, concat on axis -2, broadcasting + and *,
    layer_norm, affine, attention, gelu, ellipsis slicing and matmul.
    """
    rng = np.random.default_rng(seed)
    b, n, t, d, v = 2, 2, 3, 4, 5
    shapes = {"table": (v, d), "prefix": (b, n, d), "pos": (n + t, d),
              "gain": (b, n + t, 1), "gamma": (d,), "beta": (d,),
              "w1": (d, 2 * d), "b1": (2 * d,)}
    for name in ("q", "k", "v"):
        shapes[f"w{name}"], shapes[f"b{name}"] = (d, d), (d,)
    leaves = {name: Tensor(rng.standard_normal(shape), requires_grad=True)
              for name, shape in shapes.items()}
    ids = rng.integers(0, v, size=(b, t))
    p = leaves

    def loss():
        x = concat([p["prefix"], embedding(p["table"], ids)], axis=-2)
        h = layer_norm((x + p["pos"]) * p["gain"], p["gamma"], p["beta"])
        q, k, val = (affine(h, p[f"w{m}"], p[f"b{m}"]) for m in "qkv")
        a = attention(q, k, val, 2, np.tri(n + t, dtype=bool))
        y = gelu(affine(a, p["w1"], p["b1"]))
        logits = y[..., n:, :d] @ p["table"].T
        return (logits * logits).sum()

    return leaves, loss


def test_criterion_01_gradient_suite(capsys):
    with _Criterion(capsys, 1) as r:
        t0 = time.perf_counter()
        cfg = Config(d_enc=12, L_enc=1, d_b=16, n_q=4, L_b=2, n_heads=2,
                     d_lm=24, L_lm=1, lm_heads=2)
        models = build_models(cfg, seed=11)
        records = generate_synthetic_records(seed=17, n=2)
        atoms = [encode_structure(rec.structure, models) for rec in records]
        ids = [_bridge_text_ids(models.vocab, caption_for(rec, 17))
               for rec in records]
        pairs = list(zip(atoms, ids))

        def correlation_features():
            feats, texts = [], []
            for a, i in pairs:
                out = bridge_forward(a, i, "correlation", models.bridge)
                feats.append(out["query_out"])
                texts.append(out["text_out"][0:1])
            return feats, concat(texts, axis=0)

        def loss_contrastive():
            feats, texts = correlation_features()
            return contrastive_loss(sim_matrix(feats, texts), tau=cfg.tau,
                                    symmetric=cfg.symmetric_contrastive)

        def loss_token():
            total = None
            for a, i in pairs:
                out = bridge_forward(a, i, "prediction", models.bridge)
                logits = text_logits(out["text_out"], models.bridge)
                targets = np.array(i[1:] + [models.vocab.eos_id],
                                   dtype=np.int64)
                term = lm_token_loss(logits, targets)
                total = term if total is None else total + term
            return total

        # negatives frozen up front so the closure stays smooth under
        # parameter perturbation (with two pairs the draw is forced anyway)
        feats, texts = correlation_features()
        base = sim_matrix(feats, texts).data
        text_negs, graph_negs = hard_negative_sample(base, 17)

        def loss_match():
            scores, labels = [], []
            for i in range(2):
                out = bridge_forward(pairs[i][0], pairs[i][1], "association",
                                     models.bridge)
                scores.append(match_score(out["query_out"], models.bridge))
                labels.append(1.0)
            for i in range(2):
                out = bridge_forward(pairs[i][0], pairs[text_negs[i]][1],
                                     "association", models.bridge)
                scores.append(match_score(out["query_out"], models.bridge))
                labels.append(0.0)
            for i in range(2):
                out = bridge_forward(pairs[graph_negs[i]][0], pairs[i][1],
                                     "association", models.bridge)
                scores.append(match_score(out["query_out"], models.bridge))
                labels.append(0.0)
            scores = [s.reshape((1,)) for s in scores]
            return association_loss(concat(scores), np.array(labels))

        corpus = build_instruction_corpus(records, seed=17)
        by_mat = {}
        for sample in corpus:
            by_mat.setdefault(sample.material_id, sample)
        entries = []
        for sample in by_mat.values():
            rec_atoms = atoms[[r_.material_id for r_ in records]
                              .index(sample.material_id)]
            inputs, targets, mask = finetune_sequences(sample, models.vocab)
            entries.append((rec_atoms, inputs, targets, mask))

        def loss_instruction():
            terms = [_finetune_sample_terms(e, models) for e in entries]
            return finetune_loss(terms)

        params = trainable_tensors(models)
        builders = {
            "contrastive": loss_contrastive,
            "token": loss_token,
            "match": loss_match,
            "instruction": loss_instruction,
        }
        batched_leaves, loss_batched = _batched_ops_case()
        covered = set()
        worst = 0.0
        for loss_name, build, tensors in (
                [(name, b, params) for name, b in builders.items()]
                + [("batched ops", loss_batched, batched_leaves)]):
            zero_grads(tensors)
            build().backward()
            touched = {k: t for k, t in tensors.items() if t.grad is not None}
            assert touched, f"{loss_name} reached no trainable tensor"
            if tensors is params:
                covered |= set(touched)
            else:
                assert set(touched) == set(tensors), loss_name
            for name, t in touched.items():
                grad = t.grad.reshape(-1)
                order = np.argsort(-np.abs(grad))[:3]
                for flat_idx in order:
                    analytic = grad[flat_idx]
                    fd = _fd_slope(build, t, int(flat_idx))
                    where = f"{loss_name} d/d{name}[{flat_idx}]"
                    if max(abs(analytic), abs(fd)) >= 1e-4:
                        rel = abs(analytic - fd) / (abs(analytic) + abs(fd))
                        assert rel < 1e-4, (
                            f"{where}: analytic {analytic:.3e} vs fd "
                            f"{fd:.3e} (rel {rel:.2e})")
                        worst = max(worst, rel)
                    else:
                        # below the resolution of central differences
                        # (noise ~ eps * loss / h); includes directions the
                        # loss is exactly flat in, like attention key biases
                        assert abs(analytic - fd) < 1e-6, (
                            f"{where}: near-zero slope mismatch "
                            f"{analytic:.3e} vs {fd:.3e}")
        missing = sorted(set(params) - covered)
        assert not missing, f"no loss reaches {missing}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
        r.detail = (f"4 losses x {len(params)} tensors + "
                    f"{len(batched_leaves)} batched-op leaves, worst rel "
                    f"{worst:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: closed-form loss values


def test_criterion_02_closed_form_losses(capsys):
    with _Criterion(capsys, 2) as r:
        rng = np.random.default_rng(2)
        single_q = [Tensor(rng.standard_normal((1, 4)))]
        single_t = Tensor(rng.standard_normal((1, 4)))
        lone = contrastive_loss(sim_matrix(single_q, single_t),
                                tau=0.07).item()
        assert lone == 0.0

        u = rng.standard_normal(6)
        qs = [Tensor(u[None, :].copy()) for _ in range(4)]
        ts = Tensor(np.repeat(u[None, :], 4, axis=0))
        uniform = contrastive_loss(sim_matrix(qs, ts), tau=0.07).item()
        assert abs(uniform - 4.0 * math.log(4.0)) < 1e-9

        T, V = 7, 13
        logits = Tensor(np.zeros((T, V)))
        targets = rng.integers(0, V, size=T)
        lm = lm_token_loss(logits, targets).item()
        assert abs(lm - T * math.log(V)) < 1e-9

        n = 6
        scores = Tensor(np.full(n, 0.5))
        labels = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        bce = association_loss(scores, labels).item()
        assert abs(bce - n * math.log(2.0)) < 1e-9
        r.detail = (f"single-pair 0, uniform {uniform:.9f} ~ 4ln4, "
                    f"lm {lm:.9f} ~ {T}ln{V}, bce {bce:.9f} ~ {n}ln2")


# ---------------------------------------------------------------------------
# criteria 3 and 8 share one overfit run on the shipped fixture corpus


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("overfit")
    cfg = load_config(OVERFIT_CONFIG)
    records, samples = build_fixture_corpus()
    t0 = time.perf_counter()
    models = build_models(cfg, cfg.seed)
    pre = pretrain(records, models, cfg, ckpt_dir=str(root))
    ckpt = finetune(samples, records, pre, cfg, ckpt_dir=str(root))
    train_s = time.perf_counter() - t0
    report = evaluate_checkpoint(ckpt, records, samples)
    total_s = time.perf_counter() - t0
    ckpt_path = root / "finetune-final.ckpt"
    assert ckpt_path.is_file()
    return SimpleNamespace(cfg=cfg, records=records, samples=samples,
                           ckpt=ckpt, ckpt_path=ckpt_path, report=report,
                           train_s=train_s, total_s=total_s, root=root)


def test_criterion_03_overfit_run(capsys, overfit_run):
    with _Criterion(capsys, 3) as r:
        report = overfit_run.report
        assert set(report.tasks) == set(CLASSIFICATION_TASKS) | set(NUMERIC_TASKS)
        worst_rmse = 0.0
        for task in CLASSIFICATION_TASKS:
            cell = report.tasks[task]
            assert cell["count"] == 32
            assert cell["value"] == 1.0, f"{task} accuracy {cell['value']}"
        for task in NUMERIC_TASKS:
            cell = report.tasks[task]
            assert cell["count"] == 32
            assert cell["parse_errors"] == 0
            assert cell["value"] < 0.01, f"{task} rmse {cell['value']}"
            worst_rmse = max(worst_rmse, cell["value"])
        assert overfit_run.total_s < 900.0, (
            f"overfit run took {overfit_run.total_s:.0f}s")
        r.detail = (f"6 tasks at accuracy 1.0, worst rmse {worst_rmse:.5f}, "
                    f"train {overfit_run.train_s:.0f}s + eval, total "
                    f"{overfit_run.total_s:.0f}s < 900s")


# ---------------------------------------------------------------------------
# criterion 4: split arithmetic at full corpus scale


def test_criterion_04_split_arithmetic(capsys):
    with _Criterion(capsys, 4) as r:
        ids = list(range(142899))
        train, test = split_dataset(ids, seed=123)
        assert len(train) == 128609
        assert len(test) == 14290
        assert len(train) + len(test) == len(ids)
        assert set(train).isdisjoint(test)
        r.detail = "142899 -> 128609 train / 14290 test"


# ---------------------------------------------------------------------------
# criterion 5: periodic neighbor lists against brute-force enumeration


def test_criterion_05_neighbor_list_oracle(capsys):
    with _Criterion(capsys, 5) as r:
        rng = np.random.default_rng(505)
        pairs_checked = 0
        for _ in range(50):
            s = random_structure(rng, n_min=1, n_max=6)
            cutoff = float(rng.uniform(2.0, 4.5))
            i, j, off, d = neighbor_list_pbc(s, cutoff)
            got = sorted(zip(i.tolist(), j.tolist(),
                             map(tuple, off.tolist()), d.tolist()))
            want = supercell_neighbor_list(s, cutoff)
            assert [g[:3] for g in got] == [w[:3] for w in want]
            np.testing.assert_allclose([g[3] for g in got],
                                       [w[3] for w in want],
                                       rtol=0, atol=1e-9)
            pairs_checked += len(got)
        r.detail = f"50 structures, {pairs_checked} pairs, exact + 1e-9"


# ---------------------------------------------------------------------------
# criterion 6: SOAP descriptor invariances at full parameters


def test_criterion_06_soap_invariance(capsys):
    with _Criterion(capsys, 6) as r:
        cfg = SoapConfig(r_cut=6.0, n_max=8, l_max=6)
        rng = np.random.default_rng(606)
        worst = 0.0
        for _ in range(20):
            s = random_structure(rng, n_min=2, n_max=5)
            base = soap_descriptor(s, cfg)

            shift = rng.uniform(0.0, 1.0, 3)
            moved = Structure(s.material_id, s.lattice, s.species,
                              (s.frac_coords + shift) % 1.0)
            dev_t = np.max(np.abs(base - soap_descriptor(moved, cfg)))

            q = special_orthogonal(rng)
            rotated = Structure(s.material_id, s.lattice @ q, s.species,
                                s.frac_coords)
            dev_r = np.max(np.abs(base - soap_descriptor(rotated, cfg)))

            perm = rng.permutation(len(s.species))
            mixed = Structure(s.material_id, s.lattice,
                              [s.species[k] for k in perm],
                              s.frac_coords[perm])
            dev_p = np.max(np.abs(base[perm] - soap_descriptor(mixed, cfg)))

            worst = max(worst, dev_t, dev_r, dev_p)
            assert max(dev_t, dev_r, dev_p) < 1e-8
        r.detail = f"20 structures, worst deviation {worst:.2e} < 1e-8"


# ---------------------------------------------------------------------------
# criterion 7: transport marginals and kernel properties


def test_criterion_07_transport_and_kernel(capsys):
    with _Criterion(capsys, 7) as r:
        rng = np.random.default_rng(707)
        worst_marg = 0.0
        for n, m in ((1, 4), (3, 3), (5, 2), (7, 6)):
            C = rng.uniform(0.0, 1.0, (n, m))
            P = sinkhorn_transport(C)
            assert P.min() >= 0.0
            row = np.max(np.abs(P.sum(axis=1) - 1.0 / n))
            col = np.max(np.abs(P.sum(axis=0) - 1.0 / m))
            worst_marg = max(worst_marg, row, col)
            assert row <= 1e-6 and col <= 1e-6

        a = random_structure(rng, n_min=2, n_max=5)
        b = random_structure(rng, n_min=2, n_max=5)
        self_sim = rematch_similarity(a, a)
        assert abs(self_sim - 1.0) <= 1e-10
        ab = rematch_similarity(a, b)
        ba = rematch_similarity(b, a)
        assert abs(ab - ba) <= 1e-10

        desc_a = soap_descriptor(a)
        desc_b = soap_descriptor(b)
        C = np.clip(desc_a @ desc_b.T, 0.0, 1.0)
        wide = rematch_score(desc_a, desc_b, RematchConfig(alpha=100.0))
        assert abs(wide - C.mean()) <= 1e-4
        r.detail = (f"marginals {worst_marg:.1e}, self-sim 1, "
                    f"|K(a,b)-K(b,a)| {abs(ab - ba):.1e}, "
                    f"alpha=100 vs mean(C) {abs(wide - C.mean()):.1e}")


# ---------------------------------------------------------------------------
# criterion 8: retrieval-augmented inference equals the composed aggregate


_REPLAY_SCRIPT = """
import contextlib, io, json, sys
from matterbridge.cli import run_cli
results = []
with open(sys.argv[1], encoding="utf-8") as fh:
    calls = json.load(fh)
for argv in calls:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run_cli(argv)
    results.append([rc, out.getvalue()])
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump(results, fh)
"""


class _CliReplay:
    """run_cli over a list of argvs in a child interpreter.

    The child starts on entry and runs while the block does; on exit
    ``results`` holds one (exit code, stdout) pair per argv.
    """

    def __init__(self, calls, workdir):
        self.calls_path = workdir / "replay_calls.json"
        self.results_path = workdir / "replay_results.json"
        self.calls_path.write_text(json.dumps(calls), encoding="utf-8")
        self.results = None

    def __enter__(self):
        src = str(Path(matterbridge.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _REPLAY_SCRIPT,
             str(self.calls_path), str(self.results_path)], env=env)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.proc.kill()
            self.proc.wait()
            return False
        assert self.proc.wait() == 0, "cli replay interpreter failed"
        self.results = [tuple(pair) for pair in json.loads(
            self.results_path.read_text(encoding="utf-8"))]
        return False


def test_criterion_08_rag_mechanics(capsys, overfit_run):
    with _Criterion(capsys, 8) as r:
        assert rag_aggregate("metal", ["metal", "non-metal"],
                             "classification") == "metal"
        assert abs(rag_aggregate(0.1, [0.2, 0.3], "numeric") - 0.2) < 1e-12
        assert rag_aggregate("A", ["B"], "classification") == "A"

        root = overfit_run.root
        records_path = root / "records.jsonl"
        write_property_records(records_path, overfit_run.records)
        store_path = root / "store.bin"
        rc = run_cli(["embed", "--ckpt", str(overfit_run.ckpt_path),
                      "--records", str(records_path),
                      "--out", str(store_path)])
        assert rc == 0
        capsys.readouterr()

        structure_files = {}
        for rec in overfit_run.records:
            path = root / f"{rec.material_id}.json"
            path.write_text(json.dumps(structure_to_dict(rec.structure)))
            structure_files[rec.material_id] = path

        store = EmbeddingStore.load(str(store_path))
        models = restore_models(overfit_run.ckpt)
        structures = {r.material_id: r.structure for r in overfit_run.records}
        scoreable = [s for s in overfit_run.samples
                     if s.task in CLASSIFICATION_TASKS + NUMERIC_TASKS]
        assert len(scoreable) == 288
        calls = []
        for sample in scoreable:
            template_idx = get_templates(sample.task).instructions.index(
                sample.prompt)
            calls.append(["infer",
                          "--ckpt", str(overfit_run.ckpt_path),
                          "--structure", str(structure_files[sample.material_id]),
                          "--task", sample.task,
                          "--template-index", str(template_idx),
                          "--rag",
                          "--store", str(store_path),
                          "--records", str(records_path),
                          "--id", sample.material_id])
        # The CLI calls replay in a second interpreter while this one
        # composes the expected lines from the library.
        with _CliReplay(calls, root) as replay:
            preds = predict_samples(models, structures, scoreable, store, k=2)
            expected_ids = [",".join(h.material_id for h in retrieve_topk(
                store, store.matrix[store.ids.index(sample.material_id)], 2,
                exclude_id=sample.material_id)) for sample in scoreable]
        for sample, (rc, out), pred, ids in zip(
                scoreable, replay.results, preds, expected_ids, strict=True):
            assert rc == 0
            lines = dict(line.split(": ", 1)
                         for line in out.strip().splitlines())
            assert lines["self"] == pred.answer
            assert lines["retrieved"] == ids
            assert pred.value is not None
            if sample.task in NUMERIC_TASKS:
                assert lines["final"] == format_value(pred.value, sample.task)
            else:
                assert lines["final"] == pred.value
        r.detail = (f"{len(scoreable)} samples: cli output equals composed "
                    f"top-2 aggregate; unit votes/means hold")


# ---------------------------------------------------------------------------
# criterion 9: schedule endpoints, optimizer hand value, accumulation


def test_criterion_09_schedule_and_optimizer(capsys):
    with _Criterion(capsys, 9) as r:
        cfg = Config()
        assert lr_schedule(0, 1000, 50, "pretrain", cfg) == 1e-6
        assert lr_schedule(50, 1000, 50, "pretrain", cfg) == 2e-4
        assert lr_schedule(0, 1000, 50, "finetune", cfg) == 1e-6
        assert lr_schedule(1000, 1000, 50, "finetune", cfg) == 1e-5

        hand_cfg = Config(eps=0.0)
        p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        p["w"].grad = np.array([1.0])
        state = init_optim_state(p)
        adamw_step(p, state, step=1, lr=0.1, cfg=hand_cfg)
        assert abs(p["w"].data[0] - 0.895) < 1e-12

        acc_cfg = Config(d_enc=12, L_enc=1, d_b=16, n_q=4, L_b=2, n_heads=2,
                         d_lm=24, L_lm=1, lm_heads=2)
        records = generate_synthetic_records(seed=31, n=8)

        def pretrain_grads(split):
            models = build_models(acc_cfg, seed=5)
            pairs = []
            for rec in records:
                atoms = encode_structure(rec.structure, models)
                ids = _bridge_text_ids(models.vocab, caption_for(rec, 5))
                pairs.append((atoms, ids))
            params = trainable_tensors(models)
            zero_grads(params)
            if split:
                for half in (pairs[:4], pairs[4:]):
                    _pretrain_micro_step(half, models, acc_cfg, 3)
            else:
                la, _ = joint_pretrain_loss(pairs[:4], models, acc_cfg, 3)
                lb, _ = joint_pretrain_loss(pairs[4:], models, acc_cfg, 3)
                (la + lb).backward()
            return {k: t.grad.copy() for k, t in params.items()
                    if t.grad is not None}

        a = pretrain_grads(split=True)
        b = pretrain_grads(split=False)
        assert set(a) == set(b)
        for key in a:
            np.testing.assert_allclose(a[key], b[key], rtol=0, atol=1e-10)

        models = build_models(acc_cfg, seed=5)
        corpus = build_instruction_corpus(records[:1], seed=2)[:8]
        by_id = {rec.material_id: rec for rec in records}
        entries = []
        for sample in corpus:
            atoms = encode_structure(by_id[sample.material_id].structure,
                                     models)
            inputs, targets, mask = finetune_sequences(sample, models.vocab)
            entries.append((atoms, inputs, targets, mask))
        params = trainable_tensors(models)

        zero_grads(params)
        for chunk in (entries[:4], entries[4:]):
            _finetune_micro_step(chunk, models, 2)
        split_grads = {k: t.grad.copy() for k, t in params.items()
                       if t.grad is not None}
        zero_grads(params)
        terms = [_finetune_sample_terms(e, models) for e in entries]
        finetune_loss(terms).backward()
        joint_grads = {k: t.grad.copy() for k, t in params.items()
                       if t.grad is not None}
        assert set(split_grads) == set(joint_grads)
        for key in split_grads:
            np.testing.assert_allclose(split_grads[key], joint_grads[key],
                                       rtol=0, atol=1e-10)
        r.detail = ("endpoints 1e-6/2e-4/1e-5 exact, adamw 0.895 within "
                    "1e-12, both accumulation routes within 1e-10")


# ---------------------------------------------------------------------------
# criterion 10: template fidelity and numeric round trips


def test_criterion_10_template_fidelity(capsys):
    with _Criterion(capsys, 10) as r:
        records, samples = build_fixture_corpus()
        by_id = {rec.material_id: rec for rec in records}
        assert len(samples) == 384
        for sample in samples:
            group = get_templates(sample.task)
            assert sample.prompt in group.instructions
            renders = [render_answer(by_id[sample.material_id], sample.task, k)
                       for k in range(len(group.answers))]
            assert sample.answer in renders

        rng = np.random.default_rng(1010)
        worst = 0.0
        for task in ("bandgap", "formation_energy"):
            values = rng.uniform(-50.0, 50.0, 5000)
            for value in values:
                parsed = parse_answer_value(format_value(value, task), task)
                worst = max(worst, abs(parsed - value))
        assert worst <= 5e-6
        r.detail = (f"384 samples template-exact; 10^4 round trips, worst "
                    f"error {worst:.2e} <= 5e-6")


# ---------------------------------------------------------------------------
# criterion 11: end-to-end pipeline determinism


def _pipeline_run(root, seed):
    root.mkdir(parents=True, exist_ok=True)
    cfg_path = root / "config.json"
    data = root / "data"
    ckpts = root / "ckpts"
    report = root / "report.json"
    cfg = Config(d_enc=12, L_enc=1, d_b=16, n_q=4, L_b=2, n_heads=2,
                 d_lm=32, L_lm=1, lm_heads=2, batch_size=4,
                 pretrain_accum=1, finetune_accum=1,
                 pretrain_epochs=1, finetune_epochs=1)
    save_config(cfg_path, cfg)
    base = ["--config", str(cfg_path), "--seed", str(seed)]
    assert run_cli(["gen-data", "--out", str(data), "--n", "14"] + base) == 0
    assert run_cli(["pretrain", "--records", str(data / "records_train.jsonl"),
                    "--out", str(ckpts)] + base) == 0
    assert run_cli(["finetune", "--records", str(data / "records_train.jsonl"),
                    "--samples", str(data / "samples_train.jsonl"),
                    "--ckpt", str(ckpts / "pretrain-final.ckpt"),
                    "--out", str(ckpts)] + base) == 0
    assert run_cli(["eval", "--ckpt", str(ckpts / "finetune-final.ckpt"),
                    "--records", str(data / "records_test.jsonl"),
                    "--samples", str(data / "samples_test.jsonl"),
                    "--out", str(report)] + base) == 0
    return {
        "checkpoints": {p.name: p.read_bytes()
                        for p in sorted(ckpts.glob("*.ckpt"))},
        "report": report.read_bytes(),
    }


def test_criterion_11_pipeline_determinism(capsys, tmp_path):
    with _Criterion(capsys, 11) as r:
        first = _pipeline_run(tmp_path / "run-a", seed=777)
        second = _pipeline_run(tmp_path / "run-b", seed=777)
        capsys.readouterr()
        assert set(first["checkpoints"]) == set(second["checkpoints"])
        assert len(first["checkpoints"]) >= 2
        for name, blob in first["checkpoints"].items():
            assert blob == second["checkpoints"][name], (
                f"checkpoint {name} differs between identical runs")
        assert first["report"] == second["report"]
        report = json.loads(first["report"])
        assert set(report) == {"config_hash", "rag", "n_samples", "tasks"}
        r.detail = (f"{len(first['checkpoints'])} checkpoints byte-identical "
                    f"across runs; reports identical")
