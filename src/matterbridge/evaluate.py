"""Answer parsing, task metrics, PCA projection, and report assembly.

Evaluation decodes an answer for every instruction sample with greedy
generation, parses the decoded sentence back into a label or number,
and scores the result against the record the sample was rendered from.
Six classification tasks are scored by exact-match accuracy and three
numeric tasks by RMSE; parse failures count as incorrect and are
surfaced in the report.

With retrieval augmentation the model also decodes each retrieved
neighbour's answer to the same prompt, and the final prediction
aggregates the own answer with the neighbours' by majority vote or
mean.  ``predict_samples`` is the one answer routine of ``eval`` and
``infer``, with or without ``--rag``: one call returns each sample's
``Prediction``, its own answer, retrieved neighbour ids and final value.  A material the call
has a structure of (an eval record, infer's query) is encoded; any
other's prefix is its store row, bitwise what its structure gives, so
``infer --rag`` reads no records file.  Only the model whose
``rag.model_fingerprint`` a store carries reads it.  A store holding
only copies of the query material reproduces the plain prediction
exactly.  Answers to one prompt decode together, up to ``DECODE_ROWS``
at a time, whether or not the own answer then parses; each row decodes
bitwise as it would alone.  ``generate_answer`` has this one form, B
prefixes to B answers; a single answer is B = 1.
"""

from __future__ import annotations

import dataclasses
import re
from typing import NamedTuple

import numpy as np

from .errors import ContractError, MatterBridgeError, ValidationError
from .ioutil import atomic_write, canonical_json, fields_from_json, load_json
from .lm import generate_greedy
from .rag import (material_prefixes, model_fingerprint, rag_aggregate,
                  retrieve_topk)
from .templates import LABELS, NUMERIC_TASKS, UNITS
from .templates import attribute_text, numeric_target
from .trainer import as_checkpoint, restore_models

CLASSIFICATION_TASKS = tuple(LABELS)
EVAL_TASKS = CLASSIFICATION_TASKS + NUMERIC_TASKS

DEFAULT_MAX_NEW = 96
DEFAULT_RAG_K = 2
# Most rows one batched decode runs: a batch runs as many steps as its
# longest answer, so more rows mean more steps spent on stopped ones.
DECODE_ROWS = 16

_NUMBER = r"[+-]?\d+(?:\.\d+)?"


def label_set(task):
    """The closed set of answer labels a classification task can take."""
    if task in LABELS:
        return LABELS[task]
    raise ContractError(f"{task!r} is not a classification task")


def parse_answer_value(text, task):
    """Recover the label or numeric value embedded in an answer sentence.

    Numeric tasks take the first decimal literal that directly precedes
    the task's unit suffix.  Classification tasks match against the
    task's closed label set, longest label first, so that "non-metal"
    is never read as "metal".  A sentence with no match raises
    ValidationError; callers score that as an incorrect prediction.
    """
    if not isinstance(text, str) or not text:
        raise ValidationError("answer text must be a nonempty string")
    if task in NUMERIC_TASKS:
        unit = UNITS[task]
        m = re.search(rf"({_NUMBER})\s*{re.escape(unit)}", text)
        if m is None:
            raise ValidationError(
                f"no {unit} value found in answer {text!r}")
        return float(m.group(1))
    labels = label_set(task)
    for lab in sorted(labels, key=len, reverse=True):
        if lab in text:
            return lab
    raise ValidationError(f"no {task} label found in answer {text!r}")


def eval_classification(preds, labels):
    """Exact-match fraction; a None prediction counts as incorrect."""
    if len(preds) != len(labels):
        raise ValidationError(
            f"length mismatch: {len(preds)} predictions vs "
            f"{len(labels)} labels")
    if len(preds) == 0:
        raise ValidationError("need at least one prediction")
    hits = sum(1 for p, t in zip(preds, labels) if p is not None and p == t)
    return hits / len(preds)


def eval_rmse(preds, labels):
    """Root mean squared error over paired finite values."""
    p = np.asarray(preds, dtype=np.float64)
    t = np.asarray(labels, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1:
        raise ValidationError(
            f"need matching 1-D value lists, got {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValidationError("need at least one prediction")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
        raise ValidationError("values must be finite")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def project_2d_pca(vectors):
    """Mean-centered projection onto the top-2 principal directions.

    Returns (coords, variance_fractions).  Sign convention: each
    direction is flipped so its largest-magnitude loading is positive,
    making the projection deterministic.  Collinear data is fine (the
    second axis is then numerically zero); identical points are not.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError(f"need a 2-D array of vectors, got {x.shape}")
    n, d = x.shape
    if n < 3:
        raise ValidationError(f"need at least 3 vectors, got {n}")
    if d < 2:
        raise ValidationError(f"need at least 2 dimensions, got {d}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("vectors must be finite")
    centered = x - x.mean(axis=0)
    total = float(np.sum(centered * centered))
    if total == 0.0:
        raise ValidationError("all vectors identical: no principal directions")
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:2].copy()
    for i in range(2):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0.0:
            comps[i] = -comps[i]
    coords = centered @ comps.T
    frac = (svals[:2] ** 2) / float(np.sum(svals ** 2))
    return coords, frac


# -- greedy answer generation ------------------------------------------------


def generate_answer(models, prefixes, prompt, max_new=None):
    """Greedy-decode the answers to one prompt after B LM prefixes.

    ``prefixes`` is a (B, n_q, d_lm) stack of B materials' prefixes
    (``rag.material_prefixes``); the B answers come from one batched
    ``lm.generate_greedy`` call, each equal to the answer decoded alone.
    A prompt that exactly fills the LM context decodes one symbol, and
    one that overflows it raises the LM's ``ContractError``.
    """
    if not prompt:
        raise ValidationError("prompt must be nonempty")
    return generate_greedy(
        prefixes, models.vocab.prompt_ids(prompt),
        DEFAULT_MAX_NEW if max_new is None else max_new, models.lm)


class Prediction(NamedTuple):
    """A sample's own answer, retrieved neighbour ids and final value."""

    answer: str
    neighbors: tuple
    value: object  # None exactly when ``answer`` does not parse


def _parse_or_none(text, task):
    """The parsed answer, or None for an answer or task with no value."""
    try:
        return parse_answer_value(text, task)
    except MatterBridgeError:
        return None


def predict_samples(models, structures, samples, store=None,
                    k=DEFAULT_RAG_K, max_new=None):
    """One Prediction per instruction sample, in order.

    ``structures`` maps material id to structure.  A material in it is
    encoded; any other takes its row of ``store``, which must carry the
    model's fingerprint.  Each material's prefix is built once: the
    sampled materials' in one ``rag.material_prefixes`` call, which also
    gives their query vectors, then the retrieved neighbours'.  Every
    answer is decoded before any is parsed, batched per prompt: each
    sample's own answer and, with a store, its k neighbours' answers,
    even when the own answer then fails to parse.  With a store the
    neighbours' answers that parse are aggregated with the own value; a
    failed own parse is final.  Free-text tasks (no label set or unit)
    never parse.
    """
    if store is not None and store.fingerprint != model_fingerprint(models):
        why = ("records no model fingerprint" if store.fingerprint is None
               else "was built by another model")
        raise ValidationError(f"store {why}; rebuild it with embed")
    bp = models.bridge
    prefixes, texts, neighbors = {}, {}, {}

    def build_prefixes(material_ids):
        encode = []
        for m in dict.fromkeys(material_ids):
            if m in prefixes:
                continue
            row = None if store is None else store.row_of(m)
            if m in structures:
                encode.append(m)
            elif row is None:
                raise ValidationError(
                    f"unknown material {m!r}: not in the records or store")
            else:
                prefixes[m] = store.matrix[row].reshape(bp.n_q, bp.d_lm)
        if encode:
            prefixes.update(zip(encode, material_prefixes(
                [structures[m] for m in encode], models)))

    own = [s.material_id for s in samples]
    build_prefixes(own)
    if store is not None:
        for m in dict.fromkeys(own):
            hits = retrieve_topk(store, prefixes[m].reshape(-1), k,
                                 exclude_id=m)
            neighbors[m] = tuple(h.material_id for h in hits)
        build_prefixes([n for ids in neighbors.values() for n in ids])
    pending = {}
    for sample in samples:
        pending.setdefault(sample.prompt, []).extend(
            (sample.material_id,) + neighbors.get(sample.material_id, ()))
    for prompt, ids in pending.items():
        ids = list(dict.fromkeys(ids))
        for lo in range(0, len(ids), DECODE_ROWS):
            chunk = ids[lo:lo + DECODE_ROWS]
            answers = generate_answer(
                models, np.stack([prefixes[m] for m in chunk]), prompt,
                max_new)
            texts.update(((m, prompt), t) for m, t in zip(chunk, answers))
    results = []
    for sample in samples:
        task, prompt = sample.task, sample.prompt
        answer = texts[(sample.material_id, prompt)]
        ids = neighbors.get(sample.material_id, ())
        value = _parse_or_none(answer, task)
        if value is not None and ids:
            votes = [v for v in (_parse_or_none(texts[(n, prompt)], task)
                                 for n in ids) if v is not None]
            if votes:
                kind = ("numeric" if task in NUMERIC_TASKS
                        else "classification")
                value = rag_aggregate(value, votes, kind)
        results.append(Prediction(answer, ids, value))
    return results


# -- report assembly ---------------------------------------------------------


@dataclasses.dataclass
class EvalReport:
    """Per-task metrics plus the provenance needed to reproduce them."""

    config_hash: str
    rag: bool
    n_samples: int
    tasks: dict

    def to_dict(self):
        return dataclasses.asdict(self)


def report_from_dict(obj):
    return EvalReport(**fields_from_json(EvalReport, obj))


def write_eval_report(path, report):
    with atomic_write(path) as fh:
        fh.write((canonical_json(report.to_dict()) + "\n").encode())


def read_eval_report(path):
    return report_from_dict(load_json(path))


def evaluate_checkpoint(ckpt, records, samples, rag_store=None,
                        k=DEFAULT_RAG_K, max_new=None):
    """Score a checkpoint over instruction samples and build an EvalReport.

    Only the nine scoreable tasks are evaluated; samples of the three
    description tasks (free-text answers with no closed label set) are
    ignored.  Decoding is deterministic, so the report is a pure
    function of the checkpoint, the corpus, and the store.  ckpt may be
    a Checkpoint or a path.
    """
    ckpt = as_checkpoint(ckpt)
    models = restore_models(ckpt)
    eval_samples = [s for s in samples if s.task in EVAL_TASKS]
    if not eval_samples:
        raise ValidationError("no scoreable samples in the corpus")
    by_id = {r.material_id: r for r in records}
    for sample in eval_samples:
        if sample.material_id not in by_id:
            raise ValidationError(
                f"unknown material {sample.material_id!r}: not in the records")
    predictions = predict_samples(
        models, {r.material_id: r.structure for r in records}, eval_samples,
        rag_store, k, max_new)
    preds = {t: [] for t in EVAL_TASKS}
    refs = {t: [] for t in EVAL_TASKS}
    for sample, pred in zip(eval_samples, predictions):
        task = sample.task
        rec = by_id[sample.material_id]
        preds[task].append(pred.value)
        if task in NUMERIC_TASKS:
            refs[task].append(numeric_target(rec, task))
        else:
            refs[task].append(attribute_text(rec, task))
    tasks = {}
    for task in EVAL_TASKS:
        if not preds[task]:
            continue
        if task in NUMERIC_TASKS:
            pairs = [(p, t) for p, t in zip(preds[task], refs[task])
                     if p is not None]
            value = (eval_rmse([p for p, _ in pairs], [t for _, t in pairs])
                     if pairs else None)
            metric = "rmse"
        else:
            value = eval_classification(preds[task], refs[task])
            metric = "accuracy"
        tasks[task] = {
            "metric": metric,
            "value": value,
            "count": len(preds[task]),
            "parse_errors": preds[task].count(None),
        }
    return EvalReport(
        config_hash=ckpt.manifest["config_hash"],
        rag=rag_store is not None,
        n_samples=len(eval_samples),
        tasks=tasks,
    )
