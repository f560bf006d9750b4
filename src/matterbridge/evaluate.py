"""Answer parsing, task metrics, PCA projection, and report assembly.

Evaluation decodes an answer for every instruction sample with greedy
generation, parses the decoded sentence back into a label or number,
and scores the result against the record the sample was rendered from.
Six classification tasks are scored by exact-match accuracy and three
numeric tasks by RMSE; parse failures count as incorrect and are
surfaced in the report.

With retrieval augmentation the model also decodes an answer for each
retrieved neighbor (same prompt, neighbor's structure) and the final
prediction aggregates the self answer with the neighbor answers by
majority vote or mean.  A store holding only copies of the query
material therefore reproduces the plain prediction exactly.

Answers to one prompt are decoded together, up to ``DECODE_ROWS`` at a
time: a material's own answer and, with a store, its neighbors'
answers, whether or not the own answer then parses.  The LM prefixes a
decode lacks are built together too, grouped by atom count
(``rag.material_prefixes``).  Batching changes no text: each row
decodes bitwise as it would alone.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np

from .errors import ContractError, MatterBridgeError, ValidationError
from .ioutil import atomic_write, canonical_json, fields_from_json, load_json
from .lm import generate_greedy
from .rag import material_prefixes, rag_aggregate, retrieve_topk
from .templates import BINARY_FORMS, MAGNETIC_ORDERS, NUMERIC_TASKS
from .templates import attribute_text, numeric_target
from .trainer import as_checkpoint, restore_models

CLASSIFICATION_TASKS = (
    "is_metal",
    "direct_bandgap",
    "stability",
    "exp_observed",
    "is_magnetic",
    "magnetic_order",
)
EVAL_TASKS = CLASSIFICATION_TASKS + NUMERIC_TASKS

DEFAULT_MAX_NEW = 96
DEFAULT_RAG_K = 2
# Most rows one batched decode runs: a batch runs as many steps as its
# longest answer, so more rows mean more steps spent on stopped ones.
DECODE_ROWS = 16

_NUMBER = r"[+-]?\d+(?:\.\d+)?"


def task_unit(task):
    if task == "bandgap":
        return "eV"
    if task in ("formation_energy", "energy_above_hull"):
        return "eV/atom"
    raise ContractError(f"task {task!r} has no unit")


def label_set(task):
    """The closed set of answer labels a classification task can take."""
    if task == "magnetic_order":
        return tuple(MAGNETIC_ORDERS)
    if task in BINARY_FORMS:
        return tuple(BINARY_FORMS[task])
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
        unit = task_unit(task)
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


def generate_answer(models, prefix, prompt, max_new=None):
    """Greedy-decode the answer to a prompt after one or more LM prefixes.

    ``prefix`` is one material's (n_q, d_lm) LM prefix
    (``rag.material_prefix``), giving one answer string, or a
    (B, n_q, d_lm) stack of B materials' prefixes, giving a list of B
    answers decoded in one batch (``lm.generate_greedy``), each equal to
    the answer decoded alone.
    """
    if not prompt:
        raise ValidationError("prompt must be nonempty")
    vocab = models.vocab
    ids = [vocab.bos_id] + vocab.tokenize(prompt) + [vocab.sep_id]
    room = models.lm.max_len - prefix.shape[-2] - len(ids)
    if room < 1:
        raise ValidationError(
            f"prompt of {len(ids)} symbols leaves no room to generate "
            f"within max_len {models.lm.max_len}")
    if max_new is None:
        max_new = min(DEFAULT_MAX_NEW, room)
    return generate_greedy(prefix, ids, max_new, models.lm)


class _AnswerCache:
    """Per-material LM prefixes, decodes and retrievals of a run.

    structures maps material id to structure (infer adds its query's);
    one cache serves one embedding store.  A material's prefix is
    computed once and serves both its answers and its store vector;
    the prefixes a call lacks are built in one batched call.
    """

    def __init__(self, models, records, max_new=None):
        self.models = models
        self.structures = {r.material_id: r.structure for r in records}
        self.max_new = max_new
        self._prefixes = {}
        self._texts = {}
        self._neighbors = {}

    def prefixes(self, material_ids):
        """The (B, n_q, d_lm) LM prefixes of these materials.

        The ones not yet cached come from one
        ``rag.material_prefixes`` call.
        """
        todo = [m for m in dict.fromkeys(material_ids)
                if m not in self._prefixes]
        for m in todo:
            if m not in self.structures:
                raise ValidationError(
                    f"unknown material {m!r}: not in the records")
        if todo:
            self._prefixes.update(zip(todo, material_prefixes(
                [self.structures[m] for m in todo], self.models)))
        return np.stack([self._prefixes[m] for m in material_ids])

    def decode(self, material_ids, prompt):
        """Decode the prompt's answers the cache lacks for these materials.

        Rows of one batch share the prompt; a batch holds at most
        DECODE_ROWS of them.
        """
        todo = [m for m in dict.fromkeys(material_ids)
                if (m, prompt) not in self._texts]
        if not todo:
            return
        prefixes = self.prefixes(todo)
        for lo in range(0, len(todo), DECODE_ROWS):
            chunk = todo[lo:lo + DECODE_ROWS]
            texts = generate_answer(self.models,
                                    prefixes[lo:lo + DECODE_ROWS], prompt,
                                    self.max_new)
            self._texts.update(((m, prompt), t) for m, t in zip(chunk, texts))

    def answer(self, material_id, prompt):
        self.decode([material_id], prompt)
        return self._texts[(material_id, prompt)]

    def vector(self, material_id):
        """The store vector, bitwise what ``rag.embed_material`` gives."""
        return self.prefixes([material_id]).reshape(-1)

    def neighbors(self, material_id, store, k):
        """Ids of the k stored materials nearest to one, itself excluded."""
        key = (material_id, k)
        if key not in self._neighbors:
            hits = retrieve_topk(store, self.vector(material_id), k,
                                 exclude_id=material_id)
            self._neighbors[key] = [h.material_id for h in hits]
        return self._neighbors[key]


def _parse_or_none(text, task):
    """The parsed answer, or None for an answer or task with no value."""
    try:
        return parse_answer_value(text, task)
    except MatterBridgeError:
        return None


def predict_sample(cache, sample, rag_store=None, k=DEFAULT_RAG_K):
    """Final (possibly aggregated) prediction for one instruction sample.

    Returns (prediction, parse_failed).  With a store, the top-k
    neighbors of the sample's material are decoded with the same prompt
    and aggregated with the self prediction; neighbors whose answers do
    not parse are dropped, and a failed self parse is final.  Tasks with
    free-text answers (no label set or unit) always fail to parse.
    """
    task = sample.task
    text = cache.answer(sample.material_id, sample.prompt)
    pred = _parse_or_none(text, task)
    if pred is None:
        return None, True
    if rag_store is None:
        return pred, False
    neighbor_preds = []
    for nid in cache.neighbors(sample.material_id, rag_store, k):
        ntext = cache.answer(nid, sample.prompt)
        npred = _parse_or_none(ntext, task)
        if npred is not None:
            neighbor_preds.append(npred)
    if not neighbor_preds:
        return pred, False
    kind = "numeric" if task in NUMERIC_TASKS else "classification"
    return rag_aggregate(pred, neighbor_preds, kind), False


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
    cache = _AnswerCache(models, records, max_new=max_new)
    # every answer a prediction may read, decoded in batches per prompt
    pending = {}
    for sample in eval_samples:
        ids = pending.setdefault(sample.prompt, [])
        ids.append(sample.material_id)
        if rag_store is not None:
            ids.extend(cache.neighbors(sample.material_id, rag_store, k))
    for prompt, ids in pending.items():
        cache.decode(ids, prompt)
    by_id = {r.material_id: r for r in records}
    preds = {t: [] for t in EVAL_TASKS}
    refs = {t: [] for t in EVAL_TASKS}
    failures = {t: 0 for t in EVAL_TASKS}
    for sample in eval_samples:
        task = sample.task
        pred, failed = predict_sample(cache, sample, rag_store, k)
        rec = by_id[sample.material_id]
        if failed:
            failures[task] += 1
        preds[task].append(pred)
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
            "parse_errors": failures[task],
        }
    return EvalReport(
        config_hash=ckpt.manifest["config_hash"],
        rag=rag_store is not None,
        n_samples=len(eval_samples),
        tasks=tasks,
    )
