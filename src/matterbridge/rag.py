"""Embedding store and retrieval-augmented aggregation.

Materials are embedded by flattening the projected bridge queries into
one vector.  A store keeps those vectors with task labels; at inference
time the nearest stored materials vote on classification answers and
average on numeric ones.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .bridge import lm_prefix
from .errors import ContractError, ValidationError
from .ioutil import atomic_write, canonical_json
from .tensor import no_grad
from .trainer import encode_structure

STORE_BIN = "store.bin"
STORE_JSON = "store.json"


@dataclass
class EmbeddingRecord:
    material_id: str
    vector: np.ndarray
    labels: dict

    def __post_init__(self):
        if not isinstance(self.material_id, str):
            raise ValidationError("material id must be a string")
        self.vector = np.asarray(self.vector, dtype=np.float64).ravel()
        if not np.all(np.isfinite(self.vector)):
            raise ValidationError(
                f"embedding for {self.material_id} is not finite")


def embed_material(structure, models):
    """The material's LM prefix flattened into one vector.

    The (n_q, d_lm) block of projected bridge queries is flattened
    row-major, so the vector length is n_q * d_lm.
    """
    with no_grad():
        prefix = lm_prefix(encode_structure(structure, models), models.bridge)
    return prefix.data.reshape(-1).copy()


class EmbeddingStore:
    """Fixed-stride vector store with insertion-ordered ids and labels.

    The vectors form one (len, stride) matrix, row i belonging to
    ``ids[i]``.
    """

    def __init__(self, stride):
        if stride < 1:
            raise ValidationError("stride must be >= 1")
        self.stride = int(stride)
        self.ids = []
        self.labels = []
        self._index = {}
        self._block = np.zeros((0, self.stride))
        self._pending = []  # vectors added since _block was last built

    def __len__(self):
        return len(self.ids)

    def add(self, record):
        if record.vector.shape != (self.stride,):
            raise ValidationError(
                f"vector for {record.material_id} has length "
                f"{record.vector.size}, store stride is {self.stride}")
        if record.material_id in self._index:
            raise ValidationError(
                f"duplicate material id {record.material_id!r}")
        self._index[record.material_id] = len(self.ids)
        self.ids.append(record.material_id)
        self.labels.append(record.labels)
        self._pending.append(record.vector)

    def matrix(self):
        if self._pending:
            self._block = np.concatenate([self._block,
                                          np.stack(self._pending)])
            self._pending = []
        return self._block

    def save(self, directory):
        os.makedirs(directory, exist_ok=True)
        blob = np.ascontiguousarray(self.matrix(), dtype="<f8").tobytes()
        with atomic_write(os.path.join(directory, STORE_BIN)) as fh:
            fh.write(blob)
        meta = {
            "stride": self.stride,
            "count": len(self),
            "ids": self.ids,
            "labels": self.labels,
        }
        with atomic_write(os.path.join(directory, STORE_JSON)) as fh:
            fh.write((canonical_json(meta) + "\n").encode())
        return directory

    @classmethod
    def load(cls, directory):
        json_path = os.path.join(directory, STORE_JSON)
        bin_path = os.path.join(directory, STORE_BIN)
        try:
            with open(json_path, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except FileNotFoundError:
            raise ValidationError(f"missing {json_path}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ValidationError(f"{json_path} is not valid JSON: {e}") \
                from None
        try:
            raw = open(bin_path, "rb").read()
        except FileNotFoundError:
            raise ValidationError(f"missing {bin_path}") from None
        try:
            stride, count = int(meta["stride"]), int(meta["count"])
            ids, labels = list(meta["ids"]), list(meta["labels"])
        except (KeyError, TypeError, ValueError):
            raise ValidationError(
                f"{json_path} needs stride, count, ids and labels") from None
        store = cls(stride)
        expected = stride * count * 8
        if len(raw) != expected:
            raise ValidationError(
                f"{bin_path} holds {len(raw)} bytes, expected {expected} "
                f"({count} vectors of stride {stride})")
        if len(ids) != count or len(labels) != count:
            raise ValidationError("store metadata lengths disagree with count")
        if not all(isinstance(mid, str) for mid in ids):
            raise ValidationError("material id must be a string")
        index = {mid: i for i, mid in enumerate(ids)}
        if len(index) != count:
            dup = next(m for i, m in enumerate(ids) if index[m] != i)
            raise ValidationError(f"duplicate material id {dup!r}")
        block = np.frombuffer(raw, dtype="<f8").reshape(count, stride)
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            raise ValidationError(
                f"embedding for {ids[int(np.argmin(finite))]} is not finite")
        store.ids, store.labels, store._index = ids, labels, index
        store._block = block
        return store


def retrieve_topk(store, query, k, exclude_id=None):
    """k nearest records by L2 distance, ascending; stable on ties.

    A record whose id equals exclude_id is skipped, so a stored material
    never retrieves itself.
    """
    query = np.asarray(query, dtype=np.float64).ravel()
    if query.shape != (store.stride,):
        raise ValidationError(
            f"query length {query.size} does not match stride {store.stride}")
    rows = np.arange(len(store))
    if exclude_id in store._index:
        rows = np.delete(rows, store._index[exclude_id])
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k > len(rows):
        raise ValidationError(
            f"k={k} exceeds the {len(rows)} available records")
    matrix = store.matrix()
    diff = matrix - query
    diff *= diff
    dists = np.sqrt(diff.sum(axis=1))[rows]
    return [EmbeddingRecord(store.ids[i], matrix[i], store.labels[i])
            for i in rows[np.argsort(dists, kind="stable")[:k]]]


def rag_aggregate(self_pred, retrieved_preds, kind):
    """Combine the model's own prediction with retrieved neighbors'.

    Classification takes the majority over {self} + retrieved with ties
    broken in favor of the self prediction (then first spoken).
    Numeric values are averaged.
    """
    retrieved = list(retrieved_preds)
    if not retrieved:
        raise ValidationError("need at least one retrieved prediction")
    if kind == "classification":
        votes = [self_pred] + retrieved
        counts = {}
        for vote in votes:
            counts[vote] = counts.get(vote, 0) + 1
        best = max(counts.values())
        winners = [vote for vote, c in counts.items() if c == best]
        if self_pred in winners:
            return self_pred
        return winners[0]
    if kind == "numeric":
        values = [float(self_pred)] + [float(x) for x in retrieved]
        return float(np.mean(values))
    raise ContractError(f"unknown aggregation kind {kind!r}")
