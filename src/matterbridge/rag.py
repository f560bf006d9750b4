"""Embedding store and nearest-neighbour retrieval.

A material is embedded by flattening its LM prefix (the projected bridge
queries) into one vector.  ``material_prefixes`` is the one prefix
builder, B structures to (B, n_q, d_lm) prefixes: structures with one
atom count share one inference-mode bridge pass, and each prefix is
bitwise what its structure gives alone.  ``embed_material``, one
structure's vector, stays for the benchmark's ``infer`` check.  A store
holds material ids, one matrix of those vectors and the fingerprint of
the model that built them (``model_fingerprint``), nothing else.
``EmbeddingStore.load`` maps ``store.bin`` read-only, so a read copies
no store bytes; a store must therefore be replaced, as ``embed`` does
through ``atomic_write``, and never edited in place while a process
reads it.  Retrieval ranks the stored materials by L2 distance to a
query, scanning the matrix in row blocks into one reused buffer; each
distance is bitwise what one pass over the whole matrix gives, and
retrieval-augmented answering decodes each neighbour's answer with the
same prompt: one ``evaluate.predict_samples`` call returns each
sample's own answer, neighbour ids and final value.  The prefix of a
stored neighbour whose structure the call lacks is its row,
``matrix[i].reshape(n_q, d_lm)``, so ``infer --rag`` encodes only its
query; a model reads only a store that carries its own fingerprint.  No
answer is looked up in the store.  ``rag_aggregate`` combines them with
the model's own answer.
"""

from __future__ import annotations

import hashlib
import mmap
import os
from typing import NamedTuple

import numpy as np

from .bridge import lm_prefix
from .errors import ContractError, ValidationError
from .ioutil import atomic_write, load_json, write_jsonl
from .tensor import no_grad
from .trainer import all_tensors, encode_structure

STORE_BIN = "store.bin"
STORE_JSON = "store.json"
# Most structures one bridge pass takes.  Bridging 512 seeded materials
# (9 atom counts) took 139, 37, 33 and 41 ms at 1, 16, 32 and 64 rows
# per pass, and 2,048 took 539, 142, 129, 128 and 152 ms at 1, 16, 32,
# 64 and 256 (medians of 7, BLAS on one thread).
PREFIX_ROWS = 32
# Store rows one distance block takes (64 x 768 float64 is 384 kB).  A
# 2,048 x 768 store freshly mapped took 6.8, 4.5, 3.7, 3.4, 3.2, 3.2
# and 3.9 ms per query in one pass and at 8, 16, 32, 64, 128 and 256
# rows per block (medians of 15, BLAS on one thread).
DISTANCE_ROWS = 64


def material_prefixes(structures, models):
    """LM prefixes of many structures, (B, n_q, d_lm) in input order.

    Each structure is encoded alone.  Structures with one atom count
    share the cross-attention's key length, so each such group runs
    through the inference-mode bridge together, at most PREFIX_ROWS per
    pass, with no padding or mask.
    """
    atoms = [encode_structure(s, models) for s in structures]
    bp = models.bridge
    out = np.empty((len(atoms), bp.cfg.n_q, bp.cfg.d_lm))
    groups = {}
    for i, a in enumerate(atoms):
        groups.setdefault(a.shape[0], []).append(i)
    with no_grad():
        for rows in groups.values():
            for lo in range(0, len(rows), PREFIX_ROWS):
                chunk = rows[lo:lo + PREFIX_ROWS]
                out[chunk] = lm_prefix(np.stack([atoms[i] for i in chunk]),
                                       bp).data
    return out


def model_fingerprint(models):
    """sha256 hex of what fixes a prefix: the encoder and bridge arrays.

    Each ``encoder.*`` and ``bridge.*`` array of ``trainer.all_tensors``
    enters in sorted name order as its name, shape and little-endian
    float64 bytes.  The encoder's cutoff and RBF width and the bridge's
    head count come first: they change prefixes but no array.
    """
    enc = models.encoder
    digest = hashlib.sha256(
        repr((enc.cutoff, enc.rbf_width, models.bridge.cfg.n_heads)).encode())
    for name, array in sorted(all_tensors(models).items()):
        if name.startswith(("encoder.", "bridge.")):
            digest.update(f"{name} {array.shape}\n".encode())
            digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()


def embed_material(structure, models):
    """The material's (n_q, d_lm) LM prefix flattened row-major."""
    return material_prefixes([structure], models).reshape(-1)


class EmbeddingStore:
    """Material ids and one (count, stride) matrix, row i for ``ids[i]``.

    The constructor checks every invariant of a store: ids are a list of
    unique strings, one per row; the matrix is 2-D with stride >= 1; and
    every row is finite.  ``fingerprint`` is the ``model_fingerprint`` of
    the model that built the rows, or None for a store that records none.
    On disk a store is ``store.bin`` (the matrix as little-endian float64,
    row-major) and ``store.json`` (``stride``, ``count``, ``ids`` and,
    when known, ``fingerprint``).  A loaded matrix is a read-only view of
    ``store.bin`` mapped into memory.
    """

    def __init__(self, ids, matrix, fingerprint=None):
        if not isinstance(ids, list):
            raise ValidationError("store ids must be a list")
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] < 1:
            raise ValidationError("store matrix must be 2-D with stride >= 1")
        if len(ids) != matrix.shape[0]:
            raise ValidationError(
                f"{len(ids)} material ids for {matrix.shape[0]} vectors")
        if not all(isinstance(mid, str) for mid in ids):
            raise ValidationError("material id must be a string")
        index = {mid: i for i, mid in enumerate(ids)}
        if len(index) != len(ids):
            dup = next(m for i, m in enumerate(ids) if index[m] != i)
            raise ValidationError(f"duplicate material id {dup!r}")
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            raise ValidationError(
                f"embedding for {ids[int(np.argmin(finite))]} is not finite")
        if not (fingerprint is None or isinstance(fingerprint, str)):
            raise ValidationError("store fingerprint must be a string")
        self.ids, self.matrix, self._index = ids, matrix, index
        self.fingerprint = fingerprint

    def __len__(self):
        return len(self.ids)

    @property
    def stride(self):
        return self.matrix.shape[1]

    def row_of(self, material_id):
        """The row index of material_id, or None if it is not stored."""
        return self._index.get(material_id)

    def save(self, directory):
        os.makedirs(directory, exist_ok=True)
        with atomic_write(os.path.join(directory, STORE_BIN)) as fh:
            fh.write(np.ascontiguousarray(self.matrix, dtype="<f8"))
        meta = {"stride": self.stride, "count": len(self), "ids": self.ids}
        if self.fingerprint is not None:
            meta["fingerprint"] = self.fingerprint
        write_jsonl(os.path.join(directory, STORE_JSON), [meta])
        return directory

    @classmethod
    def load(cls, directory):
        json_path = os.path.join(directory, STORE_JSON)
        bin_path = os.path.join(directory, STORE_BIN)
        try:
            meta = load_json(json_path)
        except FileNotFoundError:
            raise ValidationError(f"missing {json_path}") from None
        try:
            with open(bin_path, "rb") as fh:
                # an empty file cannot be mapped
                raw = (mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                       if os.fstat(fh.fileno()).st_size else b"")
        except FileNotFoundError:
            raise ValidationError(f"missing {bin_path}") from None
        if not (isinstance(meta, dict)
                and {"stride", "count", "ids"} <= meta.keys()):
            raise ValidationError(f"{json_path} needs stride, count and ids")
        stride, count = meta["stride"], meta["count"]
        if not (type(stride) is int and type(count) is int
                and min(stride, count) >= 0):
            raise ValidationError(
                f"{json_path}: stride and count must be integers >= 0")
        expected = stride * count * 8
        if len(raw) != expected:
            raise ValidationError(
                f"{bin_path} holds {len(raw)} bytes, expected {expected} "
                f"({count} vectors of stride {stride})")
        block = np.frombuffer(raw, dtype="<f8").reshape(count, stride)
        return cls(meta["ids"], block, meta.get("fingerprint"))


class Hit(NamedTuple):
    """A retrieved material and its L2 distance to the query."""

    material_id: str
    distance: float


def retrieve_topk(store, query, k, exclude_id=None):
    """k nearest stored materials as Hits, by ascending L2 distance.

    Ties keep store order.  The material whose id equals exclude_id is
    skipped, so a stored material never retrieves itself.  A query with
    a NaN or infinite entry raises ValidationError, as a stored one does.
    Distances are computed DISTANCE_ROWS rows at a time in one reused
    buffer; each row is still one sum over its own contiguous squares,
    so every distance is bitwise the one-pass
    ``np.sqrt(((matrix - query) ** 2).sum(axis=1))``.
    """
    query = np.asarray(query, dtype=np.float64).ravel()
    if query.shape != (store.stride,):
        raise ValidationError(
            f"query length {query.size} does not match stride {store.stride}")
    if not np.isfinite(query).all():
        raise ValidationError("query embedding is not finite")
    rows = np.arange(len(store))
    skip = store.row_of(exclude_id)
    if skip is not None:
        rows = np.delete(rows, skip)
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k > len(rows):
        raise ValidationError(
            f"k={k} exceeds the {len(rows)} available records")
    dists = np.empty(len(store))
    buf = np.empty((min(DISTANCE_ROWS, len(store)), store.stride))
    for lo in range(0, len(store), DISTANCE_ROWS):
        hi = min(lo + DISTANCE_ROWS, len(store))
        diff = buf[:hi - lo]
        np.subtract(store.matrix[lo:hi], query, out=diff)
        diff *= diff
        diff.sum(axis=1, out=dists[lo:hi])
    np.sqrt(dists, out=dists)
    best = rows[np.argsort(dists[rows], kind="stable")[:k]]
    return [Hit(store.ids[i], float(dists[i])) for i in best]


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
