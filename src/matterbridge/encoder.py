"""Frozen message-passing encoder producing per-atom embeddings.

Stands in for a pretrained interatomic-potential encoder: parameters are
drawn once from a seeded generator, never trained, and kept as plain
numpy arrays (no autodiff tape).  Messages depend on neighbor species
and interatomic distance only, so embeddings are invariant under rigid
rotation and translation of the cell.

Each layer updates an atom from a weighted mean of its neighbors'
messages.  A neighbor at distance d gets the weight
exp(-(d - d_nearest) / NEIGHBOR_DECAY), where d_nearest is the atom's
nearest-neighbor distance, and the weighted sum is divided by the sum of
the weights.  The mean keeps the update bounded whatever the neighbor
count (a plain sum over the 40-150 neighbors inside a 6 A cutoff
saturates the tanh), and the weights keep it sensitive to geometry (an
unweighted mean is dominated by the many far neighbors, whose distance
histogram is much the same in every cell, so materials of one
composition but different density look alike).  An atom with no
neighbors keeps an all-zero message term.

Per-node sums reduce in a value-sorted order (distance, then neighbor
species, then the message components themselves), which makes the
result bitwise independent of atom labeling and edge enumeration order.
The edges are sorted by (atom, distance, neighbor species) first, and
only the runs that tie on all three are re-sorted by the message
components; both sorts are stable, so the order is the one a single
sort on every key gives.  That re-sort runs only when some tied run
holds unequal rows: it permutes rows within tied runs alone, so if they
are equal the values added, and the sums, are bitwise the same without
it.  Each atom's rows are then added one at a time in that order by a
running sum (``np.cumsum``), which is sequential by definition, unlike
``np.sum``'s pairwise reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ValidationError

N_ELEMENTS = 94  # H through Pu
N_RBF = 16
# decay length (angstrom) of the neighbor weights, measured from each
# atom's nearest neighbor: messages from the first shell dominate, and
# those from a neighbor 1.5 A further out count 5 % as much
NEIGHBOR_DECAY = 0.5

__all__ = ["EncoderParams", "init_encoder", "encode_atoms"]


@dataclass
class EncoderParams:
    d_enc: int
    L_enc: int
    cutoff: float
    atom_embed: np.ndarray  # (N_ELEMENTS, d_enc)
    rbf_centers: np.ndarray  # (N_RBF,)
    rbf_width: float
    layers: list  # per layer: dict with w_msg, w_edge, w_update

    def state_dict(self):
        out = {"atom_embed": self.atom_embed, "rbf_centers": self.rbf_centers}
        for l, layer in enumerate(self.layers):
            for k, v in layer.items():
                out[f"layers.{l}.{k}"] = v
        return out


def init_encoder(seed, d_enc=32, L_enc=2, cutoff=6.0):
    """Deterministic parameter draw; weights scaled by 1/sqrt(fan-in)."""
    if d_enc < 1 or L_enc < 1:
        raise ContractError(f"d_enc and L_enc must be >= 1, got {d_enc}, {L_enc}")
    if not cutoff > 0:
        raise ContractError(f"cutoff must be positive, got {cutoff}")
    rng = np.random.default_rng(int(seed))
    centers = np.linspace(0.0, cutoff, N_RBF)
    width = centers[1] - centers[0]
    layers = []
    for _ in range(L_enc):
        layers.append(
            {
                "w_msg": rng.standard_normal((d_enc, d_enc)) / np.sqrt(d_enc),
                "w_edge": rng.standard_normal((N_RBF, d_enc)) / np.sqrt(N_RBF),
                "w_update": rng.standard_normal((d_enc, d_enc)) / np.sqrt(d_enc),
            }
        )
    return EncoderParams(
        d_enc=d_enc,
        L_enc=L_enc,
        cutoff=float(cutoff),
        atom_embed=rng.standard_normal((N_ELEMENTS, d_enc)) / np.sqrt(d_enc),
        rbf_centers=centers,
        rbf_width=float(width),
        layers=layers,
    )


def _gaussian_basis(dist, centers, width):
    """Gaussian expansion of distances: (E,) -> (E, N_RBF)."""
    dist = np.asarray(dist, dtype=np.float64)
    return np.exp(-((dist[:, None] - centers[None, :]) ** 2) / (2.0 * width**2))


def _ordered_segment_sums(rows, seg, keys, n_seg, tie_keys=()):
    """Per-segment sums of ``rows``, each added one at a time in key order.

    Within a segment the rows are ordered by ``keys`` and then, among
    rows equal on every key, by ``tie_keys`` (np.lexsort convention: the
    last key is the primary one), so the floating-point result depends
    only on the values being summed, never on the order in which they
    arrive.  Only the runs that tie on the segment and ``keys`` are
    re-sorted by ``tie_keys``; both sorts are stable, so the order is
    that of one sort on every key, at a fraction of its cost.  The sum
    is a running sum over a zero slot followed by the segment's rows in
    order, so the first add is ``0.0 + row`` and each later one adds the
    next row to the total so far.

    The re-sort runs only if some tied run holds unequal rows.  It only
    permutes rows within tied runs, so when those rows are equal the
    sequence of values added is unchanged and the sums are bitwise the
    same.  Equal includes -0.0 == +0.0: a running sum starts at +0.0 and
    so is never -0.0, and adding either zero to it gives the same bits.
    A NaN compares unequal, so a run holding one takes the re-sort.
    """
    keys = tuple(keys) + (seg,)
    order = np.lexsort(keys)
    ordered = rows[order]
    if tie_keys:
        # same[p]: sorted row p ties with row p - 1 on the segment and keys
        same = np.ones(len(order), dtype=bool)
        same[:1] = False
        for k in keys:
            k = k[order]
            same[1:] &= k[1:] == k[:-1]
        tie = np.flatnonzero(same)
        if (ordered[tie] != ordered[tie - 1]).any():
            in_run = same.copy()
            in_run[:-1] |= same[1:]  # or row p + 1 ties with row p
            tied = np.flatnonzero(in_run)
            run = np.cumsum(~same)[tied]
            sub = order[tied]
            order[tied] = sub[np.lexsort(tuple(k[sub] for k in tie_keys)
                                         + (run,))]
            ordered = rows[order]
    seg_sorted = seg[order]
    counts = np.bincount(seg, minlength=n_seg)
    starts = np.cumsum(counts) - counts
    slot = np.arange(len(seg)) - starts[seg_sorted]
    padded = np.zeros((n_seg, counts.max() + 1, rows.shape[1]))
    padded[seg_sorted, slot + 1] = ordered
    return np.cumsum(padded, axis=1)[:, -1]


def encode_atoms(graph, params):
    """Per-atom embeddings, shape (n_atoms, d_enc), input atom order."""
    z = np.asarray(graph.node_species, dtype=np.int64)
    if z.size == 0:
        raise ValidationError("graph has no atoms")
    if z.min() < 1 or z.max() > N_ELEMENTS:
        raise ValidationError(
            f"atomic number outside embedding table [1, {N_ELEMENTS}]"
        )
    h = params.atom_embed[z - 1].copy()

    ei = np.asarray(graph.edge_i, dtype=np.int64)
    ej = np.asarray(graph.edge_j, dtype=np.int64)
    dist = np.asarray(graph.edge_dist, dtype=np.float64)
    edge_feat = _gaussian_basis(dist, params.rbf_centers, params.rbf_width)
    n = len(z)
    weight, weight_sum = _neighbor_weights(ei, dist, n)

    for layer in params.layers:
        msg = np.tanh(h[ej] @ layer["w_msg"] + edge_feat @ layer["w_edge"])
        # value-determined summation order: distance, neighbor species,
        # then the message components as tie-breakers
        ties = tuple(msg[:, c] for c in range(msg.shape[1] - 1, -1, -1))
        agg = _ordered_segment_sums(msg * weight[:, None], ei,
                                    (z[ej], dist), n, ties)
        h = np.tanh(h @ layer["w_update"] + agg / weight_sum[:, None])
    return h


def _neighbor_weights(ei, dist, n):
    """Edge weights exp(-(d - d_nearest) / NEIGHBOR_DECAY) and per-atom sums.

    An atom's nearest neighbor gets weight 1, so a sum is 0 only for an
    atom with no neighbors; its sum is set to 1, which keeps its
    all-zero message term at zero.
    """
    nearest = np.full(n, np.inf)
    np.minimum.at(nearest, ei, dist)
    weight = np.exp(-(dist - nearest[ei]) / NEIGHBOR_DECAY)
    total = _ordered_segment_sums(weight[:, None], ei, (dist,), n)[:, 0]
    total[total == 0.0] = 1.0
    return weight, total
