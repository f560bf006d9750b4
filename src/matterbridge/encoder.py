"""Frozen message-passing encoder producing per-atom embeddings.

Stands in for a pretrained interatomic-potential encoder: parameters are
drawn once from a seeded generator at the ``Config``'s sizes, never
trained, and kept as one table of frozen ``Tensor``s, as the bridge's and
the LM's are (``encode_atoms`` reads their arrays and records no tape).
Messages depend on neighbor species and interatomic distance only, so
embeddings are invariant under rigid rotation and translation of the cell.

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
A structure's edges are sorted once by the first three keys
(``_EdgeOrder``).  That order gives each atom's nearest-neighbor
distance (its first sorted edge) and serves the weight sums (tied edges
share a distance, so a weight) and every layer's message sums, where a
layer re-sorts only the tied runs by its message components, and only
when one holds unequal rows.  Each atom's rows are then added one at a
time by a running sum (``np.cumsum``), which is sequential by
definition, unlike ``np.sum``'s pairwise reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config
from .errors import ValidationError
from .tensor import Tensor

N_ELEMENTS = 94  # H through Pu
N_RBF = 16
# decay length (angstrom) of the neighbor weights, measured from each
# atom's nearest neighbor: messages from the first shell dominate, and
# those from a neighbor 1.5 A further out count 5 % as much
NEIGHBOR_DECAY = 0.5

__all__ = ["EncoderParams", "init_encoder", "encode_atoms"]


@dataclass
class EncoderParams:
    cfg: Config  # d_enc, L_enc, cutoff
    rbf_width: float  # the drawn centres' spacing
    params: dict  # checkpoint name -> Tensor, all frozen

    @property
    def cutoff(self):
        # read by perfbench's oracle_decode; a float, as model_fingerprint hashes
        return float(self.cfg.cutoff)


def init_encoder(seed, cfg):
    """Deterministic parameter draw; weights scaled by 1/sqrt(fan-in)."""
    rng = np.random.default_rng(int(seed))
    d_enc = cfg.d_enc
    centers = np.linspace(0.0, cfg.cutoff, N_RBF)
    p = {"rbf_centers": centers}
    for l in range(cfg.L_enc):
        for name, fan_in in (("w_msg", d_enc), ("w_edge", N_RBF),
                             ("w_update", d_enc)):
            p[f"layers.{l}.{name}"] = (rng.standard_normal((fan_in, d_enc))
                                       / np.sqrt(fan_in))
    p["atom_embed"] = rng.standard_normal((N_ELEMENTS, d_enc)) / np.sqrt(d_enc)
    return EncoderParams(cfg=cfg, rbf_width=float(centers[1] - centers[0]),
                         params={k: Tensor(a) for k, a in p.items()})


def _gaussian_basis(dist, centers, width):
    """Gaussian expansion of distances: (E,) -> (E, N_RBF)."""
    dist = np.asarray(dist, dtype=np.float64)
    return np.exp(-((dist[:, None] - centers[None, :]) ** 2) / (2.0 * width**2))


class _EdgeOrder:
    """A graph's edges in one stable sort by atom, then distance, then
    neighbor species, with the tie mask and per-atom layout that every
    sum over them reuses."""

    def __init__(self, ei, dist, species, n):
        self.order = order = np.lexsort((species, dist, ei))
        self.seg = seg = ei[order]  # atom of each sorted edge
        # same[p]: sorted edge p ties with edge p - 1 on all three keys
        self.same = np.ones(len(order), dtype=bool)
        self.same[:1] = False
        for k in (seg, dist[order], species[order]):
            self.same[1:] &= k[1:] == k[:-1]
        self.counts = np.bincount(ei, minlength=n)
        # sorted position of each atom's first edge, and of each edge
        # among its atom's edges
        self.first = np.cumsum(self.counts) - self.counts
        self.slot = np.arange(len(order)) - self.first[seg]


def _ordered_segment_sums(rows, edges, tie_keys=()):
    """Per-atom sums of ``rows``, each added one at a time in edge order.

    ``rows`` holds one row per edge in arrival order.  The runs of edges
    that tie on atom, distance and neighbor species are re-sorted by
    ``tie_keys`` (np.lexsort convention: the last key is the primary
    one); both sorts are stable, so the order is that of one sort on
    every key, at a fraction of its cost.  The sum is a running sum over
    a zero slot followed by the atom's rows in order, so the first add
    is ``0.0 + row`` and each later one adds the next row to the total
    so far.

    The re-sort runs only if some tied run holds unequal rows.  It only
    permutes rows within tied runs, so when those rows are equal the
    sequence of values added is unchanged and the sums are bitwise the
    same.  Equal includes -0.0 == +0.0: a running sum starts at +0.0 and
    so is never -0.0, and adding either zero to it gives the same bits.
    A NaN compares unequal, so a run holding one takes the re-sort.
    """
    order, same = edges.order, edges.same
    ordered = rows[order]
    if tie_keys:
        tie = np.flatnonzero(same)
        if (ordered[tie] != ordered[tie - 1]).any():
            in_run = same.copy()
            in_run[:-1] |= same[1:]  # or row p + 1 ties with row p
            tied = np.flatnonzero(in_run)
            run = np.cumsum(~same)[tied]
            sub = order[tied]
            order = order.copy()
            order[tied] = sub[np.lexsort(tuple(k[sub] for k in tie_keys)
                                         + (run,))]
            ordered = rows[order]
    padded = np.zeros((len(edges.counts), edges.counts.max() + 1,
                       rows.shape[1]))
    padded[edges.seg, edges.slot + 1] = ordered
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
    p = {k: t.data for k, t in params.params.items()}
    h = p["atom_embed"][z - 1].copy()

    ei = np.asarray(graph.edge_i, dtype=np.int64)
    ej = np.asarray(graph.edge_j, dtype=np.int64)
    dist = np.asarray(graph.edge_dist, dtype=np.float64)
    edge_feat = _gaussian_basis(dist, p["rbf_centers"], params.rbf_width)
    edges = _EdgeOrder(ei, dist, z[ej], len(z))
    # an atom's first sorted edge is its nearest neighbor, of weight 1,
    # so a sum is 0 only for an atom with no neighbors; its sum is set
    # to 1, which keeps its all-zero message term at zero
    nearest = dist[edges.order[edges.first[ei]]]
    weight = np.exp(-(dist - nearest) / NEIGHBOR_DECAY)
    weight_sum = _ordered_segment_sums(weight[:, None], edges)[:, 0]
    weight_sum[weight_sum == 0.0] = 1.0

    for l in range(params.cfg.L_enc):
        w = f"layers.{l}."
        msg = np.tanh(h[ej] @ p[w + "w_msg"] + edge_feat @ p[w + "w_edge"])
        # the message components break ties in the edge order
        ties = tuple(msg[:, c] for c in range(msg.shape[1] - 1, -1, -1))
        agg = _ordered_segment_sums(msg * weight[:, None], edges, ties)
        h = np.tanh(h @ p[w + "w_update"] + agg / weight_sum[:, None])
    return h
