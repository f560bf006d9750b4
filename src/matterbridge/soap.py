"""Smooth-overlap descriptors for local atomic environments.

Each atom's neighborhood density (a sum of Gaussians on neighbor sites,
periodic images included) is expanded in an orthonormal Gaussian radial
basis times spherical harmonics.  The rotation-invariant power spectrum
of the expansion coefficients, blocked per species pair and normalized
to unit length, is the per-atom descriptor.

Coefficients are kept in the real spherical-harmonic form, so the power
spectrum is the plain product sum p(Z1, Z2)_{n n' l} = sum_m c_nlm(Z1)
* c_n'lm(Z2), with n <= n' kept on same-species blocks.

Each piece of work is done once per structure.  The real harmonics of
every neighbor come from the normalized associated-Legendre recurrence
on the unit vectors, so no angle is ever formed.  The radial overlaps
(a Gaussian times the closed-form exp(-z) i_l(z), integrated on a
quadrature grid) depend on the neighbor distance alone, so each config
tabulates them once as a Chebyshev series on [0, r_cut], and a
structure reads them back with one Vandermonde product.  Each center's
neighbors are grouped by species and padded to the largest group, so a
block of centers sums every group with one batched product.  Only the
radial basis and the radial table are cached across structures.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .crystal import neighbor_list_pbc, vector_norms
from .errors import ValidationError

DEFAULT_SPECIES = ("C", "Fe", "Ga", "N", "O", "Si")

_QUAD_POINTS = 170
# the radial table starts at _TABLE_NODES Chebyshev nodes and doubles up
# to _MAX_TABLE_NODES; _TABLE_TOL bounds its coefficient tail and its
# error, each as a share of the largest coefficient or overlap
_TABLE_NODES = 32
_MAX_TABLE_NODES = 256
_TABLE_TOL = 1e-13
# the largest orders the test suite validates: the Bessel factor against
# scipy up to l = 12, the radial basis' orthonormality up to n_max = 10
MAX_L = 12
MAX_N = 10


def is_number(x, kind=numbers.Real):
    """Whether x is a ``kind`` number (real, or integral) and not a bool."""
    return isinstance(x, kind) and not isinstance(x, bool)


@dataclass(frozen=True)
class SoapConfig:
    r_cut: float = 6.0
    n_max: int = 8
    l_max: int = 6
    sigma: float = 0.5
    species: tuple = DEFAULT_SPECIES

    def __post_init__(self):
        if not (is_number(self.r_cut) and 0 < self.r_cut < math.inf):
            raise ValidationError(
                f"r_cut must be positive and finite, got {self.r_cut!r}")
        if not (is_number(self.n_max, numbers.Integral)
                and 1 <= self.n_max <= MAX_N):
            raise ValidationError(f"n_max must be between 1 and {MAX_N} "
                                  f"(an integer), got {self.n_max!r}")
        if not (is_number(self.l_max, numbers.Integral)
                and 1 <= self.l_max <= MAX_L):
            raise ValidationError(f"l_max must be between 1 and {MAX_L} "
                                  f"(an integer), got {self.l_max!r}")
        # the Gaussian exponent 1 / (2 sigma^2) must be finite too
        if not (is_number(self.sigma) and 0 < self.sigma < math.inf
                and self.sigma * self.sigma > 0
                and 0.5 / (self.sigma * self.sigma) < math.inf):
            raise ValidationError(
                f"sigma must be positive and finite with 1/(2 sigma^2) "
                f"finite, got {self.sigma!r}")
        if len(set(self.species)) != len(self.species) or not self.species:
            raise ValidationError("species registry must be nonempty, unique")
        object.__setattr__(self, "species", tuple(self.species))


def descriptor_length(cfg):
    same = cfg.n_max * (cfg.n_max + 1) // 2
    cross = cfg.n_max * cfg.n_max
    n_sp = len(cfg.species)
    n_cross = n_sp * (n_sp - 1) // 2
    return (n_sp * same + n_cross * cross) * (cfg.l_max + 1)


@functools.lru_cache(maxsize=32)
def radial_basis(cfg):
    """Orthonormal radial functions sampled on the quadrature grid.

    Gaussian primitives centered along [0, r_cut] (width equal to the
    center spacing, which keeps the Gram matrix well conditioned) are
    orthonormalized against the r^2 measure through the Cholesky factor
    of their Gram matrix.  Returns (r_nodes, weights, G) where G[n, q]
    is the n-th orthonormal function at node q.  Cached per config, so
    the arrays are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(_QUAD_POINTS)
    r, w = 0.5 * cfg.r_cut * (x + 1.0), 0.5 * cfg.r_cut * w
    if cfg.n_max == 1:
        centers = np.array([0.0])
        width = cfg.r_cut
    else:
        centers = np.linspace(0.0, cfg.r_cut, cfg.n_max)
        width = centers[1] - centers[0]
    prim = np.exp(-0.5 * ((r[None, :] - centers[:, None]) / width) ** 2)
    gram = (prim * (w * r * r)) @ prim.T
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise ValidationError(
            f"the radial basis Gram matrix is not positive definite at "
            f"r_cut {cfg.r_cut}, n_max {cfg.n_max}") from None
    ortho = np.linalg.solve(chol, prim)
    for a in (r, w, ortho):
        a.flags.writeable = False
    return r, w, ortho


def _scaled_bessel(l_max, z):
    """exp(-z) * i_l(z) for l = 0..l_max, elementwise over z >= 0.

    Orders 0 and 1 in closed form seed the upward recurrence
    s_{l+1} = s_{l-1} - (2l+1)/z s_l; below the switch point, where that
    recurrence loses digits, every order comes from its power series
    z^l / (2l+1)!! * sum_k c_lk (z^2 / 2)^k, whose terms are all
    positive.  z < 1e-12 counts as z = 0.
    """
    switch = max(8.0, l_max * l_max / 4.0)
    out = np.empty((l_max + 1,) + z.shape)
    # the recurrence runs on every entry; the series overwrites those
    # below the switch
    zb = np.maximum(z, switch)
    em1 = np.expm1(-2.0 * zb)
    np.divide(em1, -2.0 * zb, out=out[0])
    np.divide((1.0 + 0.5 * em1) - out[0], zb, out=out[1])
    for l in range(1, l_max):
        np.subtract(out[l - 1], (2 * l + 1) / zb * out[l], out=out[l + 1])
    series = z < switch
    zs = z[series]
    zs[zs < 1e-12] = 0.0
    x = 0.5 * zs * zs
    # c_lk = prod_{0 < j <= k} 1 / (j (2l + 2j + 1)), c_l0 = 1; at the
    # switch the last term is below 1e-17 of the sum for every l_max
    k = np.arange(1, int(switch) + 20)
    coef = np.cumprod(1.0 / (k * (2 * np.arange(l_max + 1)[:, None]
                                  + 2 * k + 1)), axis=1)
    acc = 1.0 + x * np.polynomial.polynomial.polyval(x, coef.T, tensor=True)
    lead = np.exp(-zs)
    for l in range(l_max + 1):
        out[l][series] = lead * acc[l]
        lead *= zs / (2 * l + 3)
    return out


def _real_harmonics(l_max, vecs, dist):
    """Real Y_l in slots [Y_l0, sqrt2 Re Y_l1, -sqrt2 Im Y_l1, ...],
    shaped (l, neighbor, 2 l_max + 1); slots past 2l stay zero.

    Y_lm = q_lm(cos theta) (sin theta e^{i phi})^m with cos theta = z / r
    and sin theta e^{i phi} = (x + i y) / r, where q_lm is the normalized
    associated Legendre function (Condon-Shortley phase included) over
    sin^m theta, a polynomial in cos theta.  Its recurrences are
    q_00 = 1 / sqrt(4 pi), q_mm = -sqrt((2m + 1) / 2m) q_{m-1,m-1},
    q_{m+1,m} = sqrt(2m + 3) cos theta q_mm and, for l > m + 1,
    q_lm = a_lm (cos theta q_{l-1,m} - b_lm q_{l-2,m}) with
    a_lm = sqrt((4l^2 - 1) / (l^2 - m^2)) and
    b_lm = sqrt(((l - 1)^2 - m^2) / (4 (l - 1)^2 - 1)).
    """
    x, y, z = np.divide(vecs.T, dist, order="C")
    q = np.zeros((l_max + 1, l_max + 1, len(dist)))
    q[0, 0] = 1.0 / np.sqrt(4.0 * np.pi)
    for l in range(1, l_max + 1):
        q[l, l] = -np.sqrt((2 * l + 1) / (2 * l)) * q[l - 1, l - 1]
        q[l, l - 1] = np.sqrt(2 * l + 1) * z * q[l - 1, l - 1]
        m = np.arange(l - 1)[:, None]
        a = np.sqrt((4 * l * l - 1) / (l * l - m * m))
        b = np.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
        q[l, :l - 1] = a * (z * q[l - 1, :l - 1] - b * q[l - 2, :l - 1])
    # slot m takes q_lm times 1, sqrt2 Re w^m or -sqrt2 Im w^m, where
    # w = (x + i y) / r
    harm = np.empty((l_max + 1, len(dist), 2 * l_max + 1))
    harm[:, :, 0] = q[:, 0]
    re, im = np.ones_like(x), np.zeros_like(x)
    for m in range(1, l_max + 1):
        re, im = re * x - im * y, im * x + re * y
        np.multiply(q[:, m], np.sqrt(2.0) * re, out=harm[:, :, 2 * m - 1])
        np.multiply(q[:, m], -np.sqrt(2.0) * im, out=harm[:, :, 2 * m])
    return harm


def _quadrature_overlaps(cfg, dist):
    """Radial overlaps rad[l, k, n] of each distance d_k with basis
    function n by quadrature on the radial grid: the sum over nodes r of
    G_n(r) r^2 w exp(-alpha (r - d_k)^2) exp(-z) i_l(z), z = 2 alpha r
    d_k.  Blocks of 64 distances bound the Bessel temporaries."""
    r, w, ortho = radial_basis(cfg)
    alpha = 1.0 / (2.0 * cfg.sigma * cfg.sigma)
    base = ortho * (w * r * r)
    rad = np.empty((cfg.l_max + 1, len(dist), cfg.n_max))
    for lo in range(0, len(dist), 64):
        dd = dist[lo:lo + 64, None]
        bess = _scaled_bessel(cfg.l_max, 2.0 * alpha * r * dd)
        bess *= np.exp(-alpha * (r - dd) ** 2)
        rad[:, lo:lo + 64] = bess @ base.T
    return rad


def _chebyshev_sum(dist, coef, r_cut):
    """sum_j coef[l, j, n] T_j(2 d / r_cut - 1) for each distance d,
    shaped (l, distance, n)."""
    vander = np.polynomial.chebyshev.chebvander(
        dist * (2.0 / r_cut) - 1.0, coef.shape[1] - 1)
    return vander @ coef


@functools.lru_cache(maxsize=32)
def radial_table(cfg):
    """Chebyshev coefficients coef[l, j, n] of the radial overlaps on
    [0, r_cut], so that rad[l, k, n] = sum_j coef[l, j, n] T_j(2 d_k /
    r_cut - 1).

    Each overlap is analytic in the distance, so its interpolant at N
    Chebyshev nodes converges fast.  N starts at _TABLE_NODES and
    doubles until the last quarter of the coefficients is below
    _TABLE_TOL of the largest and the interpolant matches the
    quadrature, within _TABLE_TOL of the largest overlap, at the N + 1
    Chebyshev extrema: they lie between the nodes and include d = 0 and
    d = r_cut.  A Gaussian that needs more than _MAX_TABLE_NODES nodes
    is narrower than the quadrature grid integrates, and is a
    ValidationError: against a 1,000-node grid, tables of at most 256
    nodes were within 3.4e-13 of the largest overlap, and those of 512
    (sigma 0.04-0.06 at r_cut 6) off by 2.7e-11 to 8.3e-6.  Cached per
    config, so the array is read-only.
    """
    nodes = _TABLE_NODES
    while nodes <= _MAX_TABLE_NODES:
        theta = np.pi * (np.arange(nodes) + 0.5) / nodes
        vals = _quadrature_overlaps(cfg, 0.5 * cfg.r_cut
                                    * (np.cos(theta) + 1.0))
        # T_j at the nodes as cos(j theta): the three-term recurrence
        # loses up to j^2 ulps next to +-1
        coef = np.cos(np.outer(np.arange(nodes), theta)) @ vals
        coef *= 2.0 / nodes
        coef[:, 0] *= 0.5
        scale = np.abs(coef).max()
        if np.abs(coef[:, -(nodes // 4):]).max() <= _TABLE_TOL * scale:
            extrema = 0.5 * cfg.r_cut * (
                np.cos(np.pi * np.arange(nodes + 1) / nodes) + 1.0)
            want = _quadrature_overlaps(cfg, extrema)
            miss = np.abs(_chebyshev_sum(extrema, coef, cfg.r_cut) - want)
            if miss.max() <= _TABLE_TOL * np.abs(want).max():
                coef.flags.writeable = False
                return coef
        nodes *= 2
    raise ValidationError(
        f"sigma {cfg.sigma} is too narrow for the radial grid at r_cut "
        f"{cfg.r_cut}: its overlaps need more than {_MAX_TABLE_NODES} "
        f"Chebyshev nodes")


def _center_block(n_l, nmax, n_p, group, shell):
    """How many centers one block holds, with n_p species present and
    each (center, species) group padded to `group` neighbors.  Their
    padded temporaries stay within n_l * shell * _QUAD_POINTS floats,
    what the Bessel factors of the largest shell take on the quadrature
    grid."""
    width, n_m = n_p * nmax, 2 * n_l - 1
    per_center = n_l * (n_p * group * (nmax + n_m) + width * n_m
                        + 2 * width * width)
    return max(1, n_l * shell * _QUAD_POINTS // per_center)


def soap_descriptor(structure, cfg=None):
    """Per-atom unit-norm power-spectrum descriptors, shape (n_atoms, D)."""
    if cfg is None:
        cfg = SoapConfig()
    r, w, ortho = radial_basis(cfg)
    alpha = 1.0 / (2.0 * cfg.sigma * cfg.sigma)
    n_sp, lmax, nmax = len(cfg.species), cfg.l_max, cfg.n_max
    unknown = set(structure.species) - set(cfg.species)
    if unknown:
        raise ValidationError(f"species {min(unknown)!r} is not in the "
                              f"descriptor registry {cfg.species}")
    species = np.array([cfg.species.index(s) for s in structure.species])
    n_atoms = len(species)
    edge_i, edge_j, offsets, _ = neighbor_list_pbc(structure, cfg.r_cut)
    cart = structure.cart_coords
    vecs = cart[edge_j] + offsets @ structure.lattice - cart[edge_i]
    dist = vector_norms(vecs)
    # on-site Gaussians (the center and any coincident neighbor) only
    # feed the isotropic channel
    central = dist < 1e-12
    counts = np.bincount(edge_i[central] * n_sp + species[edge_j[central]],
                         minlength=n_atoms * n_sp).reshape(n_atoms, n_sp)
    counts[np.arange(n_atoms), species] += 1
    # radial weight common to every neighbor: G_n(r) r^2 w
    base = ortho * (w * r * r)
    onsite = (counts * np.sqrt(4.0 * np.pi))[:, :, None] * (
        base @ np.exp(-alpha * r * r))

    # off-site neighbors ordered by center, then by species, so each
    # (center, species) group is one run
    keep = ~central
    group = edge_i[keep] * n_sp + species[edge_j[keep]]
    order = np.argsort(group, kind="stable")
    vecs, dist = vecs[keep][order], dist[keep][order]
    harm = _real_harmonics(lmax, vecs, dist)
    # overlaps once per distinct distance; inv maps each neighbor to its
    # row, and neighbor len(dist), which pads every group, to a zero row
    uniq, inv = np.unique(dist, return_inverse=True)
    rad = np.zeros((lmax + 1, len(uniq) + 1, nmax))
    rad[:, :-1] = _chebyshev_sum(uniq, radial_table(cfg), cfg.r_cut)
    inv = np.append(inv, len(uniq))
    present = np.flatnonzero(np.bincount(species, minlength=n_sp))
    runs = np.bincount(group, minlength=n_atoms * n_sp)
    starts = (np.cumsum(runs) - runs).reshape(n_atoms, n_sp)[:, present]
    sizes = runs.reshape(n_atoms, n_sp)[:, present]

    # blocks (a, b) with a <= b, keeping n <= n' when a == b; an entry
    # off the block diagonal stands for two in the full symmetric sum,
    # so sqrt(2) keeps dot products of descriptors equal to that sum.
    # Absent species leave their blocks zero, so only pairs of present
    # ones are computed, into their columns of the row.
    a, b, n, k = np.ix_(*map(np.arange, (n_sp, n_sp, nmax, nmax)))
    kept = (a < b) | ((a == b) & (n <= k))
    weight = np.where((a == b) & (n == k), 1.0, np.sqrt(2.0))
    column = np.cumsum(kept).reshape(kept.shape) - 1
    pair = np.ix_(present, present)
    mine = kept[pair]
    column, weight = column[pair][mine], weight[pair][mine, None]

    n_p = len(present)
    rows = np.zeros((n_atoms, descriptor_length(cfg)))
    out = rows.reshape(n_atoms, -1, lmax + 1)
    block = _center_block(lmax + 1, nmax, n_p, int(sizes.max()),
                          int(sizes.sum(axis=1).max()))
    for lo in range(0, n_atoms, block):
        hi = min(lo + block, n_atoms)
        slot = np.arange(sizes[lo:hi].max())
        edge = np.where(slot < sizes[lo:hi, :, None],
                        starts[lo:hi, :, None] + slot, len(dist))
        # coeff[l, c, (species, n), m] in the real-harmonic slot layout;
        # padding takes the last neighbor's harmonics times zero overlaps
        coeff = (4.0 * np.pi * (rad[:, inv[edge]].swapaxes(3, 4) @ np.take(
            harm, edge, axis=1, mode="clip"))).reshape(
                lmax + 1, hi - lo, n_p * nmax, 2 * lmax + 1)
        coeff[0, :, :, 0] += onsite[lo:hi, present].reshape(hi - lo, -1)
        gram = (coeff @ coeff.swapaxes(2, 3)).reshape(
            lmax + 1, hi - lo, n_p, nmax, n_p, nmax)
        out[lo:hi, column] = gram.transpose(1, 2, 4, 3, 5, 0)[:, mine] \
            * weight
    norm = np.linalg.norm(rows, axis=1)
    if np.any(norm == 0.0):
        raise ValidationError(
            f"atom {int(np.argmin(norm))} produced a zero descriptor: r_cut "
            f"{cfg.r_cut} and sigma {cfg.sigma} put no density on the grid")
    rows /= norm[:, None]
    return rows
