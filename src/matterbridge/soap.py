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
(a Gaussian times the closed-form exp(-z) i_l(z) on a cached quadrature
grid) are integrated once per distinct neighbor distance, in blocks no
larger than the largest center shell.  Each center then gathers its
neighbors' overlaps and sums them per species with a one-hot product.
Nothing is cached across structures except the radial basis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .crystal import neighbor_list_pbc, vector_norms
from .errors import ValidationError

DEFAULT_SPECIES = ("C", "Fe", "Ga", "N", "O", "Si")

_QUAD_POINTS = 170
# the largest orders the test suite validates: the Bessel factor against
# scipy up to l = 12, the radial basis' orthonormality up to n_max = 10
MAX_L = 12
MAX_N = 10


@dataclass(frozen=True)
class SoapConfig:
    r_cut: float = 6.0
    n_max: int = 8
    l_max: int = 6
    sigma: float = 0.5
    species: tuple = DEFAULT_SPECIES

    def __post_init__(self):
        if not 0 < self.r_cut < math.inf:
            raise ValidationError(
                f"r_cut must be positive and finite, got {self.r_cut}")
        if not 1 <= self.n_max <= MAX_N:
            raise ValidationError(
                f"n_max must be between 1 and {MAX_N}, got {self.n_max}")
        if not 1 <= self.l_max <= MAX_L:
            raise ValidationError(
                f"l_max must be between 1 and {MAX_L}, got {self.l_max}")
        # the Gaussian exponent 1 / (2 sigma^2) must be finite too
        if not (0 < self.sigma < math.inf and self.sigma * self.sigma > 0
                and 0.5 / (self.sigma * self.sigma) < math.inf):
            raise ValidationError(
                f"sigma must be positive and finite with 1/(2 sigma^2) "
                f"finite, got {self.sigma}")
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


def _radial_overlaps(dist, block, l_max, r, base, alpha):
    """Radial overlaps rad[l, u, n] of each distinct distance u of dist
    with basis function n, and each distance's index into them.  Blocks
    of at most `block` distances keep the Bessel temporaries no larger
    than one center's shell would make them."""
    uniq, inv = np.unique(dist, return_inverse=True)
    rad = np.empty((l_max + 1, len(uniq), base.shape[0]))
    block = max(block, 1)
    for lo in range(0, len(uniq), block):
        dd = uniq[lo:lo + block, None]
        bess = _scaled_bessel(l_max, 2.0 * alpha * r * dd)
        bess *= np.exp(-alpha * (r - dd) ** 2)
        rad[:, lo:lo + block] = bess @ base.T
        # freed before the next block's is made
        del bess
    return rad, inv


def _neighbor_coefficients(rad, onehot, harm):
    """Density coefficients c[l, (species, n), m] of one center's
    off-site neighbors: neighbor k has radial overlaps rad[:, k],
    species onehot[k] and real harmonics harm[:, k].  Each overlap is
    moved into its species' rows so one product sums every species at
    once."""
    n_l, n_k, nmax = rad.shape
    split = (onehot[:, :, None] * rad[:, :, None, :]).reshape(
        n_l, n_k, onehot.shape[1] * nmax)
    return 4.0 * np.pi * (split.transpose(0, 2, 1) @ harm)


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

    keep = ~central
    edge_i, dist = edge_i[keep], dist[keep]
    onehot = species[edge_j[keep]][:, None] == np.arange(n_sp)
    harm = _real_harmonics(lmax, vecs[keep], dist)
    bounds = np.searchsorted(edge_i, np.arange(n_atoms + 1))
    rad, inv = _radial_overlaps(dist, int(np.diff(bounds).max()), lmax, r,
                                base, alpha)
    # blocks (a, b) with a <= b, keeping n <= n' when a == b; an entry
    # off the block diagonal stands for two in the full symmetric sum,
    # so sqrt(2) keeps dot products of descriptors equal to that sum
    a, b, n, k = np.ix_(*map(np.arange, (n_sp, n_sp, nmax, nmax)))
    kept = (a < b) | ((a == b) & (n <= k))
    weight = np.where((a == b) & (n == k), 1.0, np.sqrt(2.0))[kept, None]

    rows = np.empty((n_atoms, descriptor_length(cfg)))
    for center, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        # coeff[l, (species, n), m] in the real-harmonic slot layout
        coeff = _neighbor_coefficients(rad[:, inv[lo:hi]], onehot[lo:hi],
                                       harm[:, lo:hi])
        coeff[0, :, 0] += onsite[center].ravel()
        gram = (coeff @ coeff.transpose(0, 2, 1)).reshape(
            lmax + 1, n_sp, nmax, n_sp, nmax).transpose(1, 3, 2, 4, 0)
        rows[center] = (gram[kept] * weight).ravel()
    norm = np.linalg.norm(rows, axis=1)
    if np.any(norm == 0.0):
        raise ValidationError(
            f"atom {int(np.argmin(norm))} produced a zero descriptor: r_cut "
            f"{cfg.r_cut} and sigma {cfg.sigma} put no density on the grid")
    rows /= norm[:, None]
    return rows
