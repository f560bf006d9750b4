"""Smooth-overlap descriptors for local atomic environments.

Each atom's neighborhood density (a sum of Gaussians on neighbor sites,
periodic images included) is expanded in an orthonormal Gaussian radial
basis times spherical harmonics.  The rotation-invariant power spectrum
of the expansion coefficients, blocked per species pair and normalized
to unit length, is the per-atom descriptor.

Coefficients are kept in the real spherical-harmonic form, so the power
spectrum is the plain product sum p(Z1, Z2)_{n n' l} = sum_m c_nlm(Z1)
* c_n'lm(Z2), with n <= n' kept on same-species blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .crystal import neighbor_list_pbc
from .errors import ValidationError

DEFAULT_SPECIES = ("C", "Fe", "Ga", "N", "O", "Si")

_QUAD_POINTS = 170


@dataclass(frozen=True)
class SoapConfig:
    r_cut: float = 6.0
    n_max: int = 8
    l_max: int = 6
    sigma: float = 0.5
    periodic: bool = True
    species: tuple = DEFAULT_SPECIES

    def __post_init__(self):
        if not self.r_cut > 0:
            raise ValidationError("r_cut must be positive")
        if self.n_max < 1 or self.l_max < 1:
            raise ValidationError("n_max and l_max must be >= 1")
        if not self.sigma > 0:
            raise ValidationError("sigma must be positive")
        if len(set(self.species)) != len(self.species) or not self.species:
            raise ValidationError("species registry must be nonempty, unique")
        object.__setattr__(self, "species", tuple(self.species))


def descriptor_length(cfg):
    same = cfg.n_max * (cfg.n_max + 1) // 2
    cross = cfg.n_max * cfg.n_max
    n_sp = len(cfg.species)
    n_cross = n_sp * (n_sp - 1) // 2
    return (n_sp * same + n_cross * cross) * (cfg.l_max + 1)


def _quadrature(r_cut):
    x, w = np.polynomial.legendre.leggauss(_QUAD_POINTS)
    r = 0.5 * r_cut * (x + 1.0)
    return r, 0.5 * r_cut * w


def radial_basis(cfg):
    """Orthonormal radial functions sampled on the quadrature grid.

    Gaussian primitives centered along [0, r_cut] (width equal to the
    center spacing, which keeps the Gram matrix well conditioned) are
    orthonormalized against the r^2 measure through the Cholesky factor
    of their Gram matrix.  Returns (r_nodes, weights, G) where G[n, q]
    is the n-th orthonormal function at node q.
    """
    r, w = _quadrature(cfg.r_cut)
    if cfg.n_max == 1:
        centers = np.array([0.0])
        width = cfg.r_cut
    else:
        centers = np.linspace(0.0, cfg.r_cut, cfg.n_max)
        width = centers[1] - centers[0]
    prim = np.exp(-0.5 * ((r[None, :] - centers[:, None]) / width) ** 2)
    gram = (prim * (w * r * r)) @ prim.T
    chol = np.linalg.cholesky(gram)
    ortho = np.linalg.solve(chol, prim)
    return r, w, ortho


def _scaled_bessel(l_max, z):
    """exp(-z) * i_l(z) for l = 0..l_max, elementwise over z >= 0."""
    z = np.asarray(z, dtype=np.float64)
    out = np.zeros((l_max + 1,) + z.shape)
    small = z < 1e-12
    safe = np.where(small, 1.0, z)
    pref = np.sqrt(np.pi / (2.0 * safe))
    for l in range(l_max + 1):
        vals = pref * special.ive(l + 0.5, safe)
        out[l] = np.where(small, 1.0 if l == 0 else 0.0, vals)
    return out


def _harmonics(l_max, theta, phi):
    """Complex Y_lm for m >= 0, shaped (l, m, neighbor)."""
    k = theta.shape[0]
    out = np.zeros((l_max + 1, l_max + 1, k), dtype=np.complex128)
    for l in range(l_max + 1):
        for m in range(l + 1):
            out[l, m] = special.sph_harm_y(l, m, theta, phi)
    return out


def _real_coefficients(c_complex, l_max):
    """Convert complex-harmonic coefficients to the real-harmonic form.

    Input (n, l, m >= 0) complex; output (n, l, 2 l_max + 1) real with
    slots [c_l0, sqrt2 Re c_l1, sqrt2 Im c_l1, ...]; unused slots zero.
    """
    n_max = c_complex.shape[0]
    out = np.zeros((n_max, l_max + 1, 2 * l_max + 1))
    out[:, :, 0] = c_complex[:, :, 0].real
    for m in range(1, l_max + 1):
        out[:, :, 2 * m - 1] = np.sqrt(2.0) * c_complex[:, :, m].real
        out[:, :, 2 * m] = np.sqrt(2.0) * c_complex[:, :, m].imag
    return out


def _neighbor_shells(structure, cfg):
    """Per-center lists of (species index, displacement vectors)."""
    idx = {sym: i for i, sym in enumerate(cfg.species)}
    for sym in set(structure.species):
        if sym not in idx:
            raise ValidationError(
                f"species {sym!r} is not in the descriptor registry "
                f"{cfg.species}")
    edge_i, edge_j, offsets, _ = neighbor_list_pbc(structure, cfg.r_cut)
    cart = structure.cart_coords
    lattice = structure.lattice
    shells = [[] for _ in range(len(structure.species))]
    for a, b, off in zip(edge_i, edge_j, offsets):
        vec = cart[b] + off @ lattice - cart[a]
        shells[a].append((idx[structure.species[b]], vec))
    return shells, idx


def soap_descriptor(structure, cfg=None):
    """Per-atom unit-norm power-spectrum descriptors, shape (n_atoms, D)."""
    if cfg is None:
        cfg = SoapConfig()
    r, w, ortho = radial_basis(cfg)
    alpha = 1.0 / (2.0 * cfg.sigma * cfg.sigma)
    n_sp = len(cfg.species)
    lmax, nmax = cfg.l_max, cfg.n_max
    shells, idx = _neighbor_shells(structure, cfg)
    wr2 = w * r * r
    # radial weight common to every neighbor: G_n(r) r^2 w
    base = ortho * wr2[None, :]

    rows = []
    tri = np.triu_indices(nmax)
    for center, shell in enumerate(shells):
        # coefficients per species in real-harmonic layout
        coeff = np.zeros((n_sp, nmax, lmax + 1, 2 * lmax + 1))
        by_species = {}
        for sp, vec in shell:
            by_species.setdefault(sp, []).append(vec)
        self_sp = idx[structure.species[center]]
        by_species.setdefault(self_sp, []).append(np.zeros(3))
        for sp, vecs in by_species.items():
            vecs = np.asarray(vecs)
            dist = np.linalg.norm(vecs, axis=1)
            central = dist < 1e-12
            c_cplx = np.zeros((nmax, lmax + 1, lmax + 1),
                              dtype=np.complex128)
            if np.any(central):
                # an on-site Gaussian only feeds the isotropic channel
                radial = base @ np.exp(-alpha * r * r)
                c_cplx[:, 0, 0] += (np.sum(central) * np.sqrt(4.0 * np.pi)
                                    * radial)
            if np.any(~central):
                vv = vecs[~central]
                dd = dist[~central]
                theta = np.arccos(np.clip(vv[:, 2] / dd, -1.0, 1.0))
                phi = np.arctan2(vv[:, 1], vv[:, 0])
                gauss = np.exp(-alpha * (r[None, :] - dd[:, None]) ** 2)
                bess = _scaled_bessel(
                    lmax, 2.0 * alpha * r[None, :] * dd[:, None])
                # I[k, n, l]: radial overlap of neighbor k
                rad = np.einsum("nq,kq,lkq->knl", base, gauss, bess)
                harm = _harmonics(lmax, theta, phi)
                c_cplx += 4.0 * np.pi * np.einsum(
                    "knl,lmk->nlm", rad, np.conj(harm))
            coeff[sp] += _real_coefficients(c_cplx, lmax)

        blocks = []
        for a in range(n_sp):
            block = np.einsum("nlm,klm->nkl", coeff[a], coeff[a])
            kept = block[tri[0], tri[1], :]
            # off-diagonal (n < n') pairs appear once in the compressed
            # block but twice in the full symmetric sum; sqrt(2) keeps
            # dot products of descriptors equal to the full sum
            kept = kept * np.where(tri[0] == tri[1], 1.0,
                                   np.sqrt(2.0))[:, None]
            blocks.append(kept.ravel())
            for b in range(a + 1, n_sp):
                cross = np.einsum("nlm,klm->nkl", coeff[a], coeff[b])
                blocks.append(np.sqrt(2.0) * cross.ravel())
        vec = np.concatenate(blocks)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise ValidationError(
                f"atom {center} produced a zero descriptor")
        rows.append(vec / norm)
    return np.stack(rows)
