"""Local-environment descriptor properties and oracles."""

import re

import numpy as np
import pytest
from scipy import special

from matterbridge import soap
from matterbridge.crystal import Structure, neighbor_list_pbc
from matterbridge.errors import ValidationError
from matterbridge.soap import (MAX_L, MAX_N, SoapConfig, _real_harmonics,
                               _scaled_bessel, descriptor_length,
                               radial_basis, radial_table, soap_descriptor)

from helpers import random_structure


def bessel_oracle(l_max, z):
    """exp(-z) i_l(z) = sqrt(pi / 2z) ive(l + 1/2, z), taken as 1, 0, 0, ..
    for z < 1e-12."""
    z = np.asarray(z, dtype=np.float64)
    small = z < 1e-12
    safe = np.where(small, 1.0, z)
    out = np.stack([np.sqrt(np.pi / (2.0 * safe)) * special.ive(l + 0.5, safe)
                    for l in range(l_max + 1)])
    out[:, small] = 0.0
    out[0, small] = 1.0
    return out


def overlap_oracle(cfg, dist, basis=None):
    """Radial overlaps rad[l, k, n] of each distance with basis function
    n, by quadrature on the radial grid (or on ``basis``, a radial_basis
    result) with scipy's Bessel factor."""
    r, w, ortho = radial_basis(cfg) if basis is None else basis
    alpha = 1.0 / (2.0 * cfg.sigma * cfg.sigma)
    base = ortho * (w * r * r)[None, :]
    dist = np.asarray(dist, dtype=np.float64)
    gauss = np.exp(-alpha * (r[None, :] - dist[:, None]) ** 2)
    bess = bessel_oracle(cfg.l_max, 2.0 * alpha * r * dist[:, None])
    return np.einsum("nq,kq,lkq->lkn", base, gauss, bess)


def reference_soap(structure, cfg):
    """The descriptor by a slower route: one center and one neighbor
    species at a time, complex harmonics one (l, m) at a time, the
    Bessel factor from scipy, then the change to real harmonics."""
    r, w, ortho = radial_basis(cfg)
    alpha = 1.0 / (2.0 * cfg.sigma * cfg.sigma)
    n_sp, lmax, nmax = len(cfg.species), cfg.l_max, cfg.n_max
    idx = {sym: i for i, sym in enumerate(cfg.species)}
    cart = structure.cart_coords
    shells = [[] for _ in structure.species]
    for a, b, off, _ in zip(*neighbor_list_pbc(structure, cfg.r_cut)):
        shells[a].append((idx[structure.species[b]],
                          cart[b] + off @ structure.lattice - cart[a]))
    base = ortho * (w * r * r)[None, :]
    tri = np.triu_indices(nmax)
    rows = []
    for center, shell in enumerate(shells):
        coeff = np.zeros((n_sp, nmax, lmax + 1, 2 * lmax + 1))
        by_species = {}
        for sp, vec in shell + [(idx[structure.species[center]],
                                 np.zeros(3))]:
            by_species.setdefault(sp, []).append(vec)
        for sp, vecs in by_species.items():
            vecs = np.asarray(vecs)
            dist = np.linalg.norm(vecs, axis=1)
            central = dist < 1e-12
            c = np.zeros((nmax, lmax + 1, lmax + 1), dtype=np.complex128)
            c[:, 0, 0] += (np.sum(central) * np.sqrt(4.0 * np.pi)
                           * (base @ np.exp(-alpha * r * r)))
            if np.any(~central):
                vv, dd = vecs[~central], dist[~central]
                theta = np.arccos(np.clip(vv[:, 2] / dd, -1.0, 1.0))
                phi = np.arctan2(vv[:, 1], vv[:, 0])
                rad = overlap_oracle(cfg, dd).transpose(1, 2, 0)
                for l in range(lmax + 1):
                    for m in range(l + 1):
                        y = special.sph_harm_y(l, m, theta, phi)
                        c[:, l, m] += 4.0 * np.pi * (rad[:, :, l].T
                                                     @ np.conj(y))
            coeff[sp, :, :, 0] += c[:, :, 0].real
            for m in range(1, lmax + 1):
                coeff[sp, :, :, 2 * m - 1] += np.sqrt(2.0) * c[:, :, m].real
                coeff[sp, :, :, 2 * m] += np.sqrt(2.0) * c[:, :, m].imag
        blocks = []
        for a in range(n_sp):
            block = np.einsum("nlm,klm->nkl", coeff[a], coeff[a])
            blocks.append((block[tri] * np.where(tri[0] == tri[1], 1.0,
                                                 np.sqrt(2.0))[:, None])
                          .ravel())
            for b in range(a + 1, n_sp):
                blocks.append(np.sqrt(2.0) * np.einsum(
                    "nlm,klm->nkl", coeff[a], coeff[b]).ravel())
        vec = np.concatenate(blocks)
        rows.append(vec / np.linalg.norm(vec))
    return np.stack(rows)


def special_orthogonal(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestConfig:
    def test_defaults(self):
        cfg = SoapConfig()
        assert cfg.r_cut == 6.0
        assert cfg.n_max == 8
        assert cfg.l_max == 6

    def test_validation(self):
        with pytest.raises(ValidationError):
            SoapConfig(r_cut=0.0)
        with pytest.raises(ValidationError):
            SoapConfig(n_max=0)
        with pytest.raises(ValidationError):
            SoapConfig(l_max=0)
        with pytest.raises(ValidationError):
            SoapConfig(sigma=-1.0)
        with pytest.raises(ValidationError):
            SoapConfig(species=("Si", "Si"))

    @pytest.mark.parametrize("field, value, message", [
        ("r_cut", np.inf, "r_cut must be positive and finite"),
        ("r_cut", np.nan, "r_cut must be positive and finite"),
        ("sigma", np.inf, "sigma must be positive and finite"),
        ("sigma", np.nan, "sigma must be positive and finite"),
        # sigma^2 underflows to 0 and 1 / (2 sigma^2) overflows to inf
        ("sigma", 1e-200, "1/(2 sigma^2) finite"),
        ("sigma", 1e-155, "1/(2 sigma^2) finite"),
        ("l_max", MAX_L + 1, f"l_max must be between 1 and {MAX_L}"),
        ("l_max", 100000, f"l_max must be between 1 and {MAX_L}"),
        ("n_max", MAX_N + 1, f"n_max must be between 1 and {MAX_N}"),
        ("n_max", 10 ** 8, f"n_max must be between 1 and {MAX_N}"),
        # RematchConfig's rule: a real number, or an integer, never a bool
        ("n_max", 2.5, "n_max must be between 1 and"),
        ("n_max", True, "n_max must be between 1 and"),
        ("n_max", "8", "n_max must be between 1 and"),
        ("l_max", True, "l_max must be between 1 and"),
        ("l_max", 6.0, "l_max must be between 1 and"),
        ("r_cut", True, "r_cut must be positive and finite"),
        ("r_cut", "6.0", "r_cut must be positive and finite"),
        ("sigma", "0.5", "sigma must be positive and finite"),
        ("sigma", True, "sigma must be positive and finite"),
    ], ids=["r_cut-inf", "r_cut-nan", "sigma-inf", "sigma-nan",
            "sigma-1e-200", "sigma-1e-155", "l_max-13", "l_max-100000",
            "n_max-11", "n_max-1e8", "n_max-2.5", "n_max-bool", "n_max-str",
            "l_max-bool", "l_max-float", "r_cut-bool", "r_cut-str",
            "sigma-str", "sigma-bool"])
    def test_rejects_nonfinite_and_untested_settings(self, field, value,
                                                     message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            SoapConfig(**{field: value})

    def test_accepts_numpy_scalars(self):
        cfg = SoapConfig(r_cut=np.float64(5.0), n_max=np.int64(4),
                         l_max=np.int32(3), sigma=np.float32(0.5))
        assert cfg.n_max == 4 and descriptor_length(cfg) > 0

    def test_caps_are_the_tested_orders(self):
        SoapConfig(l_max=MAX_L, n_max=MAX_N)
        assert MAX_L == 12 and MAX_N == 10


class TestRadialBasis:
    def test_orthonormal_under_r2_measure(self):
        cfg = SoapConfig()
        r, w, G = radial_basis(cfg)
        overlap = (G * (w * r * r)) @ G.T
        np.testing.assert_allclose(overlap, np.eye(cfg.n_max), atol=1e-10)

    def test_singular_gram_is_a_validation_error(self):
        # at r_cut 1e-300 the r^2 weights underflow and the Gram matrix
        # is all zeros
        with pytest.raises(ValidationError, match="not positive definite"):
            radial_basis(SoapConfig(r_cut=1e-300))

    def test_various_sizes(self):
        for n_max in (1, 2, 5, 10):
            cfg = SoapConfig(n_max=n_max)
            r, w, G = radial_basis(cfg)
            overlap = (G * (w * r * r)) @ G.T
            np.testing.assert_allclose(overlap, np.eye(n_max), atol=1e-9)


class TestRadialTable:
    @pytest.mark.parametrize("cfg", [
        SoapConfig(),
        SoapConfig(sigma=0.2),
        SoapConfig(n_max=10, l_max=12),
        SoapConfig(r_cut=3.0),
        SoapConfig(r_cut=10.0),
    ], ids=["default", "sigma0.2", "n10-l12", "r_cut3", "r_cut10"])
    def test_matches_the_quadrature_off_the_nodes(self, cfg):
        coef = radial_table(cfg)
        ends = np.array([0.0, 1e-9, 1e-6, 1e-3])
        dist = np.concatenate([
            ends, cfg.r_cut - ends,
            np.random.default_rng(1016).uniform(0.0, cfg.r_cut, 500)])
        # Clenshaw's sum, not the Vandermonde product the descriptor uses
        got = np.polynomial.chebyshev.chebval(
            dist * (2.0 / cfg.r_cut) - 1.0, np.moveaxis(coef, 1, 0))
        want = overlap_oracle(cfg, dist)
        assert got.shape == (cfg.l_max + 1, cfg.n_max, len(dist))
        assert np.abs(got.transpose(0, 2, 1) - want).max() \
            <= 1e-13 * np.abs(want).max()

    def test_cached_per_config_and_read_only(self):
        table = radial_table(SoapConfig())
        assert radial_table(SoapConfig()) is table
        assert radial_table(SoapConfig(sigma=0.2)) is not table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1.0

    def test_default_config_needs_at_most_64_nodes(self):
        # a convergence rule stricter than the quadrature's rounding
        # would grow every table to the cap and gain nothing
        assert radial_table(SoapConfig()).shape[1] <= 64

    def test_too_narrow_a_gaussian_is_a_validation_error(self):
        with pytest.raises(ValidationError,
                           match="sigma 0.01 is too narrow for the radial"):
            radial_table(SoapConfig(sigma=0.01))

    @pytest.mark.parametrize("r_cut, sigma",
                             [(6.0, 0.05), (6.0, 0.06), (10.0, 0.1)])
    def test_a_gaussian_the_grid_misses_is_a_validation_error(self, r_cut,
                                                              sigma):
        # these tables need 512 nodes, and the 170-node grid is off by
        # 2.7e-11 to 2.7e-8 of the largest overlap here
        with pytest.raises(ValidationError, match=re.escape(
                f"sigma {sigma} is too narrow for the radial grid at "
                f"r_cut {r_cut}")):
            radial_table(SoapConfig(r_cut=r_cut, sigma=sigma))

    @pytest.mark.parametrize("r_cut, sigma", [(6.0, 0.07), (3.0, 0.04)])
    def test_narrowest_tables_match_a_finer_quadrature(self, monkeypatch,
                                                       r_cut, sigma):
        cfg = SoapConfig(r_cut=r_cut, sigma=sigma)
        coef = radial_table(cfg)
        monkeypatch.setattr(soap, "_QUAD_POINTS", 1000)
        fine = radial_basis.__wrapped__(cfg)  # uncached, on 1,000 nodes
        dist = np.concatenate([[0.0, r_cut], np.random.default_rng(
            1016).uniform(0.0, r_cut, 200)])
        got = np.polynomial.chebyshev.chebval(
            dist * (2.0 / r_cut) - 1.0, np.moveaxis(coef, 1, 0))
        want = overlap_oracle(cfg, dist, fine)
        assert np.abs(got.transpose(0, 2, 1) - want).max() \
            <= 1e-12 * np.abs(want).max()


class TestRealHarmonics:
    @pytest.mark.parametrize("l_max", [1, 6, 12])
    def test_matches_scipy(self, l_max):
        rng = np.random.default_rng(l_max)
        random = rng.normal(size=(300, 3)) * rng.uniform(0.5, 6.0, (300, 1))
        axes = 2.5 * np.vstack([np.eye(3), -np.eye(3)])
        near_poles = np.array([[1e-9, 0.0, 1.0], [0.0, -1e-9, 1.0],
                               [1e-9, 1e-9, -1.0], [-1e-9, 0.0, -1.0]])
        vecs = np.vstack([random, axes, near_poles])
        dist = np.linalg.norm(vecs, axis=1)
        got = _real_harmonics(l_max, vecs, dist)
        # theta from arctan2 stays exact next to the poles, where
        # arccos(z / r) rounds to 0
        theta = np.arctan2(np.hypot(vecs[:, 0], vecs[:, 1]), vecs[:, 2])
        phi = np.arctan2(vecs[:, 1], vecs[:, 0])
        want = np.zeros((l_max + 1, len(vecs), 2 * l_max + 1))
        for l in range(l_max + 1):
            want[l, :, 0] = special.sph_harm_y(l, 0, theta, phi).real
            for m in range(1, l + 1):
                y = special.sph_harm_y(l, m, theta, phi)
                want[l, :, 2 * m - 1] = np.sqrt(2.0) * y.real
                want[l, :, 2 * m] = -np.sqrt(2.0) * y.imag
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


class TestScaledBessel:
    @pytest.mark.parametrize("l_max", [1, 6, 12])
    def test_matches_scipy_from_zero_to_4000(self, l_max):
        # the dense stretch crosses the series/recurrence switch point,
        # max(8, l_max^2 / 4), of every l_max here
        z = np.concatenate([[0.0, 5e-13], np.geomspace(1e-12, 4000.0, 4000),
                            np.linspace(0.0, 80.0, 16001)])
        got = _scaled_bessel(l_max, z)
        want = bessel_oracle(l_max, z)
        assert got.shape == (l_max + 1, z.size)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_keeps_the_input_shape(self):
        z = np.linspace(0.0, 50.0, 12).reshape(3, 4)
        assert _scaled_bessel(6, z).shape == (7, 3, 4)


class TestAgainstReference:
    @pytest.mark.parametrize("cfg", [
        SoapConfig(),
        SoapConfig(n_max=1, l_max=1),
        SoapConfig(sigma=0.2),
    ], ids=["default", "n1-l1", "sigma0.2"])
    def test_random_structures(self, cfg):
        rng = np.random.default_rng(1013)
        for _ in range(3):
            s = random_structure(rng, n_min=1, n_max=4)
            np.testing.assert_allclose(soap_descriptor(s, cfg),
                                       reference_soap(s, cfg),
                                       rtol=0.0, atol=1e-12)

    def test_two_species_registry(self):
        cfg = SoapConfig(n_max=5, l_max=4, species=("Si", "O"))
        rng = np.random.default_rng(1014)
        for _ in range(3):
            s = random_structure(rng, n_min=2, n_max=5)
            s = Structure(s.material_id, s.lattice,
                          [cfg.species[k % 2] for k in range(len(s.species))],
                          s.frac_coords)
            np.testing.assert_allclose(soap_descriptor(s, cfg),
                                       reference_soap(s, cfg),
                                       rtol=0.0, atol=1e-12)

    def test_isolated_atom(self):
        s = Structure("lone", np.eye(3) * 30.0, ["Si"],
                      np.array([[0.5, 0.5, 0.5]]))
        cfg = SoapConfig()
        np.testing.assert_allclose(soap_descriptor(s, cfg),
                                   reference_soap(s, cfg), rtol=0.0,
                                   atol=1e-12)

    def test_coincident_atoms(self):
        # a zero-distance neighbor counts as a second on-site Gaussian
        s = Structure("twin", np.eye(3) * 4.0, ["Si", "O", "Si"],
                      np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3],
                                [0.6, 0.5, 0.4]]))
        cfg = SoapConfig(n_max=4, l_max=3)
        d = soap_descriptor(s, cfg)
        np.testing.assert_allclose(d, reference_soap(s, cfg), rtol=0.0,
                                   atol=1e-12)
        assert np.abs(d[0] - d[2]).max() > 1e-3


class TestTiedDistances:
    """High-symmetry cells, whose neighbors share few distances."""

    @pytest.mark.parametrize("structure", [
        Structure("sc", np.eye(3) * 2.6, ["Fe"], np.zeros((1, 3))),
        Structure("bcc", np.eye(3) * 2.87, ["Fe", "Fe"],
                  np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])),
        Structure("rocksalt", 0.5 * 4.5 * (np.ones((3, 3)) - np.eye(3)),
                  ["Ga", "N"], np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])),
    ], ids=lambda s: s.material_id)
    def test_high_symmetry_cells(self, structure):
        cfg = SoapConfig()
        _, _, _, dist = neighbor_list_pbc(structure, cfg.r_cut)
        assert len(np.unique(dist)) < len(dist) / 4
        np.testing.assert_allclose(soap_descriptor(structure, cfg),
                                   reference_soap(structure, cfg),
                                   rtol=0.0, atol=1e-12)

    def test_more_distinct_distances_than_the_largest_shell(self):
        # the opposite case: more distinct distances than any shell holds
        cfg = SoapConfig()
        s = random_structure(np.random.default_rng(1015), n_min=9, n_max=9)
        edge_i, _, _, dist = neighbor_list_pbc(s, cfg.r_cut)
        assert len(np.unique(dist)) > np.bincount(edge_i).max()
        np.testing.assert_allclose(soap_descriptor(s, cfg),
                                   reference_soap(s, cfg), rtol=0.0,
                                   atol=1e-12)


class TestCenterBlocks:
    """Centers are summed in blocks, each (center, species) group of
    neighbors padded to the block's largest; none of it may show."""

    # a dense slab and one far atom: shells of 36 and 4 neighbors
    SLAB = Structure("slab", np.diag([5.0, 5.0, 16.0]),
                     ["Si", "O", "Si", "O", "Ga", "Si", "O", "Si", "Ga"],
                     np.array([[0.1, 0.1, 0.05], [0.6, 0.1, 0.1],
                               [0.1, 0.6, 0.08], [0.6, 0.6, 0.12],
                               [0.35, 0.35, 0.02], [0.85, 0.35, 0.15],
                               [0.35, 0.85, 0.1], [0.85, 0.85, 0.04],
                               [0.5, 0.5, 0.6]]))

    def test_several_blocks_and_unequal_shells_match_the_reference(
            self, monkeypatch):
        cfg = SoapConfig()
        shells = np.bincount(neighbor_list_pbc(self.SLAB, cfg.r_cut)[0])
        assert shells.max() >= 5 * shells.min() > 0
        blocks = []
        sized = soap._center_block
        monkeypatch.setattr(soap, "_center_block",
                            lambda *a: blocks.append(sized(*a)) or blocks[-1])
        got = soap_descriptor(self.SLAB, cfg)
        assert 1 < blocks[0] < len(self.SLAB.species)
        np.testing.assert_allclose(got, reference_soap(self.SLAB, cfg),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("block", [1, 9])
    def test_block_size_does_not_show(self, monkeypatch, block):
        cfg = SoapConfig()
        want = soap_descriptor(self.SLAB, cfg)
        monkeypatch.setattr(soap, "_center_block", lambda *a: block)
        np.testing.assert_allclose(soap_descriptor(self.SLAB, cfg), want,
                                   rtol=0.0, atol=1e-14)


class TestDescriptor:
    def setup_method(self):
        self.cfg = SoapConfig(n_max=4, l_max=3)
        self.rng = np.random.default_rng(77)

    def test_shape_and_unit_norm(self):
        s = random_structure(self.rng, n_min=3, n_max=6)
        d = soap_descriptor(s, self.cfg)
        assert d.shape == (len(s.species), descriptor_length(self.cfg))
        np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0,
                                   atol=1e-12)

    def test_length_formula(self):
        cfg = SoapConfig(n_max=8, l_max=6)
        n_sp = len(cfg.species)
        same = 8 * 9 // 2 * 7
        cross = 64 * 7
        assert descriptor_length(cfg) == n_sp * same \
            + n_sp * (n_sp - 1) // 2 * cross

    def test_translation_invariance(self):
        for _ in range(6):
            s = random_structure(self.rng, n_min=2, n_max=6)
            shift = self.rng.uniform(0, 1, 3)
            moved = Structure(s.material_id, s.lattice, s.species,
                              (s.frac_coords + shift) % 1.0)
            np.testing.assert_allclose(soap_descriptor(s, self.cfg),
                                       soap_descriptor(moved, self.cfg),
                                       atol=1e-8)

    def test_rotation_invariance(self):
        for _ in range(6):
            s = random_structure(self.rng, n_min=2, n_max=6)
            q = special_orthogonal(self.rng)
            rotated = Structure(s.material_id, s.lattice @ q, s.species,
                                s.frac_coords)
            np.testing.assert_allclose(soap_descriptor(s, self.cfg),
                                       soap_descriptor(rotated, self.cfg),
                                       atol=1e-8)

    def test_permutation_invariance(self):
        for _ in range(6):
            s = random_structure(self.rng, n_min=2, n_max=6)
            perm = self.rng.permutation(len(s.species))
            mixed = Structure(s.material_id, s.lattice,
                              [s.species[i] for i in perm],
                              s.frac_coords[perm])
            np.testing.assert_allclose(soap_descriptor(s, self.cfg)[perm],
                                       soap_descriptor(mixed, self.cfg),
                                       atol=1e-8)

    def test_rock_salt_site_equivalence(self):
        lattice = np.eye(3) * 5.64
        frac = np.array([
            [0, 0, 0], [0, .5, .5], [.5, 0, .5], [.5, .5, 0],
            [.5, .5, .5], [.5, 0, 0], [0, .5, 0], [0, 0, .5],
        ], dtype=float)
        species = ["Na"] * 4 + ["Cl"] * 4
        s = Structure("rock-salt", lattice, species, frac)
        d = soap_descriptor(s, SoapConfig(n_max=4, l_max=3,
                                          species=("Cl", "Na")))
        for i in (1, 2, 3):
            np.testing.assert_allclose(d[0], d[i], atol=1e-10)
        for i in (5, 6, 7):
            np.testing.assert_allclose(d[4], d[i], atol=1e-10)
        assert np.abs(d[0] - d[4]).max() > 1e-3

    def test_angular_channels_discriminate(self):
        # same distance multiset, different bond angles
        lattice = np.eye(3) * 4.0
        cfg = SoapConfig(n_max=4, l_max=4, species=("Si",))
        right = Structure("a", lattice, ["Si"] * 3,
                          np.array([[0, 0, 0], [.5, 0, 0], [0, .5, 0]]))
        bent = Structure("b", lattice, ["Si"] * 3,
                         np.array([[0, 0, 0], [.5, 0, 0],
                                   [.25, .4330127, 0]]))
        da = soap_descriptor(right, cfg)
        db = soap_descriptor(bent, cfg)
        assert np.abs(da[0] - db[0]).max() > 1e-3

    def test_supercell_consistency(self):
        # doubling the cell leaves every local environment unchanged
        s = random_structure(self.rng, n_min=2, n_max=4)
        doubled_lattice = s.lattice.copy()
        doubled_lattice[2] *= 2.0
        frac = s.frac_coords.copy()
        frac[:, 2] *= 0.5
        shifted = frac + np.array([0.0, 0.0, 0.5])
        big = Structure("super", doubled_lattice,
                        s.species + s.species,
                        np.vstack([frac, shifted]))
        d_small = soap_descriptor(s, self.cfg)
        d_big = soap_descriptor(big, self.cfg)
        n = len(s.species)
        np.testing.assert_allclose(d_big[:n], d_small, atol=1e-9)
        np.testing.assert_allclose(d_big[n:], d_small, atol=1e-9)

    def test_unregistered_species_error(self):
        s = Structure("x", np.eye(3) * 4.0, ["Au"],
                      np.zeros((1, 3)))
        with pytest.raises(ValidationError, match="Au"):
            soap_descriptor(s, self.cfg)

    def test_deterministic(self):
        s = random_structure(self.rng, n_min=3, n_max=5)
        a = soap_descriptor(s, self.cfg)
        b = soap_descriptor(s, self.cfg)
        np.testing.assert_array_equal(a, b)

    def test_isolated_atom_still_has_descriptor(self):
        # huge cell: only the central atom's own density contributes
        s = Structure("lone", np.eye(3) * 30.0, ["Si"],
                      np.array([[0.5, 0.5, 0.5]]))
        d = soap_descriptor(s, self.cfg)
        assert np.isfinite(d).all()
        assert abs(np.linalg.norm(d[0]) - 1.0) < 1e-12
