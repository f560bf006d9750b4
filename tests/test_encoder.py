"""Frozen encoder: determinism, equivariance, geometric invariance."""

from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from helpers import random_structure
from matterbridge.config import load_config
from matterbridge.crystal import Structure, build_graph
from matterbridge.encoder import encode_atoms, init_encoder
from matterbridge.errors import ContractError
from matterbridge.fixtures import build_fixture_corpus
from matterbridge.trainer import build_models

OVERFIT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "overfit.json"


def encode_structure(s, params, cutoff=3.0):
    return encode_atoms(build_graph(s, cutoff), params)


class TestInit:
    def test_same_seed_bit_identical(self):
        a, b = init_encoder(9), init_encoder(9)
        np.testing.assert_array_equal(a.atom_embed, b.atom_embed)
        for la, lb in zip(a.layers, b.layers):
            for k in la:
                np.testing.assert_array_equal(la[k], lb[k])

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            init_encoder(1).atom_embed, init_encoder(2).atom_embed
        )

    def test_invalid_dims_rejected(self):
        with pytest.raises(ContractError):
            init_encoder(0, d_enc=0)
        with pytest.raises(ContractError):
            init_encoder(0, L_enc=0)

    def test_no_gradient_buffers(self):
        p = init_encoder(0)
        for arr in p.state_dict().values():
            assert isinstance(arr, np.ndarray)


class TestEncode:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        p = init_encoder(4, d_enc=16)
        for _ in range(4):
            s = random_structure(rng)
            out = encode_structure(s, p)
            assert out.shape == (s.n_atoms, 16)
            assert np.isfinite(out).all()

    def test_permutation_equivariance_bitwise(self):
        rng = np.random.default_rng(42)
        p = init_encoder(4)
        for _ in range(5):
            s = random_structure(rng, n_min=4, n_max=8)
            perm = rng.permutation(s.n_atoms)
            s2 = Structure(
                s.material_id, s.lattice,
                [s.species[k] for k in perm], s.frac_coords[perm],
            )
            h1 = encode_structure(s, p)
            h2 = encode_structure(s2, p)
            np.testing.assert_array_equal(h1[perm], h2)

    def test_lattice_translation_identity(self):
        rng = np.random.default_rng(8)
        p = init_encoder(4)
        s = random_structure(rng, n_min=3, n_max=5)
        s2 = Structure(s.material_id, s.lattice, s.species,
                       (s.frac_coords + np.array([1.0, 2.0, -1.0])) % 1.0)
        np.testing.assert_allclose(
            encode_structure(s, p), encode_structure(s2, p), atol=1e-10
        )

    def test_rigid_rotation_invariance(self):
        rng = np.random.default_rng(15)
        p = init_encoder(4)
        s = random_structure(rng, n_min=3, n_max=6)
        # random special-orthogonal matrix via QR
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        s2 = Structure(s.material_id, s.lattice @ q, s.species, s.frac_coords)
        np.testing.assert_allclose(
            encode_structure(s, p), encode_structure(s2, p), atol=1e-9
        )

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(21)
        p = init_encoder(4)
        s = random_structure(rng)
        np.testing.assert_array_equal(
            encode_structure(s, p), encode_structure(s, p)
        )

    def test_isolated_atoms_still_encoded(self):
        s = Structure("far", np.eye(3) * 30.0, ["Si", "Fe"],
                      [[0, 0, 0], [0.5, 0.5, 0.5]])
        out = encode_structure(s, init_encoder(4), cutoff=2.0)
        assert out.shape == (2, 32)
        assert np.isfinite(out).all()
        # with no edges the rows depend on species alone
        assert not np.array_equal(out[0], out[1])


class TestFixtureSeparation:
    """The overfit config's encoder keeps the fixture's atoms and materials
    apart: a saturated feature map gives different atoms one row and
    different materials one pooled vector, and nothing downstream can
    tell them apart again."""

    @pytest.fixture(scope="class")
    def encoded(self):
        cfg = load_config(OVERFIT_CONFIG)
        params = build_models(cfg).encoder
        records, _ = build_fixture_corpus()
        return [(rec, encode_atoms(build_graph(rec.structure, cfg.cutoff),
                                   params))
                for rec in records]

    def test_species_get_distinct_rows(self, encoded):
        for rec, h in encoded:
            species = rec.structure.species
            for i, j in combinations(range(len(species)), 2):
                if species[i] != species[j]:
                    gap = np.max(np.abs(h[i] - h[j]))
                    assert gap > 1e-3, (
                        f"{rec.material_id}: {species[i]} atom {i} and "
                        f"{species[j]} atom {j} differ by only {gap:.1e}")

    def test_mean_pooled_materials_distinct(self, encoded):
        pooled = np.array([h.mean(axis=0) for _, h in encoded])
        assert len(pooled) == 32
        gaps = np.linalg.norm(pooled[:, None] - pooled[None], axis=-1)
        i, j = np.triu_indices(len(pooled), 1)
        k = int(np.argmin(gaps[i, j]))
        assert gaps[i[k], j[k]] > 0.02, (
            f"{encoded[i[k]][0].material_id} and {encoded[j[k]][0].material_id}"
            f" pool to vectors {gaps[i[k], j[k]]:.1e} apart")

    def test_features_not_saturated(self, encoded):
        feats = np.concatenate([h.ravel() for _, h in encoded])
        assert np.mean(np.abs(feats) > 0.99) < 0.01
