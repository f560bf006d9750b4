"""Entropic transport plans and best-match structure similarity."""

import time

import numpy as np
import pytest

from matterbridge.errors import ConvergenceError, ValidationError
from matterbridge.rematch import (RematchConfig, rematch_score,
                                  rematch_similarity, similarity_matrix,
                                  sinkhorn_transport)
from matterbridge.soap import SoapConfig, soap_descriptor

from helpers import random_structure

SMALL_SOAP = SoapConfig(n_max=4, l_max=3)


def reference_transport(C, alpha=1.0, tol=1e-12, max_iter=500000):
    """Plain alternating scaling, run far past the tested threshold."""
    n, m = C.shape
    K = np.exp((C - 1.0) / alpha)
    u = np.ones(n)
    v = np.ones(m)
    for _ in range(max_iter):
        u = (1.0 / n) / (K @ v)
        v = (1.0 / m) / (K.T @ u)
        P = u[:, None] * K * v[None, :]
        if max(np.abs(P.sum(1) - 1 / n).max(),
               np.abs(P.sum(0) - 1 / m).max()) <= tol:
            return P
    raise RuntimeError("reference iteration did not converge")


class TestConfig:
    def test_defaults(self):
        cfg = RematchConfig()
        assert cfg.alpha == 1.0
        assert cfg.threshold == 1e-6

    def test_validation(self):
        with pytest.raises(ValidationError):
            RematchConfig(alpha=0.0)
        with pytest.raises(ValidationError):
            RematchConfig(threshold=0.0)
        with pytest.raises(ValidationError):
            RematchConfig(max_iter=0)


class TestSinkhorn:
    def test_one_by_one(self):
        P = sinkhorn_transport(np.array([[0.7]]))
        np.testing.assert_array_equal(P, [[1.0]])

    def test_constant_matrix_uniform(self):
        P = sinkhorn_transport(np.full((3, 5), 0.4))
        np.testing.assert_allclose(P, np.full((3, 5), 1.0 / 15), atol=1e-12)

    def test_two_by_two_against_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            C = rng.uniform(0, 1, (2, 2))
            mine = sinkhorn_transport(C, RematchConfig(threshold=1e-10))
            ref = reference_transport(C)
            np.testing.assert_allclose(mine, ref, atol=1e-8)

    def test_marginals_and_nonnegativity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n, m = rng.integers(1, 9, 2)
            C = rng.uniform(0, 1, (int(n), int(m)))
            P = sinkhorn_transport(C)
            assert P.min() >= 0.0
            assert np.abs(P.sum(axis=1) - 1.0 / n).max() <= 1e-6
            assert np.abs(P.sum(axis=0) - 1.0 / m).max() <= 1e-6

    def test_transpose_symmetry_bitwise(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n, m = rng.integers(1, 8, 2)
            C = rng.uniform(0, 1, (int(n), int(m)))
            P = sinkhorn_transport(C)
            Pt = sinkhorn_transport(np.ascontiguousarray(C.T))
            np.testing.assert_array_equal(P.T, Pt)

    def test_out_of_range_entries_rejected(self):
        with pytest.raises(ValidationError):
            sinkhorn_transport(np.array([[1.2]]))
        with pytest.raises(ValidationError):
            sinkhorn_transport(np.array([[-0.1, 0.5]]))

    def test_nonconvergence_carries_residual(self):
        C = np.array([[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(ConvergenceError) as err:
            sinkhorn_transport(C, RematchConfig(threshold=1e-12, max_iter=2))
        assert err.value.residual > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_underflowing_row_fails_fast(self):
        # at alpha=0.001 the all-zero first row gives exp(-1000) == 0, so
        # the scalings blow up; 10**7 iterations would take minutes
        C = np.array([[0.0, 0.0], [1.0, 0.5], [0.2, 1.0]])
        cfg = RematchConfig(alpha=0.001, max_iter=10**7)
        for kernel in (C, np.ascontiguousarray(C.T)):
            t0 = time.perf_counter()
            with pytest.raises(ConvergenceError) as err:
                sinkhorn_transport(kernel, cfg)
            assert time.perf_counter() - t0 < 5.0
            assert not np.isfinite(err.value.residual)

    def test_bad_shapes(self):
        with pytest.raises(ValidationError):
            sinkhorn_transport(np.zeros((0, 3)))
        with pytest.raises(ValidationError):
            sinkhorn_transport(np.zeros(4))


class TestRematch:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.a = random_structure(rng, n_min=3, n_max=5)
        self.b = random_structure(rng, n_min=3, n_max=5)
        self.da = soap_descriptor(self.a, SMALL_SOAP)
        self.db = soap_descriptor(self.b, SMALL_SOAP)

    def test_self_similarity_is_one(self):
        assert abs(rematch_similarity(self.a, self.a, SMALL_SOAP) - 1.0) \
            <= 1e-10

    def test_symmetry(self):
        ab = rematch_similarity(self.a, self.b, SMALL_SOAP)
        ba = rematch_similarity(self.b, self.a, SMALL_SOAP)
        assert abs(ab - ba) <= 1e-10

    def test_range(self):
        val = rematch_similarity(self.a, self.b, SMALL_SOAP)
        assert 0.0 <= val <= 1.0 + 1e-9

    def test_large_alpha_limit_is_mean(self):
        C = np.clip(self.da @ self.db.T, 0.0, 1.0)
        k = rematch_score(self.da, self.db, RematchConfig(alpha=100.0))
        assert abs(k - C.mean()) <= 1e-4

    def test_sharper_alpha_never_scores_lower(self):
        smooth = rematch_score(self.da, self.db, RematchConfig(alpha=1.0))
        sharp = rematch_score(self.da, self.db, RematchConfig(alpha=0.01))
        assert sharp >= smooth - 1e-12

    def test_similarity_matrix_properties(self):
        rng = np.random.default_rng(33)
        structures = [random_structure(rng, n_min=2, n_max=4)
                      for _ in range(3)]
        S = similarity_matrix(structures, SMALL_SOAP)
        np.testing.assert_allclose(np.diag(S), 1.0, atol=1e-12)
        np.testing.assert_allclose(S, S.T, atol=1e-10)
        assert S.min() >= 0.0

    def test_rotated_copy_scores_one(self):
        rng = np.random.default_rng(40)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        from matterbridge.crystal import Structure

        rotated = Structure("rot", self.a.lattice @ q, self.a.species,
                            self.a.frac_coords)
        assert abs(rematch_similarity(self.a, rotated, SMALL_SOAP) - 1.0) \
            <= 1e-8
