"""Best-match structural similarity through entropic optimal transport.

Local descriptors of two structures are compared with a linear kernel;
an entropy-regularized transport plan between the two atom sets turns
the local kernel matrix into one structure-level score, normalized so
self-similarity is exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .soap import soap_descriptor


@dataclass(frozen=True)
class RematchConfig:
    alpha: float = 1.0
    threshold: float = 1e-6
    max_iter: int = 100000

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValidationError(
                f"alpha must be positive and finite, got {self.alpha}")
        if not self.threshold > 0:
            raise ValidationError("threshold must be positive")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be >= 1")


def sinkhorn_transport(C, cfg=None):
    """Entropic transport plan with uniform marginals 1/N and 1/M.

    Both scaling vectors take damped (geometric-mean) updates from the
    same previous iterate instead of the usual alternating sweep.  The
    damping removes the period-two oscillation a plain simultaneous
    update suffers, and the even treatment of rows and columns makes
    the computation exactly transpose-symmetric:
    sinkhorn(C.T) == sinkhorn(C).T to the last bit.
    A kernel row that underflows to zero (small alpha) makes the plan
    NaN; that raises ConvergenceError at once, without floating-point
    warnings.
    """
    if cfg is None:
        cfg = RematchConfig()
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.size == 0:
        raise ValidationError("kernel matrix must be 2-D and nonempty")
    if C.min() < 0.0 or C.max() > 1.0:
        raise ValidationError(
            f"kernel entries must lie in [0, 1], got range "
            f"[{C.min():.3g}, {C.max():.3g}]")
    n, m = C.shape
    if (n, m) == (1, 1):
        return np.ones((1, 1))
    # exp((C - 1) / alpha) stays in (0, 1]; the shift is absorbed by the
    # scaling vectors and does not change the plan
    K = np.ascontiguousarray(np.exp((C - 1.0) / cfg.alpha))
    # materialized transpose so both orientations run identical
    # contiguous matrix-vector products
    KT = np.ascontiguousarray(K.T)
    u = np.full(n, 1.0)
    v = np.full(m, 1.0)
    target_r = 1.0 / n
    target_c = 1.0 / m
    resid = np.inf
    # an underflowing row turns the scalings inf, then NaN; the residual
    # check below reports that, so numpy's warnings would only repeat it
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(cfg.max_iter):
            # the plan's row and column sums are u * (K v) and v * (K^T u);
            # the same two products drive the update
            Kv, KTu = K @ v, KT @ u
            resid = np.maximum(np.abs(u * Kv - target_r).max(),
                               np.abs(v * KTu - target_c).max())
            if resid <= cfg.threshold:
                # outer(u, v) * K groups each product the same way in both
                # orientations, keeping the transpose property exact
                return np.multiply.outer(u, v) * K
            if not np.isfinite(resid):
                raise ConvergenceError(
                    f"transport diverged (residual {resid}): a kernel row "
                    f"underflowed at alpha {cfg.alpha}", residual=resid)
            u, v = np.sqrt(u * (target_r / Kv)), np.sqrt(v * (target_c / KTu))
    raise ConvergenceError(
        f"transport failed to reach {cfg.threshold} in {cfg.max_iter} "
        f"iterations", residual=resid)


def rematch_score(desc_a, desc_b, cfg=None):
    """Unnormalized best-match kernel of two per-atom descriptor sets."""
    desc_a = np.asarray(desc_a, dtype=np.float64)
    desc_b = np.asarray(desc_b, dtype=np.float64)
    C = desc_a @ desc_b.T
    # unit descriptors give cosines; clip float fuzz at the boundaries
    if C.min() < -1e-8 or C.max() > 1.0 + 1e-8:
        raise ValidationError(
            "descriptor kernel outside [0, 1]; descriptors must be "
            "unit-length power spectra")
    C = np.clip(C, 0.0, 1.0)
    P = sinkhorn_transport(C, cfg)
    return float(np.sum(P * C))


def rematch_similarity(a, b, soap_cfg=None, rematch_cfg=None):
    """Normalized structure similarity in [0, 1]; 1 for identical inputs."""
    return similarity_matrix([a, b], soap_cfg, rematch_cfg)[0, 1]


def similarity_matrix(structures, soap_cfg=None, rematch_cfg=None):
    """Pairwise normalized similarities in [0, 1], shape (n, n), symmetric."""
    descs = [soap_descriptor(s, soap_cfg) for s in structures]
    selfs = [rematch_score(d, d, rematch_cfg) for d in descs]
    n = len(structures)
    out = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            k = rematch_score(descs[i], descs[j], rematch_cfg)
            out[i, j] = out[j, i] = k / np.sqrt(selfs[i] * selfs[j])
    # the normalization can round past 1 when two structures nearly match
    return np.clip(out, 0.0, 1.0)
