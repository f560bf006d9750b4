"""Best-match structural similarity through entropic optimal transport.

Local descriptors of two structures are compared with a linear kernel;
an entropy-regularized transport plan between the two atom sets turns
the local kernel matrix into one structure-level score, normalized so
self-similarity is exactly 1.

Every transport plan comes from one lockstep Sinkhorn solver,
`sinkhorn_plans`, which runs many kernels side by side (Cuturi 2013).
The kernels are sorted by shape and zero-padded into (B, N, M) blocks
of at most `_BLOCK_ELEMENTS` entries.  Its products K v and K^T u are
left-to-right running sums (`np.cumsum`), so the padding adds exact
zeros after each sum and every plan is bitwise the plan its matrix gets
alone; `sinkhorn_transport` is the one-matrix case.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .soap import soap_descriptor

# padded kernel entries per lockstep block: the 171 pairs of 18 structures
# of 1-9 atoms fit one block, and a larger pair is solved alone, unpadded
_BLOCK_ELEMENTS = 1 << 15
# kernel entries similarity_matrix holds at once, so its memory does not
# grow with the square of the total atom count
_CHUNK_ELEMENTS = 1 << 20


def _is_real(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class RematchConfig:
    alpha: float = 1.0
    threshold: float = 1e-6
    max_iter: int = 100000

    def __post_init__(self):
        if not (_is_real(self.alpha) and 0 < self.alpha < math.inf):
            raise ValidationError(
                f"alpha must be positive and finite, got {self.alpha!r}")
        # an infinite threshold would accept any plan at iteration 1
        if not (_is_real(self.threshold) and 0 < self.threshold < math.inf):
            raise ValidationError(
                f"threshold must be positive and finite, got "
                f"{self.threshold!r}")
        if not (isinstance(self.max_iter, numbers.Integral)
                and not isinstance(self.max_iter, bool)
                and self.max_iter >= 1):
            raise ValidationError(
                f"max_iter must be an integer >= 1, got {self.max_iter!r}")


def _check_kernel(C):
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.size == 0:
        raise ValidationError("kernel matrix must be 2-D and nonempty")
    # stated so that NaN fails it
    if not (C.min() >= 0.0 and C.max() <= 1.0):
        raise ValidationError(
            f"kernel entries must be finite and lie in [0, 1], got range "
            f"[{C.min():.3g}, {C.max():.3g}]")
    return C


def _blocks(order, shapes):
    """Split `order` into runs whose padded blocks fit `_BLOCK_ELEMENTS`."""
    blocks, rows, cols = [], 0, 0
    for i in order:
        n, m = shapes[i]
        rows, cols = max(rows, n), max(cols, m)
        if blocks and (len(blocks[-1]) + 1) * rows * cols <= _BLOCK_ELEMENTS:
            blocks[-1].append(i)
        else:
            blocks.append([i])
            rows, cols = n, m
    return blocks


def _lockstep(kernels, cfg):
    """Plans of same-block kernels, each taken at its own converged iterate.

    Both scaling vectors take damped (geometric-mean) updates from the
    same previous iterate instead of the usual alternating sweep.  The
    damping removes the period-two oscillation a plain simultaneous
    update suffers, and the even treatment of rows and columns makes
    the computation exactly transpose-symmetric.
    """
    shapes = np.array([C.shape for C in kernels])
    n, m = shapes[:, :1], shapes[:, 1:]
    C = np.full((len(kernels),) + tuple(shapes.max(axis=0)), -np.inf)
    for b, Cb in enumerate(kernels):
        C[b, :Cb.shape[0], :Cb.shape[1]] = Cb
    # exp((C - 1) / alpha) stays in (0, 1]; the shift is absorbed by the
    # scaling vectors and does not change the plan.  The -inf padding
    # gives K = 0 outside each matrix.
    K = np.exp((C - 1.0) / cfg.alpha)
    rows = np.arange(K.shape[1]) < n
    cols = np.arange(K.shape[2]) < m
    # padded scalings and targets are 0 and stay 0, so padded products
    # add exact zeros; a padded row's K v is 0, and adding 1.0 there keeps
    # 0 / 0 out of the update (x + 0.0 == x on real rows)
    target_r = np.where(rows, 1.0 / n, 0.0)
    target_c = np.where(cols, 1.0 / m, 0.0)
    pad_r, pad_c = (~rows).astype(float), (~cols).astype(float)
    u, v = rows.astype(float), cols.astype(float)
    U, V = np.empty_like(u), np.empty_like(v)
    live = np.arange(len(kernels))
    K_live = K
    # an underflowing row turns the scalings inf, then NaN; the residual
    # check below reports that, so numpy's warnings would only repeat it
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(cfg.max_iter):
            # running sums add in a fixed left-to-right order, so K v of
            # one problem is K^T u of its transpose to the last bit, and
            # padding only appends zeros to each sum
            Kv = np.cumsum(K_live * v[:, None, :], axis=2)[:, :, -1] + pad_r
            KTu = np.cumsum(K_live * u[:, :, None], axis=1)[:, -1, :] + pad_c
            # the plan's row and column sums are u * (K v) and v * (K^T u)
            resid = np.maximum(np.abs(u * Kv - target_r).max(axis=1),
                               np.abs(v * KTu - target_c).max(axis=1))
            if not np.isfinite(resid).all():
                bad = resid[~np.isfinite(resid)][0]
                raise ConvergenceError(
                    f"transport diverged (residual {bad}): a kernel row "
                    f"underflowed at alpha {cfg.alpha}", residual=bad)
            done = resid <= cfg.threshold
            if done.any():
                U[live[done]], V[live[done]] = u[done], v[done]
                if done.all():
                    break
                keep = ~done
                live, K_live, u, v, Kv, KTu = (
                    a[keep] for a in (live, K_live, u, v, Kv, KTu))
                target_r, target_c, pad_r, pad_c = (
                    a[keep] for a in (target_r, target_c, pad_r, pad_c))
            u, v = np.sqrt(u * (target_r / Kv)), np.sqrt(v * (target_c / KTu))
        else:
            raise ConvergenceError(
                f"transport failed to reach {cfg.threshold} in "
                f"{cfg.max_iter} iterations", residual=resid.max())
    # (u_i v_j) K_ij groups each product the same way in both
    # orientations, keeping the transpose property exact
    P = U[:, :, None] * V[:, None, :] * K
    return [P[b, :nb, :mb] for b, (nb, mb) in enumerate(shapes)]


def sinkhorn_plans(kernels, cfg=None):
    """Entropic transport plans with uniform marginals 1/N and 1/M.

    One plan per kernel matrix, in order, each bitwise the plan of its
    matrix solved alone, with sinkhorn(C.T) == sinkhorn(C).T to the last
    bit.  A 1 x 1 kernel's plan is [[1.0]].  A kernel row that underflows
    to zero (small alpha) makes a plan NaN; that raises ConvergenceError
    at once, without floating-point warnings.
    """
    if cfg is None:
        cfg = RematchConfig()
    kernels = [_check_kernel(C) for C in kernels]
    plans = [np.ones((1, 1)) if C.shape == (1, 1) else None for C in kernels]
    shapes = [C.shape for C in kernels]
    order = sorted((i for i, P in enumerate(plans) if P is None),
                   key=shapes.__getitem__)
    for block in _blocks(order, shapes):
        for i, P in zip(block, _lockstep([kernels[i] for i in block], cfg)):
            plans[i] = P
    return plans


def sinkhorn_transport(C, cfg=None):
    """Entropic transport plan of one kernel matrix (see `sinkhorn_plans`)."""
    return sinkhorn_plans([C], cfg)[0]


def _kernel(desc_a, desc_b):
    C = desc_a @ desc_b.T
    # unit descriptors give cosines; clip float fuzz at the boundaries.
    # Stated so that NaN fails it too.
    if not (C.min() >= -1e-8 and C.max() <= 1.0 + 1e-8):
        raise ValidationError(
            "descriptor kernel outside [0, 1]; descriptors must be "
            "unit-length power spectra")
    return np.clip(C, 0.0, 1.0)


def rematch_score(desc_a, desc_b, cfg=None):
    """Unnormalized best-match kernel of two per-atom descriptor sets."""
    desc_a = np.asarray(desc_a, dtype=np.float64)
    desc_b = np.asarray(desc_b, dtype=np.float64)
    if not (np.isfinite(desc_a).all() and np.isfinite(desc_b).all()):
        raise ValidationError("descriptors must be finite")
    C = _kernel(desc_a, desc_b)
    return float(np.sum(sinkhorn_transport(C, cfg) * C))


def rematch_similarity(a, b, soap_cfg=None, rematch_cfg=None):
    """Normalized structure similarity in [0, 1]; 1 for identical inputs."""
    return similarity_matrix([a, b], soap_cfg, rematch_cfg)[0, 1]


def similarity_matrix(structures, soap_cfg=None, rematch_cfg=None):
    """Pairwise normalized similarities in [0, 1], shape (n, n), symmetric.

    The self pairs and the pairs i < j are all solved by `sinkhorn_plans`
    together, in chunks of at most `_CHUNK_ELEMENTS` kernel entries.
    """
    descs = [soap_descriptor(s, soap_cfg) for s in structures]
    n = len(descs)
    pairs = [(i, i) for i in range(n)] + list(
        itertools.combinations(range(n), 2))
    scores, start = [], 0
    while start < len(pairs):
        stop, size = start, 0
        while stop < len(pairs) and size < _CHUNK_ELEMENTS:
            size += len(descs[pairs[stop][0]]) * len(descs[pairs[stop][1]])
            stop += 1
        kernels = [_kernel(descs[i], descs[j]) for i, j in pairs[start:stop]]
        plans = sinkhorn_plans(kernels, rematch_cfg)
        scores += [float(np.sum(P * C)) for P, C in zip(plans, kernels)]
        start = stop
    out = np.eye(n)
    for (i, j), k in zip(pairs[n:], scores[n:]):
        out[i, j] = out[j, i] = k / np.sqrt(scores[i] * scores[j])
    # the normalization can round past 1 when two structures nearly match
    return np.clip(out, 0.0, 1.0)
