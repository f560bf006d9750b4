"""Training objectives for bridge pretraining and instruction finetuning.

Three pretraining losses share one bridge: a contrastive loss over
graph/text pairs, a conditional next-symbol loss for text generation
from query features, and a binary match loss with hard-negative
sampling.  Their unweighted sum is the pretraining objective.
Finetuning uses answer-masked cross-entropy through the language model,
which trains along with the bridge when ``lm_trainable`` is set (the
overfit release gate sets it; see ``trainer``).

Losses are sums over the batch (not means), except the finetune loss,
which sums per sample and then averages over samples.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ValidationError
from .tensor import Tensor, _wrap, concat, log_softmax

__all__ = [
    "sim_matrix",
    "contrastive_loss",
    "lm_token_loss",
    "association_loss",
    "hard_negative_sample",
    "finetune_loss",
]

_CLAMP = 1e-12


def _row_normalize(m):
    norms = m.square().sum(axis=1, keepdims=True).sqrt()
    if np.any(norms.data == 0.0):
        raise ValidationError("cannot normalize a zero vector")
    return m / norms


def sim_matrix(qs, ts):
    """All-pairs similarities: S[i, j] = max_k cos(qs[i][k], ts[j]), (N, N)."""
    qs = [_wrap(q) for q in qs]
    ts = _wrap(ts)
    if ts.ndim != 2 or len(qs) != ts.shape[0]:
        raise ContractError("need one text row per graph")
    n_q = qs[0].shape[0]
    stacked = concat([_row_normalize(q) for q in qs], axis=0)
    tn = _row_normalize(ts)
    scores = stacked @ tn.T  # (N * n_q, N)
    return scores.reshape(len(qs), n_q, len(qs)).max(axis=1)


def contrastive_loss(sims, tau=0.07, symmetric=False):
    """Graph-to-text InfoNCE over matched pairs (summed over the batch).

    ``sims`` is the (N, N) ``sim_matrix`` of the batch, pair i on the
    diagonal.  ``symmetric=True`` adds the text-to-graph direction;
    default off.
    """
    if not tau > 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    sims = _wrap(sims)
    if sims.ndim != 2 or sims.shape[0] != sims.shape[1]:
        raise ContractError(f"need a square sim matrix, got {sims.shape}")
    n = sims.shape[0]
    s = sims * (1.0 / tau)
    diag = (np.arange(n), np.arange(n))
    loss = -(log_softmax(s, axis=-1)[diag]).sum()
    if symmetric:
        loss = loss + -(log_softmax(s.T, axis=-1)[diag]).sum()
    return loss


def lm_token_loss(logits, targets):
    """Summed next-symbol cross-entropy: -sum_t log P(y_t)."""
    logits = _wrap(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 1 or logits.ndim != 2:
        raise ContractError("logits must be (T, V) and targets (T,)")
    if len(targets) != logits.shape[0]:
        raise ContractError("one target per logit row")
    if targets.size and (targets.min() < 0 or targets.max() >= logits.shape[1]):
        raise ValidationError("target id outside vocabulary range")
    logp = log_softmax(logits, axis=-1)
    return -(logp[(np.arange(len(targets)), targets)]).sum()


def association_loss(scores, labels):
    """Binary cross-entropy, scores clamped into [1e-12, 1 - 1e-12]."""
    scores = _wrap(scores)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ContractError("scores and labels must be matching 1-D arrays")
    s = scores.clip(_CLAMP, 1.0 - _CLAMP)
    y = Tensor(labels)
    one = Tensor(np.ones_like(labels))
    return -(y * s.log() + (one - y) * (one - s).log()).sum()


def hard_negative_sample(sim_mat, seed):
    """Per-row softmax-weighted negative draws from an (N, N) sim matrix.

    Row i's off-diagonal similarities define the draw distribution; the
    diagonal (the positive) is excluded.  Returns (text_negatives,
    graph_negatives): text negatives sampled from rows, graph negatives
    from columns.
    """
    sim_mat = np.asarray(sim_mat, dtype=np.float64)
    n = sim_mat.shape[0]
    if sim_mat.shape != (n, n) or n < 2:
        raise ContractError("need a square sim matrix with N >= 2")
    rng = np.random.default_rng(int(seed))

    def draw(matrix):
        picks = np.empty(n, dtype=np.int64)
        for i in range(n):
            cand = np.delete(np.arange(n), i)
            logits = matrix[i, cand]
            w = np.exp(logits - logits.max())
            picks[i] = rng.choice(cand, p=w / w.sum())
        return picks

    return draw(sim_mat), draw(sim_mat.T)


def finetune_loss(samples):
    """Answer-masked cross-entropy, per-sample sums averaged over the batch.

    ``samples`` is a list of (logits (T, V), targets (T,), answer_mask
    (T,) bool); only masked positions contribute.
    """
    if not samples:
        raise ContractError("empty finetune batch")
    per_sample = []
    for logits, targets, mask in samples:
        mask = np.asarray(mask, dtype=bool)
        targets = np.asarray(targets, dtype=np.int64)
        if mask.sum() < 1:
            raise ContractError("answer mask selects no positions")
        idx = np.flatnonzero(mask)
        per_sample.append(lm_token_loss(_wrap(logits)[idx], targets[idx]))
    return sum(per_sample[1:], per_sample[0]) * (1.0 / len(samples))
