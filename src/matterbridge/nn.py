"""Transformer building blocks shared by the bridge and the language model.

All parameters are ``Tensor`` objects held in plain dicts keyed by
dotted names; the same names index checkpoint blobs.  Attention masks
are boolean (T_q, T_k) arrays where True marks an allowed key; forbidden
positions receive an additive -1e30 before softmax, which underflows to
an exactly zero weight.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import NEG_MASK, Tensor, concat, layer_norm, softmax

__all__ = ["gelu", "linear", "multi_head_attention", "feed_forward", "init_weight"]


def init_weight(rng, fan_in, fan_out=None, scale=None):
    """Seeded normal draw scaled by 1/sqrt(fan_in) (or an explicit scale)."""
    if scale is None:
        scale = 1.0 / np.sqrt(fan_in)
    shape = (fan_in,) if fan_out is None else (fan_in, fan_out)
    return rng.standard_normal(shape) * scale


def gelu(x):
    # erf form keeps the op smooth for finite-difference checks
    return x * (x * (1.0 / np.sqrt(2.0))).erf() * 0.5 + x * 0.5


def linear(x, w, b=None):
    out = x @ w
    if b is not None:
        out = out + b
    return out


def multi_head_attention(x_q, x_kv, p, prefix, n_heads, mask=None):
    """Scaled dot-product attention with ``n_heads`` heads.

    ``p`` maps names to Tensors; this block reads ``{prefix}.wq/wk/wv/wo``
    and ``{prefix}.bq/bk/bv/bo``.  ``mask`` is boolean (T_q, T_k), True
    where attention is allowed.
    """
    wq, wk, wv, wo = (p[f"{prefix}.{n}"] for n in ("wq", "wk", "wv", "wo"))
    bq, bk, bv, bo = (p[f"{prefix}.{n}"] for n in ("bq", "bk", "bv", "bo"))
    d_model = wq.shape[1]
    if d_model % n_heads:
        raise ShapeError(f"d_model {d_model} not divisible by {n_heads} heads")
    d_head = d_model // n_heads

    q = linear(x_q, wq, bq)
    k = linear(x_kv, wk, bk)
    v = linear(x_kv, wv, bv)

    heads = []
    inv_scale = 1.0 / np.sqrt(d_head)
    for h in range(n_heads):
        sl = (slice(None), slice(h * d_head, (h + 1) * d_head))
        scores = (q[sl] @ k[sl].T) * inv_scale
        if mask is not None:
            scores = scores.masked_fill(~np.asarray(mask, dtype=bool), NEG_MASK)
        heads.append(softmax(scores, axis=-1) @ v[sl])
    merged = concat(heads, axis=1) if n_heads > 1 else heads[0]
    return linear(merged, wo, bo)


def feed_forward(x, p, prefix):
    """Two-layer GELU MLP reading ``{prefix}.w1/b1/w2/b2``."""
    h = gelu(linear(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
    return linear(h, p[f"{prefix}.w2"], p[f"{prefix}.b2"])


def layer_norm_block(x, p, prefix):
    return layer_norm(x, p[f"{prefix}.gamma"], p[f"{prefix}.beta"])


def init_attention(params, rng, prefix, d_model, d_kv=None, out_gain=1.0):
    """Attention weights; ``out_gain`` scales the output projection."""
    d_kv = d_model if d_kv is None else d_kv
    params[f"{prefix}.wq"] = Tensor(init_weight(rng, d_model, d_model), True)
    params[f"{prefix}.wk"] = Tensor(init_weight(rng, d_kv, d_model), True)
    params[f"{prefix}.wv"] = Tensor(init_weight(rng, d_kv, d_model), True)
    params[f"{prefix}.wo"] = Tensor(
        init_weight(rng, d_model, d_model, out_gain / np.sqrt(d_model)), True)
    for n in ("bq", "bk", "bv", "bo"):
        params[f"{prefix}.{n}"] = Tensor(np.zeros(d_model), True)


def init_feed_forward(params, rng, prefix, d_model, d_hidden, out_gain=1.0):
    """MLP weights; ``out_gain`` scales the output layer."""
    params[f"{prefix}.w1"] = Tensor(init_weight(rng, d_model, d_hidden), True)
    params[f"{prefix}.b1"] = Tensor(np.zeros(d_hidden), True)
    params[f"{prefix}.w2"] = Tensor(
        init_weight(rng, d_hidden, d_model, out_gain / np.sqrt(d_hidden)), True)
    params[f"{prefix}.b2"] = Tensor(np.zeros(d_model), True)


def init_layer_norm(params, prefix, d_model):
    params[f"{prefix}.gamma"] = Tensor(np.ones(d_model), True)
    params[f"{prefix}.beta"] = Tensor(np.zeros(d_model), True)
