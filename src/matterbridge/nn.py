"""Transformer building blocks shared by the bridge and the language model.

All parameters are ``Tensor`` objects held in plain dicts keyed by
dotted names; the same names index checkpoint blobs.  Activations are
(T, d) or carry leading batch axes, (B, T, d).  Attention masks are
boolean (T_q, T_k) arrays where True marks an allowed key; forbidden
scores are replaced by -1e30 before softmax, which underflows to an
exactly zero weight.  Each projection, GELU and attention is one
autodiff node (``tensor.affine``, ``tensor.gelu``, ``tensor.attention``).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import Tensor, affine, attention, gelu, grad_enabled, layer_norm

__all__ = ["KVCache", "multi_head_attention", "feed_forward", "init_weight"]


def init_weight(rng, fan_in, fan_out, scale=None):
    """Seeded normal draw scaled by 1/sqrt(fan_in) (or an explicit scale)."""
    if scale is None:
        scale = 1.0 / np.sqrt(fan_in)
    return rng.standard_normal((fan_in, fan_out)) * scale


class KVCache:
    """Projected keys and values of one attention block's earlier positions.

    Buffers of (..., max_len, d_model), their leading batch axes and
    width taken from the first rows stored, and a fill count; only valid
    under ``tensor.no_grad()``, since the stored rows carry no tape.
    """

    def __init__(self, max_len):
        self.max_len = max_len
        self.k = self.v = None
        self.n = 0

    def extend(self, k, v):
        """Append new rows; return Tensors over every row stored so far."""
        if grad_enabled():
            raise ContractError("a K/V cache is only valid under no_grad()")
        total = self.n + k.shape[-2]
        if total > self.max_len:
            raise ContractError(f"sequence length {total} exceeds the "
                                f"cache's {self.max_len}")
        if self.k is None:
            shape = (*k.shape[:-2], self.max_len, k.shape[-1])
            self.k, self.v = np.empty(shape), np.empty(shape)
        self.k[..., self.n:total, :] = k.data
        self.v[..., self.n:total, :] = v.data
        self.n = total
        return Tensor(self.k[..., :total, :]), Tensor(self.v[..., :total, :])


def multi_head_attention(x_q, x_kv, p, prefix, n_heads, mask=None,
                         cache=None):
    """Scaled dot-product attention with ``n_heads`` heads.

    ``p`` maps names to Tensors; this block reads ``{prefix}.wq/wk/wv/wo``
    and ``{prefix}.bq/bk/bv/bo``.  ``x_q`` is (..., T_q, d) and ``x_kv``
    (..., T_k, d_kv).  ``mask`` is boolean (T_q, T_k), True where
    attention is allowed.  With a ``KVCache``, the keys and values
    projected from ``x_kv`` are appended to it and the queries attend to
    every row it holds; T_k then counts those rows.
    """
    q = affine(x_q, p[f"{prefix}.wq"], p[f"{prefix}.bq"])
    k = affine(x_kv, p[f"{prefix}.wk"], p[f"{prefix}.bk"])
    v = affine(x_kv, p[f"{prefix}.wv"], p[f"{prefix}.bv"])
    if cache is not None:
        k, v = cache.extend(k, v)
    return affine(attention(q, k, v, n_heads, mask),
                  p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def feed_forward(x, p, prefix):
    """Two-layer GELU MLP reading ``{prefix}.w1/b1/w2/b2``."""
    h = gelu(affine(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
    return affine(h, p[f"{prefix}.w2"], p[f"{prefix}.b2"])


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
