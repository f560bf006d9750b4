"""Trainable query-transformer bridging atom embeddings and text.

A bank of learned query vectors passes through L_b transformer layers.
Every layer self-attends over the concatenated [queries; text] sequence
under a mode-specific mask; even-indexed layers (0, 2, ...) additionally
let the query positions cross-attend onto the frozen per-atom
embeddings.  Query outputs project linearly into the language model's
embedding space.

Interaction modes:

* ``correlation``  - queries and text see only their own segment; used
  for the contrastive objective.
* ``prediction``   - text attends causally to itself and to all queries;
  queries see only queries; used for conditional text generation.
* ``association``  - full bidirectional attention; used for match
  scoring.
* ``inference``    - queries only, no text.

``bridge_forward`` alone checks the mode and whether it takes text.
Association and inference attend unmasked, bitwise as under an all-True
mask; ``attention_mask`` builds the other two modes' masks.

Inference mode also takes the atoms of B structures with one atom count
as a (B, n_atoms, d_enc) stack: the shared queries run once up to the
first cross-attention, whose batch axes broadcast them over B, and every
row comes out bitwise as it does alone.  ``rag.material_prefixes`` builds
every prefix for decoding and embedding this way.  One structure's
(n_atoms, d_enc) atoms remain a form: the text modes take one structure,
finetuning builds each sample's prefix alone (``lm_prefix``), and
``perfbench``'s ``oracle_decode`` runs one structure in inference mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .nn import (
    feed_forward,
    init_attention,
    init_feed_forward,
    init_layer_norm,
    init_weight,
    layer_norm_block,
    multi_head_attention,
)
from .tensor import Tensor, affine, concat, embedding

MODES = ("correlation", "prediction", "association", "inference")
# init gains relative to the 1/sqrt(fan-in) scale (see init_bridge)
SHARED_GAIN = 0.1
QUERY_GAIN = 0.3
CROSS_GAIN = 3.0

__all__ = [
    "MODES",
    "BridgeParams",
    "init_bridge",
    "attention_mask",
    "bridge_forward",
    "project_to_lm",
    "lm_prefix",
    "text_logits",
    "match_score",
]


@dataclass
class BridgeParams:
    n_q: int
    d_b: int
    L_b: int
    n_heads: int
    d_enc: int
    d_lm: int
    max_text: int
    params: dict  # name -> Tensor, all trainable


def init_bridge(seed, vocab_size, d_b=32, n_q=32, L_b=4, n_heads=4,
                d_enc=32, d_lm=64, max_text=256):
    """Seeded parameter draw.

    Weights start at the 1/sqrt(fan-in) scale times a gain.  The parts
    of the query stream that are the same for every structure start
    small: the segment embeddings and the self-attention and
    feed-forward outputs at SHARED_GAIN, the query bank at QUERY_GAIN.
    The cross-attention read-out of the atoms starts at CROSS_GAIN, so
    it dominates the query outputs and different structures get clearly
    different prefixes from the first step.  With every gain at 1, the
    segment embedding (one vector added to every query) and the
    self-attention output (one vector for every query, as the queries
    attend evenly to each other) swamp the read-out: on the fixture the
    part of the prefix that differs between materials is then 15 % of
    its norm, against 57 % with these gains.
    """
    rng = np.random.default_rng(int(seed))
    g = SHARED_GAIN
    p = {}
    p["queries"] = Tensor(
        init_weight(rng, n_q, d_b, QUERY_GAIN / np.sqrt(n_q)), True)
    p["tok_embed"] = Tensor(init_weight(rng, vocab_size, d_b), True)
    p["pos_embed"] = Tensor(init_weight(rng, max_text, d_b), True)
    p["seg_embed"] = Tensor(init_weight(rng, 2, d_b, g / np.sqrt(2)), True)
    for l in range(L_b):
        init_layer_norm(p, f"layers.{l}.ln1", d_b)
        init_attention(p, rng, f"layers.{l}.self", d_b, out_gain=g)
        if l % 2 == 0:
            init_layer_norm(p, f"layers.{l}.lnc", d_b)
            init_attention(p, rng, f"layers.{l}.cross", d_b, d_kv=d_enc,
                           out_gain=CROSS_GAIN)
        init_layer_norm(p, f"layers.{l}.ln2", d_b)
        init_feed_forward(p, rng, f"layers.{l}.ffn", d_b, 4 * d_b,
                          out_gain=g)
    init_layer_norm(p, "ln_f", d_b)
    p["proj.w"] = Tensor(init_weight(rng, d_b, d_lm), True)
    p["proj.b"] = Tensor(np.zeros(d_lm), True)
    p["match.w"] = Tensor(init_weight(rng, d_b, 1), True)
    p["match.b"] = Tensor(np.zeros(1), True)
    return BridgeParams(
        n_q=n_q, d_b=d_b, L_b=L_b, n_heads=n_heads, d_enc=d_enc, d_lm=d_lm,
        max_text=max_text, params=p,
    )


def attention_mask(mode, n_q, n_text):
    """Boolean (n_q+n_text)^2 mask, True where a key is allowed, of the
    correlation and prediction modes; None for the unmasked others."""
    if mode not in ("correlation", "prediction"):
        return None
    total = n_q + n_text
    mask = np.zeros((total, total), dtype=bool)
    mask[:n_q, :n_q] = True
    if mode == "correlation":
        mask[n_q:, n_q:] = True
    else:
        mask[n_q:, :n_q] = True
        mask[n_q:, n_q:] = np.tril(np.ones((n_text, n_text), dtype=bool))
    return mask


def bridge_forward(atoms, text_ids, mode, bp):
    """Run the bridge; returns {"query_out", "text_out"} Tensors.

    ``atoms`` is one structure's (n_atoms, d_enc) embeddings, and
    ``query_out`` is (n_q, d_b).  Inference mode also takes a
    (B, n_atoms, d_enc) stack of B structures and gives (B, n_q, d_b),
    each row bitwise what its structure gives alone.
    """
    if mode not in MODES:
        raise ContractError(f"unknown attention mode {mode!r}")
    text_ids = np.asarray(() if text_ids is None else text_ids, np.int64)
    n_text = len(text_ids)
    if (mode == "inference") != (n_text == 0):
        raise ContractError("inference mode takes no text" if n_text
                            else f"{mode} mode requires text tokens")
    if n_text > bp.max_text:
        raise ContractError(f"text length {n_text} exceeds {bp.max_text}")

    atoms = atoms if isinstance(atoms, Tensor) else Tensor(atoms)
    rank = 3 if mode == "inference" and atoms.ndim == 3 else 2
    if atoms.ndim != rank or atoms.shape[-1] != bp.d_enc:
        raise ShapeError(f"atom embeddings must be (n, {bp.d_enc}), or "
                         f"(B, n, {bp.d_enc}) in inference mode")
    if min(atoms.shape[:-1]) < 1:
        raise ContractError("bridge needs at least one atom")

    p = bp.params
    n_q = bp.n_q
    seg_q = p["seg_embed"][np.zeros(n_q, dtype=np.int64)]
    x = p["queries"] + seg_q
    if n_text:
        tok = embedding(p["tok_embed"], text_ids)
        pos = p["pos_embed"][:n_text]
        seg_t = p["seg_embed"][np.ones(n_text, dtype=np.int64)]
        x = concat([x, tok + pos + seg_t], axis=0)

    mask = attention_mask(mode, n_q, n_text)
    for l in range(bp.L_b):
        normed = layer_norm_block(x, p, f"layers.{l}.ln1")
        x = x + multi_head_attention(normed, normed, p, f"layers.{l}.self",
                                     bp.n_heads, mask)
        if l % 2 == 0:
            q_rows = x[..., :n_q, :]
            q_norm = layer_norm_block(q_rows, p, f"layers.{l}.lnc")
            crossed = q_rows + multi_head_attention(
                q_norm, atoms, p, f"layers.{l}.cross", bp.n_heads
            )
            x = concat([crossed, x[n_q:]], axis=0) if n_text else crossed
        x = x + feed_forward(layer_norm_block(x, p, f"layers.{l}.ln2"),
                             p, f"layers.{l}.ffn")
    x = layer_norm_block(x, p, "ln_f")
    return {
        "query_out": x[..., :n_q, :],
        "text_out": x[n_q:] if n_text else None,
    }


def project_to_lm(query_out, bp):
    """Affine map of query outputs into LM embedding space, rows independent.

    ``query_out`` is (..., n_q, d_b); the result is (..., n_q, d_lm).
    """
    if query_out.shape[-1] != bp.d_b:
        raise ShapeError(
            f"query_out width {query_out.shape[-1]} != d_b {bp.d_b}"
        )
    return affine(query_out, bp.params["proj.w"], bp.params["proj.b"])


def lm_prefix(atoms, bp):
    """Inference-mode query outputs projected into the LM.

    (n_atoms, d_enc) atoms give an (n_q, d_lm) prefix and a
    (B, n_atoms, d_enc) stack gives (B, n_q, d_lm).
    """
    out = bridge_forward(atoms, None, "inference", bp)
    return project_to_lm(out["query_out"], bp)


def text_logits(text_out, bp):
    """Next-symbol logits from the bridge's text pathway, head tied to tok_embed."""
    return text_out @ bp.params["tok_embed"].T


def match_score(query_out, bp):
    """Scalar match probability in (0, 1): linear head on mean query output."""
    pooled = query_out.mean(axis=0).reshape(1, -1)
    logit = affine(pooled, bp.params["match.w"], bp.params["match.b"])
    return logit.sigmoid().reshape(())
