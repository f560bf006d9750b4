"""Frozen character-level causal language model.

Stands in for a large pretrained decoder: a small transformer over a
closed character vocabulary whose parameters are drawn once from a seed
and never trained (a config flag can make them trainable, default off).
Projected query embeddings are prepended to the token embeddings as a
soft prefix; logits are emitted for token positions only.

Tokenization is strict: any character outside the vocabulary raises
instead of substituting an unknown marker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError, TokenizationError
from .nn import (
    feed_forward,
    init_attention,
    init_feed_forward,
    init_layer_norm,
    init_weight,
    layer_norm_block,
    multi_head_attention,
)
from .tensor import Tensor, concat, embedding

__all__ = ["Vocab", "default_vocab", "LmParams", "init_lm", "lm_forward",
           "generate_greedy"]

BOS, EOS, SEP = "<bos>", "<eos>", "<sep>"

_CHARS = (
    " ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
    ".,?!'\"-()/:;_<>+=%&[]"
)


class Vocab:
    """Ordered symbol list: three special tokens then single characters."""

    def __init__(self, symbols):
        self.symbols = list(symbols)
        if len(set(self.symbols)) != len(self.symbols):
            raise ContractError("vocab symbols must be unique")
        self._index = {s: i for i, s in enumerate(self.symbols)}
        for tok in (BOS, EOS, SEP):
            if tok not in self._index:
                raise ContractError(f"vocab missing special token {tok}")
        self.bos_id = self._index[BOS]
        self.eos_id = self._index[EOS]
        self.sep_id = self._index[SEP]
        self._special = {self.bos_id, self.eos_id, self.sep_id}

    def __len__(self):
        return len(self.symbols)

    def tokenize(self, text):
        ids = []
        for ch in text:
            if ch not in self._index:
                raise TokenizationError(f"character {ch!r} not in vocabulary")
            ids.append(self._index[ch])
        return ids

    def detokenize(self, ids):
        # special ids mark sequence structure, not text; skip them
        return "".join(
            self.symbols[i] for i in ids if i not in self._special
        )


def default_vocab():
    return Vocab([BOS, EOS, SEP] + list(_CHARS))


@dataclass
class LmParams:
    vocab: Vocab
    d_lm: int
    L_lm: int
    n_heads: int
    max_len: int
    trainable: bool
    params: dict  # name -> Tensor


def init_lm(seed, vocab=None, d_lm=64, L_lm=2, n_heads=4, max_len=320,
            trainable=False):
    if d_lm < 1 or L_lm < 1:
        raise ContractError("d_lm and L_lm must be >= 1")
    vocab = vocab or default_vocab()
    rng = np.random.default_rng(int(seed))
    p = {}
    p["tok_embed"] = Tensor(init_weight(rng, len(vocab), d_lm), trainable)
    p["pos_embed"] = Tensor(init_weight(rng, max_len, d_lm), trainable)
    for l in range(L_lm):
        init_layer_norm(p, f"layers.{l}.ln1", d_lm)
        init_attention(p, rng, f"layers.{l}.self", d_lm)
        init_layer_norm(p, f"layers.{l}.ln2", d_lm)
        init_feed_forward(p, rng, f"layers.{l}.ffn", d_lm, 4 * d_lm)
    init_layer_norm(p, "ln_f", d_lm)
    if not trainable:
        for t in p.values():
            t.requires_grad = False
    return LmParams(vocab=vocab, d_lm=d_lm, L_lm=L_lm, n_heads=n_heads,
                    max_len=max_len, trainable=trainable, params=p)


def lm_forward(prefix_embs, token_ids, lp):
    """Next-symbol logits (T, V) for the token positions.

    ``prefix_embs`` is an optional (n_prefix, d_lm) block of soft-prompt
    embeddings that precede the tokens; logits at token position t
    depend on the prefix and tokens <= t only.
    """
    token_ids = np.asarray(token_ids, dtype=np.int64)
    if token_ids.ndim != 1 or len(token_ids) < 1:
        raise ContractError("token_ids must be a nonempty 1-D sequence")
    p = lp.params
    if prefix_embs is None:
        n_prefix = 0
        x = None
    else:
        prefix_embs = (prefix_embs if isinstance(prefix_embs, Tensor)
                       else Tensor(prefix_embs))
        if prefix_embs.ndim != 2 or prefix_embs.shape[1] != lp.d_lm:
            raise ShapeError(f"prefix must be (n, {lp.d_lm})")
        n_prefix = prefix_embs.shape[0]
        x = prefix_embs
    T = len(token_ids)
    total = n_prefix + T
    if total > lp.max_len:
        raise ContractError(f"sequence length {total} exceeds {lp.max_len}")

    tok = embedding(p["tok_embed"], token_ids)
    pos = p["pos_embed"][np.arange(total)]
    if x is None:
        x = tok + pos
    else:
        x = concat([x, tok], axis=0) + pos

    mask = np.tril(np.ones((total, total), dtype=bool))
    for l in range(lp.L_lm):
        normed = layer_norm_block(x, p, f"layers.{l}.ln1")
        x = x + multi_head_attention(normed, normed, p, f"layers.{l}.self",
                                     lp.n_heads, mask)
        x = x + feed_forward(layer_norm_block(x, p, f"layers.{l}.ln2"),
                             p, f"layers.{l}.ffn")
    x = layer_norm_block(x, p, "ln_f")
    # output head tied to the token embedding table
    return x[n_prefix:] @ p["tok_embed"].T


def generate_greedy(prefix_embs, prompt_ids, max_new, lp):
    """Deterministic argmax decoding; np.argmax breaks ties on lowest id.

    Stops after ``max_new`` symbols or at EOS; returns the decoded text
    of the generated symbols (EOS excluded).
    """
    if max_new < 1:
        raise ContractError("max_new must be >= 1")
    ids = list(prompt_ids)
    if not ids:
        raise ContractError("prompt must be nonempty")
    generated = []
    for _ in range(max_new):
        logits = lm_forward(prefix_embs, ids, lp)
        nxt = int(np.argmax(logits.data[-1]))
        if nxt == lp.vocab.eos_id:
            break
        generated.append(nxt)
        ids.append(nxt)
    return lp.vocab.detokenize(generated)
