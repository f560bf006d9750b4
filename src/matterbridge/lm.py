"""Character-level causal language model.

Stands in for a large pretrained decoder: a small transformer over a
closed character vocabulary whose parameters are drawn once from a
seed.  It stays frozen unless ``lm_trainable`` is set (default off);
the overfit release gate sets it, for the reason ``trainer`` gives.
Projected query embeddings are prepended to the token embeddings as a
soft prefix; logits are emitted for token positions only.  Decoding has
one form: ``generate_greedy`` maps a (B, n_prefix, d_lm) stack of
prefixes to B strings; one material is B = 1.  ``lm_forward`` keeps (T,)
ids next to (B, T) ones, as finetuning feeds one sample at a time and
``perfbench``'s ``oracle_decode`` (the reference decode of its ``infer``
check) calls that form too.

Tokenization is strict: any character outside the vocabulary raises
instead of substituting an unknown marker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError, TokenizationError
from .nn import (
    KVCache,
    feed_forward,
    init_attention,
    init_feed_forward,
    init_layer_norm,
    init_weight,
    layer_norm_block,
    multi_head_attention,
)
from .tensor import Tensor, concat, embedding, no_grad

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

    def prompt_ids(self, prompt):
        """The ids an answer follows: [bos] prompt [sep]."""
        return [self.bos_id] + self.tokenize(prompt) + [self.sep_id]

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
    params: dict  # name -> Tensor; requires_grad is init_lm's trainable


def init_lm(seed, vocab=None, d_lm=64, L_lm=2, n_heads=4, max_len=320,
            trainable=False):
    vocab = vocab or default_vocab()
    rng = np.random.default_rng(int(seed))
    p = {}
    p["tok_embed"] = Tensor(init_weight(rng, len(vocab), d_lm), True)
    p["pos_embed"] = Tensor(init_weight(rng, max_len, d_lm), True)
    for l in range(L_lm):
        init_layer_norm(p, f"layers.{l}.ln1", d_lm)
        init_attention(p, rng, f"layers.{l}.self", d_lm)
        init_layer_norm(p, f"layers.{l}.ln2", d_lm)
        init_feed_forward(p, rng, f"layers.{l}.ffn", d_lm, 4 * d_lm)
    init_layer_norm(p, "ln_f", d_lm)
    for t in p.values():
        t.requires_grad = trainable
    return LmParams(vocab=vocab, d_lm=d_lm, L_lm=L_lm, n_heads=n_heads,
                    max_len=max_len, params=p)


def lm_forward(prefix_embs, token_ids, lp, cache=None):
    """Next-symbol logits (T, V) for the token positions, or (B, T, V).

    ``token_ids`` is one (T,) sequence or a (B, T) batch of B sequences
    of equal length.  ``prefix_embs`` is an optional (n_prefix, d_lm)
    block of soft-prompt embeddings that precede the tokens, or
    (B, n_prefix, d_lm) for a batch; logits at token position t depend
    on the prefix and tokens <= t only.  Every batch item is computed on
    its own, so its logits are bitwise those of feeding it alone.

    ``cache`` lets a decoder feed one sequence (or batch) in pieces under
    ``tensor.no_grad()``: a list of one ``nn.KVCache`` per layer with the
    projected keys and values of the positions fed so far.  The new rows
    take the positions after those; each layer projects only the new
    rows, appends them to its cache and attends over all it holds.
    Using a cache with gradients enabled raises ``ContractError``.
    """
    token_ids = np.asarray(token_ids, dtype=np.int64)
    if token_ids.ndim not in (1, 2) or token_ids.shape[-1] < 1:
        raise ContractError("token_ids must be a nonempty (T,) sequence "
                            "or a (B, T) batch")
    p = lp.params
    n_prefix = 0
    if prefix_embs is not None:
        prefix_embs = (prefix_embs if isinstance(prefix_embs, Tensor)
                       else Tensor(prefix_embs))
        if (prefix_embs.ndim != token_ids.ndim + 1
                or prefix_embs.shape[:-2] != token_ids.shape[:-1]
                or prefix_embs.shape[-1] != lp.d_lm):
            raise ShapeError(f"prefix must be "
                             f"({'B, ' * (token_ids.ndim - 1)}n, {lp.d_lm})"
                             f" for token ids {token_ids.shape}")
        n_prefix = prefix_embs.shape[-2]
    start = cache[0].n if cache else 0
    total = start + n_prefix + token_ids.shape[-1]
    if total > lp.max_len:
        raise ContractError(f"sequence length {total} exceeds {lp.max_len}")

    x = embedding(p["tok_embed"], token_ids)
    if prefix_embs is not None:
        x = concat([prefix_embs, x], axis=-2)
    x = x + p["pos_embed"][start:total]
    # a single new row may attend to every position so far
    mask = np.tri(total, dtype=bool)[start:] if total - start > 1 else None
    for l in range(lp.L_lm):
        normed = layer_norm_block(x, p, f"layers.{l}.ln1")
        x = x + multi_head_attention(normed, normed, p, f"layers.{l}.self",
                                     lp.n_heads, mask,
                                     cache[l] if cache else None)
        x = x + feed_forward(layer_norm_block(x, p, f"layers.{l}.ln2"),
                             p, f"layers.{l}.ffn")
    x = layer_norm_block(x, p, "ln_f")
    # output head tied to the token embedding table
    return x[..., n_prefix:, :] @ p["tok_embed"].T


def generate_greedy(prefixes, prompt_ids, max_new, lp):
    """Deterministic argmax decoding; np.argmax breaks ties on lowest id.

    ``prefixes`` is a (B, n_prefix, d_lm) stack of B prefixes that share
    the prompt; n_prefix may be 0.  Under ``tensor.no_grad()``, runs the
    prefixes + prompt through ``lm_forward`` once as a batch, then one
    position per row per step, against one (B, L, d_lm) K/V cache per
    layer sized to the decode's length budget L (prefix + prompt +
    max_new - 1).  ``max_new`` is capped so that L is at most max_len:
    a decode stops when the context is full.  A row stops after
    ``max_new`` symbols or at EOS; a stopped row rides along, its
    further symbols discarded, until every row has stopped.  Each row's
    logits, and so its text, are bitwise those of decoding it alone.
    Returns a list of B strings, each row's generated symbols decoded
    (EOS excluded).
    """
    if max_new < 1:
        raise ContractError("max_new must be >= 1")
    if np.ndim(prefixes) != 3:
        raise ShapeError("prefixes must be (B, n_prefix, d_lm)")
    rows, n_prefix = np.shape(prefixes)[:2]
    tokens = np.tile(np.asarray(prompt_ids, dtype=np.int64), (rows, 1))
    fed = n_prefix + tokens.shape[1]
    # the last symbol is never fed back, so one more symbol than the free
    # positions fits; a prompt that does not fit fails in lm_forward
    max_new = max(1, min(max_new, lp.max_len - fed + 1))
    cache = [KVCache(fed + max_new - 1) for _ in range(lp.L_lm)]
    eos = lp.vocab.eos_id
    steps = []
    stopped = np.zeros(rows, dtype=bool)
    with no_grad():
        while len(steps) < max_new and not stopped.all():
            logits = lm_forward(prefixes, tokens, lp, cache)
            nxt = np.argmax(logits.data[:, -1], axis=-1)
            steps.append(nxt)
            stopped |= nxt == eos
            prefixes, tokens = None, nxt[:, None]
    texts = []
    for row in np.stack(steps, axis=1).tolist():
        end = row.index(eos) if eos in row else len(row)
        texts.append(lp.vocab.detokenize(row[:end]))
    return texts
