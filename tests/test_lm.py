"""Character LM: tokenization round trips, causality, frozen contract,
baseline cross-entropy, cached greedy decoding against full recompute."""

import numpy as np
import pytest

from matterbridge.config import Config
from matterbridge.errors import ContractError, ShapeError, TokenizationError
from matterbridge.lm import (
    BOS,
    EOS,
    SEP,
    Vocab,
    default_vocab,
    generate_greedy,
    init_lm,
    lm_forward,
)
from matterbridge.nn import KVCache
from matterbridge.tensor import Tensor, log_softmax, no_grad


def tiny_lm(seed=0, vocab=None, **kw):
    sizes = dict(d_lm=16, L_lm=2, lm_heads=2, max_len=64)
    return init_lm(seed, Config(**{**sizes, **kw}), vocab or default_vocab())


def one_row(prefix, lp):
    """A (1, n, d_lm) stack of one prefix; no prefix is (1, 0, d_lm)."""
    return np.zeros((1, 0, lp.cfg.d_lm)) if prefix is None else prefix[None]


def new_cache(lp):
    return [KVCache(lp.cfg.max_len) for _ in range(lp.cfg.L_lm)]


class TestVocab:
    def test_round_trip(self):
        v = default_vocab()
        for text in ("SiC", "Fe2 O3 (cubic)", "what is the bandgap?", ""):
            assert v.detokenize(v.tokenize(text)) == text

    def test_out_of_vocab_strict(self):
        v = default_vocab()
        with pytest.raises(TokenizationError):
            v.tokenize("é")

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ContractError):
            Vocab(["<bos>", "<eos>", "<sep>", "a", "a"])

    def test_specials_present(self):
        v = default_vocab()
        assert len({v.bos_id, v.eos_id, v.sep_id}) == 3
        assert len(v) < 100


class TestForward:
    def test_logits_shape(self):
        lp = tiny_lm()
        ids = lp.vocab.tokenize("hello")
        assert lm_forward(None, ids, lp).shape == (5, len(lp.vocab))

    def test_causality_bitwise(self):
        lp = tiny_lm()
        a = lp.vocab.tokenize("abcdef")
        b = list(a)
        b[4] = lp.vocab.tokenize("z")[0]
        la = lm_forward(None, a, lp).data
        lb = lm_forward(None, b, lp).data
        np.testing.assert_array_equal(la[:4], lb[:4])
        assert not np.array_equal(la[4], lb[4])

    def test_prefix_shifts_all_logits(self):
        rng = np.random.default_rng(0)
        lp = tiny_lm()
        ids = lp.vocab.tokenize("abc")
        base = lm_forward(None, ids, lp).data
        pref = lm_forward(rng.standard_normal((4, 16)), ids, lp).data
        assert base.shape == pref.shape
        assert not np.array_equal(base, pref)

    def test_zero_table_uniform_distribution(self):
        lp = tiny_lm()
        lp.params["tok_embed"].data[:] = 0.0
        logits = lm_forward(None, [5, 6, 7], lp)
        probs = np.exp(log_softmax(logits).data)
        np.testing.assert_allclose(probs, 1.0 / len(lp.vocab), atol=1e-12)

    def test_overlong_sequence_rejected(self):
        lp = tiny_lm(max_len=8)
        with pytest.raises(ContractError):
            lm_forward(None, list(range(3, 12)), lp)

    def test_untrained_cross_entropy_near_log_v(self):
        rng = np.random.default_rng(123)
        lp = tiny_lm(seed=7)
        v = len(lp.vocab)
        total, count = 0.0, 0
        while count < 1000:
            ids = rng.integers(3, v, size=40)
            lp_logits = lm_forward(None, ids, lp)
            logp = log_softmax(lp_logits).data
            targets = rng.integers(3, v, size=40)
            total += -logp[np.arange(40), targets].sum()
            count += 40
        mean_ce = total / count
        assert abs(mean_ce - np.log(v)) / np.log(v) < 0.05

    def test_frozen_no_gradients(self):
        lp = tiny_lm()
        ids = [4, 5, 6]
        loss = lm_forward(None, ids, lp).square().sum()
        assert not loss.requires_grad
        before = {k: t.data.copy() for k, t in lp.params.items()}
        # a prefix with gradients still flows through the frozen stack
        pref = Tensor(np.random.default_rng(1).standard_normal((2, 16)), True)
        lm_forward(pref, ids, lp).square().sum().backward()
        assert pref.grad is not None and np.any(pref.grad != 0)
        for k, t in lp.params.items():
            assert t.grad is None
            np.testing.assert_array_equal(t.data, before[k])


class TestGenerate:
    def test_deterministic(self):
        lp = tiny_lm()
        ids = lp.vocab.tokenize("ab")
        a = generate_greedy(one_row(None, lp), ids, 8, lp)
        b = generate_greedy(one_row(None, lp), ids, 8, lp)
        assert isinstance(a, list) and len(a) == 1
        assert a == b

    def test_max_new_one(self):
        lp = tiny_lm()
        [out] = generate_greedy(one_row(None, lp), lp.vocab.tokenize("ab"),
                                1, lp)
        assert len(out) <= 1

    def test_prefix_must_be_a_stack(self):
        lp = tiny_lm()
        ids = lp.vocab.tokenize("ab")
        for prefix in (None, np.zeros(16), np.zeros((2, 16)),
                       np.zeros((1, 1, 2, 16))):
            with pytest.raises(ShapeError):
                generate_greedy(prefix, ids, 4, lp)

    def test_empty_prompt_rejected(self):
        lp = tiny_lm()
        with pytest.raises(ContractError, match="nonempty"):
            generate_greedy(one_row(None, lp), [], 4, lp)

    def test_tie_breaks_lowest_id(self):
        # a plain character first, so the tie winner shows in the text
        chars = ["a", "b", "c", "d"]
        vocab = Vocab(chars[:1] + [BOS, EOS, SEP] + chars[1:])
        lp = tiny_lm(vocab=vocab)
        lp.params["tok_embed"].data[:] = 0.0  # all logits equal
        ids = [vocab.bos_id] + vocab.tokenize("bcd")
        prefix = np.random.default_rng(3).standard_normal((2, 16))
        for pref in (None, prefix):
            assert reference_greedy(pref, ids, 5, lp) == [0] * 5
            assert generate_greedy(one_row(pref, lp), ids, 5, lp) == ["aaaaa"]


def reference_greedy(prefix, ids, max_new, lp):
    """Generated ids of a full-recompute argmax loop over lm_forward."""
    ids = list(ids)
    out = []
    for _ in range(max_new):
        nxt = int(np.argmax(lm_forward(prefix, ids, lp).data[-1]))
        if nxt == lp.vocab.eos_id:
            break
        out.append(nxt)
        ids.append(nxt)
    return out


def cached_step_logits(prefix, prompt, generated, lp):
    """Last-row logits of each cached decode step along ``generated``."""
    cache = new_cache(lp)
    with no_grad():
        out = [lm_forward(prefix, prompt, lp, cache).data[-1]]
        for nxt in generated:
            out.append(lm_forward(None, [nxt], lp, cache).data[-1])
    return out


def batched_step_logits(prefixes, prompt, n_steps, lp):
    """Last-row logits (B, V) of each step of a batched cached argmax loop."""
    cache = new_cache(lp)
    tokens = np.tile(prompt, (len(prefixes), 1))
    out = []
    with no_grad():
        for _ in range(n_steps):
            out.append(lm_forward(prefixes, tokens, lp, cache).data[:, -1])
            prefixes, tokens = None, out[-1].argmax(axis=-1)[:, None]
    return out


class TestCachedDecoding:
    """generate_greedy against the full-recompute reference loop."""

    MAX_NEW = 20

    @staticmethod
    def case(seed):
        rng = np.random.default_rng(seed)
        lp = tiny_lm(seed)
        # a heavier EOS row makes some decodes end early
        lp.params["tok_embed"].data[lp.vocab.eos_id] *= 3.0
        prefix = (rng.standard_normal((int(rng.integers(1, 5)), 16))
                  if seed % 2 else None)
        ids = [lp.vocab.bos_id] + rng.integers(
            3, len(lp.vocab), size=int(rng.integers(1, 8))).tolist()
        return lp, prefix, ids

    def test_text_and_logits_match_reference(self):
        lengths = []
        for seed in range(16):
            lp, prefix, ids = self.case(seed)
            want = reference_greedy(prefix, ids, self.MAX_NEW, lp)
            [got] = generate_greedy(one_row(prefix, lp), ids, self.MAX_NEW,
                                    lp)
            assert got == lp.vocab.detokenize(want), seed
            steps = cached_step_logits(prefix, ids, want, lp)
            for k, logits in enumerate(steps):
                full = lm_forward(prefix, ids + want[:k], lp).data[-1]
                np.testing.assert_allclose(logits, full, rtol=0, atol=1e-12)
            lengths.append(len(want))
        # the cases cover an EOS after some symbols and a full budget
        assert any(0 < n < self.MAX_NEW for n in lengths)
        assert self.MAX_NEW in lengths

    @staticmethod
    def batch_case(rows):
        """A seeded LM, B = rows prefixes and one prompt; rows stop apart."""
        rng = np.random.default_rng(rows)
        lp = tiny_lm(rows)
        lp.params["tok_embed"].data[lp.vocab.eos_id] *= 3.0
        prefixes = rng.standard_normal((rows, 3, 16))
        ids = [lp.vocab.bos_id] + rng.integers(
            3, len(lp.vocab), size=4).tolist()
        return lp, prefixes, ids

    @pytest.mark.parametrize("rows", [1, 3, 8])
    def test_batch_rows_match_single_decodes(self, rows):
        lp, prefixes, ids = self.batch_case(rows)
        got = generate_greedy(prefixes, ids, self.MAX_NEW, lp)
        assert isinstance(got, list) and len(got) == rows
        lengths = []
        for r in range(rows):
            want = reference_greedy(prefixes[r], ids, self.MAX_NEW, lp)
            assert got[r] == lp.vocab.detokenize(want), r
            assert [got[r]] == generate_greedy(prefixes[r:r + 1], ids,
                                               self.MAX_NEW, lp), r
            lengths.append(len(want))
        if rows > 1:
            assert len(set(lengths)) > 1  # rows reach EOS at different steps
        n_steps = min(max(lengths) + 1, self.MAX_NEW)
        steps = batched_step_logits(prefixes, ids, n_steps, lp)
        for r in range(rows):
            fed = [int(step[r].argmax()) for step in steps[:-1]]
            single = cached_step_logits(prefixes[r], ids, fed, lp)
            for k, (step, alone) in enumerate(zip(steps, single, strict=True)):
                assert np.array_equal(step[r], alone), (r, k)

    @pytest.mark.parametrize("rows", [1, 3, 8])
    def test_batch_rows_stop_at_a_full_context(self, rows):
        lp, prefixes, ids = self.batch_case(rows)
        lp.cfg.max_len = prefixes.shape[1] + len(ids) + 4  # 5 decode steps fit
        full = generate_greedy(prefixes, ids, 5, lp)
        want = [reference_greedy(p, ids, 5, lp) for p in prefixes]
        assert full == [lp.vocab.detokenize(w) for w in want]
        for max_new in range(1, 9):
            texts = []
            for r in range(rows):
                texts += generate_greedy(prefixes[r:r + 1], ids, max_new,
                                         lp)
            assert generate_greedy(prefixes, ids, max_new, lp) == texts
            if max_new >= 5:
                assert texts == full
        # some rows stop at EOS while another is cut by the full context
        assert max(map(len, want)) == 5
        assert len(set(map(len, want))) > 1 or rows == 1

    def test_max_new_stops_at_a_full_context(self):
        lp = tiny_lm(max_len=8)
        ids = list(range(3, 9))  # decode step k runs 6 + k positions
        texts = [generate_greedy(one_row(None, lp), ids, max_new, lp)[0]
                 for max_new in range(1, 6)]
        # the third symbol is never fed back, so it fits
        assert [len(t) for t in texts] == [1, 2, 3, 3, 3]
        assert texts[2] == texts[3] == texts[4]
        # a prefix and prompt that fill the context still decode one symbol
        [text] = generate_greedy(np.zeros((1, 2, 16)), ids, 4, lp)
        assert len(text) == 1
        with pytest.raises(ContractError, match="length 9 exceeds 8"):
            generate_greedy(np.zeros((1, 3, 16)), ids, 1, lp)
        with pytest.raises(ContractError, match="length 10 exceeds 8"):
            generate_greedy(np.zeros((1, 4, 16)), ids, 1, lp)

    def test_cache_needs_no_grad(self):
        lp = tiny_lm(lm_trainable=True)
        with pytest.raises(ContractError, match="no_grad"):
            lm_forward(None, [4, 5], lp, new_cache(lp))
        cache = new_cache(lp)
        with no_grad():
            logits = lm_forward(None, [4, 5], lp, cache)
        assert not logits.requires_grad
        assert [c.n for c in cache] == [2] * lp.cfg.L_lm

    def test_early_eos_within_max_len_returns(self):
        vocab = Vocab([EOS, BOS, SEP] + list("abcdefg"))
        lp = tiny_lm(vocab=vocab, max_len=8)
        lp.params["tok_embed"].data[:] = 0.0  # EOS (id 0) wins every tie
        ids = vocab.tokenize("abcdef")
        assert generate_greedy(one_row(None, lp), ids, 5, lp) == [""]
