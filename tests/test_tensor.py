"""Autodiff core: forward values against hand-computed results, gradients
against central finite differences, fused ops bitwise against the
composites they replace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from matterbridge.errors import ContractError, ShapeError
from matterbridge.tensor import (
    NEG_MASK,
    Tensor,
    affine,
    attention,
    concat,
    embedding,
    gelu,
    grad_enabled,
    layer_norm,
    log_softmax,
    matmul,
    no_grad,
)

H = 1e-5


def composite_gelu(x):
    """The six-op erf form GELU was built from: x*erf(x/sqrt2)*0.5 + x*0.5."""
    return x * erf(x * (1.0 / np.sqrt(2.0))) * 0.5 + x * 0.5


def composite_attention(q, k, v, n_heads, mask=None):
    """Per-head loop of slices, scale, NEG_MASK fill and max-shifted softmax."""
    d_head, dv_head = q.shape[1] // n_heads, v.shape[1] // n_heads
    inv_scale = 1.0 / np.sqrt(d_head)
    heads = []
    for h in range(n_heads):
        sl = slice(h * d_head, (h + 1) * d_head)
        scores = (q[:, sl] @ k[:, sl].T) * inv_scale
        if mask is not None:
            scores = np.where(~mask, NEG_MASK, scores)
        shifted = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        p = e / e.sum(axis=-1, keepdims=True)
        heads.append(p @ v[:, h * dv_head:(h + 1) * dv_head])
    return np.concatenate(heads, axis=1)


def per_head_attention(q, k, v, n_heads, g, mask=None):
    """attention's forward and backward as a Python loop over heads.

    q, k and v share their batch axes; returns the output and the
    gradients of ``(out * g).sum()`` with respect to q, k and v.
    """
    dh, dvh = q.shape[-1] // n_heads, v.shape[-1] // n_heads
    inv_scale = 1.0 / np.sqrt(dh)
    kt, vt = k.swapaxes(-1, -2), v.swapaxes(-1, -2)
    out = np.empty((*q.shape[:-1], v.shape[-1]))
    dq, dk, dv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
    for h in range(n_heads):
        sl, svl = slice(h * dh, (h + 1) * dh), slice(h * dvh, (h + 1) * dvh)
        scores = (q[..., sl] @ kt[..., sl, :]) * inv_scale
        if mask is not None:
            scores = np.where(mask, scores, NEG_MASK)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        out[..., svl] = p @ v[..., svl]
        gh = g[..., svl]
        dv[..., svl] = p.swapaxes(-1, -2) @ gh
        dp = gh @ vt[..., svl, :]
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
        ds *= inv_scale
        dq[..., sl] = ds @ k[..., sl]
        dk[..., sl] = ds.swapaxes(-1, -2) @ q[..., sl]
    return out, dq, dk, dv


def attention_weights(scores, mask=None):
    """attention's softmax weights for given scores: one head, v = I.

    Query i is sqrt(d) e_i and key j holds column j of the scores, with
    d a power of 4, so every score reaches the softmax exactly.
    """
    scores = np.asarray(scores, dtype=float)
    t_q, t_k = scores.shape
    d = 4
    while d < t_q:
        d *= 4
    q = np.zeros((t_q, d))
    q[np.arange(t_q), np.arange(t_q)] = np.sqrt(d)
    k = np.zeros((t_k, d))
    k[:, :t_q] = scores.T
    return attention(Tensor(q), Tensor(k), Tensor(np.eye(t_k)), 1, mask)


def random_mask(rng, t_q, t_k):
    """Random allowed-key mask with at least one allowed key per row."""
    mask = rng.random((t_q, t_k)) < 0.5
    mask[np.arange(t_q), rng.integers(0, t_k, t_q)] = True
    return mask


def numeric_grad(build, param, h=H):
    """Central finite differences of the scalar ``build()`` wrt ``param.data``."""
    flat = param.data.reshape(-1)
    g = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = build().item()
        flat[i] = orig - h
        fm = build().item()
        flat[i] = orig
        g[i] = (fp - fm) / (2.0 * h)
    return g.reshape(param.data.shape)


def check_grads(build, params, rtol=1e-4, atol=1e-6):
    for p in params:
        p.grad = None
    build().backward()
    for p in params:
        assert p.grad is not None, "parameter received no gradient"
        fd = numeric_grad(build, p)
        np.testing.assert_allclose(p.grad, fd, rtol=rtol, atol=atol)


class TestForwardValues:
    def test_matmul_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        np.testing.assert_array_equal((eye @ a).data, a.data)

    def test_matmul_hand_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(
            (a @ b).data, [[19.0, 22.0], [43.0, 50.0]]
        )

    def test_softmax_quarter_three_quarters(self):
        out = attention_weights([[0.0, np.log(3.0)]])
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], rtol=0, atol=1e-15)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 9))
        a = attention_weights(x).data
        b = attention_weights(x + 123.456).data
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_square_grad_at_three(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        assert x.grad == pytest.approx(6.0, abs=1e-12)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 7))
        np.testing.assert_allclose(
            log_softmax(Tensor(x)).data,
            np.log(attention_weights(x).data),
            rtol=0,
            atol=1e-12,
        )

    def test_masked_fill_with_neg_mask_zeroes_softmax(self):
        rng = np.random.default_rng(4)
        k = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        v = Tensor(np.eye(4), requires_grad=True)
        allowed = np.array([[True, False, True, False]] * 2)
        p = attention(Tensor(np.zeros((2, 4))), k, v, 1, allowed)
        assert (p.data[:, 1] == 0.0).all() and (p.data[:, 3] == 0.0).all()
        np.testing.assert_allclose(p.data[:, 0], 0.5, atol=1e-15)
        # masked keys must receive bitwise-zero gradient
        q = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        p = attention(q, k, v, 1, allowed)
        (p * Tensor(rng.standard_normal((2, 4)))).sum().backward()
        for t in (k, v):
            assert (t.grad[1] == 0.0).all() and (t.grad[3] == 0.0).all()
            assert (t.grad[0] != 0.0).any()


class TestInvariants:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_softmax_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 6)) * rng.uniform(0.1, 50.0)
        s = attention_weights(x).data.sum(axis=-1)
        np.testing.assert_allclose(s, 1.0, rtol=0, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matmul_associative(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (Tensor(rng.standard_normal((4, 4))) for _ in range(3))
        left = ((a @ b) @ c).data
        right = (a @ (b @ c)).data
        np.testing.assert_allclose(left, right, rtol=0, atol=1e-9)

    def test_backward_requires_scalar_root(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            (x * 2.0).backward()

    def test_matmul_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_elementwise_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) + Tensor(np.ones((3, 2)))

    def test_gradient_accumulates_across_backward_calls(self):
        x = Tensor(2.0, requires_grad=True)
        (x * x).backward()
        (x * x).backward()
        assert x.grad == pytest.approx(8.0, abs=1e-12)

    def test_reused_node_gradients_sum(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x + x * x  # x appears in two branches
        y.backward()
        assert x.grad == pytest.approx(12.0, abs=1e-12)


class TestGradients:
    """Per-op finite-difference checks on small seeded inputs."""

    def setup_method(self):
        self.rng = np.random.default_rng(12345)

    def param(self, *shape):
        return Tensor(self.rng.standard_normal(shape), requires_grad=True)

    def test_add_mul_div(self):
        a, b = self.param(3, 4), self.param(3, 4)
        check_grads(lambda: ((a + b) * a / (b * b + 4.0)).sum(), [a, b])

    def test_row_broadcast(self):
        a, v = self.param(3, 4), self.param(4)
        check_grads(lambda: ((a + v) * v).sum(), [a, v])

    def test_scalar_broadcast(self):
        a = self.param(2, 3)
        s = self.param()
        check_grads(lambda: (a * s + s).sum(), [a, s])

    def test_column_broadcast(self):
        a, c = self.param(3, 4), self.param(3, 1)
        check_grads(lambda: ((a * c) / (c.square() + 1.0)).sum(), [a, c])

    def test_matmul_chain(self):
        a, b, c = self.param(2, 5), self.param(5, 3), self.param(3, 2)
        check_grads(lambda: ((a @ b) @ c).sum(), [a, b, c])

    def test_transpose_reshape(self):
        a = self.param(3, 4)
        check_grads(lambda: (a.T @ a).reshape(16).sum(), [a])

    def test_unary_ops(self):
        x = Tensor(self.rng.uniform(0.2, 2.0, (3, 3)), requires_grad=True)
        check_grads(
            lambda: (x.log() + x.sigmoid() + gelu(x) + x.sqrt()
                     + x.square()).sum(),
            [x],
        )

    def test_clip_away_from_edges(self):
        x = Tensor(np.array([-2.0, -0.5, 0.3, 1.7]), requires_grad=True)
        check_grads(lambda: (x.clip(-1.0, 1.0).square()).sum(), [x])

    def test_sum_mean_axes(self):
        a = self.param(4, 5)
        check_grads(lambda: a.sum(axis=0).square().sum() + a.mean(axis=1).sum(), [a])

    def test_max_axis(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]]), requires_grad=True)
        check_grads(lambda: x.max(axis=1).square().sum(), [x])
        x.grad = None
        x.max(axis=1).sum().backward()
        np.testing.assert_array_equal(x.grad, [[0, 1, 0], [1, 0, 0]])

    def test_softmax_grad(self):
        q, k, v = self.param(4, 2), self.param(6, 2), self.param(6, 6)
        w = self.param(4, 6)
        check_grads(lambda: (attention(q, k, v, 1) * w).sum(), [q, k, v, w])

    def test_log_softmax_grad(self):
        x = self.param(4, 6)
        check_grads(lambda: (log_softmax(x) * log_softmax(x)).sum(), [x])

    def test_matmul_softmax_cross_entropy(self):
        # small logistic-regression shaped composite
        x = self.param(5, 3)
        w = self.param(3, 4)
        onehot = np.eye(4)[self.rng.integers(0, 4, size=5)]

        def build():
            return -(log_softmax(x @ w) * Tensor(onehot)).sum() / 5.0

        check_grads(build, [x, w])

    def test_embedding(self):
        table = self.param(7, 4)
        ids = np.array([3, 1, 3, 0])
        check_grads(lambda: embedding(table, ids).square().sum(), [table])

    def test_concat(self):
        a, b = self.param(2, 3), self.param(4, 3)
        check_grads(lambda: concat([a, b], axis=0).square().sum(), [a, b])

    def test_getitem_rows(self):
        a = self.param(6, 3)
        check_grads(lambda: a[2:5].square().sum(), [a])
        # a slice scatters bitwise as an index array does; repeats add up
        g = self.rng.standard_normal((3, 3))
        for key in (slice(2, 5), np.arange(2, 5)):
            a.grad = None
            (a[key] * Tensor(g)).sum().backward()
            np.testing.assert_array_equal(a.grad[2:5], g)
            assert not a.grad[:2].any() and not a.grad[5:].any()
        a.grad = None
        a[np.array([1, 1])].sum().backward()
        np.testing.assert_array_equal(a.grad[1], 2.0)

    def test_layer_norm(self):
        x = self.param(4, 8)
        gamma = Tensor(np.ones(8) + 0.1 * self.rng.standard_normal(8),
                       requires_grad=True)
        beta = Tensor(0.1 * self.rng.standard_normal(8), requires_grad=True)
        check_grads(lambda: layer_norm(x, gamma, beta).square().sum(),
                    [x, gamma, beta])

    def test_masked_fill_grad(self):
        q, k, v = self.param(3, 4), self.param(5, 4), self.param(5, 2)
        mask = random_mask(self.rng, 3, 5)
        check_grads(lambda: attention(q, k, v, 1, mask).square().sum(),
                    [q, k, v])

    def test_attention_shaped_composite(self):
        # q @ k^T -> softmax -> @ v, the pattern the bridge relies on
        q, k, v = self.param(3, 4), self.param(5, 4), self.param(5, 6)
        check_grads(lambda: attention(q, k, v, 1).square().sum(), [q, k, v])

    def test_affine(self):
        x, w, b = self.param(3, 4), self.param(4, 5), self.param(5)
        check_grads(lambda: affine(x, w, b).square().sum(), [x, w, b])

    def test_gelu(self):
        x = Tensor(self.rng.uniform(-3.0, 3.0, (4, 5)), requires_grad=True)
        w = self.param(4, 5)
        check_grads(lambda: (gelu(x) * w).sum(), [x, w])

    @pytest.mark.parametrize("n_heads", [1, 2])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("t_q, t_k", [(4, 4), (3, 5)],
                             ids=["self", "cross"])
    def test_attention(self, n_heads, masked, t_q, t_k):
        q, k, v = self.param(t_q, 4), self.param(t_k, 4), self.param(t_k, 6)
        w = self.param(t_q, 6)
        mask = random_mask(self.rng, t_q, t_k) if masked else None
        check_grads(lambda: (attention(q, k, v, n_heads, mask) * w).sum(),
                    [q, k, v])


class TestFusedForward:
    """Each fused op equals, bit for bit, the composite it replaced."""

    rng = np.random.default_rng(99)

    def test_affine_matches_composite(self):
        x, w, b = (self.rng.standard_normal(s) for s in ((7, 5), (5, 3), (3,)))
        np.testing.assert_array_equal(affine(Tensor(x), Tensor(w),
                                             Tensor(b)).data, x @ w + b)

    def test_gelu_matches_composite(self):
        x = np.concatenate([self.rng.standard_normal(200) * 4.0,
                            [0.0, -0.0, 1e-300, -40.0, 40.0]]).reshape(5, 41)
        np.testing.assert_array_equal(gelu(Tensor(x)).data, composite_gelu(x))

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("t_q, t_k", [(6, 6), (3, 7)],
                             ids=["self", "cross"])
    def test_attention_matches_per_head_composite(self, n_heads, masked,
                                                  t_q, t_k):
        q = self.rng.standard_normal((t_q, 8))
        k = self.rng.standard_normal((t_k, 8))
        v = self.rng.standard_normal((t_k, 8))
        mask = random_mask(self.rng, t_q, t_k) if masked else None
        got = attention(Tensor(q), Tensor(k), Tensor(v), n_heads, mask).data
        np.testing.assert_array_equal(
            got, composite_attention(q, k, v, n_heads, mask))

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("q_batch, kv_batch",
                             [((), ()), ((3,), (3,)), ((), (3,)),
                              ((1,), (2, 3))],
                             ids=["plain", "batched", "broadcast-q",
                                  "broadcast-q-rank"])
    def test_attention_matches_per_head_loop(self, n_heads, masked, q_batch,
                                             kv_batch):
        t_q, t_k = 3, 5
        batch = np.broadcast_shapes(q_batch, kv_batch)
        q = self.rng.standard_normal((*q_batch, t_q, 8))
        k = self.rng.standard_normal((*kv_batch, t_k, 8))
        v = self.rng.standard_normal((*kv_batch, t_k, 8))
        g = self.rng.standard_normal((*batch, t_q, 8))
        mask = random_mask(self.rng, t_q, t_k) if masked else None
        tq, tk, tv = (Tensor(x, requires_grad=True) for x in (q, k, v))
        out = attention(tq, tk, tv, n_heads, mask)
        (out * Tensor(g)).sum().backward()
        # the loop needs one batch shape: q is stretched to it and its
        # gradient summed back over the stretched axes
        ref, dq, dk, dv = per_head_attention(
            np.broadcast_to(q, (*batch, t_q, 8)), k, v, n_heads, g, mask)
        lead = len(batch) - len(q_batch)
        stretched = tuple(range(lead)) + tuple(
            lead + i for i, n in enumerate(q_batch) if n != batch[lead + i])
        if stretched:
            dq = dq.sum(axis=stretched).reshape(q.shape)
        assert out.data.tobytes() == ref.tobytes()
        for t, want in ((tq, dq), (tk, dk), (tv, dv)):
            assert t.grad.shape == want.shape
            assert t.grad.tobytes() == want.tobytes()

    def test_attention_rejects_a_row_without_keys(self):
        mask = np.array([[True, False], [False, False]])
        with pytest.raises(ContractError):
            attention(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))),
                      Tensor(np.ones((2, 2))), 1, mask)
        with pytest.raises(ShapeError):
            attention(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))),
                      Tensor(np.ones((2, 3))), 2)


class TestNoGrad:
    def test_records_nothing_inside(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        with no_grad():
            assert not grad_enabled()
            y = gelu(affine(x, w, Tensor(np.zeros(2)))).sum()
        assert not y.requires_grad and y._prev == () and y._backward is None
        assert grad_enabled()
        assert (x * 2.0).sum().requires_grad

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside")
        assert grad_enabled()

    def test_nests(self):
        with no_grad():
            with no_grad():
                assert not grad_enabled()
            assert not grad_enabled()
        assert grad_enabled()
