"""Autodiff core: forward values against hand-computed results, gradients
against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matterbridge.errors import ContractError, ShapeError
from matterbridge.tensor import (
    NEG_MASK,
    Tensor,
    concat,
    embedding,
    layer_norm,
    log_softmax,
    matmul,
    softmax,
)

H = 1e-5


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
        out = softmax(Tensor([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], rtol=0, atol=1e-15)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 9))
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 123.456)).data
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
            np.log(softmax(Tensor(x)).data),
            rtol=0,
            atol=1e-12,
        )

    def test_masked_fill_with_neg_mask_zeroes_softmax(self):
        x = Tensor(np.zeros((2, 4)), requires_grad=True)
        mask = np.array([[False, True, False, True]] * 2)
        p = softmax(x.masked_fill(mask, NEG_MASK))
        assert (p.data[:, 1] == 0.0).all() and (p.data[:, 3] == 0.0).all()
        np.testing.assert_allclose(p.data[:, 0], 0.5, atol=1e-15)
        # masked positions must receive bitwise-zero gradient
        p.sum().backward()
        assert (x.grad[:, 1] == 0.0).all() and (x.grad[:, 3] == 0.0).all()


class TestInvariants:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_softmax_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 6)) * rng.uniform(0.1, 50.0)
        s = softmax(Tensor(x)).data.sum(axis=-1)
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
            lambda: (x.log() + x.sigmoid() + x.erf() + x.sqrt()
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
        x = self.param(4, 6)
        w = self.param(4, 6)
        check_grads(lambda: (softmax(x) * w).sum(), [x, w])

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

    def test_layer_norm(self):
        x = self.param(4, 8)
        gamma = Tensor(np.ones(8) + 0.1 * self.rng.standard_normal(8),
                       requires_grad=True)
        beta = Tensor(0.1 * self.rng.standard_normal(8), requires_grad=True)
        check_grads(lambda: layer_norm(x, gamma, beta).square().sum(),
                    [x, gamma, beta])

    def test_masked_fill_grad(self):
        x = self.param(3, 5)
        mask = self.rng.random((3, 5)) < 0.4
        check_grads(lambda: softmax(x.masked_fill(mask, NEG_MASK)).square().sum(),
                    [x])

    def test_attention_shaped_composite(self):
        # q @ k^T -> softmax -> @ v, the pattern the bridge relies on
        q, k, v = self.param(3, 4), self.param(5, 4), self.param(5, 6)
        check_grads(
            lambda: (softmax((q @ k.T) * (1.0 / 2.0)) @ v).square().sum(),
            [q, k, v],
        )
