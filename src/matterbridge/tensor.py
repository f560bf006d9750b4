"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array.  An operation builds its output with
``_make(data, (input, vjp), ...)``: one edge per input, in the input's
order, whose ``vjp`` maps the output's gradient to that input's
(its vector-Jacobian product).  Only the edges whose input has
``requires_grad`` set are kept, and the output needs a gradient exactly
when one is.  ``backward`` walks the kept edges from a scalar loss,
calls each vjp once on its node's gradient and adds the result into the
input's, so the vjp of an input that needs no gradient never runs.  The
tape is rebuilt on every forward pass and holds no reference cycle, as
no vjp holds its own output, so reference counting frees it after
``backward``.  Elementwise ops broadcast as numpy does, and the ops a
transformer runs (``affine``, ``matmul``, ``attention``, ``layer_norm``,
``gelu``, ``embedding``, ``concat``, slicing) accept leading batch axes:
``(B, T, d)`` works as ``(T, d)`` does, one batch item at a time.
``attention`` broadcasts the batch axes of its queries against those of
its keys and values, and runs its heads as one more stacked axis.

Gradients accumulate additively into ``.grad`` buffers, so evaluating
several micro-batches before an optimizer step sums their gradients.
Inside ``no_grad()`` no operation keeps an edge, so inference builds
no tape whatever its inputs' ``requires_grad``.

``gelu`` imports scipy's ``erf`` at its first call, so a process that
runs no model never loads scipy; only that import leaves cyclic garbage.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

from .errors import ContractError, ShapeError

__all__ = ["Tensor", "concat", "matmul", "affine", "gelu", "attention",
           "no_grad", "grad_enabled"]

# Score of a masked attention key: exp(NEG_MASK - anything reasonable)
# underflows to exactly 0.0, which keeps masked attention weights (and
# their gradients) identically zero.
NEG_MASK = -1e30

# False inside no_grad(); the package runs on one thread
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block; nests, and restores on exit."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled():
    """False inside ``no_grad()``."""
    return _grad_enabled


def _as_array(x):
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """A float64 array plus its ``(input, vjp)`` tape edges."""

    __slots__ = ("data", "grad", "requires_grad", "_edges")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._edges = ()

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g):
        if self.grad is None:
            # 0.0 + g into a buffer shaped like the data, without a zero fill
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    # -- autodiff ------------------------------------------------------------

    def backward(self):
        """Propagate gradients from this scalar to all traced inputs."""
        if self.data.size != 1:
            raise ContractError(
                f"backward() root must be scalar, got shape {self.shape}"
            )
        topo = _toposort(self)
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._edges:
                for inp, vjp in node._edges:
                    inp._accumulate(vjp(node.grad))
                # Free intermediate buffers; leaves keep their gradient.
                node.grad = None
                node._edges = ()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return _add(self, _wrap(other))

    def __sub__(self, other):
        return _add(self, _neg(_wrap(other)))

    def __neg__(self):
        return _neg(self)

    def __mul__(self, other):
        return _mul(self, _wrap(other))

    def __truediv__(self, other):
        other = _wrap(other)
        return _mul(self, _reciprocal(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return _getitem(self, key)

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _reshape(self, shape)

    @property
    def T(self):
        return _transpose(self)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        return _sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return _mean(self, axis, keepdims)

    def max(self, axis):
        return _max(self, axis)

    # -- elementwise ---------------------------------------------------------

    def log(self):
        x = self.data
        return _make(np.log(x), (self, lambda g: g / x))

    def sigmoid(self):
        o = 1.0 / (1.0 + np.exp(-self.data))
        return _make(o, (self, lambda g: g * o * (1.0 - o)))

    def sqrt(self):
        o = np.sqrt(self.data)
        return _make(o, (self, lambda g: g * 0.5 / o))

    def square(self):
        x = self.data
        return _make(x * x, (self, lambda g: g * 2.0 * x))

    def clip(self, lo, hi):
        x = self.data
        inside = (x >= lo) & (x <= hi)
        return _make(np.clip(x, lo, hi), (self, lambda g: g * inside))


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _toposort(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p, _ in node._edges:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _make(data, *edges):
    """``data`` as a node keeping the ``(input, vjp)`` edges whose input
    needs a gradient, and none inside ``no_grad()``."""
    out = Tensor(data)
    if _grad_enabled:
        out._edges = tuple(e for e in edges if e[0].requires_grad)
        out.requires_grad = bool(out._edges)
    return out


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` over the axes broadcasting added or
    stretched."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape)
        if n == 1 and g.shape[lead + i] != 1)
    return g.sum(axis=axes).reshape(shape)


def _check_elementwise(a, b):
    """numpy's broadcasting rule: extents aligned from the last axis match
    or one of them is 1."""
    sa, sb = a.data.shape, b.data.shape
    if sa != sb:
        for m, n in zip(sa[::-1], sb[::-1]):
            if m != n and m != 1 and n != 1:
                raise ShapeError(f"incompatible shapes {sa} and {sb}")


def _add(a, b):
    _check_elementwise(a, b)
    return _make(a.data + b.data,
                 (a, lambda g: _unbroadcast(g, a.data.shape)),
                 (b, lambda g: _unbroadcast(g, b.data.shape)))


def _neg(a):
    return _make(-a.data, (a, lambda g: -g))


def _mul(a, b):
    _check_elementwise(a, b)
    return _make(a.data * b.data,
                 (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
                 (b, lambda g: _unbroadcast(g * a.data, b.data.shape)))


def _reciprocal(a):
    o = 1.0 / a.data
    return _make(o, (a, lambda g: -g * o * o))


def matmul(a, b):
    """``a @ b`` of a (..., n, k) tensor and a (k, m) matrix."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs (..., n, k) and (k, m) operands, "
                         f"got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    return _make(a.data @ b.data, (a, lambda g: g @ b.data.T),
                 (b, lambda g: _rows(a.data).T @ _rows(g)))


def _rows(x):
    """``x`` as a matrix of its last-axis rows: a view of a 2-D ``x``."""
    return x.reshape(-1, x.shape[-1])


def affine(x, w, b):
    """``x @ w + b``: a product plus a bias on every row, as one node.

    ``x`` is (..., n, k), ``w`` (k, m) and ``b`` (m,).
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"affine needs (..., n, k) and (k, m), got {x.shape} "
                         f"and {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"affine bias must be ({w.shape[1]},), got {b.shape}")
    return _make(x.data @ w.data + b.data, (x, lambda g: g @ w.data.T),
                 (w, lambda g: _rows(x.data).T @ _rows(g)),
                 (b, lambda g: _rows(g).sum(axis=0)))


_SQRT_HALF = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@functools.cache
def _erf():
    from scipy.special import erf
    return erf


def gelu(x):
    """GELU in its erf form, x * Phi(x), as one node."""
    x = _wrap(x)
    xd = x.data
    e = _erf()(xd * _SQRT_HALF)
    return _make(xd * e * 0.5 + xd * 0.5, (x, lambda g: g * (
        (e + 1.0) * 0.5 + xd * (np.exp(xd * xd * -0.5) * _INV_SQRT_2PI))))


def _split_heads(x, n_heads):
    """(..., T, n_heads * e) -> (..., n_heads, T, e), a view."""
    return x.reshape(*x.shape[:-1], n_heads, -1).swapaxes(-2, -3)


def _merge_heads(x):
    """(..., n_heads, T, e) -> (..., T, n_heads * e)."""
    return x.swapaxes(-2, -3).reshape(*x.shape[:-3], x.shape[-2], -1)


def attention(q, k, v, n_heads, mask=None):
    """Scaled dot-product attention of all heads as one node.

    ``q`` is (..., T_q, d), ``k`` (..., T_k, d) and ``v`` (..., T_k, d_v);
    their leading batch axes broadcast as numpy's do, and a gradient is
    summed back over the axes its input was broadcast along.  Head h
    reads the h-th of ``n_heads`` equal column blocks of each and writes
    that block of the (..., T_q, d_v) result; the heads are one more
    array axis, so every product runs stacked.  ``mask`` is boolean
    (T_q, T_k), shared by every batch item, True where a key is allowed,
    and must allow one key in every row: other scores become
    ``NEG_MASK`` before the max-shifted softmax, so their weights and
    gradients are exactly zero.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    if min(q.ndim, k.ndim, v.ndim) < 2:
        raise ShapeError("attention needs q, k and v of rank >= 2")
    t_q, d = q.shape[-2:]
    t_k, d_v = v.shape[-2:]
    try:
        np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
        fits = k.shape[-2:] == (t_k, d)
    except ValueError:
        fits = False
    if not fits:
        raise ShapeError(f"keys {k.shape} do not fit queries {q.shape} "
                         f"and values {v.shape}")
    if d % n_heads or d_v % n_heads:
        raise ShapeError(f"d_model {d} not divisible by {n_heads} heads")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (t_q, t_k):
            raise ShapeError(f"mask {mask.shape} != scores {(t_q, t_k)}")
        if not mask.any(axis=1).all():
            raise ContractError("every attention row must allow a key")
    inv_scale = 1.0 / np.sqrt(d // n_heads)
    qh, kh, vh = (_split_heads(t.data, n_heads) for t in (q, k, v))
    scores = (qh @ kh.swapaxes(-1, -2)) * inv_scale
    if mask is not None:
        scores = np.where(mask, scores, NEG_MASK)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    out = _merge_heads(probs @ vh)
    memo = [None, None]  # q's and k's vjps share one score gradient

    def score_grad(g):
        if memo[0] is not g:
            dp = _split_heads(g, n_heads) @ vh.swapaxes(-1, -2)
            ds = probs * (dp - (dp * probs).sum(axis=-1, keepdims=True))
            ds *= inv_scale
            memo[:] = g, ds
        return memo[1]

    def edge(t, vjp_heads):
        return t, lambda g: _unbroadcast(_merge_heads(vjp_heads(g)), t.shape)

    return _make(out, edge(q, lambda g: score_grad(g) @ kh),
                 edge(k, lambda g: score_grad(g).swapaxes(-1, -2) @ qh),
                 edge(v, lambda g: probs.swapaxes(-1, -2)
                      @ _split_heads(g, n_heads)))


def _transpose(a):
    return _make(a.data.T, (a, lambda g: g.T))


def _reshape(a, shape):
    old = a.data.shape
    return _make(a.data.reshape(shape), (a, lambda g: g.reshape(old)))


def _is_basic(key):
    """True for int/slice/ellipsis keys, which select every entry at most once."""
    keys = key if isinstance(key, tuple) else (key,)
    return all(k is Ellipsis or isinstance(k, (slice, int, np.integer))
               for k in keys)


def _scatter(x, key, g):
    """Zeros shaped like ``x`` with ``g`` added at ``key``: the vjp of
    ``x[key]``."""
    full = np.zeros_like(x)
    if _is_basic(key):
        full[key] += g
    else:
        np.add.at(full, key, g)
    return full


def _getitem(a, key):
    return _make(a.data[key], (a, lambda g: _scatter(a.data, key, g)))


def _spread(g, shape, axis, keepdims):
    """The gradient of a reduction over ``axis`` broadcast to ``shape``."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def _sum(a, axis, keepdims):
    return _make(a.data.sum(axis=axis, keepdims=keepdims),
                 (a, lambda g: _spread(g, a.shape, axis, keepdims).copy()))


def _mean(a, axis, keepdims):
    n = a.data.size if axis is None else a.data.shape[axis]
    return _make(a.data.mean(axis=axis, keepdims=keepdims),
                 (a, lambda g: _spread(g, a.shape, axis, keepdims) / n))


def _max(a, axis):
    """Max along ``axis``; gradient routes to the first maximal entry."""
    if a.data.shape[axis] == 0:
        raise ShapeError(f"max over empty axis {axis} of shape {a.shape}")
    idx = np.argmax(a.data, axis=axis)
    out = np.max(a.data, axis=axis)

    def vjp(g):
        full = np.zeros_like(a.data)
        sel = list(np.indices(idx.shape))
        sel.insert(axis if axis >= 0 else a.data.ndim + axis, idx)
        full[tuple(sel)] = g
        return full

    return _make(out, (a, vjp))


def log_softmax(x, axis=-1):
    x = _wrap(x)
    if x.data.shape == () or x.data.shape[axis] == 0:
        raise ShapeError(f"log_softmax over empty axis {axis} of shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    p = np.exp(out)
    return _make(out, (x, lambda g: g - p * g.sum(axis=axis, keepdims=True)))


def embedding(table, ids):
    """Row lookup ``table[ids]`` with scatter-add backward.

    ``ids`` of shape (T,) or (B, T) give (T, d) or (B, T, d).
    """
    table = _wrap(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim not in (1, 2):
        raise ShapeError(f"ids must be 1-D or 2-D, got {ids.shape}")
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError("id out of table range")
    return _make(table.data[ids],
                 (table, lambda g: _scatter(table.data, ids, g)))


def concat(tensors, axis=0):
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of empty list")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
    edges = []
    for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
        sl = [slice(None)] * data.ndim
        sl[axis] = slice(lo, hi)
        edges.append((t, lambda g, sl=tuple(sl): g[sl]))
    return _make(data, *edges)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize the last axis of ``x``, then scale and shift."""
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError("layer_norm scale/shift must match last axis")
    centred = x.data - x.data.mean(axis=-1, keepdims=True)
    # the same ufunc steps as np.var, without recomputing the mean
    var = (centred * centred).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    out = xhat * gamma.data + beta.data

    def vjp_x(g):
        gg = g * gamma.data
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        return (gg - m1 - xhat * m2) * inv

    return _make(out, (x, vjp_x),
                 (gamma, lambda g: (g * xhat).reshape(-1, d).sum(axis=0)),
                 (beta, lambda g: g.reshape(-1, d).sum(axis=0)))
