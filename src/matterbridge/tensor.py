"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array and, when any input of an operation has
``requires_grad`` set, records a backward closure so that gradients of a
scalar loss can be propagated to every traced parameter.  The tape is
dynamic: it is rebuilt on every forward pass and discarded after
``backward``.  Only the 1-D/2-D shapes this package needs are supported;
there is no general broadcasting.

Gradients accumulate additively into ``.grad`` buffers, so evaluating
several micro-batches before an optimizer step sums their gradients.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _special

from .errors import ContractError, ShapeError

__all__ = ["Tensor", "concat", "matmul"]

# Additive mask value: exp(_NEG_MASK - anything reasonable) underflows to
# exactly 0.0, which keeps masked attention weights (and their gradients)
# identically zero.
NEG_MASK = -1e30


def _as_array(x):
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """A float64 array plus an optional backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._prev = ()

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

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
            if node._backward is not None:
                node._backward(node.grad)
            # Free intermediate buffers; leaves keep their gradient.
            if node._prev:
                node.grad = None
                node._backward = None
                node._prev = ()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return _add(self, _wrap(other))

    def __radd__(self, other):
        return _add(_wrap(other), self)

    def __sub__(self, other):
        return _add(self, _neg(_wrap(other)))

    def __rsub__(self, other):
        return _add(_wrap(other), _neg(self))

    def __neg__(self):
        return _neg(self)

    def __mul__(self, other):
        return _mul(self, _wrap(other))

    def __rmul__(self, other):
        return _mul(_wrap(other), self)

    def __truediv__(self, other):
        other = _wrap(other)
        return _mul(self, _reciprocal(other))

    def __rtruediv__(self, other):
        return _mul(_wrap(other), _reciprocal(self))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return _getitem(self, key)

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _reshape(self, shape)

    def transpose(self):
        return _transpose(self)

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

    def exp(self):
        return _unary(self, np.exp(self.data), lambda g, out: g * out)

    def log(self):
        x = self.data
        return _unary(self, np.log(x), lambda g, out: g / x)

    def tanh(self):
        return _unary(self, np.tanh(self.data), lambda g, out: g * (1.0 - out * out))

    def sigmoid(self):
        out = 1.0 / (1.0 + np.exp(-self.data))
        return _unary(self, out, lambda g, o: g * o * (1.0 - o))

    def erf(self):
        x = self.data
        coef = 2.0 / np.sqrt(np.pi)
        return _unary(
            self, _special.erf(x), lambda g, out: g * coef * np.exp(-x * x)
        )

    def sqrt(self):
        out = np.sqrt(self.data)
        return _unary(self, out, lambda g, o: g * 0.5 / o)

    def square(self):
        x = self.data
        return _unary(self, x * x, lambda g, out: g * 2.0 * x)

    def clip(self, lo, hi):
        x = self.data
        inside = (x >= lo) & (x <= hi)
        return _unary(self, np.clip(x, lo, hi), lambda g, out: g * inside)

    def masked_fill(self, mask, value):
        """Replace entries where ``mask`` is True by ``value`` (no gradient there)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.data.shape:
            raise ShapeError(f"mask shape {mask.shape} != tensor shape {self.shape}")
        out = np.where(mask, value, self.data)
        keep = ~mask
        return _unary(self, out, lambda g, o: g * keep)

    def softmax(self, axis=-1):
        return softmax(self, axis)

    def log_softmax(self, axis=-1):
        return log_softmax(self, axis)


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
        for p in node._prev:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _make(data, parents, backward):
    out = Tensor(data)
    needs = tuple(p for p in parents if p.requires_grad)
    if needs:
        out.requires_grad = True
        out._prev = needs
        out._backward = backward
    return out


def _unary(a, data, vjp):
    out_data = _as_array(data)

    def _bw(g, a=a, out_data=out_data):
        if a.requires_grad:
            a._accumulate(vjp(g, out_data))

    return _make(out_data, (a,), _bw)


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (row/column-vector or scalar operands)."""
    if g.shape == shape:
        return g
    if shape == ():
        return g.sum()
    if len(shape) == 1 and g.ndim == 2 and g.shape[1] == shape[0]:
        return g.sum(axis=0)
    if len(shape) == 2 and shape[1] == 1 and g.shape[0] == shape[0]:
        return g.sum(axis=1, keepdims=True)
    raise ShapeError(f"cannot reduce gradient {g.shape} to {shape}")


def _check_elementwise(a, b):
    sa, sb = a.data.shape, b.data.shape
    if sa == sb:
        return
    # scalar with anything
    if sa == () or sb == ():
        return
    # matrix with row vector
    if len(sa) == 2 and sb == (sa[1],):
        return
    if len(sb) == 2 and sa == (sb[1],):
        return
    # matrix with column vector
    if len(sa) == 2 and sb == (sa[0], 1):
        return
    if len(sb) == 2 and sa == (sb[0], 1):
        return
    raise ShapeError(f"incompatible shapes {sa} and {sb}")


def _add(a, b):
    _check_elementwise(a, b)

    def _bw(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), _bw)


def _neg(a):
    return _unary(a, -a.data, lambda g, out: -g)


def _mul(a, b):
    _check_elementwise(a, b)

    def _bw(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), _bw)


def _reciprocal(a):
    out = 1.0 / a.data
    return _unary(a, out, lambda g, o: -g * o * o)


def matmul(a, b):
    """Matrix product of two 2-D tensors."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")

    def _bw(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(a.data @ b.data, (a, b), _bw)


def _transpose(a):
    def _bw(g, a=a):
        if a.requires_grad:
            a._accumulate(g.T)

    return _make(a.data.T, (a,), _bw)


def _reshape(a, shape):
    old = a.data.shape

    def _bw(g, a=a, old=old):
        if a.requires_grad:
            a._accumulate(g.reshape(old))

    return _make(a.data.reshape(shape), (a,), _bw)


def _getitem(a, key):
    def _bw(g, a=a, key=key):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, key, g)
            a._accumulate(full)

    return _make(a.data[key], (a,), _bw)


def _sum(a, axis, keepdims):
    def _bw(g, a=a, axis=axis, keepdims=keepdims):
        if not a.requires_grad:
            return
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), _bw)


def _mean(a, axis, keepdims):
    n = a.data.size if axis is None else a.data.shape[axis]

    def _bw(g, a=a, axis=axis, keepdims=keepdims, n=n):
        if not a.requires_grad:
            return
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape) / n)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), _bw)


def _max(a, axis):
    """Max along ``axis``; gradient routes to the first maximal entry."""
    if a.data.shape[axis] == 0:
        raise ShapeError(f"max over empty axis {axis} of shape {a.shape}")
    idx = np.argmax(a.data, axis=axis)
    out = np.max(a.data, axis=axis)

    def _bw(g, a=a, axis=axis, idx=idx):
        if not a.requires_grad:
            return
        full = np.zeros_like(a.data)
        grid = np.indices(idx.shape)
        sel = list(grid)
        sel.insert(axis if axis >= 0 else a.data.ndim + axis, idx)
        full[tuple(sel)] = g
        a._accumulate(full)

    return _make(out, (a,), _bw)


def softmax(x, axis=-1):
    """Numerically stabilized softmax along ``axis``."""
    x = _wrap(x)
    if x.data.shape == () or x.data.shape[axis] == 0:
        raise ShapeError(f"softmax over empty axis {axis} of shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)

    def _bw(g, x=x, p=p, axis=axis):
        if x.requires_grad:
            inner = (g * p).sum(axis=axis, keepdims=True)
            x._accumulate(p * (g - inner))

    return _make(p, (x,), _bw)


def log_softmax(x, axis=-1):
    x = _wrap(x)
    if x.data.shape == () or x.data.shape[axis] == 0:
        raise ShapeError(f"log_softmax over empty axis {axis} of shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    p = np.exp(out)

    def _bw(g, x=x, p=p, axis=axis):
        if x.requires_grad:
            x._accumulate(g - p * g.sum(axis=axis, keepdims=True))

    return _make(out, (x,), _bw)


def embedding(table, ids):
    """Row lookup ``table[ids]`` with scatter-add backward."""
    table = _wrap(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"ids must be 1-D, got {ids.shape}")
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError("id out of table range")

    def _bw(g, table=table, ids=ids):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, ids, g)
            table._accumulate(full)

    return _make(table.data[ids], (table,), _bw)


def concat(tensors, axis=0):
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of empty list")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _bw(g, tensors=tensors, offsets=offsets, axis=axis):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return _make(data, tuple(tensors), _bw)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize the last axis of ``x``, then scale and shift."""
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError("layer_norm scale/shift must match last axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = xhat * gamma.data + beta.data

    def _bw(g, x=x, gamma=gamma, beta=beta, xhat=xhat, inv=inv, d=d):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gg = g * gamma.data
            m1 = gg.mean(axis=-1, keepdims=True)
            m2 = (gg * xhat).mean(axis=-1, keepdims=True)
            x._accumulate((gg - m1 - xhat * m2) * inv)

    return _make(out, (x, gamma, beta), _bw)
