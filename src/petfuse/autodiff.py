"""Minimal reverse-mode autodiff on numpy arrays.

Covers exactly the ops the fusion pathway, the mini text encoder, and tuning
injections need: matmul, broadcast add/mul, relu, row softmax, non-affine
layer norm, dropout, gathers/slices, and reductions. Tensors are float64
throughout; the graph is a dynamic tape, backward visits each node once.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigError, NumericError, ShapeError


def stable_hash(name) -> int:
    """64-bit hash of a string/int, stable across processes."""
    h = hashlib.sha256(str(name).encode("utf-8")).digest()
    return int.from_bytes(h[:8], "little")


def make_rng(seed: int, *stream) -> np.random.Generator:
    """Named counter-based stream: same (seed, names) -> same Philox state."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [stable_hash(s) for s in stream]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


class Tensor:
    """Immutable value node in the computation tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph traversal -------------------------------------------------

    def backward(self, grad=None):
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without a seed gradient needs a scalar output")
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=np.float64)

        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                topo.append(node)
                continue
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))

        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def t(self):
        return transpose(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# -- elementwise ----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return Tensor(out_data, _parents=(a, b), _backward=bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, _parents=(a, b), _backward=bw)


def relu(x) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0

    def bw(g):
        _accum(x, g * mask)

    return Tensor(x.data * mask, _parents=(x,), _backward=bw)


# -- linear algebra ---------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"inner dimensions disagree: {a.data.shape} @ {b.data.shape}")

    def bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return Tensor(a.data @ b.data, _parents=(a, b), _backward=bw)


def transpose(x) -> Tensor:
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError("transpose expects a 2-D tensor")

    def bw(g):
        _accum(x, g.T)

    return Tensor(x.data.T, _parents=(x,), _backward=bw)


# -- reductions -------------------------------------------------------------


def tsum(x, axis=None) -> Tensor:
    x = as_tensor(x)

    def bw(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.data.shape).copy())
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy())

    return Tensor(x.data.sum(axis=axis), _parents=(x,), _backward=bw)


# -- indexing ---------------------------------------------------------------


def gather_rows(table, ids) -> Tensor:
    """Row lookup (embedding): out[i] = table[ids[i]]."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)

    def bw(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids, g)
            _accum(table, gt)

    return Tensor(table.data[ids], _parents=(table,), _backward=bw)


def slice_rows(x, start, stop) -> Tensor:
    x = as_tensor(x)

    def bw(g):
        gx = np.zeros_like(x.data)
        gx[start:stop] = g
        _accum(x, gx)

    return Tensor(x.data[start:stop], _parents=(x,), _backward=bw)


def concat_rows(parts) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[lo:hi])

    return Tensor(np.concatenate([p.data for p in parts], axis=0),
                  _parents=tuple(parts), _backward=bw)


# -- normalization / attention ----------------------------------------------


def softmax_rows(x) -> Tensor:
    x = as_tensor(x)
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        _accum(x, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return Tensor(y, _parents=(x,), _backward=bw)


def layer_norm(x, eps: float = 1e-5) -> Tensor:
    """Per-row zero mean / unit variance, no learned scale or shift."""
    x = as_tensor(x)
    if x.data.shape[-1] < 2:
        raise ShapeError("layer_norm needs last-axis length >= 2")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x.data - mu) * inv

    def bw(g):
        gm = g.mean(axis=-1, keepdims=True)
        gy = (g * y).mean(axis=-1, keepdims=True)
        _accum(x, inv * (g - gm - y * gy))

    return Tensor(y, _parents=(x,), _backward=bw)


def softmax_attention(q, k, v, scale: float) -> Tensor:
    """softmax(q k^T * scale) v; rows of the attention matrix sum to 1."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    for t in (q, k, v):
        if not np.isfinite(t.data).all():
            raise NumericError("non-finite attention input")
    if q.data.shape[-1] != k.data.shape[-1]:
        raise ShapeError(f"q/k feature dims disagree: {q.data.shape} vs {k.data.shape}")
    if k.data.shape[0] != v.data.shape[0]:
        raise ShapeError(f"k/v sequence lengths disagree: {k.data.shape} vs {v.data.shape}")
    scores = mul(matmul(q, transpose(k)), scale)
    return matmul(softmax_rows(scores), v)


def dropout(x, p: float, training: bool, uniform=None) -> Tensor:
    """Inverted dropout; identity in eval mode or at p == 0.

    `uniform` holds one U[0, 1) draw per element of x; an element survives
    where its draw is >= p.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    x = as_tensor(x)
    if not training or p == 0.0:
        return x
    got = None if uniform is None else np.shape(uniform)
    if got != x.data.shape:
        raise ShapeError(f"training-mode dropout needs uniform draws of shape "
                         f"{x.data.shape}, got {got}")
    mask = (np.asarray(uniform) >= p) / (1.0 - p)

    def bw(g):
        _accum(x, g * mask)

    return Tensor(x.data * mask, _parents=(x,), _backward=bw)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    y = np.empty_like(x.data)
    pos = x.data >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    y[~pos] = ex / (1.0 + ex)

    def bw(g):
        _accum(x, g * y * (1.0 - y))

    return Tensor(y, _parents=(x,), _backward=bw)


def bce_with_logits(logits, targets) -> Tensor:
    """Mean binary cross-entropy, stabilized on logits."""
    logits = as_tensor(logits)
    if not np.isfinite(logits.data).all():
        raise NumericError("non-finite logits in bce loss")
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != logits.data.shape:
        raise ShapeError(f"targets shape {y.shape} != logits shape {logits.data.shape}")
    z = logits.data
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    n = z.size

    def bw(g):
        p = np.empty_like(z)
        pos = z >= 0
        p[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        p[~pos] = ez / (1.0 + ez)
        _accum(logits, g * (p - y) / n)

    return Tensor(loss.mean(), _parents=(logits,), _backward=bw)
