"""Minimal reverse-mode autodiff on numpy arrays.

Covers exactly the ops the fusion pathway, the mini text encoder, tuning
injections and the training loss need: matmul, broadcast add (also as
`+`) and mul, relu, non-affine layer norm, dropout, row gathers and
concatenation, attention over a batch of padded sequences with a key mask,
and binary cross-entropy on logits. Tensors are float64 throughout;
the graph is a dynamic tape, backward visits each node once.

Only what a gradient can flow through is recorded: a node that requires no
gradient keeps neither its inputs nor its backward closure, so a forward
pass over constants (a frozen encoder, or any pass but a training one)
holds no tape and its intermediates are freed as soon as the next op has
read them. Backward forms only the gradients that are needed: it visits
only nodes that require a gradient, and matmul, mul, add and
masked_attention form each operand's product only when that operand
requires one. A frozen weight, or a constant input such as precomputed
features, costs no backward GEMM. Once backward has passed an inner node's
gradient on, the node drops that gradient, its inputs and its backward
closure; leaves keep their gradients. So a tape is single-use, and by the
time its backward returns nothing holds its activations.

A leaf may carry a GradSink, a preallocated array such as its view of an
optimizer's flat gradient. The first gradient to reach an unwritten sink is
formed in it (a matmul writes there with `out=`) and later ones in the same
backward are added to it in place; a leaf whose sink was already written
sums its gradient over the backward first and adds the sum once it is
complete. A sink thus accumulates over several backward passes in the
order that adding each pass's gradient into a zeroed array would, bit for
bit.
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


class GradSink:
    """Where a leaf's gradient lands: `out`, and whether a backward has
    written it since the owner last cleared `written`."""

    __slots__ = ("out", "written")

    def __init__(self, out: np.ndarray):
        self.out = out
        self.written = False


class Tensor:
    """Immutable value node in the computation tape; a node that requires no
    gradient is a constant and records no tape."""

    __slots__ = ("data", "grad", "requires_grad", "sink", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None,
                 sink: GradSink | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self.grad = None
        self.sink = sink if self.requires_grad else None
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph traversal -------------------------------------------------

    def backward(self):
        """Backpropagate from this scalar output, whose gradient is 1.

        The tape is single-use: each inner node drops its inputs and its
        backward closure once it has passed its gradient on, so the tape's
        activations are freed as the pass goes and none outlives it. A second
        backward through any of its nodes raises RuntimeError."""
        if self.data.size != 1:
            raise ShapeError("backward() needs a scalar output")

        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if node._backward is _spent:
                raise RuntimeError("backward() through a tape an earlier backward() "
                                   "consumed; run the forward pass again")
            if expanded:
                seen.add(id(node))
                topo.append(node)
                continue
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        # every consumer of a node comes after it in topo, so popping visits a
        # node once its gradient is complete, and drops the list's reference
        while topo:
            node = topo.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                    node.grad = None  # passed on to the parents
                node._parents, node._backward = (), _spent
            elif node.sink is not None and node.grad is not None \
                    and node.grad is not node.sink.out:
                # a leaf whose sink was written before this pass adds its sum
                np.add(node.sink.out, node.grad, out=node.sink.out)

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)


def _spent(g):
    """The backward of a node whose tape a backward pass consumed."""


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _fresh_sink(t: Tensor) -> np.ndarray | None:
    """t's sink array, now also t.grad, when the gradient about to reach t is
    the first to reach its unwritten sink; None otherwise."""
    s = t.sink
    if s is None or s.written or t.grad is not None:
        return None
    s.written = True
    t.grad = s.out
    return s.out


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        out = _fresh_sink(t)
        if out is None:
            t.grad = g
        else:
            np.copyto(out, g)
    elif t.sink is not None and t.grad is t.sink.out:
        np.add(t.grad, g, out=t.grad)
    else:
        t.grad = t.grad + g


def _accum_matmul(t: Tensor, x: np.ndarray, y: np.ndarray):
    """_accum(t, x @ y), with the product formed in t's sink on its first write."""
    out = _fresh_sink(t)
    if out is None:
        _accum(t, x @ y)
    else:
        np.matmul(x, y, out=out)


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
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return Tensor(out_data, _parents=(a, b), _backward=bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
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
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum_matmul(b, a.data.T, g)

    return Tensor(a.data @ b.data, _parents=(a, b), _backward=bw)


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


def masked_attention(q, k, v, key_mask, scale: float) -> Tensor:
    """softmax(q k^T * scale) v within each of B padded sequences, over its
    real keys only; one tape node.

    k and v hold the (B*T, d) rows of B sequences padded to length T;
    key_mask is (B, T) bool, True at a real key, and each sequence needs at
    least one. q holds Tq rows per sequence, (B*Tq, d): Tq = T for a full
    block, Tq = 1 for one query per sequence. A masked key gets exactly zero
    weight, so its k and v rows get exactly zero gradient. Returns (B*Tq, d).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    for t in (q, k, v):
        if not np.isfinite(t.data).all():
            raise NumericError("non-finite attention input")
    mask = np.asarray(key_mask, dtype=bool)
    if mask.ndim != 2 or not mask.any(axis=1).all():
        raise ShapeError(f"key_mask must be (B, T) with a real key in every row, "
                         f"got shape {mask.shape}")
    b, t = mask.shape
    if (q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2
            or q.data.shape[1] != k.data.shape[1]
            or k.data.shape[0] != b * t or v.data.shape[0] != b * t
            or q.data.shape[0] % b):
        raise ShapeError(f"masked attention over {b} sequences of {t} keys got "
                         f"q {q.data.shape}, k {k.data.shape}, v {v.data.shape}")
    tq = q.data.shape[0] // b
    qb = q.data.reshape(b, tq, -1)
    kb = k.data.reshape(b, t, -1)
    vb = v.data.reshape(b, t, -1)
    scores = np.where(mask[:, None, :], np.matmul(qb, kb.transpose(0, 2, 1)) * scale,
                      -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))  # exp(-inf) is 0
    p = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        g = g.reshape(b, tq, -1)
        if v.requires_grad:
            _accum(v, np.matmul(p.transpose(0, 2, 1), g).reshape(v.data.shape))
        if q.requires_grad or k.requires_grad:
            gp = np.matmul(g, vb.transpose(0, 2, 1))
            gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
            if q.requires_grad:
                _accum(q, np.matmul(gs, kb).reshape(q.data.shape))
            if k.requires_grad:
                _accum(k, np.matmul(gs.transpose(0, 2, 1), qb).reshape(k.data.shape))

    return Tensor(np.matmul(p, vb).reshape(b * tq, -1), _parents=(q, k, v), _backward=bw)


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


def bce_with_logits(logits, targets) -> Tensor:
    """Mean binary cross-entropy, stabilized on logits."""
    logits = as_tensor(logits)
    if not np.isfinite(logits.data).all():
        raise NumericError("non-finite logits in bce loss")
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != logits.data.shape:
        raise ShapeError(f"targets shape {y.shape} != logits shape {logits.data.shape}")
    z = logits.data
    e = np.exp(-np.abs(z))  # in [0, 1]: exp(-z) where z >= 0, exp(z) below
    loss = np.maximum(z, 0.0) - z * y + np.log1p(e)
    n = z.size

    def bw(g):
        p = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))  # sigmoid(z)
        _accum(logits, g * (p - y) / n)

    return Tensor(loss.mean(), _parents=(logits,), _backward=bw)
