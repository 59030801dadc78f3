"""Minimal reverse-mode autodiff on numpy arrays.

Covers exactly the ops the fusion pathway, the mini text encoder, tuning
injections and the training loss need: matmul, broadcast add (also as
`+`) and mul, relu, non-affine layer norm, dropout, row gathers and
concatenation, attention over a batch of padded sequences with a key mask,
and binary cross-entropy on logits. Tensors are float64 throughout;
the graph is a dynamic tape, backward visits each node once.

A Tensor is its value, `data`, plus a tape record when it requires a
gradient. The record says where gradients go (its gradient so far, a leaf's
sink, the records of the inputs that need one, and a backward closure); it
never holds a forward value. Each op's backward captures only the arrays it
reads: matmul and mul keep an operand's value only when the other operand
requires a gradient, add keeps only shapes, relu and dropout their masks,
layer_norm its output and inverse deviation, masked_attention its weights
and only the q, k and v rows that a needed gradient reads, gather_rows its
ids, and bce_with_logits its logits, exponential and targets. So an
activation that no backward reads is freed as soon as the forward pass drops
it: a LoRA training micro-batch's tape holds about a quarter of the bytes it
would if each record kept its inputs' values.

A constant carries no record: a forward pass over constants (a frozen
encoder, or any pass but a training one) holds no tape and its
intermediates are freed as soon as the next op has read them. Backward
forms only the gradients that are needed: it visits only records, and
matmul, mul, add and masked_attention form each operand's product only when
that operand requires one. A frozen weight, or a constant input such as
precomputed features, costs no backward GEMM. Once backward has passed an
inner record's gradient on, the record drops that gradient, its parents and
its backward closure; leaves keep their gradients. So a tape is single-use,
and by the time its backward returns nothing holds its activations.

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


class _Record:
    """A Tensor's place on the tape: its gradient so far, a leaf's sink, the
    records of the inputs that require a gradient, and the backward that
    passes a gradient on to them from the arrays it captured."""

    __slots__ = ("grad", "sink", "parents", "backward", "__weakref__")

    def __init__(self, parents, backward, sink: GradSink | None = None):
        self.grad = None
        self.sink = sink
        self.parents = parents
        self.backward = backward


class Tensor:
    """Immutable value with a tape record when it requires a gradient; a
    constant carries none."""

    __slots__ = ("data", "_record")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None,
                 sink: GradSink | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        parents = tuple(filter(None, (p._record for p in _parents))) if _parents else ()
        self._record = (_Record(parents, _backward, sink)
                        if requires_grad or parents else None)

    @property
    def shape(self):
        return self.data.shape

    @property
    def requires_grad(self) -> bool:
        return self._record is not None

    @property
    def grad(self):
        return None if self._record is None else self._record.grad

    @grad.setter
    def grad(self, g):
        if self._record is not None:
            self._record.grad = g
        elif g is not None:
            raise ValueError("a constant takes no gradient")

    @property
    def _parents(self) -> tuple:
        return () if self._record is None else self._record.parents

    @property
    def _backward(self):
        return None if self._record is None else self._record.backward

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph traversal -------------------------------------------------

    def backward(self):
        """Backpropagate from this scalar output, whose gradient is 1.

        The tape is single-use: each inner record drops its parents and its
        backward closure once it has passed its gradient on, so the tape's
        activations are freed as the pass goes and none outlives it. A second
        backward through any of its records raises RuntimeError."""
        if self.data.size != 1:
            raise ShapeError("backward() needs a scalar output")
        root = self._record
        if root is None:
            return  # a constant: no gradient reaches anything

        topo, seen = [], set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if node.backward is _spent:
                raise RuntimeError("backward() through a tape an earlier backward() "
                                   "consumed; run the forward pass again")
            if expanded:
                seen.add(id(node))
                topo.append(node)
                continue
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))

        root.grad = np.ones(self.data.shape)
        # every consumer of a record comes after it in topo, so popping visits
        # a record once its gradient is complete, and drops the list's reference
        while topo:
            node = topo.pop()
            if node.backward is not None:
                if node.grad is not None:
                    node.backward(node.grad)
                    node.grad = None  # passed on to the parents
                node.parents, node.backward = (), _spent
            elif node.sink is not None and node.grad is not None \
                    and node.grad is not node.sink.out:
                # a leaf whose sink was written before this pass adds its sum
                np.add(node.sink.out, node.grad, out=node.sink.out)

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)


def _spent(g):
    """The backward of a record whose tape a backward pass consumed."""


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data, parents, backward) -> Tensor:
    """An op's output: `data`, recorded with `backward` when any of the
    input records `parents` (None for a constant input) exists."""
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64)
    live = tuple(filter(None, parents))  # a record is always true
    out._record = _Record(live, backward) if live else None
    return out


def _fresh_sink(r: _Record) -> np.ndarray | None:
    """r's sink array, now also r.grad, when the gradient about to reach r is
    the first to reach its unwritten sink; None otherwise."""
    s = r.sink
    if s is None or s.written or r.grad is not None:
        return None
    s.written = True
    r.grad = s.out
    return s.out


def _add_grad(r: _Record, g: np.ndarray):
    if r.grad is None:
        out = _fresh_sink(r)
        if out is None:
            r.grad = g
        else:
            np.copyto(out, g)
    elif r.sink is not None and r.grad is r.sink.out:
        np.add(r.grad, g, out=r.grad)
    else:
        r.grad = r.grad + g


def _add_matmul(r: _Record, x: np.ndarray, y: np.ndarray):
    """_add_grad(r, x @ y), with the product formed in r's sink on its first
    write."""
    out = _fresh_sink(r)
    if out is None:
        _add_grad(r, x @ y)
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
    ra, rb = a._record, b._record
    sa, sb = a.data.shape, b.data.shape

    def bw(g):
        if ra is not None:
            _add_grad(ra, _unbroadcast(g, sa))
        if rb is not None:
            _add_grad(rb, _unbroadcast(g, sb))

    return _result(a.data + b.data, (ra, rb), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ra, rb = a._record, b._record
    sa, sb = a.data.shape, b.data.shape
    # each operand's value is kept only for the other operand's gradient
    da = a.data if rb is not None else None
    db = b.data if ra is not None else None

    def bw(g):
        if ra is not None:
            _add_grad(ra, _unbroadcast(g * db, sa))
        if rb is not None:
            _add_grad(rb, _unbroadcast(g * da, sb))

    return _result(a.data * b.data, (ra, rb), bw)


def relu(x) -> Tensor:
    x = as_tensor(x)
    rx = x._record
    mask = x.data > 0

    def bw(g):
        _add_grad(rx, g * mask)

    return _result(x.data * mask, (rx,), bw)


# -- linear algebra ---------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    ra, rb = a._record, b._record
    # each operand's value is kept only for the other operand's gradient
    da = a.data if rb is not None else None
    db = b.data if ra is not None else None

    def bw(g):
        if ra is not None:
            _add_grad(ra, g @ db.T)
        if rb is not None:
            _add_matmul(rb, da.T, g)

    return _result(a.data @ b.data, (ra, rb), bw)


# -- indexing ---------------------------------------------------------------


def gather_rows(table, ids) -> Tensor:
    """Row lookup (embedding): out[i] = table[ids[i]]."""
    table = as_tensor(table)
    rt = table._record
    shape = table.data.shape
    ids = np.asarray(ids, dtype=np.int64)

    def bw(g):
        gt = np.zeros(shape)
        np.add.at(gt, ids, g)
        _add_grad(rt, gt)

    return _result(table.data[ids], (rt,), bw)


def concat_rows(parts) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    records = tuple(p._record for p in parts)
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def bw(g):
        for r, lo, hi in zip(records, offsets[:-1], offsets[1:]):
            if r is not None:
                _add_grad(r, g[lo:hi])

    return _result(np.concatenate([p.data for p in parts], axis=0), records, bw)


# -- normalization / attention ----------------------------------------------


def layer_norm(x, eps: float = 1e-5) -> Tensor:
    """Per-row zero mean / unit variance, no learned scale or shift."""
    x = as_tensor(x)
    if x.data.shape[-1] < 2:
        raise ShapeError("layer_norm needs last-axis length >= 2")
    rx = x._record
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x.data - mu) * inv

    def bw(g):
        gm = g.mean(axis=-1, keepdims=True)
        gy = (g * y).mean(axis=-1, keepdims=True)
        _add_grad(rx, inv * (g - gm - y * gy))

    return _result(y, (rx,), bw)


def masked_attention(q, k, v, key_mask, scale: float) -> Tensor:
    """softmax(q k^T * scale) v within each of B padded sequences, over its
    real keys only; one tape record.

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
    rq, rk, rv = q._record, k._record, v._record
    sq, sk, sv = q.data.shape, k.data.shape, v.data.shape
    tq = sq[0] // b
    qb = q.data.reshape(b, tq, -1)
    kb = k.data.reshape(b, t, -1)
    vb = v.data.reshape(b, t, -1)
    scores = np.where(mask[:, None, :], np.matmul(qb, kb.transpose(0, 2, 1)) * scale,
                      -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))  # exp(-inf) is 0
    p = e / e.sum(axis=-1, keepdims=True)
    out = np.matmul(p, vb).reshape(b * tq, -1)
    # the backward keeps p, plus only the rows a needed gradient reads:
    # v's for q's and k's, k's for q's, q's for k's
    if rq is None and rk is None:
        vb = None
    if rq is None:
        kb = None
    if rk is None:
        qb = None

    def bw(g):
        g = g.reshape(b, tq, -1)
        if rv is not None:
            _add_grad(rv, np.matmul(p.transpose(0, 2, 1), g).reshape(sv))
        if rq is not None or rk is not None:
            gp = np.matmul(g, vb.transpose(0, 2, 1))
            gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
            if rq is not None:
                _add_grad(rq, np.matmul(gs, kb).reshape(sq))
            if rk is not None:
                _add_grad(rk, np.matmul(gs.transpose(0, 2, 1), qb).reshape(sk))

    return _result(out, (rq, rk, rv), bw)


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
    rx = x._record
    mask = (np.asarray(uniform) >= p) / (1.0 - p)

    def bw(g):
        _add_grad(rx, g * mask)

    return _result(x.data * mask, (rx,), bw)


def bce_with_logits(logits, targets) -> Tensor:
    """Mean binary cross-entropy, stabilized on logits."""
    logits = as_tensor(logits)
    if not np.isfinite(logits.data).all():
        raise NumericError("non-finite logits in bce loss")
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != logits.data.shape:
        raise ShapeError(f"targets shape {y.shape} != logits shape {logits.data.shape}")
    rl = logits._record
    z = logits.data
    e = np.exp(-np.abs(z))  # in [0, 1]: exp(-z) where z >= 0, exp(z) below
    loss = np.maximum(z, 0.0) - z * y + np.log1p(e)
    n = z.size

    def bw(g):
        p = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))  # sigmoid(z)
        _add_grad(rl, g * (p - y) / n)

    return _result(loss.mean(), (rl,), bw)
