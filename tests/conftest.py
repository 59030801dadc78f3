"""Shared independent oracles: finite differences, brute-force ranking
metrics, and attention over one sequence composed from per-op tape nodes,
which masked_attention and the batched text encoder are checked against."""

import numpy as np

from petfuse.autodiff import Tensor, _accum, as_tensor, matmul, mul
from petfuse.errors import NumericError, ShapeError


def grad_check(fn, tensors, step=1e-5):
    """Worst relative error between analytic and central-difference gradients.

    `fn` rebuilds the scalar output from the current tensor data; `tensors`
    are the leaves to check. Independent of the backward implementation.
    """
    for t in tensors:
        t.grad = None
    out = fn()
    out.backward()
    worst = 0.0
    for t in tensors:
        ana = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        ana_flat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = float(fn().data)
            flat[i] = orig - step
            down = float(fn().data)
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            err = abs(numeric - ana_flat[i]) / max(1.0, abs(numeric), abs(ana_flat[i]))
            worst = max(worst, err)
    return worst


def brute_force_auroc(scores, labels):
    """All (positive, negative) pairs, ties credited one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def hand_stepped_auprc(scores, labels):
    """Walk distinct descending thresholds and accumulate (dR) * P."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    thresholds = sorted(set(scores), reverse=True)
    ap, prev_recall = 0.0, 0.0
    for thr in thresholds:
        picked = scores >= thr
        tp = int(((labels == 1) & picked).sum())
        precision = tp / int(picked.sum())
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def transpose(x) -> Tensor:
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError("transpose expects a 2-D tensor")

    def bw(g):
        _accum(x, g.T)

    return Tensor(x.data.T, _parents=(x,), _backward=bw)


def softmax_rows(x) -> Tensor:
    x = as_tensor(x)
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        _accum(x, y * (g - (g * y).sum(axis=-1, keepdims=True)))

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
