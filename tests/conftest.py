"""Shared independent oracles: finite differences, brute-force ranking
metrics, attention over one sequence composed from per-op tape nodes, which
masked_attention and the batched text encoder are checked against, the
piecewise sigmoid of bce_with_logits' backward, and the redaction, audit
counting and audit probe that redact, _count_features and
_probe_macro_auroc are checked against."""

import re

import numpy as np

from petfuse.autodiff import Tensor, _add_grad, as_tensor, matmul, mul
from petfuse.errors import NumericError, ShapeError
from petfuse.metrics import macro_auroc
from petfuse.redaction import (_NUM_RE, _TOKEN_RE, MASKS, Lexicon, RedactedReport,
                               _fit_linear_probe, _tokenize_lower)


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


def _accum(t: Tensor, g: np.ndarray):
    """Add g to t's gradient; a constant takes none."""
    if t._record is not None:
        _add_grad(t._record, g)


def transpose(x) -> Tensor:
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError("transpose expects a 2-D tensor")

    def bw(g):
        _accum(x, g.T)

    return Tensor(x.data.T, _parents=(x,), _backward=bw)


def tsum(x, axis=None) -> Tensor:
    """Sum over `axis` (all axes when None); the scalar most gradient checks
    differentiate."""
    x = as_tensor(x)

    def bw(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.data.shape).copy())
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy())

    return Tensor(x.data.sum(axis=axis), _parents=(x,), _backward=bw)


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


def bce_grad_piecewise(z, y):
    """Gradient of mean BCE on logits z, its sigmoid formed piecewise on the
    masked halves: 1 / (1 + exp(-z)) where z >= 0, exp(z) / (1 + exp(z))
    below."""
    p = np.empty_like(z)
    pos = z >= 0
    p[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    p[~pos] = ez / (1.0 + ez)
    return (p - y) / z.size


def count_tokens_one_at_a_time(texts, vocab):
    """The audit's count matrix, each in-vocabulary token added on its own."""
    x = np.zeros((len(texts), len(vocab)))
    for i, t in enumerate(texts):
        for tok in _tokenize_lower(t):
            j = vocab.get(tok)
            if j is not None:
                x[i, j] += 1.0
    return x


def two_pass_probe_macro_auroc(texts_train, texts_test, y_train, y_test, seed):
    """The audit probe's test macro AUROC, each training report tokenized
    twice: once to build the vocabulary, once to count its tokens."""
    vocab = {}
    for t in texts_train:
        for tok in _tokenize_lower(t):
            if tok not in vocab:
                vocab[tok] = len(vocab)
    x_train = count_tokens_one_at_a_time(texts_train, vocab)
    x_test = count_tokens_one_at_a_time(texts_test, vocab)
    w, b = _fit_linear_probe(x_train, y_train, seed)
    return macro_auroc(x_test @ w + b, y_test)


_PURE_NUM_RE = re.compile(rf"^{_NUM_RE}$")


def _is_word(tok: str) -> bool:
    return bool(_TOKEN_RE.fullmatch(tok)) and not tok.startswith("[")


def reference_redact(text: str, lexicon: Lexicon | None = None) -> RedactedReport:
    """redact as two stages over the non-empty split parts, each part
    re-matched against the token pattern and the phrase index rebuilt per
    call."""
    lexicon = lexicon or Lexicon()
    parts = [p for p in _TOKEN_RE.split(text) if p != ""]
    counts = {m: 0 for m in MASKS}

    # candidate phrases by first word, longest first
    phrases: dict[str, list[tuple[str, ...]]] = {}
    for phrase in sorted({tuple(t.lower().split()) for t in lexicon.pathology},
                         key=len, reverse=True):
        if phrase:
            phrases.setdefault(phrase[0], []).append(phrase)
    word_idx = [i for i, p in enumerate(parts) if _is_word(p)]

    # stage 1: pathology phrases, longest first over consecutive word tokens
    pos = 0
    while pos < len(word_idx):
        matched = None
        for phrase in phrases.get(parts[word_idx[pos]].lower(), ()):
            span = word_idx[pos:pos + len(phrase)]
            if len(span) == len(phrase) and all(
                    parts[k].lower() == w for k, w in zip(span[1:], phrase[1:])):
                matched = span
                break
        if matched:
            parts[matched[0]] = "[FINDING]"
            parts[matched[0] + 1:matched[-1] + 1] = [""] * (matched[-1] - matched[0])
            counts["FINDING"] += 1
            pos += len(matched)
        else:
            pos += 1

    # stage 2: numeric and location tokens
    location = {t.lower() for t in lexicon.location}
    for i, tok in enumerate(parts):
        if not tok or not _is_word(tok):
            continue
        if _PURE_NUM_RE.fullmatch(tok) and any(c.isdigit() for c in tok):
            parts[i] = "[NUM]"
            counts["NUM"] += 1
        elif tok.lower() in location:
            parts[i] = "[LOC]"
            counts["LOC"] += 1

    return RedactedReport("".join(parts), counts)
