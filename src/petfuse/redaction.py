"""Two-stage report redaction and the residual-leakage audit.

Stage 1 masks pathology-lexicon phrases (longest match first,
case-insensitive, whole tokens) with [FINDING]; stage 2 masks numeric
tokens with [NUM] and location-lexicon tokens with [LOC]. Negation words
are preserved. The audit trains bag-of-tokens linear classifiers on raw
vs redacted corpora and compares test macro AUROC.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import DISTRACTOR_TERMS, LABELS, _TERMS
from .errors import InputError
from .metrics import macro_auroc
from .model import Param
from .training import AdamW, clip_gradients, lr_schedule

MASKS = ("FINDING", "NUM", "LOC")

DEFAULT_PATHOLOGY = sorted(
    {t for pair in _TERMS for t in pair} | set(DISTRACTOR_TERMS)
    | {name.lower() for name in LABELS})

DEFAULT_NEGATION = ["no", "not", "without", "absent", "negative", "denies",
                    "free of", "clear of"]

DEFAULT_LOCATION = ["left", "right", "base", "bases", "basilar", "apex",
                    "apical", "upper", "lower", "middle", "lobe", "lobar",
                    "bilateral", "retrocardiac", "costophrenic",
                    "subsegmental"]


@dataclass
class Lexicon:
    pathology: list[str] = field(default_factory=lambda: list(DEFAULT_PATHOLOGY))
    negation: list[str] = field(default_factory=lambda: list(DEFAULT_NEGATION))
    location: list[str] = field(default_factory=lambda: list(DEFAULT_LOCATION))

    @classmethod
    def from_dir(cls, path):
        """Read pathology.txt / negation.txt / location.txt; '#' comments."""
        def read(name, fallback):
            p = Path(path) / name
            if not p.exists():
                return list(fallback)
            terms = []
            for line in p.read_text(encoding="utf-8").splitlines():
                line = line.split("#", 1)[0].strip().lower()
                if line:
                    terms.append(line)
            return terms
        return cls(read("pathology.txt", DEFAULT_PATHOLOGY),
                   read("negation.txt", DEFAULT_NEGATION),
                   read("location.txt", DEFAULT_LOCATION))


@dataclass
class RedactedReport:
    text: str
    counts: dict[str, int]


_MASK_RE = r"\[(?:FINDING|NUM|LOC)\]"
_NUM_RE = r"\d+(?:\.\d+)?(?:[a-zA-Z%]+)?"
_WORD_RE = r"[A-Za-z]+(?:['\-][A-Za-z]+)*"
_TOKEN_RE = re.compile(f"({_MASK_RE}|{_NUM_RE}|{_WORD_RE})")
_PURE_NUM_RE = re.compile(rf"^{_NUM_RE}$")


def _is_word(tok: str) -> bool:
    return bool(_TOKEN_RE.fullmatch(tok)) and not tok.startswith("[")


def redact(text: str, lexicon: Lexicon | None = None) -> RedactedReport:
    """Mask pathology phrases, numbers, and location tokens; keep the rest."""
    lexicon = lexicon or Lexicon()
    parts = [p for p in _TOKEN_RE.split(text) if p != ""]
    counts = {m: 0 for m in MASKS}

    phrases = sorted({tuple(t.lower().split()) for t in lexicon.pathology},
                     key=len, reverse=True)
    word_idx = [i for i, p in enumerate(parts) if _is_word(p)]

    # stage 1: pathology phrases, longest first over consecutive word tokens
    consumed = set()
    pos = 0
    while pos < len(word_idx):
        i = word_idx[pos]
        if i in consumed:
            pos += 1
            continue
        matched = None
        for phrase in phrases:
            span = word_idx[pos:pos + len(phrase)]
            if len(span) < len(phrase):
                continue
            if all(parts[k].lower() == w for k, w in zip(span, phrase)):
                matched = span
                break
        if matched:
            parts[matched[0]] = "[FINDING]"
            for k in matched[1:]:
                consumed.add(k)
                parts[k] = ""
            # drop separators swallowed inside the phrase
            for k in range(matched[0] + 1, matched[-1]):
                if k not in matched:
                    parts[k] = ""
            counts["FINDING"] += 1
            pos += len(matched)
        else:
            pos += 1

    # stage 2: numeric and location tokens
    location = {t.lower() for t in lexicon.location}
    for i, tok in enumerate(parts):
        if not tok or not _is_word(tok) or i in consumed:
            continue
        if _PURE_NUM_RE.fullmatch(tok) and any(c.isdigit() for c in tok):
            parts[i] = "[NUM]"
            counts["NUM"] += 1
        elif tok.lower() in location:
            parts[i] = "[LOC]"
            counts["LOC"] += 1

    return RedactedReport("".join(parts), counts)


def redact_corpus(texts, lexicon: Lexicon | None = None):
    lexicon = lexicon or Lexicon()
    return [redact(t, lexicon) for t in texts]


# -- residual-leakage audit ---------------------------------------------------

_AUDIT_TOKEN_RE = re.compile(r"\[(?:FINDING|NUM|LOC)\]|[a-z0-9']+")


def _tokenize_lower(text: str):
    return _AUDIT_TOKEN_RE.findall(text.lower().replace("[finding]", "[FINDING]")
                                   .replace("[num]", "[NUM]").replace("[loc]", "[LOC]"))


def _count_features(texts, vocab):
    x = np.zeros((len(texts), len(vocab)))
    for i, t in enumerate(texts):
        for tok in _tokenize_lower(t):
            j = vocab.get(tok)
            if j is not None:
                x[i, j] += 1.0
    return x


def _fit_linear_probe(x_train, y_train, seed, steps=300, lr=0.05):
    """Multi-label logistic regression trained with the package optimizer."""
    rng = ad.make_rng(seed, "audit", "probe")
    n_feat, n_lab = x_train.shape[1], y_train.shape[1]
    w = Param("probe/w", rng.normal(0, 0.01, (n_feat, n_lab)), trainable=True)
    b = Param("probe/b", np.zeros((1, n_lab)), trainable=True)
    opt = AdamW([w, b], weight_decay=1e-4)
    xt = ad.Tensor(x_train)
    warmup = max(1, steps // 10)
    for step in range(steps):
        wt = ad.Tensor(w.data, requires_grad=True)
        bt = ad.Tensor(b.data, requires_grad=True)
        logits = ad.matmul(xt, wt) + bt
        loss = ad.bce_with_logits(logits, y_train)
        loss.backward()
        grads, _ = clip_gradients({"probe/w": wt.grad, "probe/b": bt.grad}, 5.0)
        opt.step(grads, lr_schedule(step, steps, warmup, lr))
    return w.data, b.data


def _probe_macro_auroc(texts_train, texts_test, y_train, y_test, seed):
    vocab = {}
    for t in texts_train:
        for tok in _tokenize_lower(t):
            if tok not in vocab:
                vocab[tok] = len(vocab)
    x_train = _count_features(texts_train, vocab)
    x_test = _count_features(texts_test, vocab)
    w, b = _fit_linear_probe(x_train, y_train, seed)
    return macro_auroc(x_test @ w + b, y_test)


def audit_leakage(raw_corpus, redacted_corpus, labels, train_idx, test_idx,
                  seed: int = 0) -> dict:
    """Macro AUROC of text-only probes on raw vs redacted reports.

    Returns {"auroc_raw", "auroc_redacted", "delta"}; delta > 0 means the
    redaction removed label-correlated text signal.
    """
    if len(raw_corpus) != len(redacted_corpus) or len(raw_corpus) != len(labels):
        raise InputError("raw corpus, redacted corpus, and labels must align 1:1")
    y = np.asarray(labels)
    train_idx = np.asarray(train_idx)
    test_idx = np.asarray(test_idx)
    raw = _probe_macro_auroc([raw_corpus[i] for i in train_idx],
                             [raw_corpus[i] for i in test_idx],
                             y[train_idx], y[test_idx], seed)
    red = _probe_macro_auroc([redacted_corpus[i] for i in train_idx],
                             [redacted_corpus[i] for i in test_idx],
                             y[train_idx], y[test_idx], seed)
    return {"auroc_raw": raw, "auroc_redacted": red, "delta": raw - red}
