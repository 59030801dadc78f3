"""Two-stage report redaction and the residual-leakage audit.

Stage 1 masks pathology-lexicon phrases (longest match first,
case-insensitive, whole tokens) with [FINDING]; stage 2 masks numeric
tokens with [NUM] and location-lexicon tokens with [LOC]. The default
lexicons hold no negation word, so "no", "without" and the like stay. The
phrase index and the location set are built once per lexicon content and
reused by every report redacted with it; editing a Lexicon's lists takes
effect on the next call. The audit trains bag-of-tokens linear classifiers
on raw vs redacted corpora and compares test macro AUROC. Each report is
tokenized once into vocabulary ids, and each count matrix is counted from
its (row, id) pairs, so no report is held as token strings while the
probes fit. Each probe steps from the closed-form gradient of its BCE loss
(autodiff.bce_grad, the one the tape's bce_with_logits passes back) with
the package optimizer: AdamW, gradient clipping and the warmup-cosine
schedule. It records no tape.
"""

from __future__ import annotations

import array
import functools
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import DISTRACTOR_TERMS, LABELS, _TERMS
from .errors import InputError, NumericError, ParseError
from .metrics import macro_auroc
from .model import Param
from .training import AdamW, clip_gradients, lr_schedule

MASKS = ("FINDING", "NUM", "LOC")

DEFAULT_PATHOLOGY = sorted(
    {t for pair in _TERMS for t in pair} | set(DISTRACTOR_TERMS)
    | {name.lower() for name in LABELS})

DEFAULT_LOCATION = ["left", "right", "base", "bases", "basilar", "apex",
                    "apical", "upper", "lower", "middle", "lobe", "lobar",
                    "bilateral", "retrocardiac", "costophrenic",
                    "subsegmental"]


@dataclass
class Lexicon:
    pathology: list[str] = field(default_factory=lambda: list(DEFAULT_PATHOLOGY))
    location: list[str] = field(default_factory=lambda: list(DEFAULT_LOCATION))

    @classmethod
    def from_dir(cls, path):
        """The lexicon in directory `path`, or the default one when it is None:
        pathology.txt and location.txt, one term a line, '#' starting a
        comment; a file the directory lacks keeps its default list."""
        if path is None:
            return cls()
        root = Path(path)
        if not root.is_dir():
            raise InputError(f"{path}: not a lexicon directory")

        def read(name, fallback):
            p = root / name
            if not p.exists():
                return list(fallback)
            try:
                text = p.read_text(encoding="utf-8")
            except UnicodeDecodeError as e:
                raise ParseError(f"{p}: lexicon file is not UTF-8 ({e})") from e
            terms = (line.split("#", 1)[0].strip().lower() for line in text.splitlines())
            return [t for t in terms if t]
        return cls(read("pathology.txt", DEFAULT_PATHOLOGY),
                   read("location.txt", DEFAULT_LOCATION))


@dataclass
class RedactedReport:
    text: str
    counts: dict[str, int]


_MASK_RE = r"\[(?:FINDING|NUM|LOC)\]"
_NUM_RE = r"\d+(?:\.\d+)?(?:[a-zA-Z%]+)?"
_WORD_RE = r"[A-Za-z]+(?:['\-][A-Za-z]+)*"
_TOKEN_RE = re.compile(f"({_MASK_RE}|{_NUM_RE}|{_WORD_RE})")


@functools.lru_cache(maxsize=8)
def _index(pathology: tuple[str, ...], location: tuple[str, ...]):
    """Pathology phrases (word lists) by first word, longest first, and the
    set of location terms; all lowercased."""
    phrases: dict[str, list[list[str]]] = {}
    for phrase in sorted({tuple(t.lower().split()) for t in pathology},
                         key=len, reverse=True):
        if phrase:
            phrases.setdefault(phrase[0], []).append(list(phrase))
    return phrases, frozenset(t.lower() for t in location)


def redact(text: str, lexicon: Lexicon | None = None) -> RedactedReport:
    """Mask pathology phrases, numbers, and location tokens; keep the rest."""
    lexicon = lexicon or Lexicon()
    phrases, location = _index(tuple(lexicon.pathology), tuple(lexicon.location))
    # the split puts each token at an odd index, the text between at even ones;
    # every token but a mask is a word: a number or a letter word
    parts = _TOKEN_RE.split(text)
    word_idx = [i for i in range(1, len(parts), 2) if parts[i][0] != "["]
    words = [parts[i].lower() for i in word_idx]
    counts = {m: 0 for m in MASKS}

    # left to right over the words: the longest pathology phrase starting at
    # a word wins; a word no phrase starts at is final, so stage 2 masks it
    # there, a number before a location term
    pos = 0
    while pos < len(words):
        word = words[pos]
        for phrase in phrases.get(word, ()):
            if words[pos:pos + len(phrase)] == phrase:
                # the phrase's later words and the separators between them go
                first, last = word_idx[pos], word_idx[pos + len(phrase) - 1]
                parts[first] = "[FINDING]"
                parts[first + 1:last + 1] = [""] * (last - first)
                counts["FINDING"] += 1
                pos += len(phrase)
                break
        else:
            if word[0].isdigit():
                parts[word_idx[pos]] = "[NUM]"
                counts["NUM"] += 1
            elif word in location:
                parts[word_idx[pos]] = "[LOC]"
                counts["LOC"] += 1
            pos += 1

    return RedactedReport("".join(parts), counts)


# -- residual-leakage audit ---------------------------------------------------

_AUDIT_TOKEN_RE = re.compile(r"\[(?:FINDING|NUM|LOC)\]|[a-z0-9']+")


def _tokenize_lower(text: str):
    return _AUDIT_TOKEN_RE.findall(text.lower().replace("[finding]", "[FINDING]")
                                   .replace("[num]", "[NUM]").replace("[loc]", "[LOC]"))


class _Vocabulary(dict):
    """Token -> column id. Looking up a token it lacks adds the token with the
    next id, so the ids follow first appearance."""

    def __missing__(self, token):
        self[token] = j = len(self)
        return j


_IS_ID = functools.partial(operator.is_not, None)


def _count_features(texts, vocab):
    """Bag-of-tokens counts of texts as float64, one row per text and one
    column per id of vocab, a dict from token to column. Each text is
    tokenized once into ids, and the matrix is counted from the (row, id)
    pairs in one pass. A token vocab lacks is dropped, unless vocab is a
    _Vocabulary, which adds it as the next column."""
    lookup = vocab.__getitem__ if isinstance(vocab, _Vocabulary) else vocab.get
    ids = array.array("q")
    kept = np.empty(len(texts), dtype=np.intp)
    for i, text in enumerate(texts):
        start = len(ids)
        ids.extend(filter(_IS_ID, map(lookup, _tokenize_lower(text))))
        kept[i] = len(ids) - start
    rows, width = len(texts), len(vocab)
    # pair (row, id) counts at the flat index row * width + id
    cells = np.repeat(np.arange(rows) * width, kept)
    cells += np.frombuffer(ids, dtype=np.int64)
    x = np.zeros((rows, width))
    np.add.at(x.reshape(-1), cells, 1.0)
    return x


def _fit_linear_probe(x_train, y_train, seed, steps=300, lr=0.05):
    """Multi-label logistic regression trained with the package optimizer,
    each full-batch step from the closed-form gradient of its mean BCE,
    x^T (sigmoid(z) - y) / z.size with z = x @ w + b, written straight into
    the optimizer's gradient arena."""
    rng = ad.make_rng(seed, "audit", "probe")
    n_feat, n_lab = x_train.shape[1], y_train.shape[1]
    w = Param("probe/w", rng.normal(0, 0.01, (n_feat, n_lab)), trainable=True)
    b = Param("probe/b", np.zeros((1, n_lab)), trainable=True)
    opt = AdamW([w, b], weight_decay=1e-4)
    y = np.asarray(y_train, dtype=np.float64)
    warmup = max(1, steps // 10)
    for step in range(steps):
        z = x_train @ w.data + b.data
        if not np.isfinite(z).all():
            raise NumericError("non-finite logits in bce loss")
        g = ad.bce_grad(z, np.exp(-np.abs(z)), y, 1.0)
        np.matmul(x_train.T, g, out=w.sink.out)
        np.sum(g, axis=0, keepdims=True, out=b.sink.out)
        clip_gradients(opt.flat_grad, 5.0)
        opt.step(lr_schedule(step, steps, warmup, lr))
    return w.data, b.data


def _probe_macro_auroc(texts_train, texts_test, y_train, y_test, seed):
    # the training tokens in order of first appearance; a plain dict of them
    # drops each test token outside them
    vocab = _Vocabulary()
    x_train = _count_features(texts_train, vocab)
    x_test = _count_features(texts_test, dict(vocab))
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
    for name, idx in (("train", train_idx), ("test", test_idx)):
        if len(idx) == 0:
            raise InputError(f"the {name} split is empty: too few patients for a "
                             f"leakage audit")
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
