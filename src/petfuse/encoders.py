"""Frozen text encoder: tokenizer and structural mini transformer.

The mini encoder stands in for a large pretrained text backbone at desk
scale. It keeps every tensor a tuning policy targets (attention
projections, biases, one residual stream per block for an adapter) while
staying small enough to finite-difference. Vision features arrive
precomputed in the manifest.

The encoder runs a list of reports as one tape: they are padded to the
longest, every attention masks the padded keys, and the last block computes
only the CLS rows, the only ones the output reads.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import InputError, ShapeError
from .model import ModelGraph
from .pet import ENCODER_PREFIX, adapter_residual, lora_linear

TEXT_DIM = 768
MAX_TEXT_LEN = 512

CLS, UNK, FINDING, NUM, LOC = "[CLS]", "[UNK]", "[FINDING]", "[NUM]", "[LOC]"
SPECIALS = (CLS, UNK, FINDING, NUM, LOC)


# Punctuation but brackets: "[FINDING]." and "([num])" spell special tokens.
_NOT_BRACKETS = string.punctuation.replace("[", "").replace("]", "")


def _normalize_token(raw: str) -> str:
    up = raw.strip(_NOT_BRACKETS).upper()
    if up in SPECIALS:
        return up
    return raw.strip(string.punctuation).lower()


@dataclass
class Tokenizer:
    """Whitespace + lowercasing tokenizer over a corpus-built vocabulary."""

    vocab: dict[str, int]

    @classmethod
    def build(cls, corpus) -> "Tokenizer":
        vocab = {tok: i for i, tok in enumerate(SPECIALS)}
        words = set()
        for text in corpus:
            for raw in text.split():
                tok = _normalize_token(raw)
                if tok and tok not in vocab:
                    words.add(tok)
        for tok in sorted(words):
            vocab[tok] = len(vocab)
        return cls(vocab)

    @classmethod
    def from_tokens(cls, tokens) -> "Tokenizer":
        """The tokenizer whose vocabulary is `tokens` in id order, as
        `tokens()` lists it; InputError unless they are unique strings that
        start with SPECIALS."""
        if (not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens)
                or tuple(tokens[:len(SPECIALS)]) != SPECIALS
                or len(set(tokens)) != len(tokens)):
            raise InputError(f"a vocabulary must be a list of unique strings "
                             f"starting with {list(SPECIALS)}")
        return cls({tok: i for i, tok in enumerate(tokens)})

    def tokens(self) -> list[str]:
        """The vocabulary in id order."""
        return sorted(self.vocab, key=self.vocab.__getitem__)

    def encode(self, text: str, max_len: int = MAX_TEXT_LEN) -> list[int]:
        """Token ids with a leading [CLS]; right truncation at max_len."""
        unk = self.vocab[UNK]
        ids = [self.vocab[CLS]]
        for raw in text.split():
            tok = _normalize_token(raw)
            if tok:
                ids.append(self.vocab.get(tok, unk))
        return ids[:max_len]

    def __len__(self):
        return len(self.vocab)


@dataclass
class EncoderSpec:
    depth: int = 2
    width: int = 128


class MiniTextEncoder:
    """2-block transformer over a small vocabulary; CLS state -> 768 dims.

    Each block is attention + mlp with residuals and non-affine layer norm;
    its attention projections carry any LoRA factors and its output passes
    through any adapter a policy attached.
    """

    def __init__(self, graph: ModelGraph, tokenizer: Tokenizer,
                 spec: EncoderSpec | None = None, seed: int = 0):
        self.spec = spec or EncoderSpec()
        self.graph = graph
        self.tokenizer = tokenizer
        prefix = ENCODER_PREFIX
        rng = ad.make_rng(seed, "init", prefix)
        w = self.spec.width
        s = 0.02
        graph.add_param(f"{prefix}/emb/tok", rng.normal(0, 0.1, (len(tokenizer), w)))
        graph.add_param(f"{prefix}/emb/pos", rng.normal(0, 0.1, (MAX_TEXT_LEN, w)))
        for b in range(self.spec.depth):
            base = f"{prefix}/block{b}"
            for proj in ("wq", "wk", "wv", "wo"):
                graph.add_param(f"{base}/attn/{proj}", rng.normal(0, s, (w, w)))
            for bias in ("bq", "bk", "bv", "bo"):
                graph.add_param(f"{base}/attn/{bias}", np.zeros(w))
            graph.add_param(f"{base}/mlp/w1", rng.normal(0, s, (w, w)))
            graph.add_param(f"{base}/mlp/b1", np.zeros(w))
            graph.add_param(f"{base}/mlp/w2", rng.normal(0, s, (w, w)))
            graph.add_param(f"{base}/mlp/b2", np.zeros(w))
        graph.add_param(f"{prefix}/out/w", rng.normal(0, 0.05, (w, TEXT_DIM)))
        graph.add_param(f"{prefix}/out/b", np.zeros(TEXT_DIM))

    def encode(self, binding, texts) -> ad.Tensor:
        """CLS state of each report projected to 768 dims; (len(texts), 768).

        The reports are padded to the longest and encoded in one tape. Each
        attention masks the padded keys, so a report's row is its own
        function: batching moves only the last bits of summation order. The
        last block's keys and values cover every position, but its query,
        output projection, MLP and adapter run on the CLS rows alone.
        """
        if isinstance(texts, str):
            raise TypeError("encode takes a list of reports, not one str")
        ids = [self.tokenizer.encode(t) for t in texts]
        if not ids:
            raise ShapeError("encode needs at least one report")
        n, t = len(ids), max(map(len, ids))
        tokens = np.zeros((n, t), dtype=np.int64)  # padding reads token 0, never attended
        mask = np.zeros((n, t), dtype=bool)
        for i, row in enumerate(ids):
            tokens[i, :len(row)] = row
            mask[i, :len(row)] = True
        g, pfx = self.graph, ENCODER_PREFIX
        h = (ad.gather_rows(binding[f"{pfx}/emb/tok"], tokens.ravel())
             + ad.gather_rows(binding[f"{pfx}/emb/pos"], np.tile(np.arange(t), n)))
        cls_rows = np.arange(n) * t
        scale = 1.0 / np.sqrt(self.spec.width)
        for b in range(self.spec.depth):
            base = f"{pfx}/block{b}"
            x = ad.layer_norm(h)
            k = lora_linear(g, binding, x, f"{base}/attn/wk") + binding[f"{base}/attn/bk"]
            v = lora_linear(g, binding, x, f"{base}/attn/wv") + binding[f"{base}/attn/bv"]
            if b == self.spec.depth - 1:  # nothing reads the other rows of the last block
                h, x = ad.gather_rows(h, cls_rows), ad.gather_rows(x, cls_rows)
            q = lora_linear(g, binding, x, f"{base}/attn/wq") + binding[f"{base}/attn/bq"]
            attn = ad.masked_attention(q, k, v, mask, scale)
            h = h + lora_linear(g, binding, attn, f"{base}/attn/wo") + binding[f"{base}/attn/bo"]
            x = ad.layer_norm(h)
            m = ad.relu(ad.matmul(x, binding[f"{base}/mlp/w1"]) + binding[f"{base}/mlp/b1"])
            h = h + ad.matmul(m, binding[f"{base}/mlp/w2"]) + binding[f"{base}/mlp/b2"]
            h = adapter_residual(binding, h, base)
        return ad.matmul(ad.layer_norm(h), binding[f"{pfx}/out/w"]) + binding[f"{pfx}/out/b"]
