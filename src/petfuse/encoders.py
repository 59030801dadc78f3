"""Frozen text encoder: tokenizer and structural mini transformer.

The mini encoder stands in for a large pretrained text backbone at desk
scale. It keeps every structural hook a tuning policy needs (attention
projections, biases, adapter slots) while staying small enough to
finite-difference. Vision features arrive precomputed in the manifest.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .model import HOOK_ATTN_PROJ, HOOK_BIAS, ModelGraph

TEXT_DIM = 768
MAX_TEXT_LEN = 512

CLS, UNK, FINDING, NUM, LOC = "[CLS]", "[UNK]", "[FINDING]", "[NUM]", "[LOC]"
SPECIALS = (CLS, UNK, FINDING, NUM, LOC)


def _normalize_token(raw: str) -> str:
    up = raw.upper()
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


def text_spec(depth: int = 2, width: int = 128) -> EncoderSpec:
    return EncoderSpec(depth=depth, width=width)


class MiniTextEncoder:
    """2-block transformer over a small vocabulary; CLS state -> 768 dims.

    Each block is attention + mlp with residuals, non-affine layer norm and
    an adapter slot.
    """

    def __init__(self, graph: ModelGraph, tokenizer: Tokenizer,
                 spec: EncoderSpec | None = None, seed: int = 0,
                 prefix: str = "text_encoder"):
        self.spec = spec or text_spec()
        self.graph = graph
        self.tokenizer = tokenizer
        self.prefix = prefix
        rng = ad.make_rng(seed, "init", prefix)
        w = self.spec.width
        s = 0.02
        graph.add_param(f"{prefix}/emb/tok", rng.normal(0, 0.1, (len(tokenizer), w)))
        graph.add_param(f"{prefix}/emb/pos", rng.normal(0, 0.1, (MAX_TEXT_LEN, w)))
        for b in range(self.spec.depth):
            base = f"{prefix}/block{b}"
            for proj in ("wq", "wk", "wv", "wo"):
                graph.add_param(f"{base}/attn/{proj}", rng.normal(0, s, (w, w)),
                                hook=HOOK_ATTN_PROJ)
            for bias in ("bq", "bk", "bv", "bo"):
                graph.add_param(f"{base}/attn/{bias}", np.zeros(w), hook=HOOK_BIAS)
            graph.add_param(f"{base}/mlp/w1", rng.normal(0, s, (w, w)))
            graph.add_param(f"{base}/mlp/b1", np.zeros(w), hook=HOOK_BIAS)
            graph.add_param(f"{base}/mlp/w2", rng.normal(0, s, (w, w)))
            graph.add_param(f"{base}/mlp/b2", np.zeros(w), hook=HOOK_BIAS)
            graph.add_adapter_slot(f"{base}/adapter")
        graph.add_param(f"{prefix}/out/w", rng.normal(0, 0.05, (w, TEXT_DIM)))
        graph.add_param(f"{prefix}/out/b", np.zeros(TEXT_DIM), hook=HOOK_BIAS)

    def encode(self, binding, text: str) -> ad.Tensor:
        """First-position (CLS) hidden state projected to 768 dims; (1, 768)."""
        g, pfx = self.graph, self.prefix
        ids = self.tokenizer.encode(text)
        h = (ad.gather_rows(binding[f"{pfx}/emb/tok"], ids)
             + ad.slice_rows(binding[f"{pfx}/emb/pos"], 0, len(ids)))
        scale = 1.0 / np.sqrt(self.spec.width)
        for b in range(self.spec.depth):
            base = f"{pfx}/block{b}"
            x = ad.layer_norm(h)
            q = g.linear(binding, x, f"{base}/attn/wq") + binding[f"{base}/attn/bq"]
            k = g.linear(binding, x, f"{base}/attn/wk") + binding[f"{base}/attn/bk"]
            v = g.linear(binding, x, f"{base}/attn/wv") + binding[f"{base}/attn/bv"]
            attn = ad.softmax_attention(q, k, v, scale)
            h = h + g.linear(binding, attn, f"{base}/attn/wo") + binding[f"{base}/attn/bo"]
            x = ad.layer_norm(h)
            m = ad.relu(ad.matmul(x, binding[f"{base}/mlp/w1"]) + binding[f"{base}/mlp/b1"])
            h = h + ad.matmul(m, binding[f"{base}/mlp/w2"]) + binding[f"{base}/mlp/b2"]
            h = g.apply_adapter(binding, h, f"{base}/adapter")
        cls = ad.slice_rows(ad.layer_norm(h), 0, 1)
        return ad.matmul(cls, binding[f"{pfx}/out/w"]) + binding[f"{pfx}/out/b"]
