import string

import numpy as np
import pytest
from conftest import softmax_attention, tsum

from petfuse import autodiff as ad
from petfuse.data import LABELS, generate_synthetic
from petfuse.encoders import (MAX_TEXT_LEN, SPECIALS, EncoderSpec, MiniTextEncoder,
                              Tokenizer)
from petfuse.errors import ShapeError
from petfuse.model import ModelGraph
from petfuse.pet import (ENCODER_PREFIX, AdapterConfig, LoRAConfig, adapter_residual,
                         apply_policy, lora_linear)
from petfuse.redaction import redact

CORPUS = ["heart size normal", "no acute findings", "left base effusion noted"]


def make_text_encoder(seed=0, depth=2, width=32):
    graph = ModelGraph()
    tok = Tokenizer.build(CORPUS)
    enc = MiniTextEncoder(graph, tok, spec=EncoderSpec(depth=depth, width=width),
                          seed=seed)
    return graph, enc


def test_tokenizer_specials_and_truncation():
    tok = Tokenizer.build(CORPUS)
    ids = tok.encode("[FINDING] at left base", max_len=3)
    assert len(ids) == 3
    assert ids[0] == tok.vocab["[CLS]"]
    assert ids[1] == tok.vocab["[FINDING]"]


def test_tokenizer_keeps_masks_followed_or_wrapped_by_punctuation():
    tok = Tokenizer.build([redact("Findings consistent with effusion.").text])
    assert "finding" not in tok.vocab and "loc" not in tok.vocab
    ids = tok.encode("[FINDING]. [LOC], ([NUM]) [finding];")
    assert ids == [tok.vocab[t] for t in ("[CLS]", "[FINDING]", "[LOC]", "[NUM]",
                                          "[FINDING]")]


def _normalize_before_masks_took_punctuation(raw):
    up = raw.upper()
    return up if up in SPECIALS else raw.strip(string.punctuation).lower()


def test_tokenizer_on_criterion_10s_raw_corpus_is_unchanged():
    """A raw report holds no bracket, so its vocabulary and ids are those of
    the rule that checked for a special token before stripping punctuation."""
    plan = {label: "vision" for label in LABELS}
    plan.update({label: "text" for label in LABELS[:5]})
    corpus = [s.text for s in generate_synthetic(
        n_patients=500, seed=0, leak_prob=0.9, signal_plan=plan, signal_strength=4.0,
        prevalence_profile=[0.25] * len(LABELS))]
    words = {_normalize_before_masks_took_punctuation(raw)
             for text in corpus for raw in text.split()} - set(SPECIALS) - {""}
    vocab = {tok: i for i, tok in enumerate([*SPECIALS, *sorted(words)])}
    tok = Tokenizer.build(corpus)
    assert tok.vocab == vocab
    for text in corpus:
        expected = [vocab["[CLS]"]] + [
            vocab[t] for t in map(_normalize_before_masks_took_punctuation, text.split())
            if t]
        assert tok.encode(text) == expected[:MAX_TEXT_LEN]


def test_tokenizer_unknown_maps_to_unk():
    tok = Tokenizer.build(CORPUS)
    ids = tok.encode("zzzunknown")
    assert ids[1] == tok.vocab["[UNK]"]


def test_text_encode_deterministic():
    graph, enc = make_text_encoder()
    a = enc.encode(graph.bind(), ["heart size normal"]).data
    b = enc.encode(graph.bind(), ["heart size normal"]).data
    assert np.array_equal(a, b)
    assert a.shape == (1, 768)


def test_text_empty_input_is_cls_only():
    graph, enc = make_text_encoder()
    out = enc.encode(graph.bind(), [""])
    assert out.data.shape == (1, 768)
    assert np.isfinite(out.data).all()


def test_text_single_token_sensitivity():
    graph, enc = make_text_encoder()
    a, b = enc.encode(graph.bind(), ["heart size normal", "heart size effusion"]).data
    assert not np.allclose(a, b)


def test_encode_refuses_a_bare_str():
    """A str is a sequence of one-character reports; encode refuses it."""
    graph, enc = make_text_encoder()
    with pytest.raises(TypeError):
        enc.encode(graph.bind(), "heart size normal")
    with pytest.raises(ShapeError):
        enc.encode(graph.bind(), [])


def _encode_one_by_one(enc, binding, text):
    """The encoder's function of one report composed from the per-sequence
    ops over every row, independent of masked_attention and of the batch."""
    g, pfx = enc.graph, ENCODER_PREFIX
    ids = enc.tokenizer.encode(text)
    h = (ad.gather_rows(binding[f"{pfx}/emb/tok"], ids)
         + ad.gather_rows(binding[f"{pfx}/emb/pos"], np.arange(len(ids))))
    scale = 1.0 / np.sqrt(enc.spec.width)
    for b in range(enc.spec.depth):
        base = f"{pfx}/block{b}"
        x = ad.layer_norm(h)
        q, k, v = (lora_linear(g, binding, x, f"{base}/attn/w{n}") + binding[f"{base}/attn/b{n}"]
                   for n in "qkv")
        attn = softmax_attention(q, k, v, scale)
        h = h + lora_linear(g, binding, attn, f"{base}/attn/wo") + binding[f"{base}/attn/bo"]
        x = ad.layer_norm(h)
        m = ad.relu(ad.matmul(x, binding[f"{base}/mlp/w1"]) + binding[f"{base}/mlp/b1"])
        h = h + ad.matmul(m, binding[f"{base}/mlp/w2"]) + binding[f"{base}/mlp/b2"]
        h = adapter_residual(binding, h, base)
    cls = ad.gather_rows(ad.layer_norm(h), [0])
    return ad.matmul(cls, binding[f"{pfx}/out/w"]) + binding[f"{pfx}/out/b"]


@pytest.mark.parametrize("policy", ["frozen", "lora", "bitfit", "adapter"])
def test_batched_encode_matches_one_report_at_a_time(policy):
    """Reports of different lengths, one of them CLS only, encoded in one
    padded tape give each report's own output and the same gradients, within
    1e-12, as composing the per-sequence ops report by report."""
    texts = ["left base effusion noted", "", "heart size normal with no acute findings",
             "heart", "no acute findings"]
    graph, enc = make_text_encoder(seed=3, depth=2, width=16)
    apply_policy(graph, policy, lora_cfg=LoRAConfig(rank=2),
                 adapter_cfg=AdapterConfig(bottleneck=3), seed=3)
    rng = np.random.default_rng(0)
    trained = [p for p in graph.params.values() if p.trainable]
    for p in trained:  # off their zero initialisation, so every path is live
        p.data[...] = rng.normal(0, 0.1, p.data.shape)
    weights = rng.normal(0, 1, (len(texts), 768))

    batched = graph.bind(training=True)
    out = enc.encode(batched, texts)
    tsum(ad.mul(out, weights)).backward()
    alone = graph.bind(training=True)
    ref = ad.concat_rows([_encode_one_by_one(enc, alone, t) for t in texts])
    tsum(ad.mul(ref, weights)).backward()

    assert out.data.shape == (len(texts), 768)
    assert np.max(np.abs(out.data - ref.data)) <= 1e-12
    assert bool(trained) == (policy != "frozen")
    for p in trained:
        assert np.max(np.abs(batched[p.name].grad - alone[p.name].grad)) <= 1e-12, p.name


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_lora_factors_on_exactly_the_attention_projections(depth):
    graph, _ = make_text_encoder(depth=depth)
    before = set(graph.params)
    apply_policy(graph, "lora", lora_cfg=LoRAConfig(rank=2))
    added = [a for a in graph.params if a not in before]
    projections = sorted({a.rsplit("/", 1)[0] for a in added})
    assert len(projections) == 4 * depth
    assert projections == sorted(f"text_encoder/block{b}/attn/{w}"
                                 for b in range(depth) for w in ("wq", "wk", "wv", "wo"))
    assert sorted(added) == sorted(f"{p}/lora_{f}" for p in projections for f in "ab")
    for p in projections:
        assert graph.params[f"{p}/lora_a"].data.shape == (32, 2)
        assert graph.params[f"{p}/lora_b"].data.shape == (2, 32)
    assert all(graph.params[a].trainable for a in added)
    assert not any(graph.params[a].trainable for a in before
                   if a.startswith("text_encoder"))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_bitfit_trains_exactly_the_encoder_vectors(depth):
    graph, _ = make_text_encoder(depth=depth)
    names = set(graph.params)
    apply_policy(graph, "bitfit")
    assert set(graph.params) == names  # bitfit adds nothing
    encoder = graph.addresses("text_encoder")
    trained = [a for a in encoder if graph.params[a].trainable]
    assert trained == [a for a in encoder if graph.params[a].data.ndim == 1]
    assert len(trained) == 6 * depth + 1  # attn q/k/v/o + mlp 1/2 per block, out


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_adapter_one_bottleneck_per_block(depth):
    graph, _ = make_text_encoder(depth=depth)
    before = set(graph.params)
    apply_policy(graph, "adapter", adapter_cfg=AdapterConfig(bottleneck=5))
    added = [a for a in graph.params if a not in before]
    assert added == [f"text_encoder/block{b}/adapter/{n}" for b in range(depth)
                     for n in ("down_w", "down_b", "up_w", "up_b")]
    for b in range(depth):
        slot = f"text_encoder/block{b}/adapter"
        assert graph.params[f"{slot}/down_w"].data.shape == (32, 5)
        assert graph.params[f"{slot}/up_w"].data.shape == (5, 32)


def test_frozen_by_default():
    graph, _ = make_text_encoder()
    assert all(not p.trainable for p in graph.params.values())
