import numpy as np
import pytest

from petfuse.encoders import EncoderSpec, MiniTextEncoder, Tokenizer
from petfuse.model import ModelGraph
from petfuse.pet import AdapterConfig, LoRAConfig, apply_policy

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


def test_tokenizer_unknown_maps_to_unk():
    tok = Tokenizer.build(CORPUS)
    ids = tok.encode("zzzunknown")
    assert ids[1] == tok.vocab["[UNK]"]


def test_text_encode_deterministic():
    graph, enc = make_text_encoder()
    a = enc.encode(graph.bind(), "heart size normal").data
    b = enc.encode(graph.bind(), "heart size normal").data
    assert np.array_equal(a, b)
    assert a.shape == (1, 768)


def test_text_empty_input_is_cls_only():
    graph, enc = make_text_encoder()
    out = enc.encode(graph.bind(), "")
    assert out.data.shape == (1, 768)
    assert np.isfinite(out.data).all()


def test_text_single_token_sensitivity():
    graph, enc = make_text_encoder()
    binding = graph.bind()
    a = enc.encode(binding, "heart size normal").data
    b = enc.encode(binding, "heart size effusion").data
    assert not np.allclose(a, b)


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
