import numpy as np

from petfuse import autodiff as ad
from petfuse.encoders import MiniTextEncoder, Tokenizer, text_spec
from petfuse.model import HOOK_ADAPTER_SLOT, HOOK_ATTN_PROJ, HOOK_BIAS, ModelGraph

CORPUS = ["heart size normal", "no acute findings", "left base effusion noted"]


def make_text_encoder(seed=0, depth=2, width=32):
    graph = ModelGraph()
    tok = Tokenizer.build(CORPUS)
    enc = MiniTextEncoder(graph, tok, spec=text_spec(depth=depth, width=width),
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


def test_hook_counts_mini_text_depth2():
    graph, _ = make_text_encoder(depth=2)
    assert len(graph.hook_addresses(HOOK_ATTN_PROJ, "text_encoder")) == 8  # q,k,v,out x 2
    assert len(graph.hook_addresses(HOOK_ADAPTER_SLOT, "text_encoder")) == 2
    assert len(graph.hook_addresses(HOOK_BIAS, "text_encoder")) >= 2


def test_hooks_resolve_uniquely():
    graph, _ = make_text_encoder()
    seen = set()
    for kind in (HOOK_ATTN_PROJ, HOOK_BIAS):
        for addr in graph.hooks[kind]:
            assert addr in graph.params
            assert addr not in seen
            seen.add(addr)


def test_each_block_exposes_all_hook_classes():
    graph, enc = make_text_encoder(depth=3)
    for b in range(3):
        prefix = f"text_encoder/block{b}"
        assert graph.hook_addresses(HOOK_ATTN_PROJ, prefix)
        assert graph.hook_addresses(HOOK_BIAS, prefix)
        assert any(a.startswith(prefix)
                   for a in graph.hooks[HOOK_ADAPTER_SLOT])


def test_frozen_by_default():
    graph, _ = make_text_encoder()
    assert all(not p.trainable for p in graph.params.values())
