import numpy as np
import pytest

from petfuse import autodiff as ad
from petfuse.encoders import EncoderSpec, MiniTextEncoder, Tokenizer
from petfuse.errors import PolicyError
from petfuse.fusion import FusionConfig, FusionPathway
from petfuse.model import ModelGraph
from petfuse.pet import AdapterConfig, LoRAConfig, apply_policy, count_params

TEXT = "left base effusion noted with stable heart size"


def tiny_model(policy="frozen", seed=0, **policy_kw):
    if policy == "adapter":  # the default bottleneck is wider than this encoder
        policy_kw.setdefault("adapter_cfg", AdapterConfig(bottleneck=4))
    graph = ModelGraph()
    tok = Tokenizer.build([TEXT])
    enc = MiniTextEncoder(graph, tok, spec=EncoderSpec(depth=1, width=8), seed=seed)
    cfg = FusionConfig(shared_dim=6, head_hidden=4, dropout_p=0.0)
    fp = FusionPathway(graph, cfg, seed=seed)
    apply_policy(graph, policy, seed=seed, **policy_kw)
    return graph, enc, fp


def forward(graph, enc, fp, text=TEXT, v=None):
    binding = graph.bind(training=True)
    if v is None:
        v = np.arange(2048.0).reshape(1, 2048) / 2048
    t = enc.encode(binding, [text])
    return fp.forward(binding, ad.Tensor(v), t), binding


def test_lora_zero_at_init():
    """At B = 0 the merged weight is W itself, so LoRA is frozen bit for bit."""
    base_out = forward(*tiny_model("frozen"))[0].data
    lora_out = forward(*tiny_model("lora"))[0].data
    assert lora_out.tobytes() == base_out.tobytes()


def test_lora_scaling_constant():
    assert LoRAConfig().scale == 32 / 8 == 4.0


@pytest.mark.parametrize("kwargs, message", [
    ({"rank": 0}, "lora rank must be >= 1"),
    ({"alpha": 0.0}, "lora alpha must be finite and positive"),
    ({"alpha": -4.0}, "lora alpha must be finite and positive"),
    ({"alpha": float("nan")}, "lora alpha must be finite and positive"),
    ({"alpha": float("inf")}, "lora alpha must be finite and positive"),
], ids=["rank_0", "alpha_0", "alpha_negative", "alpha_nan", "alpha_inf"])
def test_lora_config_refuses_a_scale_that_is_not_finite_and_positive(kwargs, message):
    """At alpha 0 the factors' product is scaled to 0, so no LoRA factor
    would ever receive gradient."""
    with pytest.raises(PolicyError, match=message):
        LoRAConfig(**kwargs)


def test_lora_injected_param_count():
    graph = ModelGraph()
    graph.add_param("text_encoder/block0/attn/wq", np.zeros((128, 128)))
    apply_policy(graph, "lora")
    report = count_params(graph)
    assert report.total_trainable == 2 * 8 * 128  # 2,048
    assert graph.lora_scale == 4.0


def test_lora_delta_rank_bounded():
    graph, enc, fp = tiny_model("lora", lora_cfg=LoRAConfig(rank=2))
    projections = [a[:-len("/lora_a")] for a in graph.params if a.endswith("/lora_a")]
    assert len(projections) == 4
    for proj in projections:
        a = graph.params[f"{proj}/lora_a"].data
        b = np.random.default_rng(0).normal(0, 1, graph.params[f"{proj}/lora_b"].data.shape)
        assert np.linalg.matrix_rank(graph.lora_scale * (a @ b)) <= 2


def test_lora_factors_change_the_projection():
    """Once B is off zero, the encoder output moves by exactly the LoRA term:
    it is the output of a frozen encoder whose W has (alpha/r) A B folded in,
    bit for bit, since the LoRA projection runs as that merged weight."""
    graph, enc, fp = tiny_model("lora", lora_cfg=LoRAConfig(rank=2, alpha=4.0))
    base = enc.encode(graph.bind(), [TEXT]).data
    for addr in graph.addresses("text_encoder"):
        if addr.endswith("/lora_b"):
            graph.params[addr].data[...] = 0.1
    moved = enc.encode(graph.bind(), [TEXT]).data
    assert not np.allclose(base, moved)
    # folding (alpha/r) A B into each W gives the same output with no factors
    folded, enc2, _ = tiny_model("frozen")
    for addr in folded.addresses("text_encoder"):
        if f"{addr}/lora_a" in graph.params:
            folded.params[addr].data += graph.lora_scale * (
                graph.params[f"{addr}/lora_a"].data @ graph.params[f"{addr}/lora_b"].data)
    assert enc2.encode(folded.bind(), [TEXT]).data.tobytes() == moved.tobytes()


def test_adapter_identity_at_init():
    base_out = forward(*tiny_model("frozen"))[0].data
    adap_out = forward(*tiny_model("adapter"))[0].data
    assert np.allclose(base_out, adap_out, atol=1e-12)


def test_adapter_config_validation():
    with pytest.raises(PolicyError):
        apply_policy(tiny_model()[0], "adapter", adapter_cfg=AdapterConfig(bottleneck=0))


@pytest.mark.parametrize("policy, cfg, width_cfg", [
    ("lora", {"lora_cfg": LoRAConfig(rank=9)}, {"lora_cfg": LoRAConfig(rank=8)}),
    ("lora", {"lora_cfg": LoRAConfig(rank=10**400)}, {"lora_cfg": LoRAConfig(rank=8)}),
    ("adapter", {"adapter_cfg": AdapterConfig(bottleneck=9)},
     {"adapter_cfg": AdapterConfig(bottleneck=8)}),
    ("adapter", {"adapter_cfg": AdapterConfig(bottleneck=100000)},
     {"adapter_cfg": AdapterConfig(bottleneck=8)}),
], ids=["rank_9", "rank_huge", "bottleneck_9", "bottleneck_100000"])
def test_rank_and_bottleneck_wider_than_the_encoder_are_refused(policy, cfg, width_cfg):
    """On an 8-wide encoder a LoRA rank or adapter bottleneck above 8 is a
    PolicyError before anything is drawn or scaled; 8 itself is accepted."""
    graph, _, _ = tiny_model()
    names = set(graph.params)
    with pytest.raises(PolicyError, match="exceeds"):
        apply_policy(graph, policy, **cfg)
    assert set(graph.params) == names and graph.lora_scale == 0.0
    apply_policy(graph, policy, **width_cfg)
    assert set(graph.params) > names


def test_bitfit_only_biases_trainable_in_encoder():
    graph, _, _ = tiny_model("bitfit")
    for addr, p in graph.params.items():
        if addr.startswith("text_encoder"):
            is_bias = addr.rsplit("/", 1)[-1] in ("bq", "bk", "bv", "bo", "b1", "b2", "b")
            assert p.trainable == is_bias, addr


def test_frozen_policy_zero_encoder_gradients():
    graph, enc, fp = tiny_model("frozen")
    logits, binding = forward(graph, enc, fp)
    ad.bce_with_logits(logits, np.tile([[1.0, 0.0]], 7)).backward()
    for addr in graph.addresses("text_encoder"):
        assert binding[addr].grad is None  # exactly zero, never touched


def test_all_policies_keep_fusion_trainable():
    for policy in ("frozen", "lora", "bitfit", "adapter"):
        graph, _, _ = tiny_model(policy)
        for addr in graph.addresses("fusion"):
            assert graph.params[addr].trainable


def test_policy_on_hookless_graph():
    graph = ModelGraph()
    graph.add_param("fusion/head/w1", np.zeros((4, 2)), trainable=True)
    with pytest.raises(PolicyError):
        apply_policy(graph, "lora")
    with pytest.raises(PolicyError):
        apply_policy(graph, "bitfit")
    with pytest.raises(PolicyError):
        apply_policy(graph, "adapter")


def test_unknown_policy():
    with pytest.raises(PolicyError):
        apply_policy(ModelGraph(), "prefix_tuning")


def test_count_params_empty_graph():
    report = count_params(ModelGraph())
    assert report.total_trainable == 0
    assert report.total_params == 0


def test_count_params_default_fusion():
    report = count_params(FusionPathway(ModelGraph(), FusionConfig()).graph)
    assert report.total_trainable == 2_362_880


def test_budget_report_json_uses_integers():
    report = count_params(FusionPathway(ModelGraph(), FusionConfig()).graph)
    doc = report.to_json(94_300_000)
    assert '"total_trainable": 2362880' in doc
    assert '"efficiency_pct": 2.51' in doc
