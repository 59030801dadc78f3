import numpy as np
import pytest
from conftest import grad_check

from petfuse import autodiff as ad
from petfuse.errors import InputError, ShapeError
from petfuse.fusion import FusionConfig, FusionPathway
from petfuse.model import ModelGraph
from petfuse.pet import count_params


def small_cfg(**kw):
    base = dict(shared_dim=6, head_hidden=4, dropout_p=0.0)
    base.update(kw)
    return FusionConfig(**base)


def test_default_counts_match_reference_breakdown():
    report = count_params(FusionPathway(ModelGraph(), FusionConfig()).graph)
    assert report.components == {
        "fusion/vision_proj": 1_048_576,
        "fusion/attention": 786_432,
        "fusion/text_proj": 393_216,
        "fusion/head": 134_656,
    }
    assert report.total_trainable == 2_362_880


def test_unit_config_closed_form_count():
    cfg = FusionConfig(shared_dim=1, head_hidden=1)
    assert cfg.param_count() == 2048 + 768 + 3 + 1 + 14 == 2834


def test_head_count_closed_form():
    assert FusionConfig().shared_dim * 256 + 256 * 14 == 134_656


def test_efficiency_vs_declared_total():
    report = count_params(FusionPathway(ModelGraph(), FusionConfig()).graph)
    assert round(report.efficiency_pct(94_300_000), 2) == 2.51


def test_zero_inputs_give_zero_logits():
    fp = FusionPathway(ModelGraph(), small_cfg())
    binding = fp.graph.bind()
    out = fp.forward(binding, ad.Tensor(np.zeros((2, 2048))), ad.Tensor(np.zeros((2, 768))))
    assert np.allclose(out.data, 0.0, atol=1e-12)


def test_eval_mode_deterministic():
    fp = FusionPathway(ModelGraph(), small_cfg(dropout_p=0.1))
    rng = np.random.default_rng(0)
    v, t = rng.normal(0, 1, (3, 2048)), rng.normal(0, 1, (3, 768))
    a = fp.forward(fp.graph.bind(), ad.Tensor(v), ad.Tensor(t), training=False).data
    b = fp.forward(fp.graph.bind(), ad.Tensor(v), ad.Tensor(t), training=False).data
    assert np.array_equal(a, b)


def test_length_mismatch_raises():
    fp = FusionPathway(ModelGraph(), small_cfg())
    with pytest.raises(ShapeError):
        fp.forward(fp.graph.bind(), ad.Tensor(np.zeros((1, 5))),
                   ad.Tensor(np.zeros((1, 768))))


def test_sensitivity_to_both_modalities():
    fp = FusionPathway(ModelGraph(), small_cfg())
    rng = np.random.default_rng(1)
    v, t = rng.normal(0, 1, (1, 2048)), rng.normal(0, 1, (1, 768))
    base = fp.forward(fp.graph.bind(), ad.Tensor(v), ad.Tensor(t)).data
    bumped_v = fp.forward(fp.graph.bind(), ad.Tensor(v + 0.5), ad.Tensor(t)).data
    bumped_t = fp.forward(fp.graph.bind(), ad.Tensor(v), ad.Tensor(t + 0.5)).data
    assert not np.allclose(base, bumped_v)
    assert not np.allclose(base, bumped_t)


def test_fusion_gradients_match_finite_differences():
    fp = FusionPathway(ModelGraph(), small_cfg())
    binding_holder = {}
    rng = np.random.default_rng(3)
    v = rng.normal(0, 1, (1, 2048))
    t = rng.normal(0, 1, (1, 768))
    y = (rng.random((1, 14)) < 0.5).astype(float)

    def fn():
        binding = fp.graph.bind(training=True)
        binding_holder["b"] = binding
        logits = fp.forward(binding, ad.Tensor(v), ad.Tensor(t))
        return ad.bce_with_logits(logits, y)

    loss = fn()
    loss.backward()
    bind0 = binding_holder["b"]
    analytic = {name: (np.zeros_like(p.data) if bind0[name].grad is None
                       else bind0[name].grad.copy())
                for name, p in fp.graph.params.items()}

    pick = np.random.default_rng(5)
    worst = 0.0
    for name, p in fp.graph.params.items():
        flat = p.data.reshape(-1)
        ana = analytic[name].reshape(-1)
        for i in pick.choice(flat.size, size=min(10, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + 1e-5
            up = float(fn().data)
            flat[i] = orig - 1e-5
            down = float(fn().data)
            flat[i] = orig
            num = (up - down) / 2e-5
            worst = max(worst, abs(num - ana[i]) / max(1.0, abs(num), abs(ana[i])))
    assert worst < 1e-4


def test_a_pathway_built_from_stored_arrays_takes_them_as_they_are():
    """Each stored weight is the parameter itself, not a copy of it; a
    load_state of the same arrays leaves them alone, so even read-only ones
    load."""
    drawn = FusionPathway(ModelGraph(), small_cfg(), seed=3).graph
    stored = {name: p.data.copy() for name, p in drawn.params.items()}
    for arr in stored.values():
        arr.flags.writeable = False
    graph = FusionPathway(ModelGraph(stored=stored), small_cfg(), seed=99).graph
    assert all(graph.params[name].data is arr for name, arr in stored.items())
    graph.load_state(stored)
    assert all(graph.params[name].data is arr for name, arr in stored.items())


def _stored_fusion(**changed):
    """Every array of small_cfg's pathway, with each of `changed` (address ->
    array, or None to leave it out) put in its place."""
    drawn = FusionPathway(ModelGraph(), small_cfg()).graph
    stored = {name: p.data for name, p in drawn.params.items()}
    stored.update(changed)
    return {name: arr for name, arr in stored.items() if arr is not None}


def test_a_stored_array_of_another_shape_is_refused_by_address():
    # small_cfg's head/w1 is (6, 4)
    stored = _stored_fusion(**{"fusion/head/w1": np.zeros((4, 6))})
    with pytest.raises(InputError, match=r"^stored array fusion/head/w1 has shape "
                                         r"\(4, 6\), the model's is \(6, 4\)$"):
        FusionPathway(ModelGraph(stored=stored), small_cfg())


def test_a_stored_set_missing_an_array_is_refused_by_address():
    """A graph built from stored arrays draws nothing: an address they lack
    is refused by name, and what was added before it is the stored arrays
    themselves."""
    stored = _stored_fusion(**{"fusion/attention/wk": None})
    graph = ModelGraph(stored=stored)
    with pytest.raises(InputError, match=r"^no stored array at fusion/attention/wk$"):
        FusionPathway(graph, small_cfg())
    assert list(graph.params) == ["fusion/vision_proj/w", "fusion/text_proj/w",
                                  "fusion/attention/wq"]
    assert all(p.data is stored[name] for name, p in graph.params.items())
