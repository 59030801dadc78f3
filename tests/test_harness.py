"""Arm construction, budget search, attribution plans, efficiency tables."""

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from petfuse import autodiff as ad
from petfuse import harness
from petfuse.cli import main
from petfuse.config import build_section
from petfuse.data import SplitSpec, generate_synthetic, save_manifest, split_patients
from petfuse.encoders import SPECIALS, MiniTextEncoder, Tokenizer
from petfuse.errors import ConfigError, InputError, PolicyError, SearchError
from petfuse.fusion import FusionConfig, FusionPathway
from petfuse.harness import (VISION_ONLY_PARAMS, ArmSpec, ExperimentPlan,
                             MultimodalModel, VisionOnlyModel, compute_deltas, efficiency_table, run_plan,
                             search_shared_dim, summarize, vision_matrix)
from petfuse.model import ModelGraph
from petfuse.pet import AdapterConfig, LoRAConfig, count_params
from petfuse.training import TrainConfig, train_loop


def test_vision_only_param_count():
    assert VISION_ONLY_PARAMS == 1_055_744
    model = VisionOnlyModel()
    assert count_params(model.graph).total_trainable == 1_055_744


def test_budget_search_matches_expected_config():
    d, h, count = search_shared_dim(VISION_ONLY_PARAMS)
    assert (d, h, count) == (280, 128, 1_061_312)
    assert abs(count - VISION_ONLY_PARAMS) / VISION_ONLY_PARAMS <= 0.01


def test_budget_search_count_is_real():
    d, h, count = search_shared_dim(VISION_ONLY_PARAMS)
    assert FusionConfig(shared_dim=d, head_hidden=h).param_count() == count


def test_budget_search_candidate_counts_are_monotone():
    counts = []
    for d in range(8, 513, 8):
        h = 1
        while h * 2 <= d // 2:
            h *= 2
        counts.append(FusionConfig(shared_dim=d, head_hidden=h).param_count())
    assert counts == sorted(counts)


def test_budget_search_unreachable_target():
    with pytest.raises(SearchError) as exc:
        search_shared_dim(1)  # far below the smallest candidate
    assert "nearest" in str(exc.value)


def _read_arm(doc):
    """The arm a plan's JSON object `doc` describes."""
    return build_section("arm", ArmSpec, doc)


def test_plan_arm_reads_overrides_and_rejects_unknown():
    """A plan arm is read with its overrides; an unknown key or kind is refused."""
    arm = _read_arm({"kind": "full_pet", "seeds": [1, 2], "policy": "lora"})
    assert arm.seeds == [1, 2]
    assert arm.policy == "lora"
    with pytest.raises(ConfigError):
        _read_arm({"kind": "full_pet", "nope": 1})
    with pytest.raises(InputError):
        _read_arm({"kind": "mystery_arm"})
    with pytest.raises(ConfigError):
        _read_arm({"kind": "full_pet", "fusion": {"bogus": 1}})
    assert _read_arm({"kind": "full_pet", "name": "b"}).name == "b"
    # no program reads a budget target, so an arm does not take one
    with pytest.raises(ConfigError, match="budget_target"):
        _read_arm({"kind": "vision_only", "budget_target": 1_055_744})


@pytest.mark.parametrize("kind, overrides", [
    ("vision_only", {"policy": "lora"}),
    ("budget_matched", {"policy": "bitfit"}),
    ("vision_only", {"fusion": {"shared_dim": 32}}),
    ("budget_matched", {"fusion": {"shared_dim": 32}}),
])
def test_plan_arm_rejects_overrides_its_kind_ignores(kind, overrides):
    with pytest.raises(InputError):
        _read_arm({"kind": kind, **overrides})
    # frozen is what these kinds train anyway, so saying so is accepted
    assert _read_arm({"kind": kind, "policy": "frozen"}).policy == "frozen"


def test_a_copy_of_a_budget_matched_arm_builds():
    """A budget_matched arm takes the fusion its own sizing sets, so a copy
    of it builds; any other fusion on that kind, or that fusion on
    vision_only, is still refused."""
    arm = ArmSpec("budget_matched")
    copy = dataclasses.replace(arm, seeds=[1])
    assert (copy.fusion, copy.seeds) == (arm.fusion, [1])
    assert (copy.fusion.shared_dim, copy.fusion.head_hidden) == search_shared_dim(
        VISION_ONLY_PARAMS)[:2]
    with pytest.raises(InputError, match="takes no fusion override"):
        dataclasses.replace(arm, fusion=FusionConfig(shared_dim=32))
    with pytest.raises(InputError, match="takes no fusion override"):
        ArmSpec(kind="vision_only", fusion=arm.fusion)


@pytest.mark.parametrize("kind, policy, name, section", [
    ("full_pet", "frozen", "lora", LoRAConfig(rank=4)),
    ("full_pet", "bitfit", "lora", LoRAConfig(alpha=16.0)),
    ("full_pet", "lora", "adapter", AdapterConfig(bottleneck=8)),
    ("full_pet", "adapter", "lora", LoRAConfig(rank=4)),
    ("vision_only", "frozen", "adapter", AdapterConfig(bottleneck=8)),
])
def test_build_refuses_a_section_its_policy_ignores(kind, policy, name, section,
                                                    monkeypatch):
    """A lora or adapter section that differs from its default, given to an
    arm whose policy does not read it, is refused before a model graph
    exists; None or the default builds."""
    graphs = []
    monkeypatch.setattr(harness, "ModelGraph",
                        lambda **kw: graphs.append(kw) or ModelGraph(**kw))
    arm = ArmSpec(kind, policy=policy)
    tokenizer = Tokenizer.from_tokens(list(SPECIALS))
    with pytest.raises(ConfigError, match=f"arm {kind!r} with policy {policy!r} "
                                          f"would ignore config section {name!r}"):
        arm.build(tokenizer, 0, **{name: section})
    assert graphs == []
    for accepted in (None, type(section)()):
        assert arm.build(tokenizer, 0, **{name: accepted}).graph.params
    assert len(graphs) == 2


def _count_encodes(monkeypatch, policy):
    """Train a small multimodal model for 2 epochs and predict on every
    split; returns (per-text encode counts, train, val, test). A count is
    of reports encoded, whatever the number of reports per call."""
    calls = Counter()
    encode = MiniTextEncoder.encode

    def counting(self, binding, texts):
        calls.update(texts)
        return encode(self, binding, texts)

    monkeypatch.setattr(MiniTextEncoder, "encode", counting)
    samples = generate_synthetic(n_patients=24, seed=29)
    train, val, test = split_patients(samples, SplitSpec(seed=0))
    model = MultimodalModel(FusionConfig(shared_dim=16, head_hidden=8, dropout_p=0.0),
                            Tokenizer.build([s.text for s in train]), policy=policy)
    train_loop(model, train, val, TrainConfig(batch=8, accumulation=1, max_epochs=2,
                                              patience=5, lr=1e-3))
    model.predict(train + val + test)
    return calls, train, val, test


def test_frozen_encoder_encodes_each_report_once(monkeypatch):
    calls, train, val, test = _count_encodes(monkeypatch, "frozen")
    assert calls == Counter(s.text for s in train + val + test)


def test_trainable_encoder_reencodes_every_batch(monkeypatch):
    calls, train, val, test = _count_encodes(monkeypatch, "lora")
    # fit_normalizer, 2 training epochs, 2 validations, then the final predict
    assert sum(calls.values()) == 4 * len(train) + 3 * len(val) + len(test)


@pytest.mark.parametrize("policy", ["frozen", "lora"])
def test_reports_are_encoded_at_most_one_chunk_per_tape(monkeypatch, policy):
    """fit_normalizer and the text features encode ENCODE_CHUNK reports per
    encoder call at most; a frozen encoder encodes only the reports its
    store lacks, a trainable one every report it is given."""
    sizes = []
    encode = MiniTextEncoder.encode

    def recording(self, binding, texts):
        sizes.append(len(texts))
        return encode(self, binding, texts)

    monkeypatch.setattr(MiniTextEncoder, "encode", recording)
    samples = generate_synthetic(n_patients=40, seed=29)[:40]
    assert len(samples) == 40 and harness.ENCODE_CHUNK == 16
    model = MultimodalModel(FusionConfig(shared_dim=16, head_hidden=8, dropout_p=0.0),
                            Tokenizer.build([s.text for s in samples]), policy=policy)
    model.fit_normalizer(samples[:20])
    assert sizes == [16, 4]
    sizes.clear()
    features = model._text_features(model.graph.bind(), samples)
    assert features.data.shape == (40, 768)
    assert sizes == ([16, 4] if policy == "frozen" else [16, 16, 8])


@pytest.mark.parametrize("policy", ["frozen", "lora", "bitfit", "adapter"])
def test_only_a_training_pass_records_a_tape(monkeypatch, policy):
    """fit_normalizer, predict and validation_auroc bind constants: no input
    to the encoder's attention requires a gradient and no logits do. A
    training loss_batch binds every trainable parameter with requires_grad,
    and backward reaches each one the forward pass reads."""
    taped = []
    attention, forward = ad.masked_attention, FusionPathway.forward

    def recording_attention(q, k, v, key_mask, scale):
        taped.append(any(t.requires_grad for t in (q, k, v)))
        return attention(q, k, v, key_mask, scale)

    def recording_forward(self, *args, **kwargs):
        logits = forward(self, *args, **kwargs)
        taped.append(logits.requires_grad)
        return logits

    monkeypatch.setattr(ad, "masked_attention", recording_attention)
    monkeypatch.setattr(FusionPathway, "forward", recording_forward)
    samples = generate_synthetic(n_patients=40, seed=29)
    model = MultimodalModel(FusionConfig(shared_dim=16, head_hidden=8, dropout_p=0.0),
                            Tokenizer.build([s.text for s in samples]), policy=policy)
    model.fit_normalizer(samples)
    model.predict(samples)
    model.validation_auroc(samples)
    assert taped and not any(taped)

    taped.clear()
    loss, binding = model.loss_batch(samples[:8], training=True, epoch=1, seed=0)
    loss.backward()
    trainable = {p.name for p in model.graph.trainable()}
    assert all(binding[name].requires_grad == (name in trainable) for name in binding)
    # with one text row per sample the attention weight is 1: wq and wk are not read
    assert {name for name in trainable if binding[name].grad is not None} == \
        trainable - {"fusion/attention/wq", "fusion/attention/wk"}
    assert taped[-1]  # the logits
    # a frozen encoder's features come from its store; a trainable one records
    assert any(taped[:-1]) == (policy != "frozen")


def test_plan_shares_one_frozen_text_store_per_seed(monkeypatch, tmp_path):
    """Frozen arms at one seed share a text store: each report is encoded
    once across them, and what the store hands full_pet is bit for bit its
    own encoder's output. A LoRA arm, run first, encodes live and leaves
    the store empty for the frozen arms to fill."""
    calls = Counter()
    encode = MiniTextEncoder.encode

    def counting(self, binding, texts):
        calls.update((id(self), text) for text in texts)
        return encode(self, binding, texts)

    monkeypatch.setattr(MiniTextEncoder, "encode", counting)
    models = {}
    build = ArmSpec.build

    def recording(arm, *args, **kwargs):
        models[arm.name] = build(arm, *args, **kwargs)
        return models[arm.name]

    monkeypatch.setattr(ArmSpec, "build", recording)
    fusion = FusionConfig(shared_dim=16, head_hidden=8, dropout_p=0.0)
    plan = ExperimentPlan(
        arms=[ArmSpec("full_pet", name="full_pet_lora", policy="lora", fusion=fusion),
              ArmSpec("full_pet", name="budget_matched", fusion=fusion),
              ArmSpec("full_pet", fusion=fusion)],
        train=TrainConfig(batch=8, accumulation=1, max_epochs=1, patience=5, lr=1e-3))
    samples = generate_synthetic(n_patients=24, seed=29)
    result = run_plan(plan, samples, tmp_path)
    assert not result.failures
    train, val, test = split_patients(samples, plan.split)

    lora, matched, full = (models[n] for n in ("full_pet_lora", "budget_matched", "full_pet"))
    assert lora._text_store is None
    assert matched._text_store is full._text_store
    assert set(full._text_store) == {s.id for s in train + val + test}
    per_encoder = {name: Counter({text: n for (enc, text), n in calls.items()
                                  if enc == id(models[name].text)})
                   for name in models}
    # fit_normalizer, one training epoch, one validation, the test evaluation
    assert sum(per_encoder["full_pet_lora"].values()) == 2 * len(train) + len(val) + len(test)
    assert per_encoder["budget_matched"] == Counter(s.text for s in train + val + test)
    assert not per_encoder["full_pet"]

    # budget_matched stored the test reports in chunks when it predicted on
    # them; encoding the same chunks again gives the same bits
    binding = full.graph.bind()
    stored = full._text_features(binding, test).data
    live = np.concatenate([encode(full.text, binding, [s.text for s in chunk]).data
                           for chunk in harness._chunks(test)])
    assert stored.tobytes() == live.tobytes()


def test_plan_validation():
    with pytest.raises(InputError):
        ExperimentPlan(arms=[])
    with pytest.raises(InputError):
        ExperimentPlan(arms=[ArmSpec("full_pet"), ArmSpec("full_pet")])
    bad = ArmSpec("full_pet", seeds=[])
    with pytest.raises(InputError):
        ExperimentPlan(arms=[bad])
    with pytest.raises(InputError, match="repeats a seed"):
        ExperimentPlan(arms=[ArmSpec("full_pet", seeds=[1, 2, 1])])
    with pytest.raises(InputError, match="unknown arm kind 'mystery'"):
        ArmSpec(name="x", kind="mystery")


def test_compute_deltas():
    fusion, scaling = compute_deltas({"vision_only": 0.70,
                                      "budget_matched": 0.78,
                                      "full_pet": 0.85})
    assert fusion == pytest.approx(0.08)
    assert scaling == pytest.approx(0.07)
    fusion, scaling = compute_deltas({"vision_only": 0.70})
    assert fusion is None and scaling is None


def test_efficiency_table_reference_scale():
    rows = efficiency_table([
        {"method": "frozen_pet", "auroc": 0.908,
         "trainable_params": 2_370_000},
        {"method": "full_ft", "auroc": 0.794, "trainable_params": 94_300_000},
    ])
    assert rows[0]["auroc_per_million"] == 383
    assert rows[1]["auroc_per_million"] == 8
    assert rows[0]["efficiency_ratio"] == "1.00x"
    assert rows[1]["efficiency_ratio"] == "0.02x"


def test_efficiency_table_zero_param_guard():
    rows = efficiency_table([
        {"method": "null", "auroc": 0.5, "trainable_params": 0},
        {"method": "real", "auroc": 0.8, "trainable_params": 1_000_000},
    ])
    assert rows[0]["auroc_per_million"] is None
    assert rows[0]["efficiency_ratio"] == "undefined"
    assert rows[1]["efficiency_ratio"] == "1.00x"


def _tiny_plan(seeds=(0,)):
    fusion = FusionConfig(shared_dim=32, head_hidden=16, dropout_p=0.0)
    arms = [
        ArmSpec("vision_only", seeds=list(seeds)),
        ArmSpec("full_pet", name="budget_matched", fusion=fusion, seeds=list(seeds)),
        ArmSpec("full_pet", seeds=list(seeds), fusion=fusion),
    ]
    train = TrainConfig(batch=16, accumulation=1, max_epochs=2, patience=5,
                        lr=1e-3)
    return ExperimentPlan(arms=arms, train=train)


def test_run_plan_artifacts_and_summarize(tmp_path):
    plan = _tiny_plan()
    samples = generate_synthetic(n_patients=40, seed=17)
    result = run_plan(plan, samples, tmp_path)
    assert not result.failures
    for name in ("vision_only", "budget_matched", "full_pet"):
        assert (tmp_path / f"arm_{name}.csv").exists()
        assert (tmp_path / f"arm_{name}_per_label.csv").exists()
    attribution = json.loads((tmp_path / "attribution.json").read_text())
    assert attribution == {**result.summary(), "failures": {}}
    # the predictions file alone gives the same numbers, bit for bit
    runs = json.loads((tmp_path / "predictions.json").read_text())["runs"]
    assert [(r["arm"], r["seed"]) for r in runs] == [
        ("vision_only", 0), ("budget_matched", 0), ("full_pet", 0)]
    assert summarize(tmp_path).summary() == result.summary()
    assert (tmp_path / "efficiency.csv").exists()
    assert (tmp_path / "summary.csv").exists()


def test_run_plan_seed_isolation(tmp_path):
    """Each seed's run is independent: a 2-seed arm reproduces the two
    1-seed runs exactly."""
    samples = generate_synthetic(n_patients=30, seed=19)
    train = TrainConfig(batch=16, accumulation=1, max_epochs=1, patience=5,
                        lr=1e-3)
    two = ExperimentPlan(arms=[ArmSpec("vision_only", seeds=[0, 1])],
                         train=train)
    r2 = run_plan(two, samples, tmp_path / "two")
    singles = []
    for seed in (0, 1):
        one = ExperimentPlan(
            arms=[ArmSpec("vision_only", seeds=[seed])], train=train)
        r1 = run_plan(one, samples, tmp_path / f"one{seed}")
        singles.append(r1.per_arm["vision_only"][0].auroc_macro)
    paired = [r.auroc_macro for r in r2.per_arm["vision_only"]]
    assert paired == singles


def test_run_plan_records_failures(tmp_path, capsys, monkeypatch):
    samples = generate_synthetic(n_patients=20, seed=23)
    build = ArmSpec.build

    def boom(arm, *args, **kwargs):
        if arm.name == "boom":
            raise PolicyError("boom finds no encoder tensor")
        return build(arm, *args, **kwargs)

    monkeypatch.setattr(ArmSpec, "build", boom)
    bad = ArmSpec("full_pet", name="boom")
    train = TrainConfig(batch=8, accumulation=1, max_epochs=1, patience=5)
    plan = ExperimentPlan(arms=[bad, ArmSpec("vision_only")], train=train)
    result = run_plan(plan, samples, tmp_path)
    assert "boom/seed0" in result.failures
    assert "vision_only" in result.per_arm

    # every run fails
    data, plan_file, out = tmp_path / "data.jsonl", tmp_path / "plan.json", tmp_path / "all"
    save_manifest(data, samples)
    plan_file.write_text(json.dumps({"arms": [{"kind": "full_pet", "name": "boom"}]}))
    code = main(["attribute", "--plan", str(plan_file), "--data", str(data),
                 "--out", str(out)])
    stdout, stderr = capsys.readouterr()
    assert code == 2
    assert stderr.startswith("error: 1 arm run(s) failed; first boom/seed0: PolicyError")
    assert json.loads(stdout) == json.loads((out / "attribution.json").read_text()) == {
        "arm_mean_auroc": {}, "fusion_effect": None, "scaling_effect": None,
        "failures": {"boom/seed0": result.failures["boom/seed0"]}}
    assert json.loads((out / "predictions.json").read_text()) == {"runs": []}
    assert sorted(p.name for p in out.glob("*.csv")) == ["efficiency.csv", "summary.csv"]
    assert (out / "summary.csv").read_text().count("\n") == 1
    assert (out / "efficiency.csv").read_text().count("\n") == 1


def test_vision_matrix_names_the_first_sample_without_features():
    samples = generate_synthetic(n_patients=4, seed=1)
    m = vision_matrix(samples)
    assert m.dtype == np.float64 and m.shape == (len(samples), 2048)
    assert m.tobytes() == np.asarray([s.vision_features for s in samples]).tobytes()
    samples[2].vision_features = samples[3].vision_features = None
    with pytest.raises(InputError, match=f"sample {samples[2].id} has no vision_features"):
        vision_matrix(samples)


def test_run_plan_lets_programming_errors_propagate(tmp_path, monkeypatch):
    """Only petfuse errors become recorded arm failures; a bug such as a
    TypeError inside an arm stops the run with its traceback."""
    def broken_train_loop(*args, **kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(harness, "train_loop", broken_train_loop)
    samples = generate_synthetic(n_patients=20, seed=23)
    plan = ExperimentPlan(arms=[ArmSpec("vision_only")],
                          train=TrainConfig(batch=8, accumulation=1, max_epochs=1))
    with pytest.raises(TypeError, match="unsupported operand"):
        run_plan(plan, samples, tmp_path)
