"""Arm construction, budget search, attribution plans, efficiency tables."""

import json
import warnings
from collections import Counter

import numpy as np
import pytest

from petfuse import harness
from petfuse.data import SplitSpec, generate_synthetic, split_patients
from petfuse.encoders import MiniTextEncoder, Tokenizer
from petfuse.errors import ConfigError, InputError, SearchError
from petfuse.fusion import FusionConfig
from petfuse.harness import (VISION_ONLY_PARAMS, ArmSpec, ExperimentPlan,
                             MultimodalModel, VisionOnlyModel, build_arm,
                             compute_deltas, efficiency_table,
                             recompute_from_artifacts, run_plan,
                             search_shared_dim, vision_matrix)
from petfuse.pet import count_params
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


def test_build_arm_canonical_counts():
    assert build_arm("vision_only").budget_target == 1_055_744
    assert build_arm("budget_matched").budget_target == 1_061_312
    assert build_arm("full_pet").budget_target == 2_362_880


def test_build_arm_overrides_and_rejects_unknown():
    arm = build_arm("full_pet", {"seeds": [1, 2], "policy": "lora"})
    assert arm.seeds == [1, 2]
    assert arm.policy == "lora"
    with pytest.raises(InputError):
        build_arm("full_pet", {"nope": 1})
    with pytest.raises(InputError):
        build_arm("mystery_arm")
    with pytest.raises(ConfigError):
        build_arm("full_pet", {"fusion": {"bogus": 1}})
    # the kind is the argument, not an override
    with pytest.raises(InputError):
        build_arm("full_pet", {"kind": "vision_only"})
    assert build_arm("full_pet", {"name": "b", "budget_target": None}).name == "b"


@pytest.mark.parametrize("kind, overrides", [
    ("vision_only", {"policy": "lora"}),
    ("budget_matched", {"policy": "bitfit"}),
    ("vision_only", {"fusion": {"shared_dim": 32}}),
])
def test_build_arm_rejects_overrides_its_kind_ignores(kind, overrides):
    with pytest.raises(InputError):
        build_arm(kind, overrides)
    # frozen is what these kinds train anyway, so saying so is accepted
    assert build_arm(kind, {"policy": "frozen"}).policy == "frozen"


def _count_encodes(monkeypatch, policy):
    """Train a small multimodal model for 2 epochs and predict on every
    split; returns (per-text encode counts, train, val, test)."""
    calls = Counter()
    encode = MiniTextEncoder.encode

    def counting(self, binding, text):
        calls[text] += 1
        return encode(self, binding, text)

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


def test_plan_validation():
    with pytest.raises(InputError):
        ExperimentPlan(arms=[]).validate()
    with pytest.raises(InputError):
        ExperimentPlan(arms=[build_arm("full_pet"),
                             build_arm("full_pet")]).validate()
    bad = build_arm("full_pet", {"seeds": []})
    with pytest.raises(InputError):
        ExperimentPlan(arms=[bad]).validate()
    with pytest.raises(InputError):
        ExperimentPlan(arms=[ArmSpec("x", "mystery")]).validate()


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
        build_arm("vision_only", {"seeds": list(seeds)}),
        build_arm("budget_matched", {"seeds": list(seeds),
                                     "fusion": {"shared_dim": 32,
                                                "head_hidden": 16,
                                                "dropout_p": 0.0}}),
        build_arm("full_pet", {"seeds": list(seeds),
                               "fusion": {"shared_dim": 32,
                                          "head_hidden": 16,
                                          "dropout_p": 0.0}}),
    ]
    train = TrainConfig(batch=16, accumulation=1, max_epochs=2, patience=5,
                        lr=1e-3)
    return ExperimentPlan(arms=arms, train=train), fusion


def test_run_plan_artifacts_and_recompute(tmp_path):
    plan, _ = _tiny_plan()
    samples = generate_synthetic(n_patients=40, seed=17)
    result = run_plan(plan, samples, tmp_path)
    assert not result.failures
    for name in ("vision_only", "budget_matched", "full_pet"):
        assert (tmp_path / f"arm_{name}.csv").exists()
        assert (tmp_path / f"arm_{name}_per_label.csv").exists()
    attribution = json.loads((tmp_path / "attribution.json").read_text())
    assert attribution["fusion_effect"] == pytest.approx(
        result.fusion_effect)
    # recomputation from CSV artifacts alone reproduces the deltas
    recomputed = recompute_from_artifacts(tmp_path)
    assert recomputed["fusion_effect"] == pytest.approx(
        result.fusion_effect, abs=1e-6)
    assert recomputed["scaling_effect"] == pytest.approx(
        result.scaling_effect, abs=1e-6)
    assert (tmp_path / "efficiency.csv").exists()
    assert (tmp_path / "summary.csv").exists()


def test_run_plan_seed_isolation(tmp_path):
    """Each seed's run is independent: a 2-seed arm reproduces the two
    1-seed runs exactly."""
    samples = generate_synthetic(n_patients=30, seed=19)
    train = TrainConfig(batch=16, accumulation=1, max_epochs=1, patience=5,
                        lr=1e-3)
    two = ExperimentPlan(arms=[build_arm("vision_only", {"seeds": [0, 1]})],
                         train=train)
    r2 = run_plan(two, samples, tmp_path / "two")
    singles = []
    for seed in (0, 1):
        one = ExperimentPlan(
            arms=[build_arm("vision_only", {"seeds": [seed]})], train=train)
        r1 = run_plan(one, samples, tmp_path / f"one{seed}")
        singles.append(r1.per_arm["vision_only"][0].auroc_macro)
    paired = [r.auroc_macro for r in r2.per_arm["vision_only"]]
    assert paired == singles


def test_run_plan_records_failures(tmp_path):
    samples = generate_synthetic(n_patients=20, seed=23)
    bad = ArmSpec("boom", "full_pet", policy="not_a_policy", seeds=[0])
    plan = ExperimentPlan(
        arms=[bad, build_arm("vision_only")],
        train=TrainConfig(batch=8, accumulation=1, max_epochs=1, patience=5))
    result = run_plan(plan, samples, tmp_path)
    assert "boom/seed0" in result.failures
    assert "vision_only" in result.per_arm


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
    plan = ExperimentPlan(arms=[build_arm("vision_only")],
                          train=TrainConfig(batch=8, accumulation=1, max_epochs=1))
    with pytest.raises(TypeError, match="unsupported operand"):
        run_plan(plan, samples, tmp_path)


def test_sigmoid_keeps_the_textbook_bits_and_its_exp_overflow_is_silent():
    x = np.random.default_rng(5).normal(0, 8, 1000)
    assert harness.sigmoid(x).tobytes() == (1.0 / (1.0 + np.exp(-x))).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        extremes = harness.sigmoid(np.array([-1000.0, -np.inf, 0.0, 1000.0]))
    assert extremes.tolist() == [0.0, 0.0, 0.5, 1.0]
