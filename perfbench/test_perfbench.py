"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans as sp  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_hand_built_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    tree = [(2, 1, "x.a1", 2.0, 3.0, None),
            (1, 0, "x.a", 1.0, 4.0, None),
            (3, 0, "y.b", 5.0, 9.0, None),
            (0, None, "x.root", 0.0, 10.0, None)]
    own = sp.self_times(tree)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sp.layer_self_times(tree) == {"x": 6.0, "y": 4.0}
    # self times always add up to the root's duration
    assert sum(own.values()) == 10.0


def test_absorbing_span_takes_its_descendants_self_time():
    tree = [(0, None, "redaction.audit_leakage", 0.0, 10.0, None),
            (1, 0, "training.AdamW.step", 1.0, 4.0, None),
            (2, 1, "autodiff.matmul", 2.0, 3.0, None),
            (3, None, "training.AdamW.step", 11.0, 12.0, None)]
    layers = sp.effective_layers(tree, absorbing=("redaction.audit_leakage",))
    assert layers == {0: "redaction", 1: "redaction", 2: "redaction", 3: "training"}
    assert sp.layer_self_times(tree, ("redaction.audit_leakage",)) == \
        {"redaction": 10.0, "training": 1.0}
    rep = workloads.RepTrace(tree, ("redaction.audit_leakage",))
    assert rep.count("training.AdamW.step") == 1


def _snapshot(modules):
    snap = {}
    for mod in modules:
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if inspect.isclass(value):
                for attr, raw in vars(value).items():
                    snap[(mod.__name__, name, attr)] = raw
    return snap


def test_wrappers_record_nested_spans_and_are_restored():
    import petfuse.harness
    import petfuse.metrics
    import petfuse.training
    modules = sp.package_modules()
    before = _snapshot(modules)
    original_loop = petfuse.harness.train_loop
    rec = sp.Recorder({"training.clip_gradients": lambda a, k, r: r[1]})
    with rec.installed():
        # the name a caller looks up is patched in the caller's module too
        assert petfuse.harness.train_loop is not original_loop
        assert petfuse.harness.train_loop.__wrapped__ is original_loop
        assert "step" in vars(petfuse.training.AdamW)
        _, norm = petfuse.training.clip_gradients({"w": np.full(4, 2.0)}, 1.0)
        labels = np.array([[0], [1], [0], [1]])
        petfuse.metrics.evaluate_predictions(
            "m", 0, np.array([[0.1], [0.8], [0.3], [0.6]]), labels, ["L"])
        tokenizer = petfuse.harness.Tokenizer.build(["a b", "b c"])
        assert len(tokenizer) == 5 + 3
    assert _snapshot(modules) == before

    names = [s[2] for s in rec.spans]
    assert "training.clip_gradients" in names
    assert "encoders.Tokenizer.build" in names
    clip = next(s for s in rec.spans if s[2] == "training.clip_gradients")
    assert clip[5] == norm == 4.0
    evaluate = next(s for s in rec.spans if s[2] == "metrics.evaluate_predictions")
    children = {s[2] for s in rec.spans if s[1] == evaluate[0]}
    assert {"metrics.auroc_label", "metrics.auprc_label", "metrics.ece"} <= children
    # nothing recorded once uninstalled
    n = len(rec.spans)
    petfuse.training.clip_gradients({"w": np.ones(2)}, 1.0)
    assert len(rec.spans) == n


def test_install_twice_is_refused():
    rec = sp.Recorder()
    with rec.installed():
        with pytest.raises(RuntimeError):
            rec.install()


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = list(workloads.layer_metrics(
        [workloads.RepTrace([], ())], workloads.RepTrace([], ()), 0, 0.0))
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    for m in spec["end_to_end"]:
        assert workloads.UNITS[m["name"]] == m["unit"], m
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_percentile():
    assert sp.percentile([], 50) == 0.0
    assert sp.percentile([3.0], 90) == 3.0
    assert sp.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert sp.percentile(list(range(11)), 90) == pytest.approx(9.0)


def test_probe_steps_match_redaction_default():
    from petfuse import redaction
    steps = inspect.signature(redaction._fit_linear_probe).parameters["steps"]
    assert workloads.PROBE_STEPS == steps.default


def test_phase_intervals_cut_at_span_edges_and_marks():
    # marks open "a" at 0 and "b" at 5 and close at 9; spans tick at 1, 2, 6
    spans = [(0, None, "x.f", 1.0, 2.0, None), (1, None, "x.g", 6.0, 6.0, None)]
    marks = [(0.0, "a"), (5.0, "b"), (9.0, "end")]
    got = sp.phase_intervals(spans, marks)
    assert got == {"a": [1.0, 1.0, 3.0], "b": [1.0, 0.0, 3.0]}


def test_floor_takes_each_interval_at_its_fastest():
    reps = [{"a": [1.0, 5.0], "b": [2.0]},
            {"a": [3.0, 2.0], "b": [4.0]}]
    assert sp.floor_phases(reps) == {"a": 3.0, "b": 2.0}
    # cut differently: the fastest whole phase
    assert sp.floor_phases([{"a": [1.0, 5.0]}, {"a": [4.0]}]) == {"a": 4.0}


def test_recorder_only_wraps_the_named_calls():
    import petfuse.training
    step, clip = petfuse.training.AdamW.step, petfuse.training.clip_gradients
    rec = sp.Recorder(only={"training.clip_gradients"})
    with rec.installed():
        assert petfuse.training.AdamW.step is step
        assert petfuse.training.clip_gradients is not clip
        petfuse.training.clip_gradients({"w": np.ones(2)}, 1.0)
    assert petfuse.training.clip_gradients is clip
    assert [s[2] for s in rec.spans] == ["training.clip_gradients"]


def test_repetition_count_depends_on_seconds_only():
    wl = workloads.WORKLOADS["leakage_audit"]
    assert workloads.repetitions(wl, 10 * wl.rep_s, False) == 10
    assert workloads.repetitions(wl, 10 * wl.rep_s, True) == 10
    assert workloads.repetitions(wl, 0.1, False) == workloads.MIN_PLAIN_REPS


def test_ticks_name_existing_calls():
    import importlib
    for name in workloads.TICKS:
        layer, *path = name.split(".")
        obj = importlib.import_module(f"petfuse.{layer}")
        for attr in path:
            obj = getattr(obj, attr)
        assert callable(obj), name
