"""End-to-end CLI behaviour: exit codes, artifacts, determinism."""

import gc
import hashlib
import json
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import petfuse
from petfuse import autodiff as ad
from petfuse import data as data_mod
from petfuse import cli, harness, training
from petfuse.cli import main
from petfuse.config import RunConfig, build_section
from petfuse.data import (LABELS, SplitSpec, generate_synthetic, load_manifest,
                          save_manifest, split_patients)
from petfuse.encoders import SPECIALS, Tokenizer
from petfuse.fusion import FusionPathway
from petfuse.model import ModelGraph
from petfuse.training import load_checkpoint


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_importing_the_cli_loads_no_scipy():
    """scipy is the tests' oracle only: importing the CLI, and through it
    every module of the program, leaves it out of sys.modules."""
    src = Path(petfuse.__file__).resolve().parents[1]
    code = ("import sys, petfuse.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr


# ---------------------------------------------------------------- exit codes


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "gen-data", "--patients", "5")
    assert code == 1


def test_missing_input_file_is_runtime_error(capsys, tmp_path):
    code, _, err = run(capsys, "redact", "--in", str(tmp_path / "nope.jsonl"),
                       "--out", str(tmp_path / "out.jsonl"))
    assert code == 2
    assert "error" in err.lower()


def test_version_flag(capsys, monkeypatch):
    """--version names the AdamW path the process runs: fused where the
    kernel loads, numpy where it does not."""
    kernel = training.adamw_kernel()
    paths = {"numpy": None} if kernel is None else {"fused": kernel, "numpy": None}
    for name, k in paths.items():
        monkeypatch.setattr(training, "_kernel", k)
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("petfuse ")
        assert "build" in out
        assert out.rstrip().endswith(f"adamw {name})"), out


# ---------------------------------------------------------------- gen + redact


def test_gen_data_writes_manifest(capsys, tmp_path):
    out = tmp_path / "data.jsonl"
    code, stdout, _ = run(capsys, "gen-data", "--patients", "10",
                          "--seed", "3", "--out", str(out))
    assert code == 0
    samples = load_manifest(out)
    assert len(samples) >= 10
    assert str(len(samples)) in stdout


def test_gen_data_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(capsys, "gen-data", "--patients", "8", "--seed", "5",
               "--out", str(a))[0] == 0
    assert run(capsys, "gen-data", "--patients", "8", "--seed", "5",
               "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_redact_roundtrip(capsys, tmp_path):
    raw = tmp_path / "raw.jsonl"
    red = tmp_path / "red.jsonl"
    run(capsys, "gen-data", "--patients", "10", "--seed", "1",
        "--out", str(raw))
    code, stdout, _ = run(capsys, "redact", "--in", str(raw),
                          "--out", str(red))
    assert code == 0
    assert "redacted" in stdout
    for s in load_manifest(red):
        lowered = s.text.lower()
        for label in LABELS:
            assert label.lower() not in lowered, (label, s.text)


def test_redact_reads_the_lexicon_dir(capsys, tmp_path):
    """A lexicon file the directory holds replaces its default list; one it
    lacks keeps the default."""
    raw, red, lexicon = tmp_path / "raw.jsonl", tmp_path / "red.jsonl", tmp_path / "lex"
    lexicon.mkdir()
    (lexicon / "location.txt").write_text("# nothing is a location\n")
    run(capsys, "gen-data", "--patients", "10", "--seed", "1", "--out", str(raw))
    code, stdout, _ = run(capsys, "redact", "--in", str(raw), "--lexicon-dir",
                          str(lexicon), "--out", str(red))
    assert code == 0
    assert "0 locations" in stdout and " 0 findings" not in stdout
    texts = [s.text for s in load_manifest(red)]
    assert not any("[LOC]" in t for t in texts)
    assert any("[FINDING]" in t for t in texts)


def test_redact_is_idempotent_via_cli(capsys, tmp_path):
    raw = tmp_path / "raw.jsonl"
    once = tmp_path / "once.jsonl"
    twice = tmp_path / "twice.jsonl"
    run(capsys, "gen-data", "--patients", "6", "--seed", "2",
        "--out", str(raw))
    run(capsys, "redact", "--in", str(raw), "--out", str(once))
    run(capsys, "redact", "--in", str(once), "--out", str(twice))
    assert once.read_bytes() == twice.read_bytes()


# ---------------------------------------------------------------- count-params


def test_count_params_breakdown(capsys):
    code, out, _ = run(capsys, "count-params")
    assert code == 0
    assert "1,048,576" in out
    assert "786,432" in out
    assert "393,216" in out
    assert "134,656" in out
    assert "2,362,880" in out
    assert "2.51%" in out


def test_count_params_json(capsys):
    code, out, _ = run(capsys, "count-params", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_trainable"] == 2_362_880
    assert doc["components"]["fusion/vision_proj"] == 1_048_576


def test_count_params_with_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"fusion": {"shared_dim": 280, "head_hidden": 128}}))
    code, out, _ = run(capsys, "count-params", "--config", str(cfg), "--json")
    assert code == 0
    assert json.loads(out)["total_trainable"] == 1_061_312


def test_count_params_rejects_unknown_config_key(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fusion": {"mystery_knob": 1}}))
    code, _, err = run(capsys, "count-params", "--config", str(cfg))
    assert code == 2
    assert "mystery_knob" in err


_FULL_PET_FUSION = {"fusion/attention": 786_432, "fusion/head": 134_656,
                    "fusion/text_proj": 393_216, "fusion/vision_proj": 1_048_576}


def _per_block(n):
    return {"text_encoder/block0": n, "text_encoder/block1": n}


_COMPONENTS = {
    ("vision_only", "frozen"): {"head": 1_055_744},
    ("budget_matched", "frozen"): {"fusion/attention": 235_200, "fusion/head": 37_632,
                                   "fusion/text_proj": 215_040,
                                   "fusion/vision_proj": 573_440},
    ("full_pet", "frozen"): _FULL_PET_FUSION,
    # six 128-wide biases per block, and the output projection's 768
    ("full_pet", "bitfit"): {**_FULL_PET_FUSION, **_per_block(768),
                             "text_encoder/out": 768},
    # rank-8 factors on four 128x128 projections per block
    ("full_pet", "lora"): {**_FULL_PET_FUSION, **_per_block(4 * 2 * 8 * 128)},
    # one 64-wide bottleneck per block
    ("full_pet", "adapter"): {**_FULL_PET_FUSION,
                              **_per_block(2 * 64 * 128 + 64 + 128)},
}


@pytest.mark.parametrize("arm,policy,trainable", [
    ("vision_only", "frozen", 1_055_744),
    ("budget_matched", "frozen", 1_061_312),
    ("full_pet", "frozen", 2_362_880),
    ("full_pet", "bitfit", 2_365_184),
    ("full_pet", "lora", 2_379_264),
    ("full_pet", "adapter", 2_396_032),
])
def test_count_params_counts_the_model_train_builds(arm, policy, trainable, capsys,
                                                    tmp_path):
    """count-params gives each arm and policy's trainable count, one row per
    module, and the count is the number of values in the checkpoint train
    writes for the same config."""
    data, cfg = tmp_path / "data.jsonl", tmp_path / "cfg.json"
    assert main(["gen-data", "--patients", "20", "--seed", "9", "--out", str(data)]) == 0
    cfg.write_text(json.dumps({"arm": arm, "policy": policy, "train": {"max_epochs": 1}}))
    capsys.readouterr()
    code, out, _ = run(capsys, "count-params", "--config", str(cfg), "--json")
    assert code == 0
    assert json.loads(out)["total_trainable"] == trainable
    assert json.loads(out)["components"] == _COMPONENTS[arm, policy]
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 0
    _, arrays = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
    assert sum(a.size for a in arrays.values()) == trainable



@pytest.mark.parametrize("arm, policy, sections", [
    ("vision_only", "frozen", {}),
    ("budget_matched", "frozen", {}),
    ("full_pet", "frozen", {}),
    ("full_pet", "frozen", {"fusion": {"shared_dim": 40, "head_hidden": 12,
                                       "dropout_p": 0.0}}),
    ("full_pet", "bitfit", {}),
    ("full_pet", "lora", {}),
    ("full_pet", "lora", {"lora": {"rank": 4}}),
    ("full_pet", "adapter", {}),
    ("full_pet", "adapter", {"adapter": {"bottleneck": 16}}),
])
def test_the_trainable_weights_do_not_depend_on_the_vocabulary(arm, policy, sections):
    """The model over the special tokens alone, whose trainable arrays train
    draws before the manifest is parsed, and models over two real
    vocabularies of different sizes hold the same trainable arrays, bit for
    bit."""
    cfg = build_section("config", RunConfig,
                        {"arm": arm, "policy": policy, "train": {"seed": 5}, **sections})
    tokenizers = [Tokenizer.from_tokens(list(SPECIALS))] + [
        Tokenizer.build([s.text for s in generate_synthetic(n, seed=n)]) for n in (6, 40)]
    assert len({len(t) for t in tokenizers}) == 3
    specials = cli._specials_model(cfg)[1].graph.trainable()
    assert specials
    for tokenizer in tokenizers[1:]:
        real = cli._load_arm_model(cfg, tokenizer, cfg.train.seed)[1].graph.trainable()
        assert [p.name for p in real] == [p.name for p in specials]
        for a, b in zip(real, specials):
            assert a.data.shape == b.data.shape
            assert np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64)), a.name


def test_train_draws_on_its_thread_while_another_parses(trained, capsys, tmp_path,
                                                         monkeypatch):
    """train parses the manifest on a second thread while the calling thread
    draws the trainable weights; the model over the manifest's vocabulary
    then takes each of them from the drawn arrays and draws none again."""
    _, data, cfg, _ = trained
    parsed_on, drawn, taken = [], [], []
    load = data_mod.load_manifest

    def recording_load(*args):
        parsed_on.append(threading.get_ident())
        return load(*args)

    add_drawn = ModelGraph.add_drawn

    def recording_add_drawn(graph, name, shape, draw):
        (drawn if graph.stored is None else taken).append((threading.get_ident(), name))
        return add_drawn(graph, name, shape, draw)

    monkeypatch.setattr(data_mod, "load_manifest", recording_load)
    monkeypatch.setattr(ModelGraph, "add_drawn", recording_add_drawn)
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 0
    here = threading.get_ident()
    assert len(parsed_on) == 1 and parsed_on[0] != here
    assert drawn and {ident for ident, _ in drawn + taken} == {here}
    assert [name for _, name in drawn] == [name for _, name in taken]


def test_the_drawn_arrays_die_once_the_optimizer_holds_its_copy(trained, capsys,
                                                                tmp_path, monkeypatch):
    """Once train_loop has built its optimizer, which copies every trainable
    array into its arena, no array train drew is alive, and the model's
    graph holds no stored arrays."""
    _, data, _, _ = trained
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "arm": "full_pet", "policy": "lora", "lora": {"rank": 4},
        "fusion": {"shared_dim": 32, "head_hidden": 16},
        "train": {"batch": 16, "accumulation": 1, "max_epochs": 1}}))
    seen = {}
    build = harness.ArmSpec.build

    def recording_build(arm, *args, stored=None, **kwargs):
        model = build(arm, *args, stored=stored, **kwargs)
        if stored is not None:
            seen["drawn"] = [weakref.ref(a) for a in stored.values()]
            seen["model"] = model
        return model

    class CheckedAdamW(training.AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            gc.collect()
            seen["alive"] = sum(ref() is not None for ref in seen["drawn"])
            seen["stored"] = seen["model"].graph.stored

    monkeypatch.setattr(harness.ArmSpec, "build", recording_build)
    monkeypatch.setattr(training, "AdamW", CheckedAdamW)
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 0
    assert seen["drawn"] and seen["alive"] == 0 and seen["stored"] is None


# ---------------------------------------------------------------- train + eval


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One small training run shared by the train/eval/calibrate tests."""
    root = tmp_path_factory.mktemp("cli_train")
    data = root / "data.jsonl"
    cfg = root / "cfg.json"
    out = root / "run"
    assert main(["gen-data", "--patients", "30", "--seed", "4",
                 "--out", str(data)]) == 0
    cfg.write_text(json.dumps({
        "arm": "full_pet", "policy": "frozen",
        "fusion": {"shared_dim": 32, "head_hidden": 16, "dropout_p": 0.0},
        "train": {"batch": 16, "accumulation": 1, "max_epochs": 2,
                  "patience": 5, "lr": 1e-3},
    }))
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(out)]) == 0
    return root, data, cfg, out


def test_train_artifacts(trained, capsys):
    _, data, _, out = trained
    capsys.readouterr()
    header, _ = load_checkpoint(out / "checkpoint.bin")
    assert header["extra"]["manifest_sha256"] == hashlib.sha256(data.read_bytes()).hexdigest()
    assert (out / "history.csv").exists()
    echoed = json.loads((out / "config.echo.json").read_text())
    assert echoed["fusion"]["shared_dim"] == 32
    header = (out / "history.csv").read_text().splitlines()[0]
    assert header == "epoch,train_loss,val_auroc,lr,seconds"


def test_eval_from_checkpoint(trained, capsys, tmp_path):
    _, data, _, out = trained
    capsys.readouterr()
    report = tmp_path / "eval.json"
    code, stdout, _ = run(capsys, "eval", "--checkpoint",
                          str(out / "checkpoint.bin"), "--data", str(data),
                          "--out", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert 0.0 <= doc["auroc_macro"] <= 1.0
    assert doc["method"] == "full_pet"


def test_eval_deterministic(trained, capsys):
    _, data, _, out = trained
    capsys.readouterr()
    _, out1, _ = run(capsys, "eval", "--checkpoint",
                     str(out / "checkpoint.bin"), "--data", str(data))
    _, out2, _ = run(capsys, "eval", "--checkpoint",
                     str(out / "checkpoint.bin"), "--data", str(data))
    assert out1 == out2


def test_calibrate_outputs(trained, capsys):
    _, data, _, out = trained
    capsys.readouterr()
    code, stdout, _ = run(capsys, "calibrate", "--checkpoint",
                          str(out / "checkpoint.bin"), "--data", str(data))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["temperature"] > 0
    assert isinstance(doc["temperature_at_bound"], bool)
    assert 0.0 <= doc["ece_before"] <= 1.0
    assert 0.0 <= doc["ece_after"] <= 1.0


def test_calibrate_of_a_trained_lora_checkpoint_is_off_its_bounds(trained, lora_trained,
                                                                  capsys):
    _, data, _, _ = trained
    capsys.readouterr()
    code, stdout, _ = run(capsys, "calibrate", "--checkpoint",
                          str(lora_trained / "checkpoint.bin"), "--data", str(data))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["temperature_at_bound"] is False
    assert 1e-2 < doc["temperature"] < 1e2


def test_train_retrain_checkpoint_bit_identical(trained, tmp_path, capsys):
    _, data, cfg, out = trained
    capsys.readouterr()
    rerun = tmp_path / "rerun"
    code, _, _ = run(capsys, "train", "--config", str(cfg),
                     "--data", str(data), "--out", str(rerun))
    assert code == 0
    assert (rerun / "checkpoint.bin").read_bytes() \
        == (out / "checkpoint.bin").read_bytes()


@pytest.fixture(scope="module")
def lora_trained(trained):
    """One LoRA (rank 4) training run on the `trained` fixture's manifest."""
    root, data, _, _ = trained
    cfg = root / "lora_cfg.json"
    cfg.write_text(json.dumps({
        "arm": "full_pet", "policy": "lora", "lora": {"rank": 4},
        "fusion": {"shared_dim": 32, "head_hidden": 16, "dropout_p": 0.0},
        "train": {"batch": 16, "accumulation": 1, "max_epochs": 1,
                  "patience": 5, "lr": 1e-3},
    }))
    out = root / "lora_run"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(out)]) == 0
    return out


def test_train_honours_lora_config(trained, lora_trained, capsys):
    _, data, _, _ = trained
    capsys.readouterr()
    header, arrays = load_checkpoint(lora_trained / "checkpoint.bin")
    assert header["extra"]["lora"] == {"rank": 4, "alpha": 32.0}
    assert {a.shape for k, a in arrays.items() if k.endswith("/lora_a")} == {(128, 4)}
    code, _, _ = run(capsys, "eval", "--checkpoint", str(lora_trained / "checkpoint.bin"),
                     "--data", str(data))
    assert code == 0


def _eval_and_calibrate(capsys, ckpt, data):
    outs = []
    for command in ("eval", "calibrate"):
        code, stdout, _ = run(capsys, command, "--checkpoint", str(ckpt),
                              "--data", str(data))
        assert code == 0
        outs.append(stdout)
    return outs


def test_checkpoint_carries_vocab_and_normalizers(trained, capsys, tmp_path):
    """eval and calibrate restore the tokenizer and the normalizers from the
    checkpoint, so rewriting every training-split report (ids and patients
    unchanged) changes nothing they print."""
    _, data, _, out = trained
    capsys.readouterr()
    header, _ = load_checkpoint(out / "checkpoint.bin")
    train_set, _, _ = split_patients(load_manifest(data),
                                     SplitSpec(seed=header["extra"]["seed"]))
    train_ids = {s.id for s in train_set}
    lines = []
    for line in data.read_text().splitlines():
        rec = json.loads(line)
        if rec["id"] in train_ids:
            rec["text"] = f"Rewritten report {rec['id']} with novel wording."
        lines.append(json.dumps(rec))
    rewritten = tmp_path / "rewritten.jsonl"
    rewritten.write_text("\n".join(lines) + "\n")
    ckpt = out / "checkpoint.bin"
    assert _eval_and_calibrate(capsys, ckpt, rewritten) \
        == _eval_and_calibrate(capsys, ckpt, data)


class _DrawLog:
    """Stands in for `autodiff.make_rng`: each generator it makes records
    its stream's names in `drawn` when asked for a draw."""

    def __init__(self, make_rng):
        self.make_rng = make_rng
        self.drawn = set()

    def __call__(self, seed, *stream):
        return _LoggedRng(self.make_rng(seed, *stream), stream, self.drawn)


class _LoggedRng:
    def __init__(self, rng, stream, drawn):
        self._rng, self._stream, self._drawn = rng, stream, drawn

    def __getattr__(self, name):
        self._drawn.add(self._stream)
        return getattr(self._rng, name)


@pytest.mark.parametrize("arm, policy, streams", [
    ("vision_only", "frozen", {("split",)}),
    ("full_pet", "lora", {("split",), ("init", "text_encoder")}),
    ("full_pet", "adapter", {("split",), ("init", "text_encoder")}),
])
def test_a_restore_draws_nothing_the_checkpoint_holds(arm, policy, streams, trained,
                                                      capsys, tmp_path, monkeypatch):
    """eval and calibrate build the model from the stored arrays: no stream
    draws but the manifest's split and the frozen encoder's weights, which
    the checkpoint does not store. What they print is what a model drawn
    from the seed and then overwritten by load_state prints."""
    _, data, _, _ = trained
    cfg, out = tmp_path / "cfg.json", tmp_path / "run"
    cfg.write_text(json.dumps({
        "arm": arm, "policy": policy,
        **({"fusion": {"shared_dim": 32, "head_hidden": 16}} if arm == "full_pet" else {}),
        "train": {"batch": 16, "accumulation": 1, "max_epochs": 1}}))
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    log = _DrawLog(ad.make_rng)
    with monkeypatch.context() as m:
        m.setattr(ad, "make_rng", log)
        restored = _eval_and_calibrate(capsys, out / "checkpoint.bin", data)
    assert log.drawn == streams

    build = harness.ArmSpec.build
    monkeypatch.setattr(harness.ArmSpec, "build",
                        lambda *args, stored=None, **kwargs: build(*args, **kwargs))
    assert _eval_and_calibrate(capsys, out / "checkpoint.bin", data) == restored


class _CountingParser:
    """Stands in for `data._parse_line`, the parse of one whole manifest row
    on the native path and on json's, and counts the rows it gives with
    their vision features."""

    def __init__(self, parse):
        self.parse, self.calls = parse, 0

    def __call__(self, *args):
        sample = self.parse(*args)
        self.calls += sample is not None and sample.vision_features is not None
        return sample


@pytest.mark.parametrize("command, scored", [("eval", (2,)), ("calibrate", (1, 2))])
def test_a_restore_parses_features_only_of_the_rows_it_scores(command, scored, trained,
                                                              capsys, tmp_path, monkeypatch):
    """On the manifest the checkpoint trained on, eval parses the features of
    test rows only and calibrate those of validation and test rows. The same
    manifest with a blank line appended has another digest: every row is
    parsed, and what the command prints is the same. Both hold with the
    native row reader and with json alone."""
    _, data, _, run_dir = trained
    ckpt = run_dir / "checkpoint.bin"
    header, _ = load_checkpoint(ckpt)
    splits = split_patients(load_manifest(data), SplitSpec(seed=header["extra"]["seed"]))
    appended = tmp_path / "appended.jsonl"
    appended.write_bytes(data.read_bytes() + b"\n")
    capsys.readouterr()
    printed = []
    numbers = data_mod._numbers_kernel()
    for reader in [None] if numbers is None else [numbers, None]:
        for manifest, parsed in ((data, sum(len(splits[i]) for i in scored)),
                                 (appended, sum(map(len, splits)))):
            counter = _CountingParser(data_mod._parse_line)
            with monkeypatch.context() as m:
                m.setattr(data_mod, "_numbers", reader)
                m.setattr(data_mod, "_parse_line", counter)
                code, out, err = run(capsys, command, "--checkpoint", str(ckpt),
                                     "--data", str(manifest))
            assert (code, err) == (0, "")
            assert counter.calls == parsed, reader
            printed.append(out)
    assert all(out == printed[0] for out in printed)


def _arm_without_kind(tmp_path, data, run_dir):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"arms": [{"seeds": [0]}]}))
    return ["attribute", "--plan", plan, "--data", data, "--out", tmp_path / "res"]


def _malformed_plan(tmp_path, data, run_dir):
    plan = tmp_path / "plan.json"
    plan.write_text('{"arms": [')
    return ["attribute", "--plan", plan, "--data", data, "--out", tmp_path / "res"]


def _malformed_signal_plan(tmp_path, data, run_dir):
    plan = tmp_path / "signal.json"
    plan.write_text("{vision: text}")
    return ["gen-data", "--patients", "4", "--signal-plan", plan,
            "--out", tmp_path / "d.jsonl"]


def _gen_data(*flags):
    """gen-data with the given corpus flags."""
    def make_argv(tmp_path, data, run_dir):
        return ["gen-data", "--patients", "4", *flags, "--out", tmp_path / "d.jsonl"]
    return make_argv


def _lora_rank_zero(tmp_path, data, run_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"arm": "full_pet", "policy": "lora",
                               "lora": {"rank": 0}}))
    return ["train", "--config", cfg, "--data", data, "--out", tmp_path / "run"]


def _truncated_checkpoint(tmp_path, data, run_dir):
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.write_bytes((run_dir / "checkpoint.bin").read_bytes()[:-100])
    return ["eval", "--checkpoint", ckpt, "--data", data]


def _checkpoint_cut_in_header(tmp_path, data, run_dir):
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.write_bytes((run_dir / "checkpoint.bin").read_bytes()[:40])
    return ["eval", "--checkpoint", ckpt, "--data", data]


def _duplicate_id(tmp_path, data, run_dir):
    lines = data.read_text().splitlines(keepends=True)
    manifest = tmp_path / "dup.jsonl"
    manifest.write_text("".join(lines) + lines[0])
    return ["train", "--data", manifest, "--out", tmp_path / "run"]


def _all_labels_negative(command):
    """`command` on the fixture's manifest with every label 0, so that no
    label of any split holds both classes."""
    def make_argv(tmp_path, data, run_dir):
        samples = load_manifest(data)
        for s in samples:
            s.labels = [0] * len(LABELS)
        manifest = tmp_path / "negative.jsonl"
        save_manifest(manifest, samples)
        if command == "train":
            return ["train", "--data", manifest, "--out", tmp_path / "run"]
        if command == "attribute":
            plan = tmp_path / "plan.json"
            plan.write_text(json.dumps({"arms": [{"kind": "vision_only"}]}))
            return ["attribute", "--plan", plan, "--data", manifest,
                    "--out", tmp_path / "res"]
        return [command, "--checkpoint", run_dir / "checkpoint.bin", "--data", manifest]
    return make_argv


def _four_patients(tmp_path, data, run_dir):
    """A valid manifest whose one-patient validation split leaves no label
    with both classes, so validation AUROC is undefined."""
    manifest = tmp_path / "four.jsonl"
    assert main(["gen-data", "--patients", "4", "--out", str(manifest)]) == 0
    return ["train", "--data", manifest, "--out", tmp_path / "run"]


def _audit_three_patients(tmp_path, data, run_dir):
    """A valid manifest whose default 0.70/0.15/0.15 split leaves the test
    split empty, so no probe can be scored."""
    manifest = tmp_path / "three.jsonl"
    assert main(["gen-data", "--patients", "3", "--out", str(manifest)]) == 0
    return ["audit-leakage", "--data", manifest]


def _score_few_patients(command, patients):
    """`command` on a valid manifest of `patients` patients, whose default
    split leaves the test split empty, so there is nothing to score."""
    def make_argv(tmp_path, data, run_dir):
        manifest = tmp_path / "few.jsonl"
        assert main(["gen-data", "--patients", str(patients), "--out", str(manifest)]) == 0
        return [command, "--checkpoint", run_dir / "checkpoint.bin", "--data", manifest]
    return make_argv


def _without_vision(command):
    """The fixture's manifest with one sample's optional vision_features dropped."""
    def make_argv(tmp_path, data, run_dir):
        lines = data.read_text().splitlines(keepends=True)
        rec = json.loads(lines[0])
        del rec["vision_features"]
        manifest = tmp_path / "novision.jsonl"
        manifest.write_text(json.dumps(rec) + "\n" + "".join(lines[1:]))
        if command == "train":
            return ["train", "--data", manifest, "--out", tmp_path / "run"]
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"arms": [{"kind": "vision_only"}]}))
        return ["attribute", "--plan", plan, "--data", manifest, "--out", tmp_path / "res"]
    return make_argv


def _non_finite_feature(command, value):
    """The fixture's manifest with one vision feature of its third row set to
    `value`, which json writes as NaN, Infinity or -Infinity."""
    def make_argv(tmp_path, data, run_dir):
        lines = data.read_text().splitlines(keepends=True)
        rec = json.loads(lines[2])
        rec["vision_features"][7] = value
        lines[2] = json.dumps(rec) + "\n"
        manifest = tmp_path / "nonfinite.jsonl"
        manifest.write_text("".join(lines))
        if command == "train":
            return ["train", "--data", manifest, "--out", tmp_path / "run"]
        return [command, "--checkpoint", run_dir / "checkpoint.bin", "--data", manifest]
    return make_argv


def _lexicon_dir(command, make_dir):
    """`command` on the fixture's manifest with --lexicon-dir naming what
    `make_dir(tmp_path)` made."""
    def make_argv(tmp_path, data, run_dir):
        lexicon = make_dir(tmp_path)
        if command == "redact":
            return ["redact", "--in", data, "--lexicon-dir", lexicon,
                    "--out", tmp_path / "red.jsonl"]
        return ["audit-leakage", "--data", data, "--lexicon-dir", lexicon]
    return make_argv


def _missing_dir(tmp_path):
    return tmp_path / "nonexistent"


def _plain_file(tmp_path):
    path = tmp_path / "lexicon.txt"
    path.write_text("effusion\n")
    return path


def _location_not_utf8(tmp_path):
    lexicon = tmp_path / "lexicon"
    lexicon.mkdir()
    (lexicon / "location.txt").write_bytes(b"left\n\xff\xfe\n")
    return lexicon


def _plan(doc):
    def make_argv(tmp_path, data, run_dir):
        plan = tmp_path / "plan.json"
        plan.write_text(doc if isinstance(doc, str)
                        else json.dumps({"arms": [{"kind": "vision_only"}], **doc}))
        return ["attribute", "--plan", plan, "--data", data, "--out", tmp_path / "res"]
    return make_argv


def _says(text, make_argv):
    """`make_argv`, whose error line must contain `text`."""
    make_argv.says = text
    return make_argv


def _writes_nothing(make_argv):
    """`make_argv`, refused before its --out directory is made."""
    make_argv.writes_nothing = True
    return make_argv


def _config(doc, command="train"):
    def make_argv(tmp_path, data, run_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        if command == "count-params":
            return ["count-params", "--config", cfg]
        return ["train", "--config", cfg, "--data", data, "--out", tmp_path / "run"]
    return make_argv


def _ignoring_lora(make_manifest):
    """train, on the manifest `make_manifest(tmp_path, data)` writes, of a
    frozen arm with a lora section it would ignore."""
    def make_argv(tmp_path, data, run_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"policy": "frozen", "lora": {"rank": 3}}))
        return ["train", "--config", cfg, "--data", make_manifest(tmp_path, data),
                "--out", tmp_path / "run"]
    return make_argv


def _line_3_malformed(tmp_path, data):
    lines = data.read_text().splitlines(keepends=True)
    lines[2] = '{"id": "broken", \n'
    manifest = tmp_path / "malformed.jsonl"
    manifest.write_text("".join(lines))
    return manifest


def _two_patients(tmp_path, data):
    manifest = tmp_path / "two.jsonl"
    assert main(["gen-data", "--patients", "2", "--out", str(manifest)]) == 0
    return manifest

def _split_checkpoint(raw):
    """(header dict, array bytes) of a checkpoint file's contents."""
    hlen = int.from_bytes(raw[8:16], "little")
    return json.loads(raw[16:16 + hlen]), raw[16 + hlen:]


def _join_checkpoint(header, blobs):
    """A checkpoint file of the header, a dict or its JSON text, and the arrays."""
    hbytes = (header if isinstance(header, str) else json.dumps(header)).encode()
    return b"PFCKPT01" + len(hbytes).to_bytes(8, "little") + hbytes + blobs


def _rewritten_checkpoint(command, edit):
    """The fixture's checkpoint with `edit(header)` applied to its header."""
    def make_argv(tmp_path, data, run_dir):
        header, blobs = _split_checkpoint((run_dir / "checkpoint.bin").read_bytes())
        edit(header)
        ckpt = tmp_path / "checkpoint.bin"
        ckpt.write_bytes(_join_checkpoint(header, blobs))
        return [command, "--checkpoint", ckpt, "--data", data]
    return make_argv


def _checkpoint_header(command, **extra):
    """The fixture's checkpoint with its header `extra` changed, so the
    model the header describes no longer fits the stored arrays."""
    def edit(header):
        for key, value in extra.items():
            header["extra"][key] = (dict(header["extra"][key], **value)
                                    if isinstance(value, dict) else value)
    return _rewritten_checkpoint(command, edit)


def _checkpoint_state(command, edit):
    """The fixture's checkpoint with `edit(state)` applied to its restore state."""
    return _rewritten_checkpoint(command, lambda header: edit(header["state"]))


def _set(doc, key, value):
    doc[key] = value


def _junk_array(tmp_path, data, run_dir):
    """The fixture's checkpoint with a 3-float array outside param/ appended."""
    header, blobs = _split_checkpoint((run_dir / "checkpoint.bin").read_bytes())
    header["arrays"].append({"name": "junk", "shape": [3]})
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.write_bytes(_join_checkpoint(header, blobs + bytes(3 * 8)))
    return ["eval", "--checkpoint", ckpt, "--data", data]


def _transposed(name):
    """Swap the dims a checkpoint header lists for the array at `name`, so its
    element count, and the file's size, stay those of the stored array."""
    def edit(header):
        meta = next(m for m in header["arrays"] if m["name"] == f"param/{name}")
        meta["shape"].reverse()
    return edit


def _swap_tokens(state):
    """Swap the first two tokens after the specials."""
    vocab, i = state["vocab"], len(SPECIALS)
    vocab[i], vocab[i + 1] = vocab[i + 1], vocab[i]


def _vision_stat(key, value):
    def edit(state):
        state["normalizers"]["vision"][key] = value
    return edit


def _version_1(header):
    """A version-1 header: no stored vocabulary or normalizers."""
    del header["state"]
    header["version"] = 1


def _config_int_too_long_to_parse(tmp_path, data, run_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"train": {"lr": 1' + "0" * 5000 + "}}")
    return ["train", "--config", cfg, "--data", data, "--out", tmp_path / "run"]


# nested past Python's recursion limit, so json raises RecursionError
_DEEP = "[" * 100_000 + "]" * 100_000


def _with_raw(doc, key, text):
    """json.dumps(doc) with doc[key] written as the JSON text `text`."""
    return json.dumps({**doc, key: "@raw@"}).replace('"@raw@"', text)


def _raw_row(command, key, text):
    """`command` on the fixture's manifest with its first row's `key`
    written as `text`; vision_features stays that row's last key."""
    def make_argv(tmp_path, data, run_dir):
        lines = data.read_text().splitlines(keepends=True)
        manifest = tmp_path / "raw.jsonl"
        manifest.write_text(_with_raw(json.loads(lines[0]), key, text) + "\n"
                            + "".join(lines[1:]))
        if command == "redact":
            return ["redact", "--in", manifest, "--out", tmp_path / "red.jsonl"]
        return [command, "--data", manifest, "--out", tmp_path / "run"]
    return make_argv


def _raw_header(command, key, text):
    """The fixture's checkpoint with its header's `key` written as `text`."""
    def make_argv(tmp_path, data, run_dir):
        header, blobs = _split_checkpoint((run_dir / "checkpoint.bin").read_bytes())
        ckpt = tmp_path / "checkpoint.bin"
        ckpt.write_bytes(_join_checkpoint(_with_raw(header, key, text), blobs))
        return [command, "--checkpoint", ckpt, "--data", data]
    return make_argv


def _trailing_bytes(tmp_path, data, run_dir):
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.write_bytes((run_dir / "checkpoint.bin").read_bytes() + b"\0" * 8)
    return ["calibrate", "--checkpoint", ckpt, "--data", data]


@pytest.mark.parametrize("make_argv", [
    _arm_without_kind, _malformed_plan, _malformed_signal_plan, _lora_rank_zero,
    # gen-data refuses a corpus no patient or probability can make
    pytest.param(_gen_data("--patients", "0"), id="gen_data_zero_patients"),
    pytest.param(_gen_data("--patients", "-3"), id="gen_data_negative_patients"),
    pytest.param(_gen_data("--leak-prob", "1.5"), id="gen_data_leak_prob_above_1"),
    pytest.param(_gen_data("--leak-prob", "nan"), id="gen_data_leak_prob_nan"),
    pytest.param(_gen_data("--leak-prob", "-1"), id="gen_data_leak_prob_negative"),
    _truncated_checkpoint, _checkpoint_cut_in_header, _duplicate_id,
    _says("validation split: macro average over zero valid labels", _four_patients),
    _audit_three_patients,
    # eval and calibrate refuse an empty scored split as the audit does
    pytest.param(_says("the test split is empty: too few patients to score",
                       _score_few_patients("eval", 4)), id="eval_four_patients"),
    pytest.param(_says("the test split is empty: too few patients to score",
                       _score_few_patients("calibrate", 3)), id="calibrate_three_patients"),
    # no label of the split that is scored holds both classes
    pytest.param(_says("error: validation split: macro average over zero valid labels",
                       _all_labels_negative("train")), id="train_labels_all_negative"),
    pytest.param(_says("first vision_only/seed0: UndefinedMetric: validation split: "
                       "macro average over zero valid labels",
                       _all_labels_negative("attribute")),
                 id="attribute_labels_all_negative"),
    pytest.param(_says("error: test split: macro average over zero valid labels",
                       _all_labels_negative("eval")), id="eval_labels_all_negative"),
    pytest.param(_without_vision("train"), id="train_without_vision"),
    pytest.param(_without_vision("attribute"), id="attribute_without_vision"),
    pytest.param(_non_finite_feature("train", float("nan")), id="train_nan_feature"),
    pytest.param(_non_finite_feature("eval", float("inf")), id="eval_inf_feature"),
    pytest.param(_non_finite_feature("calibrate", -float("inf")),
                 id="calibrate_minus_inf_feature"),
    # --lexicon-dir must name a directory whose lexicon files are UTF-8
    pytest.param(_lexicon_dir("redact", _missing_dir), id="redact_lexicon_missing"),
    pytest.param(_lexicon_dir("audit-leakage", _missing_dir), id="audit_lexicon_missing"),
    pytest.param(_lexicon_dir("redact", _plain_file), id="redact_lexicon_plain_file"),
    pytest.param(_lexicon_dir("audit-leakage", _plain_file), id="audit_lexicon_plain_file"),
    pytest.param(_lexicon_dir("redact", _location_not_utf8), id="redact_lexicon_not_utf8"),
    pytest.param(_lexicon_dir("audit-leakage", _location_not_utf8),
                 id="audit_lexicon_not_utf8"),
    # plan sections go through the config checks
    pytest.param(_says("unknown split keys: ['bogus']", _plan({"split": {"bogus": 1}})),
                 id="plan_split_unknown_key"),
    pytest.param(_plan({"split": [0.7, 0.15, 0.15]}), id="plan_split_not_object"),
    pytest.param(_plan({"train": "ab"}), id="plan_train_not_object"),
    # plan arms and their fields are type-checked
    pytest.param(_plan({"arms": 5}), id="plan_arms_not_list"),
    pytest.param(_plan({"arms": [{"kind": "vision_only", "seeds": 3}]}), id="seeds_int"),
    pytest.param(_plan({"arms": [{"kind": "vision_only", "seeds": [True]}]}),
                 id="seeds_bool"),
    pytest.param(_plan({"arms": [{"kind": "vision_only", "seeds": ["0"]}]}),
                 id="seeds_str"),
    pytest.param(_plan({"arms": [{"kind": "vision_only", "seeds": []}]}), id="seeds_empty"),
    pytest.param(_plan({"arms": [{"kind": "vision_only", "seeds": [0, 0]}]}),
                 id="seeds_duplicate"),
    pytest.param(_plan({"arms": [{"kind": "vision_only", "name": ["a"]}]}),
                 id="arm_name_list"),
    pytest.param(_plan({"arms": [{"kind": "vision_only", "budget_target": "1000"}]}),
                 id="budget_target_str"),
    # a plan is refused before any arm trains: an unknown key or policy, a
    # train.seed that each arm's seeds replace, a name that no CSV file can take
    pytest.param(_says("unknown plan keys: ['trian']", _plan({"trian": {"max_epochs": 1}})),
                 id="plan_unknown_key"),
    pytest.param(_says("policy 'lroa' is not one of",
                       _plan({"arms": [{"kind": "vision_only"},
                                       {"kind": "full_pet", "policy": "lroa"}]})),
                 id="arm_policy_typo"),
    pytest.param(_says("train.seed", _plan({"train": {"seed": 7}})), id="plan_train_seed"),
    pytest.param(_says("arm name 'a/b'", _plan({"arms": [{"kind": "vision_only",
                                                          "name": "a/b"}]})),
                 id="arm_name_slash"),
    pytest.param(_says("arm name 'vo_per_label'",
                       _plan({"arms": [{"kind": "vision_only", "name": "vo_per_label"},
                                       {"kind": "vision_only", "name": "vo"}]})),
                 id="arm_name_per_label"),
    # config values are type-checked, and a section must be an object
    pytest.param(_config({"lora": {"rank": "4"}, "policy": "lora"}), id="lora_rank_str"),
    pytest.param(_config({"fusion": {"shared_dim": 1.5}}), id="shared_dim_float"),
    pytest.param(_config({"train": {"batch": True}}), id="batch_bool"),
    pytest.param(_config({"lora": [1]}), id="lora_not_object"),
    pytest.param(_config({"train": "ab"}), id="train_not_object"),
    # config values out of range are refused before anything is written
    pytest.param(_says("batch, accumulation, max_epochs, patience must be >= 1",
                       _writes_nothing(_config({"train": {"batch": 0}}))),
                 id="train_batch_zero"),
    pytest.param(_says("lr, weight_decay and clip_norm must be finite and positive",
                       _writes_nothing(_config({"train": {"lr": float("nan")}}))),
                 id="train_lr_nan"),
    pytest.param(_says("lr, weight_decay and clip_norm must be finite and positive",
                       _writes_nothing(_config({"train": {"clip_norm": float("nan")}}))),
                 id="train_clip_norm_nan"),
    pytest.param(_says("lora alpha must be finite and positive", _writes_nothing(
        _config({"policy": "lora", "lora": {"alpha": 0.0}}))), id="train_lora_alpha_zero"),
    pytest.param(_says("policy 'lroa' is not one of", _writes_nothing(
        _config({"policy": "lroa"}))), id="train_policy_typo"),
    pytest.param(_says("lr, weight_decay and clip_norm must be finite and positive",
                       _config({"train": {"lr": -1}}, "count-params")),
                 id="count_params_train_lr_negative"),
    # the declared total is the paper's constant, not a config key
    pytest.param(_config({"total_params_declared": "x"}, "count-params"),
                 id="declared_total_str"),
    # a float field takes an int only when float() can represent it
    pytest.param(_config({"policy": "lora", "lora": {"alpha": 10**400}}),
                 id="lora_alpha_int_beyond_float"),
    pytest.param(_config({"train": {"lr": -10**400}}), id="lr_int_beyond_float"),
    # a rank or bottleneck wider than the encoder is refused before any draw
    pytest.param(_config({"arm": "full_pet", "policy": "lora", "lora": {"rank": 10**400}}),
                 id="lora_rank_beyond_width"),
    pytest.param(_config({"arm": "full_pet", "policy": "adapter",
                          "adapter": {"bottleneck": 100000}}),
                 id="adapter_bottleneck_beyond_width"),
    _config_int_too_long_to_parse,
    # json raises a plain ValueError for an int of more than 4,300 digits,
    # and RecursionError for nesting past the recursion limit
    pytest.param(_says("raw.jsonl:1: invalid JSON (Exceeds the limit (4300 digits)",
                       _raw_row("redact", "id", "1" * 5000)), id="manifest_id_5000_digits"),
    pytest.param(_says("raw.jsonl:1: invalid JSON (maximum recursion depth exceeded",
                       _raw_row("train", "labels", _DEEP)), id="manifest_labels_nested_deep"),
    pytest.param(_says("invalid config JSON (maximum recursion depth exceeded",
                       _config(_with_raw({}, "train", _DEEP), "count-params")),
                 id="config_train_nested_deep"),
    pytest.param(_says("invalid plan JSON (maximum recursion depth exceeded",
                       _plan(_with_raw({"arms": [{"kind": "vision_only"}]}, "train", _DEEP))),
                 id="plan_train_nested_deep"),
    pytest.param(_says("unreadable checkpoint header (maximum recursion depth exceeded",
                       _raw_header("eval", "extra", _DEEP)), id="header_nested_deep"),
    # a float64 overflow in training stops the run, or the arm, without a warning
    pytest.param(_config({"arm": "full_pet", "train": {"lr": 1e200, "max_epochs": 2}}),
                 id="train_lr_overflows"),
    pytest.param(_plan({"arms": [{"kind": "full_pet"}],
                        "train": {"lr": 1e200, "max_epochs": 2}}),
                 id="attribute_lr_overflows"),
    # an arm kind rejects overrides it would ignore
    pytest.param(_plan({"arms": [{"kind": "vision_only", "policy": "lora"}]}),
                 id="vision_only_policy"),
    pytest.param(_plan({"arms": [{"kind": "budget_matched", "policy": "adapter"}]}),
                 id="budget_matched_policy"),
    pytest.param(_plan({"arms": [{"kind": "vision_only", "fusion": {"shared_dim": 8}}]}),
                 id="vision_only_fusion"),
    pytest.param(_says("unknown fusion keys: ['bogus']",
                       _plan({"arms": [{"kind": "full_pet", "fusion": {"bogus": 1}}]})),
                 id="arm_fusion_unknown_key"),
    pytest.param(_plan({"arms": [{"kind": "budget_matched", "fusion": {"shared_dim": 32}}]}),
                 id="budget_matched_fusion"),
    # a plan whose values are out of range is refused before any arm trains
    pytest.param(_says("error: dropout_p must be in [0, 1)", _writes_nothing(_plan(
        {"arms": [{"kind": "vision_only"}, {"kind": "budget_matched"},
                  {"kind": "full_pet", "fusion": {"dropout_p": 1.5}}]}))),
                 id="plan_third_arm_dropout"),
    pytest.param(_says("lr, weight_decay and clip_norm must be finite and positive",
                       _writes_nothing(_plan({"train": {"lr": -1}}))),
                 id="plan_train_lr_negative"),
    pytest.param(_says("shared_dim must be positive", _writes_nothing(
        _plan({"arms": [{"kind": "full_pet", "fusion": {"shared_dim": 0}}]}))),
                 id="plan_fusion_shared_dim_zero"),
    pytest.param(_says("lr, weight_decay and clip_norm must be finite and positive",
                       _writes_nothing(_plan({"train": {"clip_norm": float("nan")}}))),
                 id="plan_train_clip_norm_nan"),
    pytest.param(_config({"arm": "vision_only", "policy": "lora"}),
                 id="train_vision_only_policy"),
    # two faults: the manifest's, or the split's, is reported before the arm's
    pytest.param(_says("malformed.jsonl:3: invalid JSON",
                       _writes_nothing(_ignoring_lora(_line_3_malformed))),
                 id="train_malformed_line_and_ignored_lora"),
    pytest.param(_says("need at least 3 patients to split, got 2",
                       _writes_nothing(_ignoring_lora(_two_patients))),
                 id="train_two_patients_and_ignored_lora"),
    # a config section the arm or policy would ignore
    pytest.param(_config({"arm": "budget_matched", "fusion": {"shared_dim": 64},
                          "lora": {"rank": 3}}), id="train_budget_matched_fusion_lora"),
    pytest.param(_config({"arm": "vision_only", "fusion": {"dropout_p": 0.0}}),
                 id="train_vision_only_fusion"),
    pytest.param(_config({"policy": "frozen", "lora": {"rank": 3}}), id="train_frozen_lora"),
    pytest.param(_config({"policy": "lora", "adapter": {"bottleneck": 8}}),
                 id="train_lora_adapter"),
    pytest.param(_config({"policy": "bitfit", "adapter": {"bottleneck": 8}}),
                 id="train_bitfit_adapter"),
    pytest.param(_config({"policy": "frozen", "lora": {"rank": 3}}, "count-params"),
                 id="count_params_frozen_lora"),
    pytest.param(_config({"arm": "vision_only", "fusion": {"dropout_p": 0.0}},
                         "count-params"), id="count_params_vision_only_fusion"),
    # the fusion pathway's input and output widths are the data contract's
    pytest.param(_config({"fusion": {"vision_in": 10}}, "count-params"),
                 id="count_params_fusion_vision_in"),
    pytest.param(_config({"fusion": {"num_labels": 5}}), id="train_fusion_num_labels"),
    # a checkpoint that does not fit its own header
    pytest.param(_checkpoint_header("eval", policy="lora"), id="eval_missing_lora"),
    pytest.param(_checkpoint_header("calibrate", policy="bitfit"),
                 id="calibrate_missing_biases"),
    pytest.param(_checkpoint_header("eval", fusion={"shared_dim": 16}),
                 id="eval_shape_mismatch"),
    pytest.param(_checkpoint_header("calibrate", fusion={"head_hidden": 8}),
                 id="calibrate_shape_mismatch"),
    # an array of the size its header claims, but transposed
    pytest.param(_says("stored array fusion/head/w2 has shape (14, 16), the "
                       "model's is (16, 14)",
                       _rewritten_checkpoint("eval", _transposed("fusion/head/w2"))),
                 id="eval_fusion_array_transposed"),
    pytest.param(_says("checkpoint array 'junk' is not a parameter", _junk_array),
                 id="eval_array_outside_param"),
    pytest.param(_checkpoint_header("eval", fusion=[32]), id="eval_fusion_not_object"),
    pytest.param(_checkpoint_header("eval", seed="0"), id="eval_seed_str"),
    pytest.param(_checkpoint_header("eval", lora={"alpha": 10**400}),
                 id="header_lora_alpha_int_beyond_float"),
    pytest.param(_says("checkpoint header: lora rank must be >= 1",
                       _checkpoint_header("eval", lora={"rank": 0})),
                 id="header_lora_rank_zero"),
    pytest.param(_says("checkpoint header: adapter bottleneck must be >= 1",
                       _checkpoint_header("calibrate", adapter={"bottleneck": 0})),
                 id="header_adapter_bottleneck_zero"),
    pytest.param(_says("checkpoint header: lora alpha must be finite and positive",
                       _checkpoint_header("eval", lora={"alpha": float("nan")})),
                 id="header_lora_alpha_nan"),
    pytest.param(_checkpoint_header("calibrate", fusion={"dropout_p": 10**400}),
                 id="header_dropout_int_beyond_float"),
    pytest.param(_rewritten_checkpoint("eval", lambda h: h.pop("extra")),
                 id="eval_no_extra"),
    pytest.param(_rewritten_checkpoint("eval", lambda h: h["extra"].pop("seed")),
                 id="header_without_seed"),
    pytest.param(_rewritten_checkpoint("calibrate", lambda h: h["extra"].pop("lora")),
                 id="header_without_lora"),
    pytest.param(_rewritten_checkpoint("eval", lambda h: h["extra"].pop("adapter")),
                 id="header_without_adapter"),
    pytest.param(_says("checkpoint header: unknown extra keys: ['bogus']",
                       _rewritten_checkpoint("eval", lambda h: _set(h["extra"], "bogus", 1))),
                 id="header_unknown_extra_key"),
    pytest.param(_says("checkpoint header: missing extra keys: ['best_epoch']",
                       _rewritten_checkpoint("calibrate",
                                             lambda h: h["extra"].pop("best_epoch"))),
                 id="header_without_best_epoch"),
    # a header written before train recorded the manifest's digest
    pytest.param(_says("checkpoint header: missing extra keys: ['manifest_sha256']",
                       _rewritten_checkpoint("eval",
                                             lambda h: h["extra"].pop("manifest_sha256"))),
                 id="header_without_manifest_sha256"),
    pytest.param(_checkpoint_header("calibrate", manifest_sha256=None),
                 id="header_manifest_sha256_null"),
    _trailing_bytes,
    # the container's version: only 2 is read
    pytest.param(_rewritten_checkpoint("eval", _version_1), id="version_1"),
    pytest.param(_rewritten_checkpoint("eval", lambda h: _set(h, "version", 3)),
                 id="version_3"),
    pytest.param(_rewritten_checkpoint("calibrate", lambda h: _set(h, "version", "2")),
                 id="version_str"),
    pytest.param(_rewritten_checkpoint("eval", lambda h: _set(h, "version", True)),
                 id="version_bool"),
    # a version-2 checkpoint whose restore state is missing or malformed
    pytest.param(_rewritten_checkpoint("eval", lambda h: h.pop("state")),
                 id="state_missing"),
    pytest.param(_rewritten_checkpoint("calibrate", lambda h: _set(h, "state", None)),
                 id="state_null"),
    pytest.param(_checkpoint_state("eval", lambda st: st.pop("vocab")), id="vocab_missing"),
    pytest.param(_checkpoint_state("eval", lambda st: _set(st, "vocab", "[CLS]")),
                 id="vocab_not_list"),
    pytest.param(_checkpoint_state("eval", lambda st: st["vocab"].append(st["vocab"][-1])),
                 id="vocab_duplicate"),
    pytest.param(_checkpoint_state("calibrate", lambda st: st["vocab"].pop(0)),
                 id="vocab_without_specials"),
    pytest.param(_checkpoint_state("eval", lambda st: st["vocab"].append(7)),
                 id="vocab_not_strings"),
    # a vocabulary that still parses, but rebuilds other frozen weights
    pytest.param(_checkpoint_state("eval", lambda st: st["vocab"].extend(
        f"added{i}" for i in range(50))), id="vocab_50_tokens_appended"),
    pytest.param(_checkpoint_state("calibrate", _swap_tokens), id="vocab_tokens_swapped"),
    pytest.param(_checkpoint_state("eval", lambda st: st.pop("frozen_sha256")),
                 id="frozen_sha256_missing"),
    pytest.param(_checkpoint_state("calibrate", lambda st: _set(st, "frozen_sha256", 0)),
                 id="frozen_sha256_not_str"),
    pytest.param(_checkpoint_state("eval", lambda st: st["normalizers"].pop("text")),
                 id="normalizer_missing"),
    pytest.param(_checkpoint_state("eval", _vision_stat("mu", [0.0] * 2047)),
                 id="mu_short"),
    pytest.param(_checkpoint_state("calibrate", _vision_stat("sd", [1.0] * 2049)),
                 id="sd_long"),
    pytest.param(_checkpoint_state("eval", _vision_stat("mu", [float("nan")] * 2048)),
                 id="mu_nan"),
    pytest.param(_checkpoint_state("calibrate", _vision_stat("sd", [float("inf")] * 2048)),
                 id="sd_inf"),
    pytest.param(_checkpoint_state("eval", _vision_stat("sd", [0.0] * 2048)), id="sd_zero"),
    pytest.param(_checkpoint_state("eval", _vision_stat("mu", ["0"] * 2048)), id="mu_str"),
    # train writes the statistics as floats, so an int is refused, even one
    # beyond the float range
    pytest.param(_checkpoint_state("calibrate", _vision_stat("mu", [0] * 2048)), id="mu_int"),
    pytest.param(_checkpoint_state("eval", _vision_stat("sd", [10**400] * 2048)),
                 id="sd_int_beyond_float"),
])
def test_malformed_input_is_one_line_runtime_error(make_argv, trained, capsys,
                                                   tmp_path):
    _, data, _, run_dir = trained
    capsys.readouterr()
    argv = [str(a) for a in make_argv(tmp_path, data, run_dir)]
    threads = threading.active_count()
    code, _, err = run(capsys, *argv)
    assert threading.active_count() == threads
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert getattr(make_argv, "says", "") in err
    assert not list(tmp_path.rglob("arm_*.csv"))
    if getattr(make_argv, "writes_nothing", False):
        assert not (tmp_path / "res").exists() and not (tmp_path / "run").exists()


def test_non_finite_feature_is_named_by_its_line(trained, capsys, tmp_path):
    """A NaN feature used to train to a NaN validation AUROC every epoch and
    exit 0; the manifest row is refused instead."""
    _, data, _, run_dir = trained
    argv = _non_finite_feature("train", float("nan"))(tmp_path, data, run_dir)
    capsys.readouterr()
    code, _, err = run(capsys, *[str(a) for a in argv])
    assert code == 2
    assert err == (f"error: {tmp_path / 'nonfinite.jsonl'}:3: "
                   "vision_features must be 2048 finite numbers\n")


def test_out_of_memory_is_one_line_runtime_error(trained, capsys, tmp_path, monkeypatch):
    """A model too large to allocate, such as a fusion section whose
    (768, 100000) text projection exceeds the address space, ends in one
    error line."""
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 586. MiB for an array with shape "
                          "(768, 100000) and data type float64")

    monkeypatch.setattr(FusionPathway, "__init__", no_memory)
    _, data, _, _ = trained
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"arm": "full_pet", "fusion": {"shared_dim": 100000}}))
    code, _, err = run(capsys, "train", "--config", str(cfg), "--data", str(data),
                       "--out", str(tmp_path / "run"))
    assert code == 2
    assert err == "error: Unable to allocate 586. MiB for an array with shape " \
                  "(768, 100000) and data type float64\n"


def test_a_float_field_still_takes_an_int_within_range(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"policy": "lora", "lora": {"alpha": 10**300}}))
    code, _, err = run(capsys, "count-params", "--config", str(cfg))
    assert code == 0, err


@pytest.mark.parametrize("command", ["eval", "calibrate"])
def test_a_failed_write_prints_nothing(trained, capsys, tmp_path, command):
    """The result is written before it is printed, so an --out that cannot
    be written leaves stdout empty."""
    _, data, _, run_dir = trained
    capsys.readouterr()
    code, out, err = run(capsys, command, "--checkpoint", str(run_dir / "checkpoint.bin"),
                         "--data", str(data), "--out", str(tmp_path / "missing" / "r.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _predictions(**changes):
    """The text of a predictions.json holding one valid two-sample run, with
    `changes` made to that run."""
    run_doc = {"arm": "x", "seed": 0, "trainable_params": 10, "total_params": 20,
               "sample_ids": ["s0", "s1"], "logits": [[0.5] * 14, [-0.5] * 14],
               "labels": [[1] * 14, [0] * 14]}
    return json.dumps({"runs": [dict(run_doc, **changes)]})


# (results directory, text of its predictions.json or None for no file)
_UNREPORTABLE = [
    ("missing", None),
    ("empty", None),
    ("per_label_only", None),
    ("not_json", "{\"runs\": ["),
    ("runs_not_list", json.dumps({"runs": {}})),
    ("unknown_key", _predictions(split="test")),
    ("string_logit", _predictions(logits=[["0.5"] * 14, [-0.5] * 14])),
    ("short_logit_row", _predictions(logits=[[0.5] * 14, [-0.5] * 13])),
    ("nan_logit", _predictions(logits=[[0.5] * 13 + [float("nan")], [-0.5] * 14])),
    ("label_2", _predictions(labels=[[1] * 13 + [2], [0] * 14])),
    ("repeated_run", json.dumps({"runs": 2 * json.loads(_predictions())["runs"]})),
    ("no_runs", json.dumps({"runs": []})),
    ("one_class_labels", _predictions(labels=[[0] * 14, [0] * 14])),
]


@pytest.mark.parametrize("results,predictions", _UNREPORTABLE,
                         ids=[results for results, _ in _UNREPORTABLE])
def test_report_without_arm_results_is_one_error_line(capsys, tmp_path, results,
                                                      predictions):
    """report reads only predictions.json: without one, or with one that is
    malformed or holds no run, it exits 2 with one line and writes no
    attribution_recomputed.json."""
    (tmp_path / "empty").mkdir()
    (tmp_path / "per_label_only").mkdir()
    (tmp_path / "per_label_only" / "arm_x_per_label.csv").write_text("label,x\n")
    if predictions is not None:
        (tmp_path / results).mkdir()
        (tmp_path / results / "predictions.json").write_text(predictions)
    code, out, err = run(capsys, "report", "--results", str(tmp_path / results))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "predictions.json" in err
    assert not list(tmp_path.rglob("attribution_recomputed.json"))


def test_version_1_checkpoint_error_names_its_version(trained, capsys, tmp_path):
    _, data, _, run_dir = trained
    capsys.readouterr()
    argv = [str(a) for a in _rewritten_checkpoint("eval", _version_1)(tmp_path, data, run_dir)]
    code, _, err = run(capsys, *argv)
    assert code == 2 and "version 1" in err


def _lora_header(command, **extra):
    """The LoRA fixture's checkpoint with its header `extra` changed."""
    def make_argv(tmp_path, data, run_dir):
        return _checkpoint_header(command, **extra)(tmp_path, data,
                                                    run_dir.parent / "lora_run")
    return make_argv


@pytest.fixture(scope="module")
def vision_trained(trained):
    """One vision_only training run on the `trained` fixture's manifest."""
    root, data, _, _ = trained
    cfg = root / "vision_cfg.json"
    cfg.write_text(json.dumps({"arm": "vision_only", "train": {
        "batch": 16, "accumulation": 1, "max_epochs": 1, "patience": 5, "lr": 1e-3}}))
    out = root / "vision_run"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(out)]) == 0
    return out


def _vision_header(command, **extra):
    """The vision_only fixture's checkpoint with its header `extra` changed."""
    def make_argv(tmp_path, data, run_dir):
        return _checkpoint_header(command, **extra)(tmp_path, data,
                                                    run_dir.parent / "vision_run")
    return make_argv


def _allocates_below(nbytes, make_argv):
    """`make_argv`, whose run must allocate less than `nbytes` at its peak."""
    make_argv.allocates_below = nbytes
    return make_argv


@pytest.mark.parametrize("make_argv", [
    pytest.param(_checkpoint_header("eval", fusion={"shared_dim": 1024}), id="shared_dim"),
    # a (2048, 4096) vision projection would take 64 MiB
    pytest.param(_says("stored array fusion/vision_proj/w has shape (2048, 32), "
                       "the model's is (2048, 4096)",
                       _allocates_below(2048 * 4096 * 8 // 4, _checkpoint_header(
                           "eval", fusion={"shared_dim": 4096}))),
                 id="shared_dim_4096"),
    pytest.param(_checkpoint_header("calibrate", fusion={"head_hidden": 4096}),
                 id="head_hidden"),
    # the widths the data contract fixes are no fusion keys
    pytest.param(_says("checkpoint header: unknown fusion keys: ['text_in']",
                       _checkpoint_header("eval", fusion={"text_in": 10**6})), id="text_in"),
    pytest.param(_says("checkpoint header: unknown fusion keys: ['num_labels']",
                       _checkpoint_header("eval", fusion={"num_labels": 10**6})),
                 id="num_labels"),
    pytest.param(_lora_header("eval", lora={"rank": 64}), id="lora_rank"),
    # a policy whose injected parameters the checkpoint does not hold
    pytest.param(_says("no stored array at text_encoder/block0/attn/wq/lora_a",
                       _checkpoint_header("eval", policy="lora", lora={"rank": 64})),
                 id="lora_rank_without_factors"),
    pytest.param(_checkpoint_header("calibrate", policy="adapter",
                                    adapter={"bottleneck": 10**5}),
                 id="adapter_without_slots"),
    # only full_pet takes a fusion, as train's config says
    pytest.param(_says("arm kind 'vision_only' takes no fusion override; only full_pet does",
                       _vision_header("eval", fusion={"shared_dim": 1024})),
                 id="vision_only_fusion"),
    # a section the policy does not read, as train's config says
    pytest.param(_says("arm 'full_pet' with policy 'frozen' would ignore config "
                       "section 'lora'", _checkpoint_header("eval", lora={"rank": 4})),
                 id="frozen_lora_section"),
    pytest.param(_says("arm 'full_pet' with policy 'lora' would ignore config "
                       "section 'adapter'",
                       _lora_header("calibrate", adapter={"bottleneck": 8})),
                 id="lora_adapter_section"),
    pytest.param(_says("arm 'vision_only' with policy 'frozen' would ignore config "
                       "section 'lora'", _vision_header("eval", lora={"rank": 4})),
                 id="vision_only_lora_section"),
])
def test_header_sizes_are_checked_before_a_model_is_built(make_argv, trained, lora_trained,
                                                          vision_trained, capsys, tmp_path,
                                                          monkeypatch):
    """A header that claims other sizes than its arrays hold exits 2 with one
    error line, and no model of the claimed sizes is built: the restore
    draws no trainable weight, and each stored array's shape is checked
    before an array of the claimed shape is allocated."""
    _, data, _, run_dir = trained
    drawn = []
    add_drawn = ModelGraph.add_drawn

    def counting(self, name, shape, draw):
        return add_drawn(self, name, shape, lambda shape: drawn.append(name) or draw(shape))

    monkeypatch.setattr(ModelGraph, "add_drawn", counting)
    assert main(["count-params"]) == 0 and drawn  # the patch bites
    drawn.clear()
    capsys.readouterr()
    argv = [str(a) for a in make_argv(tmp_path, data, run_dir)]
    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert getattr(make_argv, "says", "") in err
    assert f"{argv[argv.index('--checkpoint') + 1]}: " in err
    assert drawn == []
    assert peak < getattr(make_argv, "allocates_below", float("inf"))


@pytest.mark.parametrize("command", ["eval", "calibrate"])
@pytest.mark.parametrize("value", [float("inf"), 1e300, -1e300])
def test_a_weight_that_is_not_finite_or_overflows_is_one_error_line(
        trained, capsys, tmp_path, command, value):
    """A non-finite stored weight is refused on load, and one too large for
    the forward pass stops it; neither prints a numpy warning."""
    _, data, _, run_dir = trained
    capsys.readouterr()
    header, blobs = _split_checkpoint((run_dir / "checkpoint.bin").read_bytes())
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.write_bytes(_join_checkpoint(header, struct.pack("<d", value) + blobs[8:]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, "--checkpoint", str(ckpt), "--data", str(data))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# ------------------------------------------------------------- fuzzed inputs

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats(-1e6, 1e6)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                              max_size=3),
    max_leaves=6)


def _malformed_row(record):
    """Strategy for a manifest line that no manifest may hold, derived from
    a valid record."""
    def without(key):
        return {k: v for k, v in record.items() if k != key}

    def with_value(key, value):
        return json.dumps(dict(record, **{key: value})).encode()

    return st.one_of(
        st.binary(min_size=1, max_size=6).map(lambda b: b"\xff" + b),  # not UTF-8
        st.text(max_size=8).map(lambda t: ("{" + t).encode()),          # not JSON
        _JSON.filter(lambda v: not isinstance(v, dict)).map(lambda v: json.dumps(v).encode()),
        st.sampled_from(["id", "patient_id", "text", "labels"])
        .map(lambda k: json.dumps(without(k)).encode()),
        st.just(json.dumps(dict(record, extra=1)).encode()),
        _JSON.filter(lambda v: not isinstance(v, str)).map(lambda v: with_value("text", v)),
        _JSON.filter(lambda v: not isinstance(v, list)).map(lambda v: with_value("labels", v)),
        st.lists(st.integers(0, 1), max_size=20).filter(lambda v: len(v) != len(LABELS))
        .map(lambda v: with_value("labels", v)),
        st.sampled_from([None, "0", [0.0], float("nan"), float("inf"), -float("inf")])
        .map(lambda bad: with_value("vision_features", [0.5] * 2047 + [bad])),
        st.integers(0, 2049).filter(lambda n: n != 2048)
        .map(lambda n: with_value("vision_features", [0.5] * n)),
    )


def _corrupt_checkpoint(raw):
    """Strategy for (bytes, must_fail): the checkpoint with bytes of its header
    or its arrays overwritten, or cut short or extended. An overwrite can
    leave a valid checkpoint (a digit of a statistic, a parameter's bits), so
    only a cut or an extension must fail."""
    hlen = int.from_bytes(raw[8:16], "little")

    def overwrite(lo, hi):
        return st.tuples(st.integers(lo, hi - 1), st.binary(min_size=1, max_size=8)).map(
            lambda t: (raw[:t[0]] + t[1] + raw[t[0] + len(t[1]):], False))

    return st.one_of(
        overwrite(16, 16 + hlen), overwrite(16 + hlen, len(raw)),
        st.integers(0, len(raw) - 1).map(lambda n: (raw[:n], True)),
        st.binary(min_size=1, max_size=16).map(lambda b: (raw + b, True)),
    )


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.data())
def test_fuzzed_checkpoint_or_manifest_never_escapes_the_error_surface(
        trained, capsys, tmp_path_factory, case):
    """eval and calibrate on a corrupted checkpoint or a manifest with one
    malformed row either succeed or exit 2 with one `error:` line; no
    exception escapes `main`."""
    _, data, _, run_dir = trained
    work = tmp_path_factory.mktemp("fuzz")
    ckpt, manifest = work / "checkpoint.bin", work / "data.jsonl"
    raw = (run_dir / "checkpoint.bin").read_bytes()
    lines = data.read_bytes().splitlines(keepends=True)
    if case.draw(st.booleans(), label="corrupt the manifest"):
        i = case.draw(st.integers(0, len(lines) - 1), label="row")
        row = case.draw(_malformed_row(json.loads(lines[i])), label="malformed row")
        lines[i] = row + b"\n"
        must_fail = True
    else:
        raw, must_fail = case.draw(_corrupt_checkpoint(raw), label="checkpoint")
    ckpt.write_bytes(raw)
    manifest.write_bytes(b"".join(lines))
    command = case.draw(st.sampled_from(["eval", "calibrate"]), label="command")
    capsys.readouterr()
    code, out, err = run(capsys, command, "--checkpoint", str(ckpt),
                         "--data", str(manifest))
    if code == 0 and not must_fail:
        json.loads(out)
    else:
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


# -------------------------------------------------------------- audit + plan


def test_audit_leakage_cli(capsys, tmp_path):
    data = tmp_path / "data.jsonl"
    run(capsys, "gen-data", "--patients", "40", "--seed", "6",
        "--out", str(data))
    out = tmp_path / "audit.json"
    code, stdout, _ = run(capsys, "audit-leakage", "--data", str(data),
                          "--seed", "0", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) >= {"auroc_raw", "auroc_redacted", "delta"}


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs 2 usable cores to run BLAS on 2 threads")
def test_audit_leakage_bytes_do_not_depend_on_the_blas_thread_count(capsys, tmp_path):
    """audit-leakage on the leakage benchmark's corpus size writes and
    prints the same bytes in a child process at 1 and at 2 OpenBLAS
    threads."""
    data = tmp_path / "data.jsonl"
    run(capsys, "gen-data", "--patients", "400", "--seed", "7", "--out", str(data))
    src = str(Path(petfuse.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"audit{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from petfuse.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "audit-leakage", "--data", str(data),
             "--seed", "7", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        outputs.append((out.read_bytes(), proc.stdout))
    assert outputs[0] == outputs[1]


def test_a_test_split_without_both_classes_names_the_run(capsys, tmp_path):
    """With every test label 0 no test AUROC is defined: attribute and report
    each exit 2 with one line naming predictions.json and the run."""
    data, plan, results = tmp_path / "data.jsonl", tmp_path / "plan.json", tmp_path / "res"
    samples = generate_synthetic(n_patients=40, seed=1)
    _, _, test = split_patients(samples, SplitSpec())
    for s in test:
        s.labels = [0] * len(LABELS)
    save_manifest(data, samples)
    plan.write_text(json.dumps({"arms": [{"kind": "vision_only"}],
                                "train": {"accumulation": 1, "max_epochs": 1}}))
    want = (f"error: {results / 'predictions.json'}: run vision_only/seed0: "
            "macro average over zero valid labels\n")
    code, out, err = run(capsys, "attribute", "--plan", str(plan), "--data", str(data),
                         "--out", str(results))
    assert (code, out, err) == (2, "", want)
    code, out, err = run(capsys, "report", "--results", str(results))
    assert (code, out, err) == (2, "", want)


def test_attribute_and_report(capsys, tmp_path):
    data = tmp_path / "data.jsonl"
    run(capsys, "gen-data", "--patients", "30", "--seed", "8",
        "--out", str(data))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "arms": [
            {"kind": "vision_only", "seeds": [0]},
            {"kind": "budget_matched", "seeds": [0]},
        ],
        "train": {"batch": 16, "accumulation": 1, "max_epochs": 1,
                  "patience": 5, "lr": 1e-3},
    }))
    results = tmp_path / "results"
    code, stdout, _ = run(capsys, "attribute", "--plan", str(plan),
                          "--data", str(data), "--out", str(results))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["fusion_effect"] is not None
    # report rewrites every table from predictions.json alone, byte for byte
    tables = {path.name: path.read_bytes() for path in results.glob("*.csv")}
    assert len(tables) == 6
    for path in results.glob("*.csv"):
        path.unlink()
    code, stdout, _ = run(capsys, "report", "--results", str(results))
    assert code == 0
    assert {path.name: path.read_bytes() for path in results.glob("*.csv")} == tables
    del doc["failures"]
    assert json.loads(stdout) == doc
    assert json.loads((results / "attribution_recomputed.json").read_text()) == doc
