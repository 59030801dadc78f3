"""End-to-end CLI behaviour: exit codes, artifacts, determinism."""

import json
import struct
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from petfuse import harness
from petfuse.cli import main
from petfuse.data import LABELS, SplitSpec, load_manifest, split_patients
from petfuse.training import load_checkpoint


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("petfuse ")
    assert "build" in out


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
    _, _, _, out = trained
    capsys.readouterr()
    assert (out / "checkpoint.bin").exists()
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
    assert 0.0 <= doc["ece_before"] <= 1.0
    assert 0.0 <= doc["ece_after"] <= 1.0


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


def _four_patients(tmp_path, data, run_dir):
    """A valid manifest whose one-patient validation split leaves no label
    with both classes, so validation AUROC is undefined."""
    manifest = tmp_path / "four.jsonl"
    assert main(["gen-data", "--patients", "4", "--out", str(manifest)]) == 0
    return ["train", "--data", manifest, "--out", tmp_path / "run"]


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


def _plan(doc):
    def make_argv(tmp_path, data, run_dir):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"arms": [{"kind": "vision_only"}], **doc}))
        return ["attribute", "--plan", plan, "--data", data, "--out", tmp_path / "res"]
    return make_argv


def _config(doc, command="train"):
    def make_argv(tmp_path, data, run_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        if command == "count-params":
            return ["count-params", "--config", cfg]
        return ["train", "--config", cfg, "--data", data, "--out", tmp_path / "run"]
    return make_argv


def _split_checkpoint(raw):
    """(header dict, array bytes) of a checkpoint file's contents."""
    hlen = int.from_bytes(raw[8:16], "little")
    return json.loads(raw[16:16 + hlen]), raw[16 + hlen:]


def _join_checkpoint(header, blobs):
    hbytes = json.dumps(header).encode()
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


def _vision_stat(key, value):
    def edit(state):
        state["normalizers"]["vision"][key] = value
    return edit


def _version_1(header):
    """A version-1 header: no stored vocabulary or normalizers."""
    del header["state"]
    header["version"] = 1


def _trailing_bytes(tmp_path, data, run_dir):
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.write_bytes((run_dir / "checkpoint.bin").read_bytes() + b"\0" * 8)
    return ["calibrate", "--checkpoint", ckpt, "--data", data]


@pytest.mark.parametrize("make_argv", [
    _arm_without_kind, _malformed_plan, _malformed_signal_plan, _lora_rank_zero,
    _truncated_checkpoint, _checkpoint_cut_in_header, _duplicate_id, _four_patients,
    pytest.param(_without_vision("train"), id="train_without_vision"),
    pytest.param(_without_vision("attribute"), id="attribute_without_vision"),
    # plan sections go through the config checks
    pytest.param(_plan({"split": {"bogus": 1}}), id="plan_split_unknown_key"),
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
    pytest.param(_plan({"arms": [{"kind": "vision_only", "name": ["a"]}]}),
                 id="arm_name_list"),
    pytest.param(_plan({"arms": [{"kind": "vision_only", "budget_target": "1000"}]}),
                 id="budget_target_str"),
    # config values are type-checked, and a section must be an object
    pytest.param(_config({"lora": {"rank": "4"}, "policy": "lora"}), id="lora_rank_str"),
    pytest.param(_config({"fusion": {"shared_dim": 1.5}}), id="shared_dim_float"),
    pytest.param(_config({"train": {"batch": True}}), id="batch_bool"),
    pytest.param(_config({"lora": [1]}), id="lora_not_object"),
    pytest.param(_config({"train": "ab"}), id="train_not_object"),
    pytest.param(_config({"total_params_declared": "x"}, "count-params"),
                 id="declared_total_str"),
    # an arm kind rejects overrides it would ignore
    pytest.param(_plan({"arms": [{"kind": "vision_only", "policy": "lora"}]}),
                 id="vision_only_policy"),
    pytest.param(_plan({"arms": [{"kind": "budget_matched", "policy": "adapter"}]}),
                 id="budget_matched_policy"),
    pytest.param(_plan({"arms": [{"kind": "vision_only", "fusion": {"shared_dim": 8}}]}),
                 id="vision_only_fusion"),
    pytest.param(_plan({"arms": [{"kind": "full_pet", "fusion": {"bogus": 1}}]}),
                 id="arm_fusion_unknown_key"),
    pytest.param(_config({"arm": "vision_only", "policy": "lora"}),
                 id="train_vision_only_policy"),
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
    # a checkpoint that does not fit its own header
    pytest.param(_checkpoint_header("eval", policy="lora"), id="eval_missing_lora"),
    pytest.param(_checkpoint_header("calibrate", policy="bitfit"),
                 id="calibrate_missing_biases"),
    pytest.param(_checkpoint_header("eval", fusion={"shared_dim": 16}),
                 id="eval_shape_mismatch"),
    pytest.param(_checkpoint_header("calibrate", fusion={"head_hidden": 8}),
                 id="calibrate_shape_mismatch"),
    pytest.param(_checkpoint_header("eval", fusion=[32]), id="eval_fusion_not_object"),
    pytest.param(_checkpoint_header("eval", seed="0"), id="eval_seed_str"),
    pytest.param(_rewritten_checkpoint("eval", lambda h: h.pop("extra")),
                 id="eval_no_extra"),
    pytest.param(_rewritten_checkpoint("eval", lambda h: h["extra"].pop("seed")),
                 id="header_without_seed"),
    pytest.param(_rewritten_checkpoint("calibrate", lambda h: h["extra"].pop("lora")),
                 id="header_without_lora"),
    pytest.param(_rewritten_checkpoint("eval", lambda h: h["extra"].pop("adapter")),
                 id="header_without_adapter"),
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
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_version_1_checkpoint_error_names_its_version(trained, capsys, tmp_path):
    _, data, _, run_dir = trained
    capsys.readouterr()
    argv = [str(a) for a in _rewritten_checkpoint("eval", _version_1)(tmp_path, data, run_dir)]
    code, _, err = run(capsys, *argv)
    assert code == 2 and "version 1" in err


def _lora_header(command, **lora):
    """The LoRA fixture's checkpoint with its header's lora section changed."""
    def make_argv(tmp_path, data, run_dir):
        return _checkpoint_header(command, lora=lora)(tmp_path, data,
                                                      run_dir.parent / "lora_run")
    return make_argv


@pytest.mark.parametrize("make_argv", [
    pytest.param(_checkpoint_header("eval", fusion={"shared_dim": 1024}), id="shared_dim"),
    pytest.param(_checkpoint_header("calibrate", fusion={"head_hidden": 4096}),
                 id="head_hidden"),
    pytest.param(_checkpoint_header("eval", fusion={"text_in": 10**6}), id="text_in"),
    pytest.param(_checkpoint_header("eval", fusion={"num_labels": 10**6}), id="num_labels"),
    pytest.param(_lora_header("eval", rank=64), id="lora_rank"),
    # a policy whose injected parameters the checkpoint does not hold
    pytest.param(_checkpoint_header("eval", policy="lora", lora={"rank": 64}),
                 id="lora_rank_without_factors"),
    pytest.param(_checkpoint_header("calibrate", policy="adapter",
                                    adapter={"bottleneck": 10**5}),
                 id="adapter_without_slots"),
])
def test_header_sizes_are_checked_before_a_model_is_built(make_argv, trained, lora_trained,
                                                          capsys, tmp_path, monkeypatch):
    """A header that claims a larger model than its arrays hold exits 2
    before any model is allocated at the claimed size."""
    _, data, _, run_dir = trained
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(harness, "MultimodalModel", refuse)
    with pytest.raises(AssertionError, match="a model was built"):  # the patch bites
        main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"), "--data", str(data)])
    capsys.readouterr()
    argv = [str(a) for a in make_argv(tmp_path, data, run_dir)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


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
        st.sampled_from([None, "0", [0.0]])
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


def test_attribute_and_report(capsys, tmp_path):
    data = tmp_path / "data.jsonl"
    run(capsys, "gen-data", "--patients", "30", "--seed", "8",
        "--out", str(data))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "arms": [
            {"kind": "vision_only", "seeds": [0]},
            {"kind": "budget_matched", "seeds": [0],
             "fusion": {"shared_dim": 32, "head_hidden": 16,
                        "dropout_p": 0.0}},
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
    code, stdout, _ = run(capsys, "report", "--results", str(results))
    assert code == 0
    recomputed = json.loads(stdout)
    assert recomputed["fusion_effect"] == pytest.approx(doc["fusion_effect"],
                                                        abs=1e-6)
    assert (results / "attribution_recomputed.json").exists()
