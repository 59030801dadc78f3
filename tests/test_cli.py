"""End-to-end CLI behaviour: exit codes, artifacts, determinism."""

import json

import pytest

from petfuse.cli import main
from petfuse.data import LABELS, load_manifest
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


def test_train_honours_lora_config(trained, capsys, tmp_path):
    _, data, _, _ = trained
    capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "arm": "full_pet", "policy": "lora", "lora": {"rank": 4},
        "fusion": {"shared_dim": 32, "head_hidden": 16, "dropout_p": 0.0},
        "train": {"batch": 16, "accumulation": 1, "max_epochs": 1,
                  "patience": 5, "lr": 1e-3},
    }))
    out = tmp_path / "run"
    code, _, _ = run(capsys, "train", "--config", str(cfg), "--data", str(data),
                     "--out", str(out))
    assert code == 0
    header, arrays = load_checkpoint(out / "checkpoint.bin")
    assert header["extra"]["lora"] == {"rank": 4, "alpha": 32.0}
    assert {a.shape for k, a in arrays.items() if k.endswith("/lora_a")} == {(128, 4)}
    code, _, _ = run(capsys, "eval", "--checkpoint", str(out / "checkpoint.bin"),
                     "--data", str(data))
    assert code == 0


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


@pytest.mark.parametrize("make_argv", [_arm_without_kind, _malformed_plan,
                                       _malformed_signal_plan, _lora_rank_zero,
                                       _truncated_checkpoint, _checkpoint_cut_in_header])
def test_malformed_input_is_one_line_runtime_error(make_argv, trained, capsys,
                                                   tmp_path):
    _, data, _, run_dir = trained
    capsys.readouterr()
    argv = [str(a) for a in make_argv(tmp_path, data, run_dir)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
