"""scripts/reproduce: the raw-against-redacted protocol at reduced size
(200 patients, one seed, 3 epochs), run end to end through the CLI.

The bounds come from the script at this size with the corpus and arm seed
set to each of 0-7 (the test runs seed 0). Mean AUROC over the five
text-signal labels: raw fusion arms 0.81-0.91, at least 0.33 above
vision_only's 0.44-0.55; redacted fusion arms 0.40-0.59. The audit's raw
probe beat its redacted one by 0.15-0.27.
"""

import csv
import importlib.util
import json
import statistics
from pathlib import Path

import pytest

from petfuse.data import LABELS

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "reproduce.py"
_SPEC = importlib.util.spec_from_file_location("reproduce", _PATH)
reproduce = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reproduce)

FUSION_ARMS = ("budget_matched", "full_pet")


def _text_label_auroc(results: Path, arm: str) -> float:
    """Mean AUROC over the text-signal labels, from the arm's per-label CSV."""
    with open(results / f"arm_{arm}_per_label.csv", newline="") as f:
        rows = {row[0]: row[1:] for row in csv.reader(f)}
    return statistics.fmean(float(v) for label in LABELS[:reproduce.TEXT_LABELS]
                            for v in rows[label])


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    out = tmp_path_factory.mktemp("reproduce")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reproduce, "PATIENTS", 200)
        mp.setattr(reproduce, "SEEDS", [0])
        mp.setattr(reproduce, "TRAIN", dict(reproduce.TRAIN, max_epochs=3))
        assert reproduce.main(["--out", str(out)]) == 0
    return out, json.loads((out / "reproduction.json").read_text())


def test_every_arm_of_both_runs_has_a_result(reproduced):
    _, doc = reproduced
    for reports in ("raw", "redacted"):
        assert doc[reports]["failures"] == {}
        assert set(doc[reports]["arm_mean_auroc"]) == set(reproduce.ARMS)


def test_vision_only_reads_no_text(reproduced):
    out, _ = reproduced
    for name in ("arm_vision_only.csv", "arm_vision_only_per_label.csv"):
        assert (out / "raw" / name).read_bytes() == (out / "redacted" / name).read_bytes()


def test_raw_reports_carry_the_text_labels(reproduced):
    out, _ = reproduced
    vision_only = _text_label_auroc(out / "raw", "vision_only")
    for arm in FUSION_ARMS:
        auroc = _text_label_auroc(out / "raw", arm)
        assert auroc >= 0.7 and auroc - vision_only >= 0.2, (arm, auroc, vision_only)


def test_redacted_reports_leave_the_text_labels_at_chance(reproduced):
    out, _ = reproduced
    for arm in FUSION_ARMS:
        assert abs(_text_label_auroc(out / "redacted", arm) - 0.5) <= 0.15, arm


def test_the_audit_probe_loses_its_signal_to_redaction(reproduced):
    _, doc = reproduced
    (audit,) = doc["leakage"].values()
    assert audit["auroc_raw"] - audit["auroc_redacted"] >= 0.08, audit


def test_the_timings_sidecar_times_generation_and_every_command(reproduced):
    """timings.json holds a positive wall time for generation and for each
    command in the order run, and the peak RSS; reproduction.json holds no
    timing."""
    out, doc = reproduced
    timings = json.loads((out / "timings.json").read_text())
    assert set(timings) == {"generate_s", "commands", "peak_rss_mb"}
    assert [c["argv"][0] for c in timings["commands"]] == \
        ["redact", "attribute", "attribute", "audit-leakage"]
    assert all(set(c) == {"argv", "wall_s"} for c in timings["commands"])
    assert timings["generate_s"] > 0 and timings["peak_rss_mb"] > 0
    assert all(c["wall_s"] > 0 for c in timings["commands"])
    assert "timings" not in json.dumps(doc) and "wall_s" not in json.dumps(doc)


def test_a_failing_command_stops_the_script_naming_it(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(reproduce, "PATIENTS", 2)  # too few patients to split
    with pytest.raises(SystemExit, match=r"^reproduce: petfuse attribute .* exited 2$"):
        reproduce.main(["--out", str(tmp_path)])
    assert not (tmp_path / "reproduction.json").exists()
