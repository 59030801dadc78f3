"""scripts/artifacts: the seeded artifact set, run twice into two
directories, gives byte-identical digests.json files."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "artifacts.py"
_SPEC = importlib.util.spec_from_file_location("artifacts", _PATH)
artifacts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifacts)


def test_two_runs_write_identical_digests(tmp_path, capsys):
    for name in ("a", "b"):
        assert artifacts.main(["--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    first, second = ((tmp_path / name / "digests.json").read_bytes() for name in "ab")
    assert first == second
    digests = json.loads(first)
    for arm, policy in artifacts.RUNS:
        run = f"{arm}_{policy}"
        assert {f"{run}/{f}" for f in ("checkpoint.bin", "history.csv", "eval.json",
                                       "calibrate.json")} <= set(digests["files"])
    assert "attribution/predictions.json" in digests["files"]
    # each train, eval, calibrate and count-params pair per run, and 7 more
    assert len(digests["stdout"]) == 5 * len(artifacts.RUNS) + 7
