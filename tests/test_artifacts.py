"""scripts/artifacts: the seeded artifact set, run twice into two
directories, gives byte-identical digests.json files, and --against names
each entry that differs from another digests.json."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "artifacts.py"
_SPEC = importlib.util.spec_from_file_location("artifacts", _PATH)
artifacts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifacts)


def test_two_runs_write_identical_digests(tmp_path, capsys):
    """The second run is compared against the first's digests with three
    entries altered: one file digest changed, one stdout entry dropped and one
    file entry added. It names exactly those three and exits 1."""
    assert artifacts.main(["--out", str(tmp_path / "a")]) == 0
    digests = json.loads((tmp_path / "a" / "digests.json").read_text())
    altered = json.loads(json.dumps(digests))
    altered["files"]["audit.json"] = "0" * 64
    dropped = sorted(altered["stdout"])[0]
    del altered["stdout"][dropped]
    altered["files"]["extra.json"] = "0" * 64
    (tmp_path / "altered.json").write_text(json.dumps(altered))
    capsys.readouterr()
    assert artifacts.main(["--out", str(tmp_path / "b"),
                           "--against", str(tmp_path / "altered.json")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "artifacts: files 'audit.json': differs",
        "artifacts: files 'extra.json': only in the digests compared against",
        f"artifacts: stdout {dropped!r}: only in this run"]
    first, second = ((tmp_path / name / "digests.json").read_bytes() for name in "ab")
    assert first == second
    for arm, policy in artifacts.RUNS:
        run = f"{arm}_{policy}"
        assert {f"{run}/{f}" for f in ("checkpoint.bin", "history.csv", "eval.json",
                                       "calibrate.json")} <= set(digests["files"])
    assert "attribution/predictions.json" in digests["files"]
    # each train, eval, calibrate and count-params pair per run, and 7 more
    assert len(digests["stdout"]) == 5 * len(artifacts.RUNS) + 7
    assert artifacts.differences(digests, digests) == []
