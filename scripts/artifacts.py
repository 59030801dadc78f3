#!/usr/bin/env python3
"""The seeded artifact set of every petfuse command, and its digests.

    PYTHONPATH=src python3 scripts/artifacts.py --out DIR [--against DIGESTS]

Runs through `petfuse.cli.main`, inside DIR and with paths relative to it:
`gen-data`, plain and with a signal plan; `redact` and `audit-leakage`;
for each arm and policy of the README's count-params table, `train`, `eval`
on the training manifest, `calibrate` on the redacted one and
`count-params` (text and --json); a bare `count-params`; `attribute` on
the triad at two seeds; and `report`. DIR/digests.json holds the SHA-256
of every file the commands wrote and of each command's stdout, and is
printed. `history.csv` is hashed without its `seconds` column, the one
value that is not seeded. Two checkouts make the same artifacts when their
digests.json files are byte-identical. With --against, a digests.json of
another checkout, the script then names on stderr every `files` or
`stdout` entry that differs from it or that only one side holds, and exits
1 if there is one. A command that exits non-zero stops the script.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from petfuse import cli
from petfuse.data import LABELS

PATIENTS = 60
# the README's count-params table, each row with its default model sections
RUNS = [("vision_only", "frozen"), ("budget_matched", "frozen"), ("full_pet", "frozen"),
        ("full_pet", "bitfit"), ("full_pet", "lora"), ("full_pet", "adapter")]
TRAIN = {"batch": 16, "accumulation": 1, "max_epochs": 2, "patience": 5, "lr": 1e-3}


def petfuse(stdout: dict, *argv) -> None:
    """Run one petfuse command and keep the SHA-256 of its stdout under its
    command line; SystemExit naming it if it fails."""
    argv = [str(a) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"artifacts: petfuse {' '.join(argv)} exited {code}")
    stdout[" ".join(argv)] = hashlib.sha256(out.getvalue().encode()).hexdigest()


def file_digest(path: Path) -> str:
    """SHA-256 of the file's bytes; of its rows without `seconds` for history.csv."""
    if path.name != "history.csv":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    seconds = rows[0].index("seconds")
    kept = [row[:seconds] + row[seconds + 1:] for row in rows]
    return hashlib.sha256(json.dumps(kept).encode()).hexdigest()


def write_json(path: str, doc) -> str:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def run_all(stdout: dict) -> None:
    """Every command of the set, in the current directory."""
    petfuse(stdout, "gen-data", "--patients", PATIENTS, "--seed", 3, "--out", "data.jsonl")
    plan = write_json("signal_plan.json",
                      {label: "text" if i < 5 else "vision" for i, label in enumerate(LABELS)})
    petfuse(stdout, "gen-data", "--patients", PATIENTS, "--seed", 4, "--signal-plan", plan,
            "--out", "signal.jsonl")
    petfuse(stdout, "redact", "--in", "data.jsonl", "--out", "redacted.jsonl")
    petfuse(stdout, "audit-leakage", "--data", "data.jsonl", "--out", "audit.json")
    for arm, policy in RUNS:
        run = f"{arm}_{policy}"
        cfg = write_json(f"{run}.json", {"arm": arm, "policy": policy, "train": TRAIN})
        petfuse(stdout, "train", "--config", cfg, "--data", "data.jsonl", "--out", run)
        ckpt = f"{run}/checkpoint.bin"
        petfuse(stdout, "eval", "--checkpoint", ckpt, "--data", "data.jsonl",
                "--out", f"{run}/eval.json")
        petfuse(stdout, "calibrate", "--checkpoint", ckpt, "--data", "redacted.jsonl",
                "--out", f"{run}/calibrate.json")
        petfuse(stdout, "count-params", "--config", cfg)
        petfuse(stdout, "count-params", "--config", cfg, "--json")
    petfuse(stdout, "count-params")
    plan = write_json("plan.json", {
        "arms": [{"kind": kind, "seeds": [0, 1]}
                 for kind in ("vision_only", "budget_matched", "full_pet")],
        "train": TRAIN})
    petfuse(stdout, "attribute", "--plan", plan, "--data", "signal.jsonl",
            "--out", "attribution")
    petfuse(stdout, "report", "--results", "attribution")


def differences(got: dict, want: dict) -> list[str]:
    """Each `files` or `stdout` entry of two digests documents whose digest
    differs, or that only one of them holds."""
    found = []
    for section in ("files", "stdout"):
        ours, theirs = got[section], want[section]
        for key in sorted(ours.keys() | theirs.keys()):
            if key not in theirs:
                found.append(f"{section} {key!r}: only in this run")
            elif key not in ours:
                found.append(f"{section} {key!r}: only in the digests compared against")
            elif ours[key] != theirs[key]:
                found.append(f"{section} {key!r}: differs")
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="directory for the artifacts")
    ap.add_argument("--against", metavar="DIGESTS",
                    help="a digests.json to compare this run's digests with")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stdout: dict[str, str] = {}
    cwd = os.getcwd()
    os.chdir(out)
    try:
        run_all(stdout)
    finally:
        os.chdir(cwd)
    files = {p.relative_to(out).as_posix(): file_digest(p)
             for p in sorted(out.rglob("*")) if p.is_file() and p.name != "digests.json"}
    digests = {"files": files, "stdout": stdout}
    text = json.dumps(digests, indent=2, sort_keys=True)
    (out / "digests.json").write_text(text + "\n")
    print(text)
    if args.against is None:
        return 0
    found = differences(digests, json.loads(Path(args.against).read_text()))
    for line in found:
        print(f"artifacts: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
