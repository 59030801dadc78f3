#!/usr/bin/env python3
"""Raw against redacted reports on criterion 10's planted-signal corpus.

    PYTHONPATH=src python3 scripts/reproduce.py --out DIR

Writes DIR/raw.jsonl, then runs each step through `petfuse.cli.main`:
`redact` to DIR/redacted.jsonl, `attribute` with DIR/plan.json on each
manifest to DIR/raw/ and DIR/redacted/, and `audit-leakage` on the raw
manifest at each arm seed. DIR/reproduction.json holds the commands' own
JSON output, {"raw": ..., "redacted": ..., "leakage": {seed: ...}}, and is
printed. A command that exits non-zero stops the script.

DIR/timings.json, a sidecar that is neither printed nor part of
reproduction.json, holds the wall seconds of generating and saving the
corpus (`generate_s`), of each command in the order run (`commands`, each
{"argv": [...], "wall_s": ...}), and the process's peak RSS in MB.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from petfuse import cli, data

# criterion 10's corpus: labels 1-5 carry signal in the text only, the rest
# in the vision features only
PATIENTS = 500
CORPUS_SEED = 0
LEAK_PROB = 0.9
SIGNAL_STRENGTH = 4.0
PREVALENCE = 0.25
TEXT_LABELS = 5
# criterion 10's arms and training recipe
ARMS = ("vision_only", "budget_matched", "full_pet")
SEEDS = [0, 1, 2]
TRAIN = {"batch": 16, "accumulation": 1, "max_epochs": 12, "patience": 4,
         "lr": 3e-3, "weight_decay": 1e-6, "clip_norm": 10.0}


def petfuse(commands, *argv) -> str:
    """The stdout of one petfuse command, whose argv and wall seconds are
    appended to `commands`; SystemExit naming it if it fails."""
    argv = [str(a) for a in argv]
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    commands.append({"argv": argv, "wall_s": time.perf_counter() - start})
    if code != 0:
        raise SystemExit(f"reproduce: petfuse {' '.join(argv)} exited {code}")
    return out.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True, help="output directory")
    out = ap.parse_args(argv).out
    out.mkdir(parents=True, exist_ok=True)
    signal_plan = {name: "text" if i < TEXT_LABELS else "vision"
                   for i, name in enumerate(data.LABELS)}
    start = time.perf_counter()
    data.save_manifest(out / "raw.jsonl", data.generate_synthetic(
        PATIENTS, seed=CORPUS_SEED, leak_prob=LEAK_PROB, signal_plan=signal_plan,
        signal_strength=SIGNAL_STRENGTH,
        prevalence_profile=[PREVALENCE] * len(data.LABELS)))
    generate_s, commands = time.perf_counter() - start, []
    petfuse(commands, "redact", "--in", out / "raw.jsonl", "--out", out / "redacted.jsonl")
    (out / "plan.json").write_text(json.dumps(
        {"arms": [{"kind": kind, "seeds": SEEDS} for kind in ARMS], "train": TRAIN}))
    doc = {reports: json.loads(petfuse(commands, "attribute", "--plan", out / "plan.json",
                                       "--data", out / f"{reports}.jsonl",
                                       "--out", out / reports))
           for reports in ("raw", "redacted")}
    doc["leakage"] = {seed: json.loads(petfuse(commands, "audit-leakage",
                                               "--data", out / "raw.jsonl", "--seed", seed))
                      for seed in SEEDS}
    text = json.dumps(doc, indent=2, sort_keys=True)
    (out / "reproduction.json").write_text(text + "\n")
    timings = {"generate_s": generate_s, "commands": commands,
               # ru_maxrss is in KB on Linux
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    (out / "timings.json").write_text(json.dumps(timings, indent=2) + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
