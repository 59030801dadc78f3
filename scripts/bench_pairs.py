#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised in one JSON.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --first-seed 601 --pairs 10 --out BENCH_6.json

Pair i runs `python3 perfbench/workloads.py --workload W --seed S --seconds T
--trace 0` once in each checkout, for every workload W of the change's
BENCHMARK.json in turn, with seed S = first seed + i and T its
`run_seconds`; the parent runs first on even pairs and the change first on
odd ones. Before any run, each checkout is copied into a fresh temporary
directory, without `.git`, `.perfbench_work` or caches, so the two sides
run from directories made the same way (a git clone and a plain copy of the
same sources have been measured 5% apart). Each run is a fresh process with
its copy as working directory, so it benchmarks that checkout's sources with
that checkout's benchmark. The script reads each run's last stdout line and
its `.perfbench_work/<workload>.result.json` (for the environment stamp and
the phase floors that sum to `run_s`); it never imports or edits the
benchmark. Each side's commit is read from
the checkout itself, since the copy has no `.git`.

The output holds, per workload and end-to-end metric, every run, each
side's median and quartiles (`statistics.quantiles(n=4,
method='inclusive')`), the change's wins (ties count for neither), the
parent's interquartile range, whether the change's median is within the
metric's bound in BENCHMARK.json, and whether the metric is `unresolved`:
either side's interquartile range exceeds the bound times the parent's
median, and not every change run is better than every parent run, so a
median within the bound does not show the change unchanged; and per
workload, each side's share of failed operations over all its runs and
whether the change's is no larger,
the seed and failure messages of each run that failed an operation
(`failures_<side>`, so that a benchmark-side check failing on a working
program can be told from a program fault), and each side's median and
quartiles of every phase's floor (`phases`), so that a change in `run_s`
can be placed in the phase it comes from.
A gain is claimable when the change wins
at least nine tenths of the pairs and the medians differ, in its favour, by
more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ENV_KEYS = ("cores", "cores_usable", "machine", "python", "numpy", "blas",
            "blas_threads")
# What a copy of a checkout leaves out: git metadata, benchmark output, caches.
NOT_COPIED = (".git", ".perfbench_work", "__pycache__", ".pytest_cache",
              ".hypothesis", ".benchmarks")


def fresh_copy(checkout: Path, dest: Path) -> Path:
    """Copy `checkout` to the new directory `dest`, leaving out NOT_COPIED."""
    shutil.copytree(checkout, dest, ignore=shutil.ignore_patterns(*NOT_COPIED))
    return dest


def head_commit(checkout: Path) -> str | None:
    """The commit checked out in `checkout`; None outside a git repository."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/workloads.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    doc = json.loads(lines[-1])
    result = json.loads((checkout / ".perfbench_work" / f"{workload}.result.json")
                        .read_text())
    return {"seed": seed, "correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"], "failures": result["failures"],
            "environment": result["environment"],
            "phases": result["phase_floor_s"],
            "metrics": {k: v["value"] for k, v in doc["metrics"].items()}}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ps, cs = summary(parent), summary(change)
    iqr = ps["q3"] - ps["q1"]
    gain = sign * (ps["median"] - cs["median"])
    worse_by = -gain / ps["median"] if ps["median"] else 0.0
    # a spread wider than the bound cannot tell a shift within it from noise,
    # unless every change run is better than every parent run
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    unresolved = (max(iqr, cs["q3"] - cs["q1"]) > spec["bound"] * abs(ps["median"])
                  and not every_run_better)
    return {"better": spec["better"], "bound": spec["bound"], "parent": ps,
            "change": cs, "change_wins": wins, "pairs": len(parent),
            "median_ratio_change_over_parent":
                cs["median"] / ps["median"] if ps["median"] else None,
            "parent_iqr": iqr,
            "gain_claimable": wins >= 0.9 * len(parent) and gain > iqr,
            "within_bound": worse_by <= spec["bound"],
            "unresolved": unresolved}


def failure_shares(parent: list[dict], change: list[dict]) -> dict:
    """Each side's share of failed operations over all its runs (failed over
    attempted), and whether the change's share is no larger than the
    parent's."""
    def share(runs):
        attempted = sum(r["attempted"] for r in runs)
        return sum(r["failed"] for r in runs) / attempted if attempted else 0.0

    p, c = share(parent), share(change)
    return {"failed_share_parent": p, "failed_share_change": c,
            "failed_share_no_larger": c <= p}


def failed_runs(runs: list[dict]) -> list[dict]:
    """The seed and failure messages of each run that failed an operation."""
    return [{"seed": r["seed"], "failures": r["failures"]} for r in runs if r["failed"]]


def phase_summaries(parent: list[dict], change: list[dict]) -> dict:
    """phase -> side -> `summary` of that phase's floor over the side's runs,
    for each phase that every run of both sides reports."""
    runs = parent + change
    phases = [k for k in runs[0]["phases"] if all(k in r["phases"] for r in runs)]
    return {k: {side: summary([r["phases"][k] for r in side_runs])
                for side, side_runs in (("parent", parent), ("change", change))}
            for k in phases}


def run_pairs(sides: dict, workloads: list, first_seed: int, pairs: int,
              seconds: float) -> dict:
    """workload -> side -> the runs of every pair, alternating which side
    runs first."""
    runs = {w: {side: [] for side in sides} for w in workloads}
    for i in range(pairs):
        seed = first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                r = run_once(sides[side], w, seed, seconds)
                runs[w][side].append(r)
                print(f"pair {i + 1}/{pairs} seed {seed} {w} {side}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in r["metrics"].items())
                      + ("" if r["correct"] else f" FAILED {r['failed']}/{r['attempted']}"),
                      flush=True)
    return runs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="parent checkout")
    p.add_argument("--change", type=Path, required=True, help="change checkout")
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--what", default="", help="one line on what the change does")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {side: fresh_copy(path, Path(tmp) / side)
                 for side, path in checkouts.items()}
        runs = run_pairs(sides, workloads, args.first_seed, args.pairs, seconds)

    first = runs[workloads[0]]
    doc = {
        "what": args.what,
        "commits": {side: head_commit(path) for side, path in checkouts.items()},
        "source_sha256": {side: first[side][0]["environment"]["source_sha256"]
                          for side in sides},
        "environment": {k: first["change"][0]["environment"][k] for k in ENV_KEYS},
        "command": f"python3 perfbench/workloads.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "pairs": f"{args.pairs} per workload, seeds {args.first_seed}-"
                 f"{args.first_seed + args.pairs - 1}; the parent ran first on even "
                 f"pairs, the change first on odd ones; each run a fresh process "
                 f"in a fresh copy of its checkout",
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "workloads": {},
    }
    for w in workloads:
        entry = {name: compare(metrics[name],
                               [r["metrics"][name] for r in runs[w]["parent"]],
                               [r["metrics"][name] for r in runs[w]["change"]])
                 for name in metrics}
        for side in sides:
            entry[f"failed_ops_{side}"] = [[r["failed"], r["attempted"]]
                                           for r in runs[w][side]]
            entry[f"failures_{side}"] = failed_runs(runs[w][side])
        entry.update(failure_shares(runs[w]["parent"], runs[w]["change"]))
        entry["phases"] = phase_summaries(runs[w]["parent"], runs[w]["change"])
        doc["workloads"][w] = entry
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for w in workloads:
        for name in metrics:
            c = doc["workloads"][w][name]
            print(f"{w:<20} {name:<20} parent {c['parent']['median']:<10.4g} "
                  f"change {c['change']['median']:<10.4g} wins {c['change_wins']}/"
                  f"{c['pairs']} iqr {c['parent_iqr']:.3g} "
                  f"claimable {c['gain_claimable']} within_bound {c['within_bound']}"
                  f" unresolved {c['unresolved']}")
        e = doc["workloads"][w]
        for phase, by_side in e["phases"].items():
            print(f"{w:<20} {'phase ' + phase:<20} parent "
                  f"{by_side['parent']['median']:<10.4g} change "
                  f"{by_side['change']['median']:<10.4g}")
        print(f"{w:<20} {'failed_share':<20} parent {e['failed_share_parent']:<10.4g} "
              f"change {e['failed_share_change']:<10.4g} "
              f"no_larger {e['failed_share_no_larger']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
