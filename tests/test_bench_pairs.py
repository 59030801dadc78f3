"""scripts/bench_pairs: `compare`, `failure_shares`, `failed_runs` and
`phase_summaries` on hand-made runs (when a gain is claimable, when a metric
stays within its bound, when its spread leaves it unresolved, when the
change's share of failed operations is no larger, which runs failed and
why, each side's quartiles of a phase), and the fresh copy each side runs
from."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

HIGHER = {"better": "higher", "bound": 0.25}
LOWER = {"better": "lower", "bound": 0.25}
# median 100, inclusive quartiles 98.25 and 101.75: an interquartile range of 3.5
PARENT = [96.0, 97.0, 98.0, 99.0, 100.0, 100.0, 101.0, 102.0, 103.0, 104.0]


def test_nine_wins_and_a_gap_beyond_the_iqr_is_claimable():
    change = [p + 10.0 for p in PARENT]
    change[0] = PARENT[0] - 1.0  # one loss
    c = bench_pairs.compare(HIGHER, PARENT, change)
    assert c["change_wins"] == 9 and c["pairs"] == 10
    assert c["parent_iqr"] == pytest.approx(3.5)
    assert c["gain_claimable"] and c["within_bound"]


def test_eight_wins_are_not_claimable():
    change = [p + 10.0 for p in PARENT]
    change[0] = change[9] = 50.0
    c = bench_pairs.compare(HIGHER, PARENT, change)
    assert c["change_wins"] == 8
    assert not c["gain_claimable"]


def test_ten_wins_inside_the_iqr_are_not_claimable():
    change = [p + 3.0 for p in PARENT]  # median gap 3 < IQR 3.5
    c = bench_pairs.compare(HIGHER, PARENT, change)
    assert c["change_wins"] == 10
    assert not c["gain_claimable"]


def test_ties_count_for_neither_side():
    c = bench_pairs.compare(LOWER, PARENT, list(PARENT))
    assert c["change_wins"] == 0
    assert not c["gain_claimable"] and c["within_bound"]
    assert c["median_ratio_change_over_parent"] == 1.0


@pytest.mark.parametrize("spec, factor, within", [
    (LOWER, 1.2, True), (LOWER, 1.3, False),      # a time 30% longer breaks 0.25
    (HIGHER, 0.8, True), (HIGHER, 0.7, False),    # a rate 30% lower breaks it too
    (LOWER, 0.5, True), (HIGHER, 2.0, True),      # a gain is always within
])
def test_within_bound_is_the_relative_loss_against_the_bound(spec, factor, within):
    c = bench_pairs.compare(spec, PARENT, [p * factor for p in PARENT])
    assert c["within_bound"] is within


# median 100 and an interquartile range of 35, wider than 0.25 of 100
WIDE = [p * 10 - 900 for p in PARENT]


@pytest.mark.parametrize("parent, change, unresolved", [
    (PARENT, PARENT, False),
    (WIDE, PARENT, True),                        # the parent's spread is too wide
    (PARENT, WIDE, True),                        # the change's spread is too wide
    (WIDE, [w - 50 for w in WIDE], True),        # better in the median only
    (WIDE, [w / 3 for w in WIDE], False),        # every change run is better
    (WIDE, [w + 100 for w in WIDE], True),       # every change run is worse
])
def test_a_spread_wider_than_the_bound_is_unresolved(parent, change, unresolved):
    """Unresolved when either side's interquartile range exceeds the bound
    times the parent's median, unless every change run is better than every
    parent run."""
    assert bench_pairs.compare(LOWER, parent, change)["unresolved"] is unresolved


def test_every_run_better_reads_the_metrics_direction():
    higher = [w + 100 for w in WIDE]
    assert not bench_pairs.compare(HIGHER, WIDE, higher)["unresolved"]
    assert bench_pairs.compare(LOWER, WIDE, higher)["unresolved"]


def _runs(*counts):
    """Hand-made runs, one (failed, attempted) pair each."""
    return [{"failed": f, "attempted": a} for f, a in counts]


def test_failure_shares_pool_each_sides_runs():
    s = bench_pairs.failure_shares(_runs((0, 10), (1, 10)), _runs((0, 5), (1, 15)))
    assert s["failed_share_parent"] == pytest.approx(0.05)
    assert s["failed_share_change"] == pytest.approx(0.05)
    assert s["failed_share_no_larger"]  # an equal share is no larger


def test_failed_runs_keep_the_seed_and_messages_of_each_failing_run():
    runs = [{"seed": 7, "failed": 0, "failures": []},
            {"seed": 8, "failed": 2, "failures": ["arm full_pet failed: boom",
                                                  "text-label AUROC 0.18 < 0.2"]},
            {"seed": 9, "failed": 1, "failures": ["exit 1"]}]
    assert bench_pairs.failed_runs(runs) == [
        {"seed": 8, "failures": ["arm full_pet failed: boom", "text-label AUROC 0.18 < 0.2"]},
        {"seed": 9, "failures": ["exit 1"]}]
    assert bench_pairs.failed_runs(runs[:1]) == []


@pytest.mark.parametrize("change, no_larger", [
    (_runs((0, 10), (0, 10)), True),
    (_runs((2, 10), (0, 10)), False),
    (_runs((1, 40), (0, 40)), True),   # one failure in 80 beats one in 20
])
def test_failure_shares_compare_the_change_with_the_parent(change, no_larger):
    s = bench_pairs.failure_shares(_runs((1, 10), (0, 10)), change)
    assert s["failed_share_no_larger"] is no_larger


def test_no_attempted_operation_is_no_failure():
    s = bench_pairs.failure_shares(_runs((0, 0)), _runs((0, 0)))
    assert s["failed_share_parent"] == s["failed_share_change"] == 0.0
    assert s["failed_share_no_larger"]


def _checkout(root: Path) -> Path:
    """A small git checkout with benchmark output and caches in it."""
    files = {"BENCHMARK.json": "{}", "src/petfuse/cli.py": "x = 1\n",
             "perfbench/workloads.py": "y = 2\n", ".gitignore": "__pycache__/\n",
             ".perfbench_work/lora_cli.result.json": "{}",
             "src/petfuse/__pycache__/cli.cpython-311.pyc": "",
             ".pytest_cache/v/cache": "", ".hypothesis/examples/a": ""}
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    git = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t"]
    for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "c"]):
        subprocess.run(git + cmd, check=True, capture_output=True)
    return root


def test_fresh_copy_leaves_out_git_benchmark_output_and_caches(tmp_path):
    src = _checkout(tmp_path / "checkout")
    dest = bench_pairs.fresh_copy(src, tmp_path / "copy")
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "BENCHMARK.json", "perfbench/workloads.py",
                      "src/petfuse/cli.py"]
    assert (dest / "src/petfuse/cli.py").read_text() == "x = 1\n"


def test_each_sides_commit_is_read_from_its_checkout(tmp_path):
    src = _checkout(tmp_path / "checkout")
    head = subprocess.run(["git", "-C", str(src), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()
    assert bench_pairs.head_commit(src) == head
    assert bench_pairs.head_commit(bench_pairs.fresh_copy(src, tmp_path / "copy")) is None


def _phased(*phases):
    """Hand-made runs, one {phase: floor seconds} dict each."""
    return [{"phases": p} for p in phases]


def test_phase_summaries_give_each_sides_median_and_quartiles_per_phase():
    parent = _phased(*({"train": 0.5, "eval": e} for e in (0.20, 0.22, 0.24, 0.26, 0.30)))
    change = _phased(*({"train": 0.5, "eval": e} for e in (0.14, 0.15, 0.16, 0.17, 0.18)))
    s = bench_pairs.phase_summaries(parent, change)
    assert list(s) == ["train", "eval"]
    assert s["train"]["parent"]["median"] == s["train"]["change"]["median"] == 0.5
    assert s["eval"]["parent"]["median"] == pytest.approx(0.24)
    assert (s["eval"]["parent"]["q1"], s["eval"]["parent"]["q3"]) == pytest.approx(
        (0.22, 0.26))
    assert s["eval"]["change"]["median"] == pytest.approx(0.16)
    assert s["eval"]["change"]["runs"] == [0.14, 0.15, 0.16, 0.17, 0.18]


def test_a_phase_missing_from_any_run_is_left_out():
    parent = _phased({"train": 0.5, "eval": 0.2}, {"train": 0.6, "eval": 0.3})
    change = _phased({"train": 0.5, "eval": 0.2}, {"train": 0.6})
    assert list(bench_pairs.phase_summaries(parent, change)) == ["train"]
