"""petfuse benchmark: one run of one workload.

    python3 perfbench/workloads.py --workload leakage_audit --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout; each run is a fresh process. Caps every
BLAS thread pool at the number of usable cores and puts the checkout's `src`
first on sys.path before petfuse (and numpy) is imported. Sets the workload
up several times, then repeats its timed body as often as the workload's
nominal repetition time fits into --seconds, checks every output, writes
the full result (environment included) to
.perfbench_work/<workload>.result.json and prints report lines. The last
line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}: --trace 0 gives the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones. Exits non-zero, printing no result, when the
checkout has no petfuse sources.

Every repetition does the same work. Calls named in TICKS cut each untraced
repetition into short intervals, and a time metric is the sum of its
intervals, each taken at its fastest over the run's repetitions: on a shared
host whose speed swings within a second, this floor is far steadier than a
repetition's wall time.

With --trace 1 the body alternates untraced and traced repetitions: the
traced ones give the per-layer metrics and the pair gives the overhead.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from spans import (Recorder, effective_layers, floor_phases,  # noqa: E402
                   layer_of, layer_self_times, percentile, phase_intervals,
                   self_times)

SETUP_REPS = 3
# Untraced repetitions a run makes at least. Every repetition does the same
# work, and the time metrics take each interval of it at its fastest over
# the repetitions (spans.floor_phases).
MIN_PLAIN_REPS = 3
# Calls whose starts and ends cut an untraced repetition into intervals: a
# forward batch, a backward pass, an optimizer step, a report encoded or
# redacted, a manifest or checkpoint read or written.
TICKS = frozenset({
    "harness.MultimodalModel.logits_batch", "harness.VisionOnlyModel.logits_batch",
    "autodiff.Tensor.backward", "training.clip_gradients", "training.AdamW.step",
    "encoders.MiniTextEncoder.encode", "redaction.redact", "data.load_manifest",
    "training.save_checkpoint", "training.load_checkpoint",
})
LAYERS = ("cli", "config", "data", "encoders", "fusion", "autodiff", "model",
          "pet", "training", "harness", "metrics", "redaction")

# Criterion 10's planted-signal corpus (five labels only in the text), cut
# from 500 patients to 200 so that a run holds six repetitions.
TEXT_LABELS = 5
ATTRIBUTION_PATIENTS = 200
LORA_PATIENTS = 120
# Training recipe of criterion 10, shortened; patience == max_epochs so early
# stopping never changes how much work a run does.
ATTRIBUTION_EPOCHS = 2
LORA_EPOCHS = 1
TRAIN_RECIPE = {"batch": 16, "accumulation": 1, "lr": 3e-3,
                "weight_decay": 1e-6, "clip_norm": 10.0}
# Mean test AUROC over the text-channel labels, full_pet - vision_only.
# After 2 epochs on 200 patients full_pet reads the planted text (the
# text-label lead was 0.33-0.48 on seeds 1-5) while its macro AUROC over all
# 14 labels led vision_only by -0.04 to 0.02, so criterion 10's macro margin
# of 0.05 (reached at 12 epochs) cannot be verified at this shape; the text
# labels can.
TEXT_DELTA_MIN = 0.2
# Criterion 7.
AUDIT_PATIENTS = 400
# Full-batch steps each audit probe takes over the training split: audit_leakage
# calls redaction._fit_linear_probe with its default steps=300.
PROBE_STEPS = 300
RAW_AUROC_MIN = 0.95
REDACTED_AUROC_MAX = 0.60


def import_petfuse():
    """Import the package under test from the checkout; refuse any other copy."""
    names = ("cli", "data", "encoders", "fusion", "harness", "redaction",
             "training")
    mods = {n: importlib.import_module(f"petfuse.{n}") for n in names}
    src = (ROOT / "src" / "petfuse").resolve()
    if Path(mods["cli"].__file__).resolve().parent != src:
        raise SystemExit(f"petfuse imported from {mods['cli'].__file__}, not {src}")
    return argparse.Namespace(**mods)


class Ops:
    """Operations attempted and failed: trainings, CLI calls, audits, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return bool(ok)


def finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def sha256_files(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# span name -> fn(args, kwargs, result) whose value is stored in the span's tag
TAGS = {
    "cli.main": lambda a, k, r: (a[0] if a else k["argv"])[0],
    "harness.MultimodalModel.logits_batch": lambda a, k, r: len(a[1]),
    "training.AdamW.step": lambda a, k, r: sum(p.data.size for p in a[0].params),
    "training.clip_gradients":
        lambda a, k, r: float(r[1] > (a[1] if len(a) > 1 else k.get("max_norm", 1.0))),
}


def planted_signal_corpus(pf, seed, n_patients):
    labels = pf.data.LABELS
    plan = {name: "vision" for name in labels}
    for name in labels[:TEXT_LABELS]:
        plan[name] = "text"
    return pf.data.generate_synthetic(
        n_patients, seed=seed, leak_prob=0.9, signal_plan=plan,
        signal_strength=4.0, prevalence_profile=[0.25] * len(labels))


class Workload:
    name = ""
    # seconds one repetition took on the reference machine (see README);
    # sets how many repetitions a run of --seconds makes
    rep_s: float
    absorbing: tuple = ()

    def __init__(self, pf, seed: int, work: Path):
        self.pf = pf
        self.seed = seed
        self.work = work
        self.manifest = work / "data.jsonl"

    def cli(self, ops, *argv):
        """Run one petfuse command in-process; returns (exit code, stdout)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.pf.cli.main([str(a) for a in argv])
        ops.check(rc == 0, f"petfuse {argv[0]} exited {rc}")
        return rc, out.getvalue()

    def n_train(self, samples):
        split = self.pf.data.SplitSpec(seed=self.seed)
        return len(self.pf.data.split_patients(samples, split)[0])

    def after(self, rep_dir: Path, ops: Ops):
        """Checks made once per run, after the timed body."""


class AttributionFrozen(Workload):
    """`petfuse attribute` over the paper's triad under policy frozen."""

    name = "attribution_frozen"
    rep_s = 5.0

    def setup(self):
        samples = planted_signal_corpus(self.pf, self.seed, ATTRIBUTION_PATIENTS)
        self.pf.data.save_manifest(self.manifest, samples)
        self.plan = self.work / "plan.json"
        self.plan.write_text(json.dumps({
            "arms": [{"kind": k, "seeds": [self.seed]}
                     for k in ("vision_only", "budget_matched", "full_pet")],
            "split": {"seed": self.seed},
            "train": dict(TRAIN_RECIPE, max_epochs=ATTRIBUTION_EPOCHS,
                          patience=ATTRIBUTION_EPOCHS),
        }))
        self.samples_per_rep = 3 * ATTRIBUTION_EPOCHS * self.n_train(samples)

    def body(self, out: Path, ops: Ops, mark) -> dict:
        mark("train")
        _, stdout = self.cli(ops, "attribute", "--plan", self.plan,
                             "--data", self.manifest, "--out", out)
        mark("end")
        doc = json.loads(stdout)
        means = doc["arm_mean_auroc"]
        for arm in ("vision_only", "budget_matched", "full_pet"):
            ops.check(arm in means and finite(means[arm]),
                      f"arm {arm} failed: {doc['failures']}")
        text_delta = (self.text_label_auroc(out, "full_pet")
                      - self.text_label_auroc(out, "vision_only"))
        ops.check(text_delta >= TEXT_DELTA_MIN,
                  f"text-label AUROC full_pet - vision_only = {text_delta:.4f}"
                  f" < {TEXT_DELTA_MIN}")
        csvs = sorted(out.glob("*.csv"))
        return {"samples": self.samples_per_rep,
                "auroc_full_pet": means.get("full_pet"),
                "fusion_delta": means.get("full_pet", math.nan)
                - means.get("vision_only", math.nan),
                "text_label_delta": text_delta,
                "digest": sha256_files(out / "attribution.json", *csvs)}

    def text_label_auroc(self, out: Path, arm: str) -> float:
        with open(out / f"arm_{arm}_per_label.csv", newline="") as f:
            cells = {row[0]: row[1] for row in csv.reader(f)}
        return statistics.fmean(float(cells[name]) for name
                                in self.pf.data.LABELS[:TEXT_LABELS])


class LoraCli(Workload):
    """`petfuse train` (full_pet, lora), then `eval` and `calibrate`."""

    name = "lora_cli"
    rep_s = 3.0

    def setup(self):
        samples = planted_signal_corpus(self.pf, self.seed, LORA_PATIENTS)
        self.pf.data.save_manifest(self.manifest, samples)
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps({
            "arm": "full_pet", "policy": "lora",
            "lora": {"rank": 8, "alpha": 32.0},
            "train": dict(TRAIN_RECIPE, max_epochs=LORA_EPOCHS,
                          patience=LORA_EPOCHS, seed=self.seed),
        }))
        self.samples_per_rep = LORA_EPOCHS * self.n_train(samples)

    def body(self, out: Path, ops: Ops, mark) -> dict:
        ckpt = out / "checkpoint.bin"
        mark("train")
        self.cli(ops, "train", "--config", self.config, "--data", self.manifest,
                 "--out", out)
        mark("eval")
        _, eval_out = self.cli(ops, "eval", "--checkpoint", ckpt,
                               "--data", self.manifest)
        _, cal_out = self.cli(ops, "calibrate", "--checkpoint", ckpt,
                              "--data", self.manifest)
        mark("end")
        with open(out / "history.csv", newline="") as f:
            history = list(csv.DictReader(f))
        losses = [float(r["train_loss"]) for r in history]
        ops.check(len(losses) == LORA_EPOCHS and finite(*losses),
                  f"training losses not finite: {losses}")
        report = json.loads(eval_out)
        cal = json.loads(cal_out)
        ops.check(finite(report["auroc_macro"], cal["temperature"],
                         cal["ece_before"], cal["ece_after"]),
                  "eval/calibrate produced a non-finite value")
        without_time = [{k: v for k, v in r.items() if k != "seconds"}
                        for r in history]
        h = hashlib.sha256(sha256_files(ckpt, out / "config.echo.json").encode())
        h.update(json.dumps([without_time, eval_out, cal_out]).encode())
        return {"samples": self.samples_per_rep,
                "auroc_full_pet": report["auroc_macro"],
                "digest": h.hexdigest()}

    def after(self, rep_dir: Path, ops: Ops):
        """A model restored from the checkpoint reproduces best_val_auroc."""
        pf = self.pf
        header, arrays = pf.training.load_checkpoint(rep_dir / "checkpoint.bin")
        extra = header["extra"]
        samples = pf.data.load_manifest(self.manifest)
        train_set, val_set, _ = pf.data.split_patients(
            samples, pf.data.SplitSpec(seed=extra["seed"]))
        tokenizer = pf.encoders.Tokenizer.build([s.text for s in train_set])
        model = pf.harness.MultimodalModel(
            pf.fusion.FusionConfig(**extra["fusion"]), tokenizer,
            seed=extra["seed"], policy=extra["policy"])
        model.fit_normalizer(train_set)
        model.graph.load_state({k[len("param/"):]: v for k, v in arrays.items()
                                if k.startswith("param/")})
        got = model.validation_auroc(val_set)
        ops.check(abs(got - extra["best_val_auroc"]) <= 1e-12,
                  f"restored val AUROC {got!r} != header "
                  f"{extra['best_val_auroc']!r}")


class LeakageAudit(Workload):
    """Redact every report of criterion 7's corpus, then audit_leakage."""

    name = "leakage_audit"
    rep_s = 3.0
    # the probe trains with AdamW and autodiff; that is audit work, not training
    absorbing = ("redaction.audit_leakage",)

    def setup(self):
        samples = self.pf.data.generate_synthetic(
            AUDIT_PATIENTS, seed=self.seed, leak_prob=0.9,
            prevalence_profile=[0.25] * len(self.pf.data.LABELS),
            pad_findings_to=12)
        self.pf.data.save_manifest(self.manifest, samples)

    def body(self, out: Path, ops: Ops, mark) -> dict:
        pf = self.pf
        mark("load")
        samples = pf.data.load_manifest(self.manifest)
        mark("redact")
        lexicon = pf.redaction.Lexicon()
        raw = [s.text for s in samples]
        redacted = [pf.redaction.redact(t, lexicon).text for t in raw]
        mark("split")
        train_set, _, test_set = pf.data.split_patients(
            samples, pf.data.SplitSpec(seed=self.seed))
        index = {s.id: i for i, s in enumerate(samples)}
        train_idx = [index[s.id] for s in train_set]
        test_idx = [index[s.id] for s in test_set]
        mark("train")  # the audit: both probes are trained
        result = pf.redaction.audit_leakage(
            raw, redacted, pf.data.label_matrix(samples), train_idx, test_idx,
            seed=self.seed)
        mark("end")
        ops.attempted += 1  # the audit itself; one that raises fails the repetition
        raw_auc, red_auc = result["auroc_raw"], result["auroc_redacted"]
        ops.check(finite(raw_auc) and raw_auc >= RAW_AUROC_MIN,
                  f"raw probe AUROC {raw_auc} < {RAW_AUROC_MIN}")
        ops.check(finite(red_auc) and red_auc <= REDACTED_AUROC_MAX,
                  f"redacted probe AUROC {red_auc} > {REDACTED_AUROC_MAX}")
        h = hashlib.sha256("\n".join(redacted).encode())
        h.update(json.dumps(result, sort_keys=True).encode())
        return {"reports": len(raw),
                "samples": 2 * PROBE_STEPS * len(train_idx),
                "leakage_gap": raw_auc - red_auc,
                "digest": h.hexdigest()}


WORKLOADS = {w.name: w for w in (AttributionFrozen, LoraCli, LeakageAudit)}


# -- per-layer metrics from spans -------------------------------------------


class RepTrace:
    """Spans of one traced repetition, each charged to its effective layer."""

    def __init__(self, spans, absorbing):
        own = self_times(spans)
        eff = effective_layers(spans, absorbing)
        # a span absorbed into another layer (the probe's AdamW.step) does
        # not count toward its own layer's named metrics
        self.rows = [(s[2], s[4] - s[3], own[s[0]], s[5]) for s in spans
                     if eff[s[0]] == layer_of(s[2])]
        self.layer_self = layer_self_times(spans, absorbing)
        self.n_spans = len(spans)

    def select(self, *names):
        return [r for r in self.rows if r[0] in names]

    def total(self, *names) -> float:
        return sum(r[1] for r in self.select(*names))

    def self_total(self, *names) -> float:
        return sum(r[2] for r in self.select(*names))

    def count(self, *names) -> int:
        return len(self.select(*names))


def layer_metrics(reps: list[RepTrace], setup: RepTrace, manifest_bytes: int,
                  overhead_frac: float) -> dict[str, float]:
    def mean(fn):
        return statistics.fmean(fn(r) for r in reps)

    def ms(q, *names):
        return percentile([1000 * row[1] for r in reps for row in r.select(*names)], q)

    def tags(*names):
        return [row[3] for r in reps for row in r.select(*names)]

    def cli_s(sub):
        return mean(lambda r: sum(row[1] for row in r.select("cli.main")
                                  if row[3] == sub))

    encode = "encoders.MiniTextEncoder.encode"
    fed = sum(tags("harness.MultimodalModel.logits_batch"))
    fusion = ("fusion.FusionPathway.forward", "fusion.FusionPathway.forward_tokens")
    adamw = tags("training.AdamW.step")
    clipped = tags("training.clip_gradients")
    loss_batch = ("harness.MultimodalModel.loss_batch",
                  "harness.VisionOnlyModel.loss_batch")
    m = {
        "data.generate_s": setup.total("data.generate_synthetic"),
        "data.load_manifest_s": mean(lambda r: r.total("data.load_manifest")),
        "data.manifest_bytes": manifest_bytes,
        "redaction.redact_calls": mean(lambda r: r.count("redaction.redact")),
        "redaction.redact_ms_p50": ms(50, "redaction.redact"),
        "redaction.redact_ms_p90": ms(90, "redaction.redact"),
        "redaction.audit_s": mean(lambda r: r.total("redaction.audit_leakage")),
        "encoders.tokenizer_build_s":
            mean(lambda r: r.total("encoders.Tokenizer.build")),
        "encoders.text_encode_calls": mean(lambda r: r.count(encode)),
        "encoders.text_encode_s": mean(lambda r: r.total(encode)),
        "encoders.encodes_per_sample":
            sum(r.count(encode) for r in reps) / fed if fed else 0.0,
        "fusion.forward_calls": mean(lambda r: r.count(*fusion)),
        "fusion.forward_s": mean(lambda r: r.total(*fusion)),
        "autodiff.backward_calls": mean(lambda r: r.count("autodiff.Tensor.backward")),
        "autodiff.backward_s": mean(lambda r: r.total("autodiff.Tensor.backward")),
        "model.collect_grads_s":
            mean(lambda r: r.total("model.ModelGraph.collect_grads")),
        "model.load_state_s": mean(lambda r: r.total("model.ModelGraph.load_state")),
        "training.train_loop_self_s":
            mean(lambda r: r.self_total("training.train_loop")),
        "training.adamw_steps": mean(lambda r: r.count("training.AdamW.step")),
        "training.adamw_params": statistics.fmean(adamw) if adamw else 0.0,
        "training.adamw_step_ms_p50": ms(50, "training.AdamW.step"),
        "training.adamw_step_ms_p90": ms(90, "training.AdamW.step"),
        "training.clip_s": mean(lambda r: r.total("training.clip_gradients")),
        "training.clip_active_frac": statistics.fmean(clipped) if clipped else 0.0,
        "training.checkpoint_save_s":
            mean(lambda r: r.total("training.save_checkpoint")),
        "training.checkpoint_load_s":
            mean(lambda r: r.total("training.load_checkpoint")),
        "harness.loss_batch_self_s": mean(lambda r: r.self_total(*loss_batch)),
        "harness.fit_normalizer_s": mean(lambda r: r.total(
            "harness.MultimodalModel.fit_normalizer",
            "harness.VisionOnlyModel.fit_normalizer")),
        "harness.predict_s": mean(lambda r: r.total(
            "harness.MultimodalModel.predict", "harness.VisionOnlyModel.predict")),
        "metrics.evaluate_s": mean(lambda r: r.total("metrics.evaluate_predictions")),
        "metrics.temperature_scale_s":
            mean(lambda r: r.total("metrics.temperature_scale")),
        "pet.apply_policy_s": mean(lambda r: r.total("pet.apply_policy")),
        "pet.count_params_s": mean(lambda r: r.total("pet.count_params")),
        "cli.attribute_s": cli_s("attribute"),
        "cli.train_s": cli_s("train"),
        "cli.eval_s": cli_s("eval"),
        "cli.calibrate_s": cli_s("calibrate"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = mean(lambda r: r.layer_self.get(layer, 0.0))
    m["trace.spans"] = mean(lambda r: r.n_spans)
    m["trace.overhead_frac"] = overhead_frac
    return m


# -- environment ---------------------------------------------------------------


def git_commit(root: Path):
    """HEAD's commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "petfuse").glob("*.py")):
        src.update(p.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(ROOT),
        "source_sha256": src.hexdigest()[:16],
    }


# -- the run ---------------------------------------------------------------------


def repetitions(wl, seconds: float, trace: bool) -> int:
    """How many repetitions a run makes: as many as `wl.rep_s` fits into
    `seconds`, at least MIN_PLAIN_REPS untraced ones, and with --trace 1
    every second one traced.

    The count depends on `seconds` only, never on how fast this run goes: a
    fastest-of-n floor drops as n grows, so a count that grew with speed
    would reward a fast program twice and a noisy host would shift it.
    """
    plain = max(MIN_PLAIN_REPS, int(seconds / wl.rep_s))
    return 2 * max(1, plain // 2) if trace else plain


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.perf_counter()
    pf = import_petfuse()
    import_s = time.perf_counter() - t_start

    work = ROOT / ".perfbench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[workload](pf, seed, work)
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)

    setup_trace = None
    if trace:
        rec = Recorder(TAGS)
        with rec.installed():
            wl.setup()
        setup_trace = RepTrace(rec.spans, wl.absorbing)

    ops = Ops()
    reps, traced_reps = [], []
    rep_dir = work / "rep"
    spans_path = work / "spans.jsonl"
    for i in range(repetitions(wl, seconds, trace)):
        traced = trace and i % 2 == 1
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep_dir.mkdir()
        gc.collect()  # start every repetition from a swept heap
        rec = Recorder(TAGS) if traced else Recorder(only=TICKS)
        marks = []
        try:
            with rec.installed():
                t0 = time.perf_counter()
                rep = wl.body(rep_dir, ops,
                              lambda label: marks.append((time.perf_counter(), label)))
                rep["wall_s"] = time.perf_counter() - t0
            rep["traced"] = traced
            reps.append(rep)
            if traced:
                traced_reps.append(RepTrace(rec.spans, wl.absorbing))
                rec.write_jsonl(spans_path, rep=i)
            else:
                rep["phases"] = phase_intervals(rec.spans, marks)
        except Exception:  # a failed repetition is counted, not fatal
            ops.check(False, f"repetition {i} raised")
            traceback.print_exc()
    if not reps:
        raise SystemExit("every repetition failed")

    try:
        wl.after(rep_dir, ops)
    except Exception:
        ops.check(False, "post-run check raised")
        traceback.print_exc()
    if len(reps) > 1:
        ops.check(len({r["digest"] for r in reps}) == 1,
                  "outputs differ between repetitions (traced vs untraced)")

    plain = [r for r in reps if not r["traced"]]
    if not plain or (trace and not traced_reps):
        raise SystemExit("no untraced or no traced repetition succeeded")
    phases = floor_phases([r["phases"] for r in plain])
    result = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "environment": environment(),
        "repetitions": {"untraced": len(plain), "traced": len(traced_reps)},
        "rep_wall_s": [(r["wall_s"], r["traced"]) for r in reps],
        "intervals": {k: sorted({len(r["phases"][k]) for r in plain})
                      for k in phases},
        "phase_floor_s": phases,
        "setup_reps_s": setup_times, "import_s": import_s,
        "failures": ops.messages,
    }
    first = plain[0]
    report = {
        "setup_s": setup_s,
        "run_s": sum(phases.values()),
        "train_samples_per_s": first["samples"] / phases["train"],
        "eval_s": phases.get("eval"),
        "redact_reports_per_s":
            first["reports"] / phases["redact"] if "redact" in phases else None,
        "audit_s": phases["train"] if workload == "leakage_audit" else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "auroc_full_pet": first.get("auroc_full_pet"),
        "leakage_gap": first.get("leakage_gap"),
        "failed_ops_frac": ops.failed / ops.attempted,
    }
    for key in ("fusion_delta", "text_label_delta"):
        if key in first:
            result[key] = first[key]
    result["end_to_end"] = report
    if trace:
        overhead = (statistics.fmean(r["wall_s"] for r in reps if r["traced"])
                    / statistics.fmean(r["wall_s"] for r in plain) - 1.0)
        result["per_layer"] = layer_metrics(
            traced_reps, setup_trace, wl.manifest.stat().st_size, overhead)
    result.update(correct=ops.failed == 0, attempted=ops.attempted,
                  failed=ops.failed)
    return result


UNITS = {"setup_s": "s", "run_s": "s", "train_samples_per_s": "samples/s",
         "eval_s": "s", "redact_reports_per_s": "reports/s", "audit_s": "s",
         "peak_rss_mb": "MB", "auroc_full_pet": "AUROC", "leakage_gap": "AUROC",
         "failed_ops_frac": "ratio"}


def print_report(result):
    env = result["environment"]
    print(f"perfbench {result['workload']} seed={result['seed']} "
          f"trace={result['trace']} reps={result['repetitions']}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  import_s (not in setup_s) {result['import_s']:.4g} s")
    for name, value in result["end_to_end"].items():
        shown = "n/a" if value is None else f"{value:.6g} {UNITS[name]}"
        print(f"  {name:<22} {shown}")
    if "per_layer" in result:
        selfs = {k[:-len(".self_s")]: v for k, v in result["per_layer"].items()
                 if k.endswith(".self_s")}
        ranked = sorted(selfs.items(), key=lambda kv: -kv[1])
        print("  layer self time: " + ", ".join(f"{k} {v:.3f}s" for k, v in ranked))
        print(f"  trace.overhead_frac {result['per_layer']['trace.overhead_frac']:.4f}")
    for msg in result["failures"]:
        print(f"  FAILED: {msg}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "petfuse" / "__init__.py").is_file():
        print(f"error: no petfuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = ROOT / ".perfbench_work" / f"{args.workload}.result.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print_report(result)
    measured = result["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
