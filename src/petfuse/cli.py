"""Command-line entry point.

Subcommands: gen-data, redact, audit-leakage, train, eval, calibrate,
count-params, attribute, report. Exit codes: 0 success, 1 usage error,
2 runtime failure. All randomness is controlled by a seed: --seed for
gen-data and audit-leakage, train.seed in a train config, and each arm's
seeds in an attribution plan.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, _native
from . import data as data_mod
from . import harness, metrics, redaction
from .config import build_section, echo_config, load_config, read_json_object
from .data import SplitSpec, label_matrix
from .encoders import SPECIALS, Tokenizer
from .errors import ConfigError, InputError, PetfuseError, PolicyError
from .fusion import FusionConfig
from .pet import AdapterConfig, LoRAConfig, count_params
from .training import load_checkpoint, save_checkpoint, train_loop


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_hash() -> str:
    h = hashlib.sha256()
    pkg = Path(__file__).parent
    for path in sorted([*pkg.glob("*.py"), *pkg.glob("*.c")]):
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


class _Version(argparse.Action):
    """--version: the package version, a digest of its sources and the AdamW
    update this process runs, `adamw fused` or `adamw numpy`, so that a slow
    host explains itself. The fused update and the native manifest row
    reader and writer come from one library, so `adamw numpy` also means
    that every row is read and written by json. Looking for the library may
    compile it, so it is done only when asked for."""

    def __init__(self, option_strings, dest, help=None):
        super().__init__(option_strings, argparse.SUPPRESS, default=argparse.SUPPRESS,
                         nargs=0, help=help)

    def __call__(self, parser, namespace, values, option_string=None):
        path = "numpy" if _native.function("adamw_update") is None else "fused"
        print(f"petfuse {__version__} (build {_build_hash()}, adamw {path})")
        parser.exit()


def _parser() -> _Parser:
    p = _Parser(prog="petfuse", description=__doc__)
    p.add_argument("--version", action=_Version,
                   help="show the version, build and AdamW path, then exit")
    sub = p.add_subparsers(dest="command")

    g = sub.add_parser("gen-data", help="generate a synthetic manifest")
    g.add_argument("--patients", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--leak-prob", type=float, default=0.9)
    g.add_argument("--signal-plan", help="JSON file mapping label -> channel")
    g.add_argument("--out", required=True)

    r = sub.add_parser("redact", help="redact report text in a manifest")
    r.add_argument("--in", dest="inp", required=True)
    r.add_argument("--lexicon-dir")
    r.add_argument("--out", required=True)

    a = sub.add_parser("audit-leakage", help="raw vs redacted text-probe AUROC")
    a.add_argument("--data", required=True)
    a.add_argument("--lexicon-dir")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out")

    t = sub.add_parser("train", help="train one arm on a manifest")
    t.add_argument("--config")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)

    # eval and calibrate both restore a checkpoint and score a manifest's splits
    for name, text in (("eval", "evaluate a checkpoint on the test split"),
                       ("calibrate", "fit temperature on val, apply to test")):
        c = sub.add_parser(name, help=text)
        c.add_argument("--checkpoint", required=True)
        c.add_argument("--data", required=True)
        c.add_argument("--out")

    k = sub.add_parser("count-params", help="trainable-parameter breakdown")
    k.add_argument("--config")
    k.add_argument("--json", action="store_true")

    at = sub.add_parser("attribute", help="run a budget-matched attribution plan")
    at.add_argument("--plan", required=True)
    at.add_argument("--data", required=True)
    at.add_argument("--out", required=True)

    rp = sub.add_parser("report", help="regenerate summaries from stored artifacts")
    rp.add_argument("--results", required=True)
    return p


# -- command implementations ---------------------------------------------------


def _emit(doc, out=None):
    """Given a path, write a JSON document (a dict, or text already in JSON)
    there; then print it, so that a failed write prints nothing."""
    text = doc if isinstance(doc, str) else json.dumps(doc, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def _cmd_gen_data(args):
    plan = None
    if args.signal_plan:
        plan = read_json_object(args.signal_plan, "signal plan")
    samples = data_mod.generate_synthetic(args.patients, signal_plan=plan,
                                          seed=args.seed, leak_prob=args.leak_prob)
    data_mod.save_manifest(args.out, samples)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def _cmd_redact(args):
    lex = redaction.Lexicon.from_dir(args.lexicon_dir)
    samples = data_mod.load_manifest(args.inp)
    totals = {m: 0 for m in redaction.MASKS}
    for s in samples:
        rep = redaction.redact(s.text, lex)
        s.text = rep.text
        for k, v in rep.counts.items():
            totals[k] += v
    data_mod.save_manifest(args.out, samples)
    print(f"redacted {len(samples)} reports "
          f"({totals['FINDING']} findings, {totals['NUM']} numbers, "
          f"{totals['LOC']} locations) -> {args.out}")
    return 0


def _cmd_audit(args):
    lex = redaction.Lexicon.from_dir(args.lexicon_dir)
    samples = data_mod.load_manifest(args.data)
    raw = [s.text for s in samples]
    red = [redaction.redact(t, lex).text for t in raw]
    train_set, _, test_set = data_mod.split_patients(samples, SplitSpec(seed=args.seed))
    index = {s.id: i for i, s in enumerate(samples)}
    result = redaction.audit_leakage(
        raw, red, label_matrix(samples),
        [index[s.id] for s in train_set], [index[s.id] for s in test_set],
        seed=args.seed)
    _emit(result, args.out)
    return 0


@dataclass
class CheckpointExtra:
    """A checkpoint header's `extra`: the run `train` saved, and the SHA-256
    of the manifest it trained on."""
    arm: str
    policy: str
    seed: int
    fusion: FusionConfig
    lora: LoRAConfig
    adapter: AdapterConfig
    best_epoch: int
    best_val_auroc: float
    manifest_sha256: str


def _load_arm_model(cfg, tokenizer, seed, stored=None):
    """The arm a RunConfig or a CheckpointExtra describes, and its model."""
    arm = harness.ArmSpec(cfg.arm, policy=cfg.policy, fusion=cfg.fusion)
    return arm, arm.build(tokenizer, seed, lora=cfg.lora, adapter=cfg.adapter,
                          stored=stored)


def _cmd_train(args):
    cfg = load_config(args.config)
    digest = hashlib.sha256()
    train_set, val_set, _ = data_mod.split_patients(data_mod.load_manifest(args.data, digest),
                                                    SplitSpec(seed=cfg.train.seed))
    tokenizer = Tokenizer.build([s.text for s in train_set])
    arm, model = _load_arm_model(cfg, tokenizer, cfg.train.seed)
    out = Path(args.out)
    echo_config(cfg, out)
    result = train_loop(model, train_set, val_set, cfg.train)
    result.write_history_csv(out / "history.csv")
    extra = CheckpointExtra(arm.kind, arm.policy, cfg.train.seed, arm.fusion, cfg.lora,
                            cfg.adapter, result.best_epoch, result.best_val_auroc,
                            digest.hexdigest())
    save_checkpoint(out / "checkpoint.bin", model.graph, header_extra=asdict(extra),
                    state={"vocab": tokenizer.tokens(),
                           "normalizers": {name: norm.state() for name, norm
                                           in model.normalizers.items()},
                           "frozen_sha256": _frozen_sha256(tokenizer, model.graph)})
    print(f"best epoch {result.best_epoch}, val AUROC {result.best_val_auroc:.4f}")
    return 0


def _frozen_sha256(tokenizer, graph) -> str:
    """SHA-256 over the vocabulary and over each non-trainable array of
    `graph` (address, shape, bytes, in graph order): what a checkpoint
    rebuilds from its seed instead of storing."""
    h = hashlib.sha256(json.dumps(tokenizer.tokens()).encode())
    for p in graph.params.values():
        if not p.trainable:
            h.update(json.dumps([p.name, p.data.shape]).encode())
            h.update(np.ascontiguousarray(p.data))
    return h.hexdigest()


def _restore_model(checkpoint, manifest):
    """The model a checkpoint holds, built from its stored arrays, with its
    stored vocabulary and normalizers, and the validation and test splits of
    `manifest`, read as `train` reads one, under the checkpoint's seed.
    InputError for an array outside `param/`, or an empty test split
    (SPLIT_FRACTIONS leave the validation split non-empty whenever
    split_patients succeeds)."""
    header, arrays = load_checkpoint(checkpoint)
    try:
        cfg = build_section("extra", CheckpointExtra, header.get("extra"))
    except (ConfigError, PolicyError) as e:
        raise InputError(f"{checkpoint}: checkpoint header: {e}") from e
    state = header.get("state")
    if (not isinstance(state, dict) or set(state) != {"vocab", "normalizers", "frozen_sha256"}
            or not isinstance(state["frozen_sha256"], str)):
        raise InputError(f"{checkpoint}: checkpoint state must be an object "
                         f"with vocab, normalizers and a frozen_sha256 string")
    stray = next((k for k in arrays if not k.startswith("param/")), None)
    if stray is not None:
        raise InputError(f"{checkpoint}: checkpoint array {stray!r} is not a "
                         f"parameter (param/<address>)")
    params = {k[len("param/"):]: v for k, v in arrays.items()}
    _, val_set, test_set = data_mod.split_patients(data_mod.load_manifest(manifest),
                                                   SplitSpec(seed=cfg.seed))
    if not test_set:
        raise InputError(f"{manifest}: the test split is empty: too few patients to score")
    tokenizer = Tokenizer.from_tokens(state["vocab"])
    # each trainable weight is its stored array, checked for its shape before
    # anything of that shape is allocated; the frozen ones are drawn from the
    # seed and checked against the digest
    try:
        _, model = _load_arm_model(cfg, tokenizer, cfg.seed, stored=params)
    except (InputError, PolicyError, ConfigError) as e:
        raise InputError(f"{checkpoint}: {e}") from e
    if _frozen_sha256(tokenizer, model.graph) != state["frozen_sha256"]:
        raise InputError(f"{checkpoint}: the vocabulary and frozen weights rebuilt "
                         f"from the checkpoint do not match its frozen_sha256")
    stats = state["normalizers"]
    if not isinstance(stats, dict) or set(stats) != set(model.normalizers):
        raise InputError(f"{checkpoint}: checkpoint normalizers must be "
                         f"{sorted(model.normalizers)}")
    for name, norm in model.normalizers.items():
        norm.load_state(stats[name], f"{checkpoint}: normalizer {name!r}")
    model.graph.load_state(params)
    return model, cfg, val_set, test_set


def _cmd_eval(args):
    model, cfg, _, test_set = _restore_model(args.checkpoint, args.data)
    try:
        report = harness.evaluate_model(model, cfg.arm, cfg.seed, test_set)
    except metrics.UndefinedMetric as e:  # no label of the split holds both classes
        raise metrics.UndefinedMetric(f"test split: {e}") from e
    _emit(report.to_json(), args.out)
    return 0


def _cmd_calibrate(args):
    model, _, val_set, test_set = _restore_model(args.checkpoint, args.data)
    val_logits = harness.predict_logits(model, val_set)
    test_logits = harness.predict_logits(model, test_set)
    y_test = label_matrix(test_set)
    t, at_bound = metrics.fit_temperature(val_logits, label_matrix(val_set))
    _emit({"temperature": t, "temperature_at_bound": at_bound,
           "ece_before": metrics.ece(metrics.sigmoid(test_logits), y_test).ece,
           "ece_after": metrics.ece(metrics.sigmoid(test_logits / t), y_test).ece}, args.out)
    return 0


# The paper's full multimodal model, the denominator of its efficiency ratio.
DECLARED_TOTAL_PARAMS = 94_300_000


def _cmd_count_params(args):
    """The counts of the model `train` builds for the config. No policy trains
    the token embedding, so the special tokens alone stand for the vocabulary."""
    cfg = load_config(args.config)
    _, model = _load_arm_model(cfg, Tokenizer.from_tokens(list(SPECIALS)), cfg.train.seed)
    report = count_params(model.graph)
    if args.json:
        print(report.to_json(DECLARED_TOTAL_PARAMS))
    else:
        names = {"fusion/vision_proj": "Vision Projection Layer",
                 "fusion/attention": "Cross-modal Attention",
                 "fusion/text_proj": "Text Projection Layer",
                 "fusion/head": "Classification Head"}
        keys = [k for k in names if k in report.components]
        for key in keys + [k for k in report.components if k not in names]:
            print(f"{names.get(key, key):<26} {report.components[key]:>12,}")
        print(f"{'Total Trainable':<26} {report.total_trainable:>12,}")
        print(f"{'Declared Total':<26} {DECLARED_TOTAL_PARAMS:>12,}")
        print(f"{'Efficiency Ratio':<26} {report.efficiency_pct(DECLARED_TOTAL_PARAMS):>11.2f}%")
    return 0


def _cmd_attribute(args):
    plan = harness.read_plan(read_json_object(args.plan, "plan"))
    result = harness.run_plan(plan, data_mod.load_manifest(args.data), args.out)
    print(Path(args.out, "attribution.json").read_text())
    if result.failures:
        run, reason = next(iter(result.failures.items()))
        print(f"error: {len(result.failures)} arm run(s) failed; first {run}: {reason}",
              file=sys.stderr)
        return 2
    return 0


def _cmd_report(args):
    result = harness.summarize(args.results)
    if not result.arm_means:
        raise InputError(f"{args.results}: predictions.json holds no arm run to report")
    _emit(result.summary(), Path(args.results, "attribution_recomputed.json"))
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "redact": _cmd_redact,
    "audit-leakage": _cmd_audit,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "calibrate": _cmd_calibrate,
    "count-params": _cmd_count_params,
    "attribute": _cmd_attribute,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.command is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (PetfuseError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
