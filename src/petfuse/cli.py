"""Command-line entry point.

Subcommands: gen-data, redact, audit-leakage, train, eval, calibrate,
count-params, attribute, report. Exit codes: 0 success, 1 usage error,
2 runtime failure. All randomness is controlled by --seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import data as data_mod
from . import harness, metrics, redaction
from .config import echo_config, load_config
from .data import LABELS, SplitSpec, label_matrix
from .encoders import Tokenizer
from .errors import InputError, PetfuseError
from .fusion import FusionConfig, build_fusion
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
    for path in sorted(pkg.glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def _parser() -> _Parser:
    p = _Parser(prog="petfuse", description=__doc__)
    p.add_argument("--version", action="version",
                   version=f"petfuse {__version__} (build {_build_hash()})")
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
    t.add_argument("--seed", type=int)
    t.add_argument("--out", required=True)

    e = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out")

    c = sub.add_parser("calibrate", help="fit temperature on val, apply to test")
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


def _read_json_object(path, what: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # malformed JSON or not UTF-8
        raise InputError(f"{path}: invalid {what} JSON ({e})") from e
    if not isinstance(doc, dict):
        raise InputError(f"{path}: {what} must be a JSON object")
    return doc


def _cmd_gen_data(args):
    plan = None
    if args.signal_plan:
        plan = _read_json_object(args.signal_plan, "signal plan")
    samples = data_mod.generate_synthetic(args.patients, signal_plan=plan,
                                          seed=args.seed, leak_prob=args.leak_prob)
    data_mod.save_manifest(args.out, samples)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def _cmd_redact(args):
    lex = redaction.Lexicon.from_dir(args.lexicon_dir) if args.lexicon_dir \
        else redaction.Lexicon()
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
    lex = redaction.Lexicon.from_dir(args.lexicon_dir) if args.lexicon_dir \
        else redaction.Lexicon()
    samples = data_mod.load_manifest(args.data)
    raw = [s.text for s in samples]
    red = [redaction.redact(t, lex).text for t in raw]
    train_set, _, test_set = data_mod.split_patients(samples, SplitSpec(seed=args.seed))
    index = {s.id: i for i, s in enumerate(samples)}
    result = redaction.audit_leakage(
        raw, red, label_matrix(samples),
        [index[s.id] for s in train_set], [index[s.id] for s in test_set],
        seed=args.seed)
    print(json.dumps(result, indent=2, sort_keys=True))
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


def _load_arm_model(cfg, tokenizer, seed):
    arm = harness.build_arm(cfg["arm"], {"policy": cfg["policy"],
                                         "seeds": [seed]})
    if cfg["arm"] == "full_pet":
        arm.fusion = cfg["fusion"]
    return arm, harness._build_model(arm, tokenizer, seed, lora_cfg=cfg["lora"],
                                     adapter_cfg=cfg["adapter"])


def _cmd_train(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["train"] = replace(cfg["train"], seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    echo_config(cfg, out)
    samples = data_mod.load_manifest(args.data)
    train_set, val_set, _ = data_mod.split_patients(samples, SplitSpec(seed=cfg["train"].seed))
    tokenizer = Tokenizer.build([s.text for s in train_set])
    arm, model = _load_arm_model(cfg, tokenizer, cfg["train"].seed)
    result = train_loop(model, train_set, val_set, cfg["train"])
    result.write_history_csv(out / "history.csv")
    save_checkpoint(out / "checkpoint.bin", model.graph,
                    header_extra={"arm": arm.kind, "policy": arm.policy,
                                  "seed": cfg["train"].seed,
                                  "fusion": arm.fusion.__dict__,
                                  "lora": asdict(cfg["lora"]),
                                  "adapter": asdict(cfg["adapter"]),
                                  "best_epoch": result.best_epoch,
                                  "best_val_auroc": result.best_val_auroc})
    print(f"best epoch {result.best_epoch}, val AUROC {result.best_val_auroc:.4f}")
    return 0


def _restore_model(checkpoint, manifest):
    header, arrays = load_checkpoint(checkpoint)
    extra = header["extra"]
    samples = data_mod.load_manifest(manifest)
    seed = extra.get("seed", 0)
    split = SplitSpec(seed=seed)
    train_set, val_set, test_set = data_mod.split_patients(samples, split)
    tokenizer = Tokenizer.build([s.text for s in train_set])
    # checkpoints written before lora/adapter were recorded used the defaults
    cfg = {"arm": extra["arm"], "policy": extra["policy"],
           "fusion": FusionConfig(**extra["fusion"]),
           "lora": LoRAConfig(**extra.get("lora", {})),
           "adapter": AdapterConfig(**extra.get("adapter", {}))}
    _, model = _load_arm_model(cfg, tokenizer, seed)
    if hasattr(model, "fit_normalizer"):
        # normalizer statistics are a pure function of the training split,
        # so refitting reproduces the training-time transform exactly
        model.fit_normalizer(train_set)
    model.graph.load_state({k[len("param/"):]: v for k, v in arrays.items()
                            if k.startswith("param/")})
    return model, extra, val_set, test_set


def _cmd_eval(args):
    model, extra, _, test_set = _restore_model(args.checkpoint, args.data)
    budget = count_params(model.graph)
    probs = 1.0 / (1.0 + np.exp(-model.predict(test_set)))
    rep = metrics.evaluate_predictions(extra["arm"], extra.get("seed", 0), probs,
                                       label_matrix(test_set), LABELS,
                                       budget.total_trainable, budget.total_params)
    print(rep.to_json())
    if args.out:
        Path(args.out).write_text(rep.to_json() + "\n")
    return 0


def _cmd_calibrate(args):
    model, _, val_set, test_set = _restore_model(args.checkpoint, args.data)
    val_logits = model.predict(val_set)
    test_logits = model.predict(test_set)
    y_test = label_matrix(test_set)
    t, probs_after = metrics.temperature_scale(val_logits, label_matrix(val_set),
                                               test_logits)
    probs_before = 1.0 / (1.0 + np.exp(-test_logits))
    result = {
        "temperature": t,
        "ece_before": metrics.ece(probs_before, y_test).ece,
        "ece_after": metrics.ece(probs_after, y_test).ece,
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_count_params(args):
    cfg = load_config(args.config)
    pathway = build_fusion(cfg["fusion"])
    report = count_params(pathway.graph)
    declared = cfg["total_params_declared"] or 94_300_000
    if args.json:
        print(report.to_json(declared))
    else:
        names = {"fusion/vision_proj": "Vision Projection Layer",
                 "fusion/attention": "Cross-modal Attention",
                 "fusion/text_proj": "Text Projection Layer",
                 "fusion/head": "Classification Head"}
        for key in ("fusion/vision_proj", "fusion/attention",
                    "fusion/text_proj", "fusion/head"):
            if key in report.components:
                print(f"{names[key]:<26} {report.components[key]:>12,}")
        print(f"{'Total Trainable':<26} {report.total_trainable:>12,}")
        print(f"{'Declared Total':<26} {declared:>12,}")
        print(f"{'Efficiency Ratio':<26} {report.efficiency_pct(declared):>11.2f}%")
    return 0


def _cmd_attribute(args):
    doc = _read_json_object(args.plan, "plan")
    arms = []
    for i, a in enumerate(doc.get("arms", [])):
        if not isinstance(a, dict) or "kind" not in a:
            raise InputError(f"{args.plan}: arms[{i}] needs a \"kind\", one of "
                             f"{', '.join(harness.ARM_KINDS)}")
        arms.append(harness.build_arm(a.pop("kind"), a))
    split = SplitSpec(**doc.get("split", {}))
    train_cfg = load_config(None, {"train": doc.get("train", {})})["train"]
    plan = harness.ExperimentPlan(arms, split, train_cfg)
    result = harness.run_plan(plan, data_mod.load_manifest(args.data), args.out)
    print(json.dumps({"arm_mean_auroc": result.arm_means,
                      "fusion_effect": result.fusion_effect,
                      "scaling_effect": result.scaling_effect,
                      "failures": result.failures}, indent=2, sort_keys=True))
    return 0 if not result.failures else 2


def _cmd_report(args):
    summary = harness.recompute_from_artifacts(args.results)
    print(json.dumps(summary, indent=2, sort_keys=True))
    Path(args.results, "attribution_recomputed.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
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
    except PetfuseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
