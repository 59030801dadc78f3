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

from . import __version__
from . import data as data_mod
from . import harness, metrics, redaction
from .config import build_section, check_type, echo_config, load_config
from .data import SplitSpec, label_matrix
from .encoders import Tokenizer
from .errors import ConfigError, InputError, PetfuseError
from .fusion import FusionConfig, build_fusion
from .pet import AdapterConfig, LoRAConfig, count_params
from .training import TrainConfig, load_checkpoint, save_checkpoint, train_loop


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


def _read_json_object(path, what: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # malformed JSON or not UTF-8
        raise InputError(f"{path}: invalid {what} JSON ({e})") from e
    if not isinstance(doc, dict):
        raise InputError(f"{path}: {what} must be a JSON object")
    return doc


def _emit(doc, out=None):
    """Print a JSON document (a dict, or text already in JSON) and, given a
    path, write the same text there."""
    text = doc if isinstance(doc, str) else json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if out:
        Path(out).write_text(text + "\n")


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
    _emit(result, args.out)
    return 0


# The model sections of a config, each with whether the config's arm and
# policy read it: only full_pet takes a fusion config, and only the lora and
# adapter policies read theirs.
_SECTIONS = {"fusion": (FusionConfig, lambda cfg: cfg["arm"] == "full_pet"),
             "lora": (LoRAConfig, lambda cfg: cfg["policy"] == "lora"),
             "adapter": (AdapterConfig, lambda cfg: cfg["policy"] == "adapter")}


def _load_arm_model(cfg, tokenizer, seed):
    arm = harness.build_arm(cfg["arm"], {"policy": cfg["policy"],
                                         "seeds": [seed]})
    if cfg["arm"] == "full_pet":
        arm.fusion = cfg["fusion"]
    return arm, harness._build_model(arm, tokenizer, seed, lora_cfg=cfg["lora"],
                                     adapter_cfg=cfg["adapter"])


def _cmd_train(args):
    cfg = load_config(args.config)
    for name, (cls, reads) in _SECTIONS.items():
        if not reads(cfg) and cfg[name] != cls():
            raise ConfigError(f"arm {cfg['arm']!r} with policy {cfg['policy']!r} "
                              f"would ignore config section {name!r}")
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
                                  "best_val_auroc": result.best_val_auroc},
                    state={"vocab": tokenizer.tokens(),
                           "normalizers": {name: norm.state() for name, norm
                                           in model.normalizers.items()}})
    print(f"best epoch {result.best_epoch}, val AUROC {result.best_val_auroc:.4f}")
    return 0


def _header_config(path, extra) -> dict:
    """The arm, policy, seed and section configs a checkpoint header records."""
    keys = ["arm", "policy", "seed", *_SECTIONS]
    try:
        if not isinstance(extra, dict) or not set(keys) <= set(extra):
            raise ConfigError(f"extra must be an object with {', '.join(keys)}")
        cfg = {key: extra[key] for key in ("arm", "policy", "seed")}
        for key, default in (("arm", ""), ("policy", ""), ("seed", 0)):
            check_type(key, cfg[key], default)
        for key, (cls, _) in _SECTIONS.items():
            cfg[key] = build_section(key, cls, extra[key])
    except ConfigError as e:
        raise InputError(f"{path}: checkpoint header: {e}") from e
    return cfg


def _check_claimed_sizes(path, cfg, params):
    """InputError unless each size the header claims for a section the model
    reads is that of the stored arrays, so that no model is built larger
    than the checkpoint holds."""
    def held(suffix):  # the trailing dims of the arrays at addresses ending in suffix
        return {a.shape[1:] for name, a in params.items() if name.endswith(suffix)}

    fusion_count = sum(a.size for name, a in params.items() if name.startswith("fusion/"))
    claims = {"fusion": ("parameter count", cfg["fusion"].param_count(), {(fusion_count,)}),
              "lora": ("rank", cfg["lora"].rank, held("/lora_a")),
              "adapter": ("bottleneck", cfg["adapter"].bottleneck, held("/adapter/down_w"))}
    for name, (_, reads) in _SECTIONS.items():
        what, claimed, stored = claims[name]
        if reads(cfg) and stored != {(claimed,)}:
            raise InputError(f"{path}: checkpoint header claims a {name} {what} of "
                             f"{claimed}, which its arrays do not hold")


def _restore_model(checkpoint, manifest):
    """The model a checkpoint holds, with its stored vocabulary and
    normalizers, and the validation and test splits of `manifest` under the
    checkpoint's seed."""
    header, arrays = load_checkpoint(checkpoint)
    cfg = _header_config(checkpoint, header.get("extra"))
    state = header.get("state")
    if not isinstance(state, dict) or set(state) != {"vocab", "normalizers"}:
        raise InputError(f"{checkpoint}: checkpoint state must be an object "
                         f"with vocab and normalizers")
    params = {k[len("param/"):]: v for k, v in arrays.items() if k.startswith("param/")}
    _check_claimed_sizes(checkpoint, cfg, params)
    samples = data_mod.load_manifest(manifest)
    _, val_set, test_set = data_mod.split_patients(samples, SplitSpec(seed=cfg["seed"]))
    _, model = _load_arm_model(cfg, Tokenizer.from_tokens(state["vocab"]), cfg["seed"])
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
    _emit(harness.evaluate_model(model, cfg["arm"], cfg["seed"], test_set).to_json(),
          args.out)
    return 0


def _cmd_calibrate(args):
    model, _, val_set, test_set = _restore_model(args.checkpoint, args.data)
    val_logits = harness.predict_logits(model, val_set)
    test_logits = harness.predict_logits(model, test_set)
    y_test = label_matrix(test_set)
    t, probs_after = metrics.temperature_scale(val_logits, label_matrix(val_set),
                                               test_logits)
    _emit({"temperature": t,
           "ece_before": metrics.ece(harness.sigmoid(test_logits), y_test).ece,
           "ece_after": metrics.ece(probs_after, y_test).ece}, args.out)
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
    arm_docs = doc.get("arms", [])
    if not isinstance(arm_docs, list):
        raise InputError(f"{args.plan}: arms must be a list of arm objects")
    arms = []
    for i, a in enumerate(arm_docs):
        if not isinstance(a, dict) or "kind" not in a:
            raise InputError(f"{args.plan}: arms[{i}] needs a \"kind\", one of "
                             f"{', '.join(harness.ARM_KINDS)}")
        arms.append(harness.build_arm(a.pop("kind"), a))
    plan = harness.ExperimentPlan(
        arms, build_section("split", SplitSpec, doc.get("split", {})),
        build_section("train", TrainConfig, doc.get("train", {})))
    result = harness.run_plan(plan, data_mod.load_manifest(args.data), args.out)
    print(Path(args.out, "attribution.json").read_text())
    if result.failures:
        run, reason = next(iter(result.failures.items()))
        print(f"error: {len(result.failures)} arm run(s) failed; first {run}: {reason}",
              file=sys.stderr)
        return 2
    return 0


def _cmd_report(args):
    _emit(harness.recompute_from_artifacts(args.results),
          Path(args.results, "attribution_recomputed.json"))
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
    except (PetfuseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
