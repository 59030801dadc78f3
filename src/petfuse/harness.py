"""Budget-matched attribution experiment: arm construction, training runs,
results persistence, and efficiency tables.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import build_section, check_type
from .data import LABELS, SplitSpec, label_matrix, split_patients
from .encoders import MiniTextEncoder, Tokenizer
from .errors import InputError, NumericError, PetfuseError, SearchError
from .fusion import FusionConfig, FusionPathway
from .metrics import (EvalReport, evaluate_predictions, macro_auroc,
                      write_per_label_csv, write_reports_csv)
from .model import ModelGraph
from .pet import (ENCODER_PREFIX, AdapterConfig, LoRAConfig, apply_policy,
                  count_params)
from .training import TrainConfig, train_loop

ARM_KINDS = ("vision_only", "budget_matched", "full_pet")

VISION_ONLY_PARAMS = 2048 * 512 + 512 * 14  # 1,055,744


# -- budget search ------------------------------------------------------------


def _search_head_hidden(d: int) -> int:
    """Head hidden width for a candidate shared dim: half of d, rounded down
    to a power of two (so candidate counts step coarsely and deterministically).
    """
    h = 1
    while h * 2 <= d // 2:
        h *= 2
    return h


def search_shared_dim(target: int, tolerance: float = 0.01):
    """Smallest-|count - target| fusion config over shared dims 8..512 (step 8).

    Returns (d, head_hidden, count). Deterministic; ties go to smaller d.
    """
    candidates = []
    for d in range(8, 513, 8):
        h = _search_head_hidden(d)
        cfg = FusionConfig(shared_dim=d, head_hidden=h)
        candidates.append((abs(cfg.param_count() - target), d, h, cfg.param_count()))
    candidates.sort(key=lambda c: (c[0], c[1]))
    best = candidates[0]
    if best[0] / target > tolerance:
        nearest = [{"shared_dim": d, "head_hidden": h, "count": n}
                   for _, d, h, n in candidates[:3]]
        raise SearchError(f"no fusion config within {tolerance:.0%} of {target}; "
                          f"nearest: {nearest}")
    return best[1], best[2], best[3]


# -- models -------------------------------------------------------------------


class _Standardizer:
    """Per-feature z-scoring fitted once on the training split.

    Frozen-encoder features carry a large constant component that swamps the
    informative variation unless removed, so both arms standardize their
    inputs with training-set statistics (a fixed, deterministic transform).
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.mu = None
        self.sd = None

    def fit(self, features: np.ndarray):
        self.mu = features.mean(axis=0)
        self.sd = features.std(axis=0) + 1e-6

    def state(self) -> dict:
        """The fitted statistics as float lists; JSON round-trips them exactly."""
        return {"mu": self.mu.tolist(), "sd": self.sd.tolist()}

    def load_state(self, doc, what: str):
        """Set the statistics from `state()`'s output; InputError, naming
        `what`, unless both are `dim` finite floats and every sd is positive."""
        if not isinstance(doc, dict) or set(doc) != {"mu", "sd"}:
            raise InputError(f"{what} must be an object with keys mu and sd")
        stats = {}
        for key in ("mu", "sd"):
            values = doc[key]
            if not isinstance(values, list) or len(values) != self.dim or not all(
                    type(v) is float and math.isfinite(v) for v in values):
                raise InputError(f"{what} {key} must be a list of {self.dim} finite floats")
            stats[key] = np.asarray(values)
        if (stats["sd"] <= 0).any():
            raise InputError(f"{what} sd must be positive")
        self.mu, self.sd = stats["mu"], stats["sd"]

    def apply(self, features: np.ndarray) -> np.ndarray:
        if self.mu is None:
            return features
        return (features - self.mu) / self.sd


def vision_matrix(samples) -> np.ndarray:
    """(B, 2048) float64 matrix of the samples' precomputed vision features."""
    for s in samples:
        if s.vision_features is None:
            raise InputError(f"sample {s.id} has no vision_features")
    return np.asarray([s.vision_features for s in samples], dtype=np.float64)


class VisionOnlyModel:
    """Frozen vision features into a trainable bias-free 2048->512->14 head."""

    def __init__(self, seed: int = 0):
        self.graph = ModelGraph()
        rng = ad.make_rng(seed, "init", "vision_only")
        self.graph.add_param("head/w1", rng.normal(0, 1 / np.sqrt(2048), (2048, 512)),
                             trainable=True)
        self.graph.add_param("head/w2", rng.normal(0, 1 / np.sqrt(512), (512, 14)),
                             trainable=True)
        self.vision_norm = _Standardizer(2048)
        self.normalizers = {"vision": self.vision_norm}

    def fit_normalizer(self, train_samples):
        self.vision_norm.fit(vision_matrix(train_samples))

    def logits_batch(self, samples, training=False, epoch=0, seed=0):
        binding = self.graph.bind()
        v = ad.Tensor(self.vision_norm.apply(vision_matrix(samples)))
        h = ad.relu(ad.matmul(v, binding["head/w1"]))
        return ad.matmul(h, binding["head/w2"]), binding

    def loss_batch(self, samples, training, epoch, seed):
        logits, binding = self.logits_batch(samples, training, epoch, seed)
        return ad.bce_with_logits(logits, label_matrix(samples)), binding

    def predict(self, samples):
        logits, _ = self.logits_batch(samples)
        return logits.data

    def validation_auroc(self, samples):
        return macro_auroc(self.predict(samples), label_matrix(samples))


class MultimodalModel:
    """Precomputed vision features + mini text encoder + fusion pathway."""

    def __init__(self, fusion_cfg: FusionConfig, tokenizer: Tokenizer,
                 seed: int = 0, policy: str = "frozen",
                 lora_cfg: LoRAConfig | None = None,
                 adapter_cfg: AdapterConfig | None = None):
        self.graph = ModelGraph()
        self.text = MiniTextEncoder(self.graph, tokenizer, seed=seed)
        self.fusion = FusionPathway(self.graph, fusion_cfg, seed=seed)
        self.cfg = fusion_cfg
        apply_policy(self.graph, policy, lora_cfg=lora_cfg,
                     adapter_cfg=adapter_cfg, seed=seed)
        # every parameter a policy injects is trainable and sits under the
        # encoder prefix, so with none trainable there the output is fixed
        self._text_static = not any(self.graph.params[a].trainable
                                    for a in self.graph.addresses(ENCODER_PREFIX))
        self._text_cache: dict[str, np.ndarray] = {}
        self.vision_norm = _Standardizer(fusion_cfg.vision_in)
        self.text_norm = _Standardizer(fusion_cfg.text_in)
        self.normalizers = {"vision": self.vision_norm, "text": self.text_norm}

    def fit_normalizer(self, train_samples):
        self.vision_norm.fit(vision_matrix(train_samples))
        binding = self.graph.bind()
        # one report per call, so a trainable encoder's tape never spans the split
        self.text_norm.fit(np.concatenate(
            [self._text_features(binding, [s]).data for s in train_samples]))

    def _text_features(self, binding, samples) -> ad.Tensor:
        """(B, 768) encoder output. A frozen encoder is a fixed function of
        the report, so each report is encoded once and cached by sample id;
        a trainable one is encoded live so gradients reach it."""
        if not self._text_static:
            return ad.concat_rows([self.text.encode(binding, s.text) for s in samples])
        for s in samples:
            if s.id not in self._text_cache:
                self._text_cache[s.id] = self.text.encode(binding, s.text).data[0]
        return ad.Tensor(np.asarray([self._text_cache[s.id] for s in samples]))

    def _standardize_text(self, t):
        if self.text_norm.mu is None:
            return t
        # affine transform expressed through the graph so gradients still
        # reach the encoder when it holds trainable parameters
        shift = ad.Tensor(-self.text_norm.mu)
        scale = ad.Tensor(1.0 / self.text_norm.sd)
        return ad.mul(ad.add(t, shift), scale)

    def logits_batch(self, samples, training=False, epoch=0, seed=0):
        binding = self.graph.bind()
        v = ad.Tensor(self.vision_norm.apply(vision_matrix(samples)))
        t = self._standardize_text(self._text_features(binding, samples))
        uniform = None
        if training and self.cfg.dropout_p > 0:
            # one draw row per sample, keyed by (seed, epoch, sample id) so the
            # trajectory is invariant to micro-batch boundaries
            uniform = np.asarray([ad.make_rng(seed, "dropout", epoch, s.id)
                                  .random(self.cfg.shared_dim) for s in samples])
        return self.fusion.forward(binding, v, t, training=training,
                                   dropout_uniform=uniform), binding

    def loss_batch(self, samples, training, epoch, seed):
        logits, binding = self.logits_batch(samples, training, epoch, seed)
        return ad.bce_with_logits(logits, label_matrix(samples)), binding

    def predict(self, samples):
        logits, _ = self.logits_batch(samples)
        return logits.data

    def validation_auroc(self, samples):
        return macro_auroc(self.predict(samples), label_matrix(samples))


# -- plans ---------------------------------------------------------------------


@dataclass
class ArmSpec:
    name: str
    kind: str
    policy: str = "frozen"
    fusion: FusionConfig = field(default_factory=FusionConfig)
    budget_target: int | None = None
    seeds: list[int] = field(default_factory=lambda: [0])


@dataclass
class ExperimentPlan:
    arms: list[ArmSpec]
    split: SplitSpec = field(default_factory=SplitSpec)
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self):
        if not self.arms:
            raise InputError("plan has no arms")
        names = [a.name for a in self.arms]
        if len(set(names)) != len(names):
            raise InputError("arm names must be unique")
        for a in self.arms:
            if not a.seeds:
                raise InputError(f"arm {a.name!r} has no seeds")
            if a.kind not in ARM_KINDS:
                raise InputError(f"unknown arm kind {a.kind!r}")


def build_arm(kind: str, overrides: dict | None = None) -> ArmSpec:
    """Canonical arm configs for the attribution triad."""
    if kind not in ARM_KINDS:
        raise InputError(f"unknown arm kind {kind!r}")
    overrides = dict(overrides or {})
    seeds = overrides.pop("seeds", [0])
    # an empty list is left to ExperimentPlan.validate
    if not isinstance(seeds, list) or any(isinstance(s, bool) or not isinstance(s, int)
                                          for s in seeds):
        raise InputError(f"arm {kind!r}: seeds must be a list of ints, got {seeds!r}")
    policy = overrides.pop("policy", "frozen")
    if kind != "full_pet" and policy != "frozen":
        raise InputError(f"arm kind {kind!r} is always frozen; "
                         f"policy {policy!r} does not apply to it")
    if kind == "vision_only" and "fusion" in overrides:
        raise InputError("arm kind 'vision_only' has no fusion pathway to override")
    if kind == "vision_only":
        arm = ArmSpec("vision_only", kind, policy="frozen",
                      budget_target=VISION_ONLY_PARAMS, seeds=seeds)
    elif kind == "budget_matched":
        d, h, count = search_shared_dim(VISION_ONLY_PARAMS)
        arm = ArmSpec("budget_matched", kind, policy="frozen",
                      fusion=FusionConfig(shared_dim=d, head_hidden=h),
                      budget_target=count, seeds=seeds)
    else:
        arm = ArmSpec("full_pet", kind, policy=policy,
                      budget_target=FusionConfig().param_count(), seeds=seeds)
    for key, value in overrides.items():
        if key == "fusion":
            build_section("fusion", FusionConfig, value)  # rejects bad keys and types
            arm.fusion = replace(arm.fusion, **value)
        elif key in ("name", "budget_target"):
            check_type(f"arm {kind!r} {key}", value, "" if key == "name" else None)
            setattr(arm, key, value)
        else:
            raise InputError(f"unknown arm override {key!r}")
    return arm


def _build_model(arm: ArmSpec, tokenizer, seed: int,
                 lora_cfg: LoRAConfig | None = None,
                 adapter_cfg: AdapterConfig | None = None):
    if arm.kind == "vision_only":
        return VisionOnlyModel(seed=seed)
    return MultimodalModel(arm.fusion, tokenizer, seed=seed, policy=arm.policy,
                           lora_cfg=lora_cfg, adapter_cfg=adapter_cfg)


def sigmoid(logits: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-logits)); exp overflows only where the result, 0, is exact."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-logits))


def predict_logits(model, samples) -> np.ndarray:
    """`model.predict(samples)`; NumericError on a float64 overflow or invalid op."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return model.predict(samples)
    except FloatingPointError as e:
        raise NumericError(f"model forward pass: {e}") from e


def evaluate_model(model, method: str, seed: int, samples) -> EvalReport:
    """The evaluation report of `model`'s probabilities on `samples`."""
    budget = count_params(model.graph)
    return evaluate_predictions(method, seed, sigmoid(predict_logits(model, samples)),
                                label_matrix(samples), LABELS,
                                budget.total_trainable, budget.total_params)


@dataclass
class AttributionResult:
    per_arm: dict[str, list[EvalReport]]
    arm_means: dict[str, float]
    fusion_effect: float | None
    scaling_effect: float | None
    failures: dict[str, str] = field(default_factory=dict)


def compute_deltas(arm_means: dict[str, float]):
    """Fusion effect: budget-matched minus vision-only; scaling effect:
    full PET minus budget-matched. None when an arm is missing."""
    fusion_effect = scaling_effect = None
    if "budget_matched" in arm_means and "vision_only" in arm_means:
        fusion_effect = arm_means["budget_matched"] - arm_means["vision_only"]
    if "full_pet" in arm_means and "budget_matched" in arm_means:
        scaling_effect = arm_means["full_pet"] - arm_means["budget_matched"]
    return fusion_effect, scaling_effect


def run_plan(plan: ExperimentPlan, samples, out_dir) -> AttributionResult:
    """Train every arm x seed, evaluate on the test split, persist artifacts."""
    plan.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_set, val_set, test_set = split_patients(samples, plan.split)
    tokenizer = Tokenizer.build([s.text for s in train_set])

    per_arm: dict[str, list[EvalReport]] = {}
    failures: dict[str, str] = {}
    all_reports = []
    for arm in plan.arms:
        reports = []
        for seed in arm.seeds:
            try:
                model = _build_model(arm, tokenizer, seed)
                train_loop(model, train_set, val_set, replace(plan.train, seed=seed))
                reports.append(evaluate_model(model, arm.name, seed, test_set))
            except PetfuseError as e:  # record and continue with other arms
                failures[f"{arm.name}/seed{seed}"] = f"{type(e).__name__}: {e}"
        if reports:
            per_arm[arm.name] = reports
            write_reports_csv(out / f"arm_{arm.name}.csv", reports)
            write_per_label_csv(out / f"arm_{arm.name}_per_label.csv", reports, LABELS)
            all_reports.extend(reports)

    arm_means = {name: float(np.mean([r.auroc_macro for r in reps]))
                 for name, reps in per_arm.items()}
    fusion_effect, scaling_effect = compute_deltas(arm_means)

    write_reports_csv(out / "summary.csv", all_reports)
    with open(out / "attribution.json", "w") as f:
        json.dump({"arm_mean_auroc": arm_means,
                   "fusion_effect": fusion_effect,
                   "scaling_effect": scaling_effect,
                   "failures": failures}, f, indent=2, sort_keys=True)
    with open(out / "efficiency.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["method", "auroc", "trainable_params",
                    "auroc_per_million", "efficiency_ratio"])
        for row in efficiency_table([
                {"method": name,
                 "auroc": arm_means[name],
                 "trainable_params": per_arm[name][0].trainable_params}
                for name in per_arm]):
            w.writerow([row["method"], f"{row['auroc']:.6f}",
                        row["trainable_params"], row["auroc_per_million"],
                        row["efficiency_ratio"]])
    return AttributionResult(per_arm, arm_means, fusion_effect, scaling_effect,
                             failures)


def efficiency_table(results):
    """AUROC-per-million-trainable-params rows; reference ratio is row 1."""
    rows = []
    for r in results:
        params = r["trainable_params"]
        if params <= 0:
            rows.append({**r, "auroc_per_million": None,
                         "efficiency_ratio": "undefined"})
            continue
        # reported in milli-AUROC per million trainable parameters so the
        # headline numbers land in a readable integer range
        rows.append({**r, "auroc_per_million":
                     round(1000 * r["auroc"] / (params / 1e6))})
    ref = next((row["auroc_per_million"] for row in rows
                if row.get("auroc_per_million")), None)
    for row in rows:
        if row.get("efficiency_ratio") == "undefined":
            continue
        apm = row["auroc_per_million"]
        row["efficiency_ratio"] = (f"{apm / ref:.2f}x" if ref else "undefined")
    return rows


def recompute_from_artifacts(out_dir):
    """Re-derive attribution deltas purely from the stored per-arm CSVs."""
    out = Path(out_dir)
    arm_means = {}
    for path in sorted(out.glob("arm_*.csv")):
        if path.name.endswith("_per_label.csv"):
            continue
        with open(path) as f:
            rows = list(csv.DictReader(f))
        if rows:
            arm_means[rows[0]["method"]] = float(
                np.mean([float(r["auroc_macro"]) for r in rows]))
    fusion_effect, scaling_effect = compute_deltas(arm_means)
    return {"arm_mean_auroc": arm_means, "fusion_effect": fusion_effect,
            "scaling_effect": scaling_effect}
