"""Budget-matched attribution experiment: arm construction, training runs,
results persistence, and efficiency tables.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import build_section, read_json_object
from .data import LABELS, NUM_LABELS, VISION_DIM, SplitSpec, label_matrix, split_patients
from .encoders import TEXT_DIM, MiniTextEncoder, Tokenizer
from .errors import ConfigError, InputError, PetfuseError, SearchError, numeric_guard
from .fusion import FusionConfig, FusionPathway
from .metrics import (EvalReport, UndefinedMetric, evaluate_predictions, macro_auroc,
                      sigmoid, write_per_label_csv, write_reports_csv)
from .model import ModelGraph
from .pet import (ENCODER_PREFIX, POLICIES, AdapterConfig, LoRAConfig, apply_policy,
                  count_params)
from .training import TrainConfig, train_loop

ARM_KINDS = ("vision_only", "budget_matched", "full_pet")

# The vision-only head's hidden width; its two weights hold 1,055,744 values.
VISION_HIDDEN = 512
VISION_ONLY_PARAMS = VISION_DIM * VISION_HIDDEN + VISION_HIDDEN * NUM_LABELS

# Reports per text-encoder tape: the default micro-batch (TrainConfig.batch).
ENCODE_CHUNK = 16


def _chunks(items, size: int = ENCODE_CHUNK) -> list:
    return [items[i:i + size] for i in range(0, len(items), size)]


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
    Until fitted or loaded it is the identity: mu 0 and sd 1.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.mu = np.zeros(dim)
        self.sd = np.ones(dim)

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
        return (features - self.mu) / self.sd


def vision_matrix(samples) -> np.ndarray:
    """(B, VISION_DIM) float64 matrix of the samples' precomputed vision features."""
    for s in samples:
        if s.vision_features is None:
            raise InputError(f"sample {s.id} has no vision_features")
    return np.stack([s.vision_features for s in samples], dtype=np.float64)


class VisionOnlyModel:
    """Frozen vision features into a trainable bias-free two-layer ReLU head,
    drawn from `seed`, or taken from `stored` (address -> array) if given."""

    def __init__(self, seed: int = 0, stored: dict[str, np.ndarray] | None = None):
        self.graph = ModelGraph(stored=stored)
        rng = ad.make_rng(seed, "init", "vision_only")
        for name, n_in, n_out in (("head/w1", VISION_DIM, VISION_HIDDEN),
                                  ("head/w2", VISION_HIDDEN, NUM_LABELS)):
            self.graph.add_drawn(name, (n_in, n_out),
                                 lambda shape: rng.normal(0, 1 / np.sqrt(shape[0]), shape))
        self.vision_norm = _Standardizer(VISION_DIM)
        self.normalizers = {"vision": self.vision_norm}

    def fit_normalizer(self, train_samples):
        self.vision_norm.fit(vision_matrix(train_samples))

    def logits_batch(self, samples, training=False, epoch=0, seed=0):
        binding = self.graph.bind(training)
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
    """Precomputed vision features + mini text encoder + fusion pathway.

    A frozen encoder's features are read from and written to `text_store`
    (sample id -> (768,) row); models whose frozen encoders are equal may
    share one. Without a store a frozen model keeps a private one, and a
    trainable encoder never touches it. `stored` (address -> array, from a
    checkpoint), if given, supplies every trainable weight construction
    would otherwise draw; the encoder's frozen weights are drawn from `seed`
    either way.
    """

    def __init__(self, fusion_cfg: FusionConfig, tokenizer: Tokenizer,
                 seed: int = 0, policy: str = "frozen",
                 lora_cfg: LoRAConfig | None = None,
                 adapter_cfg: AdapterConfig | None = None,
                 text_store: dict[str, np.ndarray] | None = None,
                 stored: dict[str, np.ndarray] | None = None):
        self.graph = ModelGraph(stored=stored)
        self.text = MiniTextEncoder(self.graph, tokenizer, seed=seed)
        self.fusion = FusionPathway(self.graph, fusion_cfg, seed=seed)
        apply_policy(self.graph, policy, lora_cfg=lora_cfg,
                     adapter_cfg=adapter_cfg, seed=seed)
        # every parameter a policy injects is trainable and sits under the
        # encoder prefix, so with none trainable there the output is fixed
        self._text_store = None
        if not any(self.graph.params[a].trainable
                   for a in self.graph.addresses(ENCODER_PREFIX)):
            self._text_store = {} if text_store is None else text_store
        self.vision_norm = _Standardizer(VISION_DIM)
        self.text_norm = _Standardizer(TEXT_DIM)
        self.normalizers = {"vision": self.vision_norm, "text": self.text_norm}

    def fit_normalizer(self, train_samples):
        self.vision_norm.fit(vision_matrix(train_samples))
        self.text_norm.fit(self._text_features(self.graph.bind(), train_samples).data)

    def _text_features(self, binding, samples) -> ad.Tensor:
        """(B, 768) encoder output, ENCODE_CHUNK reports per encoder tape. A
        frozen encoder is a fixed function of the report, so each report is
        encoded once into the text store, keyed by sample id; a trainable
        one is encoded live so gradients reach it."""
        store = self._text_store
        if store is None:
            return ad.concat_rows([self.text.encode(binding, [s.text for s in chunk])
                                   for chunk in _chunks(samples)])
        missing = list({s.id: s for s in samples if s.id not in store}.values())
        for chunk in _chunks(missing):
            rows = self.text.encode(binding, [s.text for s in chunk]).data
            rows.flags.writeable = False
            store.update(zip((s.id for s in chunk), rows))
        return ad.Tensor(np.stack([store[s.id] for s in samples]))

    def _standardize_text(self, t):
        # affine transform expressed through the graph so gradients still
        # reach the encoder when it holds trainable parameters
        shift = ad.Tensor(-self.text_norm.mu)
        scale = ad.Tensor(1.0 / self.text_norm.sd)
        return ad.mul(ad.add(t, shift), scale)

    def logits_batch(self, samples, training=False, epoch=0, seed=0):
        binding = self.graph.bind(training)
        v = ad.Tensor(self.vision_norm.apply(vision_matrix(samples)))
        t = self._standardize_text(self._text_features(binding, samples))
        uniform = None
        if training and self.fusion.cfg.dropout_p > 0:
            # one draw row per sample, keyed by (seed, epoch, sample id) so the
            # trajectory is invariant to micro-batch boundaries
            uniform = np.asarray([ad.make_rng(seed, "dropout", epoch, s.id)
                                  .random(self.fusion.cfg.shared_dim) for s in samples])
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


# An arm's name names its CSV files: arm_<name>.csv and arm_<name>_per_label.csv.
_ARM_NAME = re.compile(r"[A-Za-z0-9_-]+")


def _check_arm_name(name: str):
    if not _ARM_NAME.fullmatch(name) or name.endswith("_per_label"):
        raise InputError(f"arm name {name!r} must match {_ARM_NAME.pattern} "
                         f"and not end in _per_label")


@dataclass
class ArmSpec:
    """An arm as its kind trains it, named after its kind unless named: the
    one holder of an arm's rules and the one model builder. An InputError
    for an unknown kind or policy, or for a policy or fusion that the kind
    ignores and that differs from its default; a budget_matched arm is sized
    to vision_only's count, and also takes the fusion that sizing sets, so
    that a copy of it builds."""
    kind: str
    name: str = ""  # empty: the kind's own name
    policy: str = "frozen"
    fusion: FusionConfig = field(default_factory=FusionConfig)
    seeds: list[int] = field(default_factory=lambda: [0])

    def __post_init__(self):
        if self.kind not in ARM_KINDS:
            raise InputError(f"unknown arm kind {self.kind!r}; expected one of "
                             f"{', '.join(ARM_KINDS)}")
        self.name = self.name or self.kind
        policies = POLICIES if self.kind == "full_pet" else ("frozen",)
        if self.policy not in policies:
            raise InputError(f"arm {self.name!r}: policy {self.policy!r} is not one of "
                             f"{', '.join(policies)}, the policies of kind {self.kind!r}")
        sized = None
        if self.kind == "budget_matched":
            d, h, _ = search_shared_dim(VISION_ONLY_PARAMS)
            sized = FusionConfig(shared_dim=d, head_hidden=h)
        if self.kind != "full_pet" and self.fusion not in (FusionConfig(), sized):
            raise InputError(f"arm kind {self.kind!r} takes no fusion override; "
                             "only full_pet does")
        self.fusion = sized or self.fusion

    def build(self, tokenizer, seed: int, lora: LoRAConfig | None = None,
              adapter: AdapterConfig | None = None,
              text_store: dict[str, np.ndarray] | None = None,
              stored: dict[str, np.ndarray] | None = None):
        """The arm's model, its weights drawn from `seed`, or taken from
        `stored` (address -> array) if given. A ConfigError, before anything
        is drawn, for a lora or adapter section that differs from its default
        while the policy does not read it."""
        for name, section in (("lora", lora), ("adapter", adapter)):
            if self.policy != name and section not in (None, type(section)()):
                raise ConfigError(f"arm {self.name!r} with policy {self.policy!r} "
                                  f"would ignore config section {name!r}")
        if self.kind == "vision_only":
            return VisionOnlyModel(seed=seed, stored=stored)
        return MultimodalModel(self.fusion, tokenizer, seed=seed, policy=self.policy,
                               lora_cfg=lora, adapter_cfg=adapter,
                               text_store=text_store, stored=stored)


@dataclass
class ExperimentPlan:
    arms: list[ArmSpec]
    split: SplitSpec = field(default_factory=SplitSpec)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not self.arms:
            raise InputError("plan has no arms")
        if self.train.seed != TrainConfig.seed:
            raise InputError("a plan takes no train.seed: each arm's seeds seed its "
                             "models, and split.seed seeds the split")
        names = [a.name for a in self.arms]
        if len(set(names)) != len(names):
            raise InputError("arm names must be unique")
        for a in self.arms:
            _check_arm_name(a.name)
            if not a.seeds:
                raise InputError(f"arm {a.name!r} has no seeds")
            if len(set(a.seeds)) != len(a.seeds):
                raise InputError(f"arm {a.name!r} repeats a seed: {a.seeds}")


def read_plan(doc) -> ExperimentPlan:
    """The plan a JSON object describes, each arm under its kind's rules."""
    return build_section("plan", ExperimentPlan, doc)


def predict_logits(model, samples) -> np.ndarray:
    """`model.predict(samples)`; NumericError on a float64 overflow or invalid op."""
    with numeric_guard("model forward pass"):
        return model.predict(samples)


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

    def summary(self) -> dict:
        """The arm means and deltas, as `report` prints them."""
        return {"arm_mean_auroc": self.arm_means, "fusion_effect": self.fusion_effect,
                "scaling_effect": self.scaling_effect}


def compute_deltas(arm_means: dict[str, float]):
    """Fusion effect: budget-matched minus vision-only; scaling effect:
    full PET minus budget-matched. None when an arm is missing."""
    fusion_effect = scaling_effect = None
    if "budget_matched" in arm_means and "vision_only" in arm_means:
        fusion_effect = arm_means["budget_matched"] - arm_means["vision_only"]
    if "full_pet" in arm_means and "budget_matched" in arm_means:
        scaling_effect = arm_means["full_pet"] - arm_means["budget_matched"]
    return fusion_effect, scaling_effect


@dataclass
class ArmRun:
    """One arm x seed: its model's sizes and its logits on the test split."""
    arm: str
    seed: int
    trainable_params: int
    total_params: int
    sample_ids: list[str]
    logits: list[list[float]]
    labels: list[list[int]]


@dataclass
class Predictions:
    runs: list[ArmRun]


def summarize(out_dir) -> AttributionResult:
    """Evaluate each run in `out_dir`'s predictions.json, where an (arm, seed)
    appears once, and write the arm, per-label, summary and efficiency tables
    from that file alone."""
    out = Path(out_dir)
    path = out / "predictions.json"
    doc = read_json_object(path, "predictions")
    try:
        runs = build_section("predictions", Predictions, doc).runs
    except ConfigError as e:
        raise InputError(f"{path}: {e}") from e
    if len({(run.arm, run.seed) for run in runs}) != len(runs):
        raise InputError(f"{path}: an arm and seed appear in more than one run")
    per_arm: dict[str, list[EvalReport]] = {}
    for run in runs:
        _check_arm_name(run.arm)
        if not (0 < len(run.sample_ids) == len(run.logits) == len(run.labels)) or any(
                len(row) != NUM_LABELS for row in run.logits + run.labels) or not all(
                math.isfinite(v) for row in run.logits for v in row) or any(
                v not in (0, 1) for row in run.labels for v in row):
            raise InputError(f"{path}: run {run.arm}/seed{run.seed} must hold samples, "
                             f"each with {NUM_LABELS} finite logits and 0/1 labels")
        try:
            report = evaluate_predictions(
                run.arm, run.seed, sigmoid(np.asarray(run.logits, dtype=np.float64)),
                np.asarray(run.labels), LABELS, run.trainable_params, run.total_params)
        except UndefinedMetric as e:  # no label of the run holds both classes
            raise InputError(f"{path}: run {run.arm}/seed{run.seed}: {e}") from e
        per_arm.setdefault(run.arm, []).append(report)
    for name, reports in per_arm.items():
        write_reports_csv(out / f"arm_{name}.csv", reports)
        write_per_label_csv(out / f"arm_{name}_per_label.csv", reports, LABELS)
    write_reports_csv(out / "summary.csv", [r for reps in per_arm.values() for r in reps])

    arm_means = {name: float(np.mean([r.auroc_macro for r in reps]))
                 for name, reps in per_arm.items()}
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
    return AttributionResult(per_arm, arm_means, *compute_deltas(arm_means))


def run_plan(plan: ExperimentPlan, samples, out_dir) -> AttributionResult:
    """Train every arm x seed, keep its test logits in predictions.json and
    summarize that file; attribution.json adds the failed runs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_set, val_set, test_set = split_patients(samples, plan.split)
    tokenizer = Tokenizer.build([s.text for s in train_set])
    # Frozen text features, one store per seed keyed by sample id. Arms may
    # share a store because a frozen MiniTextEncoder is a function of
    # (tokenizer, seed) alone: its weights are drawn from the seed at sizes
    # the tokenizer fixes, whatever the fusion config; sample ids are unique.
    text_stores: dict[int, dict[str, np.ndarray]] = {}

    ids, labels = [s.id for s in test_set], label_matrix(test_set).tolist()
    runs: list[ArmRun] = []
    failures: dict[str, str] = {}

    def run_arm(arm, seed) -> ArmRun:
        # the model is freed on return, before the next arm's is built
        model = arm.build(tokenizer, seed, text_store=text_stores.setdefault(seed, {}))
        train_loop(model, train_set, val_set, replace(plan.train, seed=seed))
        budget = count_params(model.graph)
        return ArmRun(arm.name, seed, budget.total_trainable, budget.total_params,
                      ids, predict_logits(model, test_set).tolist(), labels)

    for arm in plan.arms:
        for seed in arm.seeds:
            try:
                runs.append(run_arm(arm, seed))
            except PetfuseError as e:  # record and continue with other arms
                failures[f"{arm.name}/seed{seed}"] = f"{type(e).__name__}: {e}"

    (out / "predictions.json").write_text(json.dumps(asdict(Predictions(runs))))
    result = summarize(out)
    result.failures = failures
    with open(out / "attribution.json", "w") as f:
        json.dump({**result.summary(), "failures": failures}, f, indent=2, sort_keys=True)
    return result


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
