"""Discrimination and calibration metrics plus post-hoc temperature scaling.

AUROC is the Mann-Whitney statistic (ties credited 0.5), AUPRC is step-wise
average precision, and multi-label ECE pools (sample, label) pairs into
equal-width confidence bins on [0.5, 1]. The calibration temperature is
fitted by bisection on the sign of the validation BCE's slope.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InputError, NumericError, PetfuseError


class UndefinedMetric(PetfuseError):
    """Raised when a label lacks the classes the metric needs."""


def auroc_label(scores, labels) -> float:
    """Fraction of (positive, negative) pairs correctly ordered; ties 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetric("auroc needs at least one positive and one negative")
    ranks = _average_ranks(scores)
    return (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of the 1-D array x, each tie given its group's mean
    rank; all NaN when x holds a NaN. Bit for bit scipy.stats.rankdata(x)
    under its defaults, whose tie formula this is: every rank is an integer
    or a half-integer, so each sum is exact."""
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="mergesort")
    s = x[order]
    first = np.concatenate(([True], s[1:] != s[:-1]))  # a tie group starts here
    dense = np.cumsum(first)  # 1-based tie group of each sorted element
    count = np.concatenate((np.nonzero(first)[0], [x.size]))  # group bounds
    ranks = np.empty(x.shape)
    ranks[order] = 0.5 * (count[dense] + count[dense - 1] + 1)
    return ranks


def auprc_label(scores, labels) -> float:
    """Average precision over descending-score threshold steps."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise UndefinedMetric("auprc needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    tp = np.cumsum(y == 1)
    n_seen = np.arange(1, len(y) + 1)
    # threshold steps sit at the last index of each distinct score
    last = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
    recall = tp[last] / n_pos
    precision = tp[last] / n_seen[last]
    prev_recall = np.concatenate(([0.0], recall[:-1]))
    return float(((recall - prev_recall) * precision).sum())


def macro_average(values) -> float:
    values = list(values)
    if not values:
        raise UndefinedMetric("macro average over zero valid labels")
    return float(np.mean(values))


def macro_auroc(scores, labels) -> float:
    """Mean AUROC over the label columns where AUROC is defined."""
    values = []
    for j in range(labels.shape[1]):
        try:
            values.append(auroc_label(scores[:, j], labels[:, j]))
        except UndefinedMetric:
            pass
    return macro_average(values)


@dataclass
class CalibrationReport:
    ece: float
    bins: list  # (mean confidence, accuracy, count) per non-empty bin


def ece(probs, labels, bins: int = 15) -> CalibrationReport:
    """Pooled multi-label expected calibration error.

    Confidence is max(p, 1-p); a pair is correct when (p >= 0.5) == y.
    Equal-width bins partition confidence on [0.5, 1].
    """
    p = np.asarray(probs, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    if p.size == 0:
        raise InputError("empty prediction set")
    if bins < 1:
        raise InputError("bins must be >= 1")
    if np.any(p < 0) or np.any(p > 1) or not np.isfinite(p).all():
        raise InputError("probabilities must be finite in [0, 1]")
    conf = np.maximum(p, 1.0 - p)
    correct = ((p >= 0.5).astype(int) == y).astype(np.float64)
    idx = np.minimum(((conf - 0.5) / 0.5 * bins).astype(int), bins - 1)
    total, value, rows = p.size, 0.0, []
    for b in range(bins):
        m = idx == b
        cnt = int(m.sum())
        if cnt == 0:
            continue
        c_mean, acc = float(conf[m].mean()), float(correct[m].mean())
        value += cnt / total * abs(acc - c_mean)
        rows.append((c_mean, acc, cnt))
    return CalibrationReport(float(value), rows)


def sigmoid(logits: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-logits)); exp overflows only where the result, 0, is exact."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-logits))


def fit_temperature(logits_val, labels_val) -> tuple[float, bool]:
    """Fit T in [1e-2, 1e2] minimizing validation BCE of sigmoid(logit / T).

    The BCE is convex in b = 1/T, so its slope mean(z * (sigmoid(b z) - y))
    does not decrease as b rises; bisecting b on the slope's sign until the
    midpoint equals an endpoint finds the bounded minimizer. Returns (T,
    at_bound): at_bound is true when the bisection never moved off one end of
    the range, so the unbounded minimizer lies at or beyond that end.
    """
    z = np.asarray(logits_val, dtype=np.float64)
    y = np.asarray(labels_val, dtype=np.float64)
    if z.size == 0:
        raise InputError("empty validation set")
    if not np.isfinite(z).all():
        raise NumericError("non-finite logits")

    lo, hi = 1e-2, 1e2
    while (b := 0.5 * (lo + hi)) not in (lo, hi):
        bz = b * z
        # sigmoid(bz) - y, written so that a saturated sigmoid keeps its sign
        if (z * ((1 - y) * sigmoid(bz) - y * sigmoid(-bz))).mean() >= 0:
            hi = b
        else:
            lo = b
    return 1.0 / b, lo == 1e-2 or hi == 1e2


# -- aggregate reports --------------------------------------------------------

CSV_COLUMNS = ["method", "seed", "auroc_macro", "auprc_macro", "ece",
               "trainable_params", "total_params", "efficiency_pct"]


@dataclass
class EvalReport:
    method: str
    seed: int
    auroc_macro: float
    auprc_macro: float
    ece: float
    trainable_params: int
    total_params: int
    per_label: dict[str, dict] = field(default_factory=dict)
    skipped_labels: list[str] = field(default_factory=list)

    @property
    def efficiency_pct(self) -> float:
        return 100.0 * self.trainable_params / self.total_params if self.total_params else 0.0

    def csv_row(self) -> list:
        return [self.method, self.seed, f"{self.auroc_macro:.6f}",
                f"{self.auprc_macro:.6f}", f"{self.ece:.6f}",
                self.trainable_params, self.total_params,
                f"{self.efficiency_pct:.4f}"]

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "efficiency_pct": self.efficiency_pct},
                          indent=2, sort_keys=True)


def evaluate_predictions(method: str, seed: int, probs, labels, label_names,
                         trainable_params: int = 0, total_params: int = 0) -> EvalReport:
    """Macro AUROC/AUPRC + pooled ECE over a multi-label prediction matrix."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    per_label, aurocs, auprcs, skipped = {}, [], [], []
    for j, name in enumerate(label_names):
        try:
            a = auroc_label(probs[:, j], labels[:, j])
            p = auprc_label(probs[:, j], labels[:, j])
        except UndefinedMetric:
            skipped.append(name)
            continue
        per_label[name] = {"auroc": a, "auprc": p, "n_pos": int(labels[:, j].sum())}
        aurocs.append(a)
        auprcs.append(p)
    report = ece(probs, labels)
    return EvalReport(method, seed, macro_average(aurocs), macro_average(auprcs),
                      report.ece, trainable_params, total_params, per_label, skipped)


def write_reports_csv(path, reports):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_COLUMNS)
        for r in reports:
            w.writerow(r.csv_row())


def write_per_label_csv(path, reports, label_names):
    """Per-label AUROC table, one method column per report."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["label"] + [f"{r.method}_seed{r.seed}" for r in reports])
        for name in label_names:
            row = [name]
            for r in reports:
                cell = r.per_label.get(name)
                row.append(f"{cell['auroc']:.6f}" if cell else "n/a")
            w.writerow(row)
