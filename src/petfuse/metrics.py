"""Discrimination and calibration metrics plus post-hoc temperature scaling.

AUROC is the Mann-Whitney statistic (ties credited 0.5), AUPRC is step-wise
average precision, and multi-label ECE pools (sample, label) pairs into
equal-width confidence bins on [0.5, 1].
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.stats import rankdata

from .errors import InputError, NumericError


class UndefinedMetric(Exception):
    """Raised when a label lacks the classes the metric needs."""


def auroc_label(scores, labels) -> float:
    """Fraction of (positive, negative) pairs correctly ordered; ties 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetric("auroc needs at least one positive and one negative")
    ranks = rankdata(scores)
    return (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


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


def macro_average(values, validity_mask=None) -> float:
    values = list(values)
    if validity_mask is None:
        validity_mask = [True] * len(values)
    valid = [v for v, ok in zip(values, validity_mask) if ok]
    if not valid:
        raise UndefinedMetric("macro average over zero valid labels")
    return float(np.mean(valid))


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
    n_bins: int
    n_pairs: int


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
    return CalibrationReport(float(value), rows, bins, total)


def temperature_scale(logits_val, labels_val, logits_apply=None):
    """Fit T > 0 minimizing validation BCE of sigmoid(logit / T).

    Returns (T, recalibrated probabilities for logits_apply or the
    validation logits).
    """
    z = np.asarray(logits_val, dtype=np.float64)
    y = np.asarray(labels_val, dtype=np.float64)
    if z.size == 0:
        raise InputError("empty validation set")
    if not np.isfinite(z).all():
        raise NumericError("non-finite logits")

    def nll(log_t):
        zt = z / math.exp(log_t)
        return float((np.maximum(zt, 0) - zt * y + np.log1p(np.exp(-np.abs(zt)))).mean())

    res = minimize_scalar(nll, bounds=(math.log(1e-2), math.log(1e2)), method="bounded",
                          options={"xatol": 1e-10})
    t = math.exp(res.x)
    target = z if logits_apply is None else np.asarray(logits_apply, dtype=np.float64)
    probs = 1.0 / (1.0 + np.exp(-np.clip(target / t, -500, 500)))
    return t, probs


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
        return json.dumps({
            "method": self.method, "seed": self.seed,
            "auroc_macro": self.auroc_macro, "auprc_macro": self.auprc_macro,
            "ece": self.ece, "trainable_params": self.trainable_params,
            "total_params": self.total_params,
            "efficiency_pct": self.efficiency_pct,
            "per_label": self.per_label, "skipped_labels": self.skipped_labels,
        }, indent=2, sort_keys=True)


def evaluate_predictions(method: str, seed: int, probs, labels, label_names,
                         trainable_params: int = 0, total_params: int = 0,
                         ece_bins: int = 15) -> EvalReport:
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
    report = ece(probs, labels, bins=ece_bins)
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
