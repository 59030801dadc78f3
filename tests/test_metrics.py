import math
import warnings

import numpy as np
import pytest
from conftest import brute_force_auroc, hand_stepped_auprc
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.stats import rankdata

from petfuse.errors import InputError
from petfuse.metrics import (UndefinedMetric, _average_ranks, auprc_label, auroc_label, ece,
                             evaluate_predictions, fit_temperature, macro_auroc,
                             macro_average, sigmoid)


def test_auroc_worked_example():
    assert auroc_label([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)
    assert brute_force_auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auroc_perfect_separation():
    assert auroc_label([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_auroc_all_ties():
    assert auroc_label([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_auroc_single_class_is_undefined():
    with pytest.raises(UndefinedMetric):
        auroc_label([0.1, 0.2], [1, 1])


def test_auroc_matches_brute_force_randomly():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 65))
        scores = np.round(rng.random(n), 2)  # induce ties
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            continue
        assert abs(auroc_label(scores, labels)
                   - brute_force_auroc(scores, labels)) <= 1e-12


def test_auroc_monotone_invariance():
    rng = np.random.default_rng(1)
    scores = rng.random(30)
    labels = rng.integers(0, 2, 30)
    labels[0], labels[1] = 0, 1
    a = auroc_label(scores, labels)
    b = auroc_label(np.exp(3 * scores), labels)
    assert a == pytest.approx(b, abs=1e-12)


def test_auroc_negation_complement():
    rng = np.random.default_rng(2)
    scores = rng.normal(0, 1, 40)  # continuous; ties have probability zero
    labels = rng.integers(0, 2, 40)
    labels[0], labels[1] = 0, 1
    assert auroc_label(scores, labels) + auroc_label(-scores, labels) \
        == pytest.approx(1.0, abs=1e-12)


def test_auprc_worked_example():
    assert auprc_label([0.9, 0.8, 0.7], [1, 0, 1]) == pytest.approx(5 / 6)


def test_auprc_all_positives_first():
    assert auprc_label([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auprc_single_positive_ranked_last():
    n = 5
    scores = [0.9, 0.8, 0.7, 0.6, 0.1]
    labels = [0, 0, 0, 0, 1]
    assert auprc_label(scores, labels) == pytest.approx(1 / n)


def test_auprc_zero_positives_undefined():
    with pytest.raises(UndefinedMetric):
        auprc_label([0.4, 0.5], [0, 0])


def test_auprc_matches_hand_stepping_randomly():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 65))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, n)
        if labels.sum() == 0:
            continue
        assert abs(auprc_label(scores, labels)
                   - hand_stepped_auprc(scores, labels)) <= 1e-12


def test_macro_average():
    assert macro_average([0.8, 0.9]) == pytest.approx(0.85)
    with pytest.raises(UndefinedMetric):
        macro_average([])


def test_macro_auroc_skips_single_class_labels():
    scores = np.array([[0.1, 0.9, 0.2], [0.4, 0.8, 0.3], [0.35, 0.1, 0.6],
                       [0.8, 0.2, 0.7]])
    labels = np.array([[0, 1, 0], [0, 1, 0], [1, 1, 1], [1, 1, 1]])
    # column 1 has no negatives, so only columns 0 (0.75) and 2 (1.0) count
    assert macro_auroc(scores, labels) == pytest.approx(0.875)
    with pytest.raises(UndefinedMetric):
        macro_auroc(scores[:, 1:2], labels[:, 1:2])


def test_macro_average_of_reference_per_class_column():
    frozen_column = [0.921, 0.910, 0.974, 0.922, 0.940, 0.871, 0.959, 0.952,
                     0.956, 0.914, 0.842, 0.932, 0.863, 0.752]
    assert macro_average(frozen_column) == pytest.approx(0.908, abs=5e-4)


def test_ece_perfect():
    probs = np.ones(10)
    labels = np.ones(10, dtype=int)
    assert ece(probs, labels).ece == 0.0


def test_ece_single_bin_closed_form():
    probs = np.full(10, 0.9)
    labels = np.array([1] * 6 + [0] * 4)
    report = ece(probs, labels, bins=1)
    assert report.ece == pytest.approx(0.3, abs=1e-12)


def test_ece_at_half_confidence():
    probs = np.full(10, 0.5)
    labels = np.array([1, 0] * 5)
    assert ece(probs, labels).ece == pytest.approx(0.0, abs=1e-12)


def test_ece_one_bin_equals_mean_gap():
    rng = np.random.default_rng(4)
    probs = rng.random(200)
    labels = rng.integers(0, 2, 200)
    conf = np.maximum(probs, 1 - probs)
    correct = ((probs >= 0.5).astype(int) == labels)
    expected = abs(conf.mean() - correct.mean())
    assert ece(probs, labels, bins=1).ece == pytest.approx(expected, abs=1e-15)


def test_ece_bin_counts_sum():
    rng = np.random.default_rng(5)
    probs = rng.random(137)
    labels = rng.integers(0, 2, 137)
    report = ece(probs, labels, bins=15)
    assert sum(c for _, _, c in report.bins) == 137
    assert 0.0 <= report.ece <= 1.0


def test_ece_empty_input():
    with pytest.raises(InputError):
        ece([], [])


def _logits_from_calibrated(n, rng, factor=1.0):
    p = rng.uniform(0.05, 0.95, n)
    logits = factor * np.log(p / (1 - p))
    y = (rng.random(n) < p).astype(int)
    return logits, y


def _grid_search_t(logits, y):
    grid = np.linspace(0.05, 10.0, 2000)
    best, best_nll = None, np.inf
    for t in grid:
        zt = logits / t
        nll = (np.maximum(zt, 0) - zt * y + np.log1p(np.exp(-np.abs(zt)))).mean()
        if nll < best_nll:
            best, best_nll = t, nll
    return best


def test_temperature_identity_when_calibrated():
    rng = np.random.default_rng(6)
    logits, y = _logits_from_calibrated(20_000, rng)
    t, _ = fit_temperature(logits, y)
    assert abs(t - 1.0) < 0.05
    assert abs(t - _grid_search_t(logits, y)) < 0.02


def test_temperature_recovers_doubling():
    rng = np.random.default_rng(7)
    logits, y = _logits_from_calibrated(20_000, rng, factor=2.0)
    t, at_bound = fit_temperature(logits, y)
    assert abs(t - 2.0) < 0.1
    assert abs(t - _grid_search_t(logits, y)) < 0.02
    assert not at_bound


def test_temperature_applies_to_held_out_logits():
    rng = np.random.default_rng(9)
    val_logits, y = _logits_from_calibrated(5_000, rng, factor=2.0)
    apply_logits = np.array([-2.0, 0.0, 3.0])
    t, _ = fit_temperature(val_logits, y)
    applied = sigmoid(apply_logits / t)
    assert np.allclose(1 / (1 + np.exp(-apply_logits / t)), applied, atol=1e-12)


def test_temperature_preserves_auroc():
    rng = np.random.default_rng(8)
    logits, y = _logits_from_calibrated(500, rng, factor=2.0)
    t, _ = fit_temperature(logits, y)
    probs = sigmoid(logits / t)
    assert abs(auroc_label(probs, y) - auroc_label(logits, y)) <= 1e-12


def test_temperature_of_separable_logits_is_the_lower_bound():
    """Every logit on its label's side: the BCE falls as T does, so the fit
    ends at T = 1e-2. With every label 1, the residual sigmoid(z/T) - 1
    rounds to 0 once the sigmoid saturates, which would stop the fit near
    T = 0.055 here; the fit's form keeps its sign."""
    z = np.random.default_rng(3).uniform(2.0, 6.0, 50)
    for logits, labels in ((z, np.ones(50)), (-z, np.zeros(50))):
        t, at_bound = fit_temperature(logits, labels)
        assert t == pytest.approx(1e-2, rel=1e-12) and at_bound  # pinned, and says so


def test_temperature_of_anti_correlated_logits_is_the_upper_bound():
    """Every logit on the wrong side of its label: the BCE falls as T grows,
    so the fit is pinned at T = 1e2 and says so."""
    z = np.random.default_rng(3).uniform(2.0, 6.0, 50)
    for logits, labels in ((z, np.zeros(50)), (-z, np.ones(50))):
        t, at_bound = fit_temperature(logits, labels)
        assert t == pytest.approx(1e2, rel=1e-12) and at_bound


def test_sigmoid_keeps_the_textbook_bits_and_its_exp_overflow_is_silent():
    x = np.random.default_rng(5).normal(0, 8, 1000)
    assert sigmoid(x).tobytes() == (1.0 / (1.0 + np.exp(-x))).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        extremes = sigmoid(np.array([-1000.0, -np.inf, 0.0, 1000.0]))
    assert extremes.tolist() == [0.0, 0.0, 0.5, 1.0]


def test_temperature_scaled_extremes_give_the_clipped_forms_calibration():
    """Beyond |z/T| = 500 the unclipped sigmoid and 1/(1+exp(-clip(z/T, ±500)))
    put a pair on the same side of 0.5 with a confidence of exactly 1, so
    the ECE of either is the same number."""
    rng = np.random.default_rng(4)
    val_logits, y_val = _logits_from_calibrated(400, rng, factor=1.0)
    apply_logits = np.concatenate([rng.normal(0, 3, 60), [-1e5, -2e3, 2e3, 1e5]])
    y = (rng.random(apply_logits.size) < 0.5).astype(int)
    t, _ = fit_temperature(val_logits, y_val)
    probs = sigmoid(apply_logits / t)
    clipped = 1.0 / (1.0 + np.exp(-np.clip(apply_logits / t, -500, 500)))
    conf = np.maximum(probs, 1.0 - probs)
    assert conf[-4:].tolist() == [1.0] * 4
    assert ((probs >= 0.5) == (clipped >= 0.5)).all()
    assert ece(probs, y).ece == ece(clipped, y).ece


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=4,
                max_size=40),
       st.randoms(use_true_random=False))
def test_auroc_property_matches_brute_force(scores, rnd):
    labels = [rnd.randint(0, 1) for _ in scores]
    if sum(labels) in (0, len(labels)):
        labels[0], labels[1] = 0, 1
    assert abs(auroc_label(scores, labels)
               - brute_force_auroc(scores, labels)) <= 1e-12


def test_evaluate_predictions_skips_single_class_labels():
    probs = np.array([[0.9, 0.4], [0.2, 0.6], [0.7, 0.5]])
    labels = np.array([[1, 0], [0, 0], [1, 0]])
    rep = evaluate_predictions("m", 0, probs, labels, ["a", "b"], 10, 100)
    assert rep.skipped_labels == ["b"]
    assert "a" in rep.per_label
    assert rep.efficiency_pct == pytest.approx(10.0)


# -------------------------------------------------- parity with scipy's forms


def _rank_cases():
    rng = np.random.default_rng(17)
    cases = [np.array([0.3]), np.array([-0.0, 0.0, 0.0]), np.array([np.inf, -np.inf, 1.0]),
             np.array([np.nan]), np.array([0.2, np.nan, 0.1, np.nan])]
    for i in range(300):
        n = int(rng.integers(1, 80))
        if i % 3 == 0:
            x = rng.normal(size=n)
        else:  # heavy ties: a few distinct values
            x = rng.integers(0, int(rng.integers(1, 6)), n) * 0.25
        if i % 10 == 9:
            x[rng.integers(0, n)] = np.nan
        cases.append(x)
    return cases


def test_average_ranks_are_rankdata_bit_for_bit():
    for x in _rank_cases():
        assert _average_ranks(x).tobytes() == rankdata(x).tobytes(), x


def test_auroc_with_a_nan_score_is_nan():
    assert math.isnan(auroc_label([0.1, np.nan, 0.3, 0.4], [0, 0, 1, 1]))


def _nll(z, y):
    """The validation BCE of sigmoid(z / T) as a function of log T."""
    def nll(log_t):
        zt = z / math.exp(log_t)
        return float((np.maximum(zt, 0) - zt * y + np.log1p(np.exp(-np.abs(zt)))).mean())
    return nll


def _temperature_problems():
    rng = np.random.default_rng(29)
    for i in range(100):
        n = int(rng.integers(1, 120))
        z = rng.normal(0.0, rng.uniform(0.05, 25.0), n)
        y = (rng.random(n) < rng.uniform(0.0, 1.0)).astype(float)
        if i % 10 == 0:
            z = np.zeros(n)
        elif i % 10 == 1:
            y = np.full(n, float(i % 20 == 1))  # a single class
        yield z, y


def test_temperature_fit_reaches_minimize_scalars_minimum():
    """The bisected T stays in its bounds, and its validation BCE is no
    higher than scipy's bounded Brent minimum over log T."""
    lo, hi = math.log(1e-2), math.log(1e2)
    for z, y in _temperature_problems():
        nll = _nll(z, y)
        want = minimize_scalar(nll, bounds=(lo, hi), method="bounded",
                               options={"xatol": 1e-10})
        t, _ = fit_temperature(z, y)
        assert 1e-2 <= t <= 1e2, (z, y)
        assert nll(math.log(t)) <= want.fun + 1e-15, (z, y)
