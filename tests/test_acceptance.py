"""Acceptance gate: twelve checks covering parameter accounting, gradient and
metric correctness, PET invariants, redaction, leakage, optimization,
attribution, calibration, and determinism. Each check prints one PASS line.
"""

import csv
import json
import time

import numpy as np
import pytest
from conftest import (brute_force_auroc, grad_check, hand_stepped_auprc,
                      softmax_attention, softmax_rows, tsum)

import petfuse.autodiff as ad
from petfuse.cli import main
from petfuse.data import (LABELS, SplitSpec, generate_synthetic, label_matrix,
                          split_patients)
from petfuse.encoders import Tokenizer
from petfuse.fusion import FusionConfig, FusionPathway
from petfuse.harness import (VISION_ONLY_PARAMS, ArmSpec, ExperimentPlan,
                             MultimodalModel, VisionOnlyModel, run_plan,
                             search_shared_dim)
from petfuse.metrics import auprc_label, auroc_label, ece, fit_temperature, sigmoid
from petfuse.model import ModelGraph
from petfuse.pet import ENCODER_PREFIX, LoRAConfig, apply_policy, count_params
from petfuse.redaction import audit_leakage, redact
from petfuse.training import (AdamW, TrainConfig, clip_gradients, lr_schedule,
                              train_loop)

DECLARED_TOTAL = 94_300_000


def _report(n, message):
    print(f"PASS criterion {n}: {message}")


# -------------------------------------------------------------- criterion 1


def test_criterion_01_parameter_accounting():
    t0 = time.perf_counter()
    pathway = FusionPathway(ModelGraph(), FusionConfig())
    report = count_params(pathway.graph)
    expected = {"fusion/vision_proj": 1_048_576,
                "fusion/attention": 786_432,
                "fusion/text_proj": 393_216,
                "fusion/head": 134_656}
    assert report.components == expected
    assert report.total_trainable == 2_362_880
    assert f"{report.efficiency_pct(DECLARED_TOTAL):.2f}" == "2.51"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "component counts 1,048,576/786,432/393,216/134,656, total "
               f"2,362,880, efficiency 2.51% ({elapsed:.3f}s)")


# -------------------------------------------------------------- criterion 2


def test_criterion_02_vision_only_and_budget_match():
    assert VISION_ONLY_PARAMS == 1_055_744
    model = VisionOnlyModel()
    assert count_params(model.graph).total_trainable == 1_055_744
    d, h, count = search_shared_dim(VISION_ONLY_PARAMS, tolerance=0.01)
    assert (d, count) == (280, 1_061_312)
    rel = abs(count - VISION_ONLY_PARAMS) / VISION_ONLY_PARAMS
    assert rel <= 0.01
    _report(2, f"vision-only 1,055,744 exact; budget match d={d} -> "
               f"{count:,} ({rel:.2%} off target)")


# -------------------------------------------------------------- criterion 3


def test_criterion_03_gradient_correctness():
    t0 = time.perf_counter()
    rng = ad.make_rng(0, "acceptance", "grads")
    checks = 0
    worst = 0.0

    def run(fn, *tensors):
        nonlocal checks, worst
        err = grad_check(fn, tensors)
        worst = max(worst, err)
        assert err < 1e-4, f"rel err {err:.2e}"
        checks += 1

    for _ in range(4):
        a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        run(lambda: tsum(ad.matmul(a, b)), a, b)
        x = ad.Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        run(lambda: tsum(ad.relu(x)), x)
        # weight the rows so the scalar objective is not constant in x
        w = ad.Tensor(rng.normal(size=(2, 5)))
        run(lambda: tsum(ad.mul(ad.layer_norm(x), w)), x)
        run(lambda: tsum(ad.mul(softmax_rows(x), w)), x)
        y = (rng.random((2, 5)) < 0.5).astype(float)
        run(lambda: ad.bce_with_logits(x, y), x)
        q = ad.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        k = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        v = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        run(lambda: tsum(softmax_attention(q, k, v, 0.5)), q, k, v)
        # two padded sequences of 3 keys, the second CLS only; a full block
        # (3 queries per sequence) and one query per sequence
        mask = np.array([[True, True, False], [True, False, False]])
        km = ad.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        vm = ad.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        for tq in (3, 1):
            qm = ad.Tensor(rng.normal(size=(2 * tq, 4)), requires_grad=True)
            wm = ad.Tensor(rng.normal(size=(2 * tq, 4)))
            run(lambda: tsum(ad.mul(ad.masked_attention(qm, km, vm, mask, 0.5), wm)),
                qm, km, vm)

    # full fusion forward: perturb every fusion parameter tensor
    cfg = FusionConfig(shared_dim=4, head_hidden=3, dropout_p=0.0)
    pathway = FusionPathway(ModelGraph(), cfg, seed=1)
    vin = rng.normal(size=(3, 2048))
    tin = rng.normal(size=(3, 768))
    targets = (rng.random((3, 14)) < 0.5).astype(float)
    for addr in pathway.graph.addresses("fusion"):
        p = pathway.graph.params[addr]

        def loss_for(data=None):
            if data is not None:
                p.data = data
            binding = pathway.graph.bind(training=True)
            logits = pathway.forward(binding, ad.Tensor(vin), ad.Tensor(tin))
            return ad.bce_with_logits(logits, targets), binding

        loss, binding = loss_for()
        loss.backward()
        g = binding[addr].grad
        # params outside the active compute path carry exactly-zero grads
        analytic = g.copy() if g is not None else np.zeros_like(p.data)
        base = p.data.copy()
        flat = base.ravel()
        for idx in [0, flat.size // 2, flat.size - 1]:
            step = 1e-5
            up, down = base.copy(), base.copy()
            up.ravel()[idx] += step
            down.ravel()[idx] -= step
            num = (loss_for(up)[0].data - loss_for(down)[0].data) / (2 * step)
            p.data = base
            ana = analytic.ravel()[idx]
            err = abs(num - ana) / max(1.0, abs(num), abs(ana))
            worst = max(worst, float(err))
            assert err < 1e-4, (addr, idx, err)
            checks += 1

    elapsed = time.perf_counter() - t0
    assert checks >= 20
    assert elapsed < 30.0
    _report(3, f"{checks} finite-difference checks, worst rel err "
               f"{worst:.2e} ({elapsed:.1f}s)")


# -------------------------------------------------------------- criterion 4


def test_criterion_04_metric_oracles():
    rng = np.random.default_rng(2024)
    n_auroc = n_auprc = 0
    while n_auroc < 1000 or n_auprc < 1000:
        n = int(rng.integers(2, 65))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, n)
        if 0 < labels.sum() < n and n_auroc < 1000:
            diff = abs(auroc_label(scores, labels)
                       - brute_force_auroc(scores, labels))
            assert diff <= 1e-12
            n_auroc += 1
        if labels.sum() > 0 and n_auprc < 1000:
            diff = abs(auprc_label(scores, labels)
                       - hand_stepped_auprc(scores, labels))
            assert diff <= 1e-12
            n_auprc += 1
    probs = rng.random(500)
    labels = rng.integers(0, 2, 500)
    conf = np.maximum(probs, 1 - probs)
    acc = ((probs >= 0.5).astype(int) == labels)
    assert ece(probs, labels, bins=1).ece == abs(conf.mean() - acc.mean())
    _report(4, "AUROC/AUPRC match brute-force oracles on 1,000 instances "
               "each (diff <= 1e-12); single-bin ECE exact")


# -------------------------------------------------------------- criterion 5


def _small_model(policy, seed=0, **kw):
    samples = generate_synthetic(n_patients=10, seed=0)
    tok = Tokenizer.build([s.text for s in samples])
    cfg = FusionConfig(shared_dim=32, head_hidden=16, dropout_p=0.0)
    return MultimodalModel(cfg, tok, seed=seed, policy=policy, **kw), samples


def test_criterion_05_pet_invariants():
    base, samples = _small_model("frozen")
    ref = base.predict(samples)

    # LoRA and Adapter leave outputs untouched at initialization
    for policy in ("lora", "adapter"):
        model, _ = _small_model(policy)
        assert np.max(np.abs(model.predict(samples) - ref)) <= 1e-12

    # 50 BitFit steps: every non-bias encoder tensor stays bit-identical
    model, _ = _small_model("bitfit")
    before = {name: p.data.copy() for name, p in model.graph.params.items()
              if not p.trainable}
    assert any("/b" not in n for n in before)
    opt = AdamW(model.graph.trainable(), weight_decay=1e-2)
    for step in range(50):
        batch = samples[step % 2::2]
        loss, _ = model.loss_batch(batch, training=True, epoch=0, seed=0)
        loss.backward()
        opt.settle_grads()  # the fusion wq and wk get no gradient
        opt.step(lr_t=1e-3)
    for name, data in before.items():
        assert model.graph.params[name].data.tobytes() == data.tobytes(), name

    # frozen policy: encoder gradients are exactly zero (never materialized)
    model, _ = _small_model("frozen")
    loss, binding = model.loss_batch(samples[:4], training=True, epoch=0,
                                     seed=0)
    loss.backward()
    for addr in model.graph.addresses(ENCODER_PREFIX):
        assert binding[addr].grad is None, addr

    # every LoRA delta (alpha/r) A B has rank <= 8, also once B is off zero
    model, _ = _small_model("lora", lora_cfg=LoRAConfig(rank=8))
    params = model.graph.params
    projections = [a[:-len("/lora_a")] for a in params if a.endswith("/lora_a")]
    assert projections
    rng = np.random.default_rng(0)
    for proj in projections:
        b = params[f"{proj}/lora_b"].data
        delta = model.graph.lora_scale * (params[f"{proj}/lora_a"].data
                                          @ (b + rng.normal(0, 1, b.shape)))
        assert delta.shape == params[proj].data.shape
        rank = np.linalg.matrix_rank(delta)
        assert rank <= 8, (proj, rank)
    _report(5, "LoRA/Adapter identity at init (<=1e-12); BitFit preserves "
               "non-bias tensors over 50 steps; frozen grads exactly zero; "
               "rank(dW) <= 8")


# -------------------------------------------------------------- criterion 6


def test_criterion_06_redaction():
    out = redact("No pneumonia or effusion. Heart size normal.")
    assert out.text == "No [FINDING] or [FINDING]. Heart size normal."
    corpus = [s.text for s in generate_synthetic(n_patients=950, seed=99)]
    corpus = corpus[:1000]
    assert len(corpus) == 1000
    failures = 0
    for text in corpus:
        once = redact(text).text
        failures += int(redact(once).text != once)
    assert failures == 0
    _report(6, f"negation example byte-exact; idempotent on "
               f"{len(corpus)} fuzzed documents")


# -------------------------------------------------------------- criterion 7


def test_criterion_07_leakage_audit():
    t0 = time.perf_counter()
    results = []
    for seed in range(3):
        samples = generate_synthetic(n_patients=400, seed=seed, leak_prob=0.9,
                                     prevalence_profile=[0.25] * len(LABELS),
                                     pad_findings_to=12)
        raw = [s.text for s in samples]
        red = [redact(t).text for t in raw]
        train_set, _, test_set = split_patients(samples, SplitSpec(seed=seed))
        index = {s.id: i for i, s in enumerate(samples)}
        rep = audit_leakage(raw, red, label_matrix(samples),
                            [index[s.id] for s in train_set],
                            [index[s.id] for s in test_set], seed=seed)
        assert rep["auroc_raw"] >= 0.95, (seed, rep)
        assert rep["auroc_redacted"] <= 0.60, (seed, rep)
        results.append(rep)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(7, "raw probe AUROC " +
            "/".join(f"{r['auroc_raw']:.3f}" for r in results) +
            " >= 0.95; redacted " +
            "/".join(f"{r['auroc_redacted']:.3f}" for r in results) +
            f" <= 0.60 over 3 seeds ({elapsed:.0f}s)")


# -------------------------------------------------------------- criterion 8


def test_criterion_08_schedule_and_optimizer():
    W, T, peak = 100, 1000, 3e-4
    assert abs(lr_schedule(0, T, W, peak) - 0.0) <= 1e-9
    assert abs(lr_schedule(W, T, W, peak) - peak) <= 1e-9
    assert abs(lr_schedule((W + T) // 2, T, W, peak) - peak / 2) <= 1e-9
    assert abs(lr_schedule(T, T, W, peak) - 0.0) <= 1e-9

    theta = np.array([1.0, -2.0, 0.5])
    gs = [np.array([0.1, -0.2, 0.3]), np.array([-0.05, 0.4, 0.0]),
          np.array([0.2, 0.2, -0.1])]
    graph = ModelGraph()
    graph.add_param("p", theta.copy(), trainable=True)
    opt = AdamW(graph.trainable(), weight_decay=1e-2)
    m = np.zeros(3)
    v = np.zeros(3)
    ref = theta.copy()
    for t, g in enumerate(gs, start=1):
        graph.params["p"].sink.out[...] = g
        opt.step(lr_t=1e-2)
        ref = ref - 1e-2 * 1e-2 * ref
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref = ref - 1e-2 * (m / (1 - 0.9 ** t)) / (
            np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    assert np.max(np.abs(graph.params["p"].data - ref)) <= 1e-12

    flat_grad = np.array([30.0, 40.0])
    clip_gradients(flat_grad, max_norm=1.0)
    post = np.sqrt(float((flat_grad * flat_grad).sum()))
    assert post <= 1.0 + 1e-12
    _report(8, "lr closed forms at {0,W,(W+T)/2,T} within 1e-9; AdamW 3-step "
               "trace within 1e-12; post-clip norm <= 1.0")


# -------------------------------------------------------------- criterion 9


def test_criterion_09_early_stopping():
    class Stub:
        def __init__(self):
            self.graph = ModelGraph()
            self.graph.add_param("w", np.array([1.0]), trainable=True)
            self.scores = [0.6, 0.7] + [0.65] * 40
            self.calls = 0
            self.after = []  # w as each epoch's validation saw it

        def fit_normalizer(self, samples):
            pass

        def loss_batch(self, samples, training, epoch, seed):
            binding = self.graph.bind(training)
            w = binding["w"]
            return tsum(ad.mul(w, w)), binding

        def validation_auroc(self, val):
            self.after.append(self.graph.params["w"].data.copy())
            score = self.scores[self.calls]
            self.calls += 1
            return score

    model = Stub()
    samples = generate_synthetic(n_patients=4, seed=0)
    cfg = TrainConfig(max_epochs=40, patience=5, batch=4, accumulation=1,
                      lr=1e-2, seed=0)
    result = train_loop(model, samples, samples[:2], cfg)
    assert len(result.history) == 7
    assert result.best_epoch == 2
    assert result.best_val_auroc == pytest.approx(0.7)
    w = model.graph.params["w"].data
    assert np.array_equal(w, model.after[1]) and not np.array_equal(w, model.after[-1])
    _report(9, "best at epoch 2 with patience 5 halts after epoch 7 and "
               "restores the epoch-2 weights")


# ------------------------------------------------------------- criterion 10


def test_criterion_10_attribution(tmp_path):
    t0 = time.perf_counter()
    plan_map = {label: "vision" for label in LABELS}
    for label in LABELS[:5]:
        plan_map[label] = "text"
    samples = generate_synthetic(n_patients=500, seed=0, leak_prob=0.9,
                                 signal_plan=plan_map, signal_strength=4.0,
                                 prevalence_profile=[0.25] * len(LABELS))
    arms = [ArmSpec("vision_only", seeds=[0, 1, 2]),
            ArmSpec("full_pet", seeds=[0, 1, 2])]
    train = TrainConfig(batch=16, accumulation=1, max_epochs=12, patience=4,
                        lr=3e-3, weight_decay=1e-6, clip_norm=10.0)
    result = run_plan(ExperimentPlan(arms=arms, train=train), samples, tmp_path)
    assert not result.failures, result.failures
    delta = result.arm_means["full_pet"] - result.arm_means["vision_only"]
    elapsed = time.perf_counter() - t0
    assert delta >= 0.05, result.arm_means
    assert elapsed < 300.0
    _report(10, f"full-PET {result.arm_means['full_pet']:.3f} vs vision-only "
                f"{result.arm_means['vision_only']:.3f}; delta "
                f"{delta:+.3f} >= 0.05 over 3 seeds ({elapsed:.0f}s)")


# ------------------------------------------------------------- criterion 11


def test_criterion_11_calibration():
    rng = np.random.default_rng(77)
    p = rng.uniform(0.05, 0.95, 20_000)
    true_logits = np.log(p / (1 - p))
    labels = (rng.random(p.size) < p).astype(int)
    over = 2.0 * true_logits  # overconfident by a factor of two
    t, _ = fit_temperature(over, labels)
    probs_after = sigmoid(over / t)
    assert abs(t - 2.0) <= 0.1
    probs_before = 1 / (1 + np.exp(-over))
    e_before = ece(probs_before, labels).ece
    e_after = ece(probs_after, labels).ece
    assert e_after <= 0.5 * e_before
    assert abs(auroc_label(probs_after, labels)
               - auroc_label(probs_before, labels)) <= 1e-12
    _report(11, f"recovered T={t:.3f} (target 2 +/- 0.1); ECE "
                f"{e_before:.4f} -> {e_after:.4f} (-"
                f"{100 * (1 - e_after / e_before):.0f}%); AUROC unchanged")


# ------------------------------------------------------------- criterion 12


def _strip_timing(history_path):
    with open(history_path) as f:
        rows = list(csv.reader(f))
    drop = rows[0].index("seconds")
    return [[c for i, c in enumerate(row) if i != drop] for row in rows]


def test_criterion_12_cli_determinism(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    data2 = tmp_path / "data2.jsonl"
    assert main(["gen-data", "--patients", "20", "--seed", "9",
                 "--out", str(data)]) == 0
    assert main(["gen-data", "--patients", "20", "--seed", "9",
                 "--out", str(data2)]) == 0
    assert data.read_bytes() == data2.read_bytes()

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "arm": "full_pet", "policy": "frozen",
        "fusion": {"shared_dim": 32, "head_hidden": 16, "dropout_p": 0.1},
        "train": {"batch": 8, "accumulation": 2, "max_epochs": 2,
                  "patience": 5, "lr": 1e-3},
    }))
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        runs.append(out)
    capsys.readouterr()
    assert (runs[0] / "checkpoint.bin").read_bytes() \
        == (runs[1] / "checkpoint.bin").read_bytes()
    assert (runs[0] / "config.echo.json").read_bytes() \
        == (runs[1] / "config.echo.json").read_bytes()
    assert _strip_timing(runs[0] / "history.csv") \
        == _strip_timing(runs[1] / "history.csv")

    outs = []
    for run_dir in runs:
        assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--data", str(data)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    _report(12, "gen-data, train, and eval artifacts byte-identical across "
                "repeated seeded runs (timing fields excluded)")


def test_criterion_12_attribute_determinism(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    assert main(["gen-data", "--patients", "24", "--seed", "9", "--out", str(data)]) == 0
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "arms": [{"kind": "vision_only", "seeds": [0, 1]},
                 {"kind": "full_pet", "seeds": [0, 1],
                  "fusion": {"shared_dim": 32, "head_hidden": 16, "dropout_p": 0.1}}],
        "train": {"batch": 8, "accumulation": 2, "max_epochs": 2,
                  "patience": 5, "lr": 1e-3},
    }))
    capsys.readouterr()
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["attribute", "--plan", str(plan), "--data", str(data),
                     "--out", str(out)]) == 0
        runs.append((capsys.readouterr().out,
                     {p.name: p.read_bytes() for p in out.iterdir()}))
    assert runs[0] == runs[1]
    assert {"predictions.json", "attribution.json", "arm_full_pet.csv"} <= set(runs[0][1])
    _report(12, "attribute's stdout and every artifact, predictions.json included, "
                "byte-identical across repeated seeded runs")
