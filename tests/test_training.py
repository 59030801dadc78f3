"""Optimizer, schedule, accumulation-equivalence, and checkpoint tests."""

import hashlib

import numpy as np
import pytest

import petfuse.autodiff as ad
from petfuse.data import SplitSpec, generate_synthetic, split_patients
from petfuse.encoders import Tokenizer
from petfuse.errors import ConfigError, InputError
from petfuse.fusion import FusionConfig
from petfuse.harness import MultimodalModel
from petfuse.model import ModelGraph
from petfuse.training import (AdamW, TrainConfig, clip_gradients,
                              load_checkpoint, lr_schedule, save_checkpoint,
                              train_loop)

# ---------------------------------------------------------------- schedule


def test_schedule_zero_at_start():
    assert lr_schedule(0, total_steps=1000, warmup_steps=100, peak=1e-4) == 0.0


def test_schedule_peak_at_warmup_end():
    assert lr_schedule(100, total_steps=1000, warmup_steps=100, peak=1e-4) \
        == pytest.approx(1e-4, abs=1e-18)


def test_schedule_half_peak_midway():
    # midway through the cosine phase: cos(pi/2) -> peak * 0.5
    w, total = 100, 1000
    mid = (w + total) // 2
    assert lr_schedule(mid, total, w, 1e-4) == pytest.approx(0.5e-4, rel=1e-10)


def test_schedule_zero_at_end():
    assert lr_schedule(1000, total_steps=1000, warmup_steps=100, peak=1e-4) \
        == pytest.approx(0.0, abs=1e-18)


def test_schedule_linear_during_warmup():
    for s in range(0, 101):
        expected = 1e-4 * s / 100
        assert lr_schedule(s, 1000, 100, 1e-4) == pytest.approx(expected)


def test_schedule_monotone_decay_after_warmup():
    vals = [lr_schedule(s, 500, 50, 3e-4) for s in range(50, 501)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------- clipping


def test_clip_scales_to_max_norm():
    grads = {"p": np.array([3.0, 4.0])}  # norm 5
    clipped, norm = clip_gradients(grads, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert np.allclose(clipped["p"], [0.6, 0.8])


def test_clip_noop_under_threshold():
    grads = {"p": np.array([0.3, 0.4])}
    clipped, norm = clip_gradients(grads, max_norm=1.0)
    assert norm == pytest.approx(0.5)
    assert np.allclose(clipped["p"], [0.3, 0.4])


def test_clip_global_norm_across_params():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped, norm = clip_gradients(grads, max_norm=2.5)
    assert norm == pytest.approx(5.0)
    assert np.allclose(clipped["a"], [1.5])
    assert np.allclose(clipped["b"], [2.0])


# ---------------------------------------------------------------- AdamW


def _reference_adamw(theta, grads, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent hand iteration of decoupled AdamW."""
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    th = theta.copy()
    for t, g in enumerate(grads, start=1):
        th = th - lr * wd * th
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mh = m / (1 - beta1 ** t)
        vh = v / (1 - beta2 ** t)
        th = th - lr * mh / (np.sqrt(vh) + eps)
    return th


def test_adamw_matches_hand_iteration():
    theta0 = np.array([1.0, -2.0, 0.5])
    gs = [np.array([0.1, -0.2, 0.3]),
          np.array([-0.05, 0.4, 0.0]),
          np.array([0.2, 0.2, -0.1])]
    graph = ModelGraph()
    graph.add_param("p", theta0.copy(), trainable=True)
    opt = AdamW(graph.trainable(), weight_decay=1e-2)
    for g in gs:
        opt.step({"p": g.copy()}, lr_t=1e-2)
    expected = _reference_adamw(theta0, gs, lr=1e-2, wd=1e-2)
    assert np.max(np.abs(graph.params["p"].data - expected)) <= 1e-12


def test_adamw_decay_only_shrinks():
    theta0 = np.array([2.0])
    graph = ModelGraph()
    graph.add_param("p", theta0.copy(), trainable=True)
    opt = AdamW(graph.trainable(), weight_decay=0.5)
    opt.step({"p": np.array([0.0])}, lr_t=0.1)
    # zero gradient: only the decoupled decay term applies
    assert graph.params["p"].data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))


def test_adamw_first_step_magnitude():
    """With one gradient and no decay the first step is -lr * sign(g)
    up to the eps correction."""
    graph = ModelGraph()
    graph.add_param("p", np.array([0.0]), trainable=True)
    opt = AdamW(graph.trainable(), weight_decay=0.0)
    opt.step({"p": np.array([7.0])}, lr_t=1e-3)
    assert graph.params["p"].data[0] == pytest.approx(-1e-3, rel=1e-6)


def test_adamw_missing_grad_treated_as_zero():
    graph = ModelGraph()
    graph.add_param("p", np.array([1.0]), trainable=True)
    opt = AdamW(graph.trainable(), weight_decay=0.0)
    opt.step({}, lr_t=0.1)
    assert graph.params["p"].data[0] == 1.0


def test_adamw_zero_lr_is_noop():
    graph = ModelGraph()
    graph.add_param("p", np.array([3.0]), trainable=True)
    opt = AdamW(graph.trainable(), weight_decay=0.5)
    opt.step({"p": np.array([1.0])}, lr_t=0.0)
    assert graph.params["p"].data[0] == 3.0


# ---------------------------------------------------------------- config


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=-1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(batch=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(warmup_fraction=1.5).validate()
    TrainConfig().validate()


# ---------------------------------------------------------------- loop


class _StubModel:
    """Tiny scalar model with scripted validation scores."""

    def __init__(self, val_scores):
        self.graph = ModelGraph()
        self.graph.add_param("w", np.array([1.0]), trainable=True)
        self._scores = list(val_scores)
        self.calls = 0

    def loss_batch(self, samples, training, epoch, seed):
        binding = self.graph.bind()
        w = binding["w"]
        loss = ad.tsum(ad.mul(w, w))
        return loss, binding

    def validation_auroc(self, val):
        score = self._scores[min(self.calls, len(self._scores) - 1)]
        self.calls += 1
        return score


def _dummy_samples(n):
    return generate_synthetic(n_patients=n, seed=0)[:n]


def test_early_stopping_trace():
    """Scores 0.6, 0.7 then flat: patience 5 stops after epoch 7 and the
    restored weights come from the epoch-2 best."""
    scores = [0.6, 0.7] + [0.65] * 30
    model = _StubModel(scores)
    snapshots = []

    orig_loss = model.loss_batch

    def recording_loss(samples, training, epoch, seed):
        snapshots.append(model.graph.params["w"].data.copy())
        return orig_loss(samples, training, epoch, seed)

    model.loss_batch = recording_loss
    cfg = TrainConfig(max_epochs=30, patience=5, batch=4, accumulation=1,
                      lr=1e-2, seed=0)
    result = train_loop(model, _dummy_samples(4), _dummy_samples(2), cfg)
    assert result.best_epoch == 2
    assert result.best_val_auroc == pytest.approx(0.7)
    assert len(result.history) == 7  # 2 improving + 5 patience epochs
    # best state restored: weights equal their value entering epoch 3
    assert np.allclose(model.graph.params["w"].data,
                       result.best_state["w"])


def test_early_stopping_runs_to_max_epochs_when_improving():
    scores = [0.5 + 0.01 * i for i in range(10)]
    model = _StubModel(scores)
    cfg = TrainConfig(max_epochs=6, patience=5, batch=4, accumulation=1,
                      lr=1e-3, seed=0)
    result = train_loop(model, _dummy_samples(4), _dummy_samples(2), cfg)
    assert len(result.history) == 6
    assert result.best_epoch == 6


def test_history_rows_complete():
    model = _StubModel([0.5, 0.6, 0.55])
    cfg = TrainConfig(max_epochs=3, patience=5, batch=4, accumulation=1,
                      seed=0)
    result = train_loop(model, _dummy_samples(4), _dummy_samples(2), cfg)
    for epoch, train_loss, val_auroc, lr, seconds in result.history:
        assert epoch >= 1
        assert np.isfinite(train_loss)
        assert 0.0 <= val_auroc <= 1.0
        assert lr >= 0.0 and seconds >= 0.0


# ------------------------------------------------- accumulation equivalence


def _train_multimodal(batch, accumulation, epochs=2, seed=7):
    samples = generate_synthetic(n_patients=48, seed=123)
    train, val, _ = split_patients(samples, SplitSpec())
    tok = Tokenizer.build([s.text for s in train])
    cfg = FusionConfig(dropout_p=0.1)
    model = MultimodalModel(cfg, tok, policy="frozen", seed=seed)
    tcfg = TrainConfig(batch=batch, accumulation=accumulation,
                       max_epochs=epochs, patience=10, lr=1e-3, seed=seed)
    train_loop(model, train, val, tcfg)
    return {p.name: p.data.copy() for p in model.graph.trainable()}


def test_gradient_accumulation_equivalence():
    a = _train_multimodal(batch=16, accumulation=2)
    b = _train_multimodal(batch=32, accumulation=1)
    assert a.keys() == b.keys()
    worst = max(np.max(np.abs(a[k] - b[k])) for k in a)
    assert worst <= 1e-9, f"worst deviation {worst:.3e}"


def test_seed_determinism_of_training():
    a = _train_multimodal(batch=16, accumulation=2, seed=3)
    b = _train_multimodal(batch=16, accumulation=2, seed=3)
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_frozen_params_bit_identical_through_training():
    samples = generate_synthetic(n_patients=24, seed=5)
    train, val, _ = split_patients(samples, SplitSpec())
    tok = Tokenizer.build([s.text for s in train])
    model = MultimodalModel(FusionConfig(), tok, policy="frozen", seed=1)
    frozen_before = {
        name: hashlib.sha256(p.data.tobytes()).hexdigest()
        for name, p in model.graph.params.items() if not p.trainable}
    assert frozen_before, "expected frozen encoder parameters"
    cfg = TrainConfig(batch=8, accumulation=1, max_epochs=2, patience=5,
                      lr=1e-3, seed=1)
    train_loop(model, train, val, cfg)
    for name, digest in frozen_before.items():
        after = hashlib.sha256(model.graph.params[name].data.tobytes())
        assert after.hexdigest() == digest, name


# ---------------------------------------------------------------- checkpoint


def test_checkpoint_roundtrip(tmp_path):
    graph = ModelGraph()
    rng = ad.make_rng(0, "ckpt")
    graph.add_param("a/w", rng.normal(size=(3, 4)), trainable=True)
    graph.add_param("b/w", rng.normal(size=(2,)), trainable=False)
    path = tmp_path / "model.bin"
    save_checkpoint(path, graph, header_extra={"note": "x"})
    header, arrays = load_checkpoint(path)
    assert header["extra"]["note"] == "x"
    assert np.array_equal(arrays["param/a/w"], graph.params["a/w"].data)
    assert "param/b/w" not in arrays  # frozen weights are reconstructable


def test_checkpoint_roundtrip_with_optimizer(tmp_path):
    graph = ModelGraph()
    rng = ad.make_rng(0, "ckpt-opt")
    graph.add_param("a/w", rng.normal(size=(3,)), trainable=True)
    opt = AdamW(graph.trainable())
    opt.step({"a/w": np.array([0.1, -0.2, 0.3])}, lr_t=1e-3)
    path = tmp_path / "model.bin"
    save_checkpoint(path, graph, optimizer=opt)
    header, arrays = load_checkpoint(path)
    assert header["optimizer_step"] == 1
    assert np.array_equal(arrays["adam_m/a/w"], opt.m["a/w"])
    assert np.array_equal(arrays["adam_v/a/w"], opt.v["a/w"])


def test_checkpoint_bytes_deterministic(tmp_path):
    graph = ModelGraph()
    rng = ad.make_rng(0, "ckpt2")
    graph.add_param("a/w", rng.normal(size=(5, 5)), trainable=True)
    p1, p2 = tmp_path / "one.bin", tmp_path / "two.bin"
    save_checkpoint(p1, graph, header_extra={"k": 1})
    save_checkpoint(p2, graph, header_extra={"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_corrupt_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(InputError):
        load_checkpoint(path)


def _graph_for_state():
    graph = ModelGraph()
    graph.add_param("a/w", np.zeros((2, 3)), trainable=True)
    graph.add_param("a/b", np.zeros(3), trainable=True)
    graph.add_param("enc/w", np.zeros(4))
    return graph


@pytest.mark.parametrize("state", [
    {"a/w": np.ones((2, 3)), "a/b": np.ones(3), "x/w": np.ones(1)},  # unknown
    {"a/w": np.ones((2, 3)), "a/b": np.ones(3), "enc/w": np.ones(4)},  # frozen
    {"a/w": np.ones((2, 3))},  # a trainable parameter missing
    {"a/w": np.ones((3, 2)), "a/b": np.ones(3)},  # same size, other shape
    {"a/w": np.ones((2, 3)), "a/b": np.ones(4)},
])
def test_load_state_rejects_a_state_that_does_not_fit(state):
    graph = _graph_for_state()
    with pytest.raises(InputError):
        graph.load_state(state)
    # nothing is loaded when the state is rejected
    assert not any(p.data.any() for p in graph.params.values())


def test_load_state_replaces_every_trainable_parameter():
    graph = _graph_for_state()
    graph.load_state({"a/w": np.ones((2, 3)), "a/b": np.full(3, 2.0)})
    assert graph.params["a/w"].data.sum() == 6
    assert graph.params["a/b"].data.sum() == 6
    assert not graph.params["enc/w"].data.any()
