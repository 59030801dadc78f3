"""Optimizer, schedule, accumulation-equivalence, and checkpoint tests."""

import csv
import hashlib
import importlib.resources
import json
import math
import os
import re
import shlex
import shutil
import stat
import subprocess
import sys
import sysconfig
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import tsum
from test_data import GEN_DATA_12_SEED_9_SHA256

import petfuse.autodiff as ad
import petfuse.training as training
from petfuse import _native, cli, encoders
from petfuse.data import SplitSpec, generate_synthetic, label_matrix, split_patients
from petfuse.encoders import Tokenizer
from petfuse.errors import ConfigError, InputError, NumericError, numeric_guard
from petfuse.fusion import FusionConfig
from petfuse.harness import ENCODE_CHUNK, MultimodalModel
from petfuse.model import ModelGraph
from petfuse.pet import LoRAConfig, lora_linear
from petfuse.training import (ADAM_BLOCK, AdamW, TrainConfig, clip_gradients,
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
    flat = np.array([3.0, 4.0])  # norm 5
    clipped, norm = clip_gradients(flat, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert clipped is flat and np.allclose(flat, [0.6, 0.8])


def test_clip_noop_under_threshold():
    grads = {"p": np.array([0.3, 0.4])}
    clipped, norm = clip_gradients(grads, max_norm=1.0)
    assert norm == pytest.approx(0.5)
    assert clipped["p"].tolist() == [0.3, 0.4]


def test_clip_global_norm_across_params():
    """The arena holds every parameter's gradient, so the norm and the
    scaling are global: each view of it is scaled by the same factor."""
    graph = ModelGraph()
    graph.add_param("a", np.zeros(1), trainable=True)
    graph.add_param("b", np.zeros(1), trainable=True)
    opt = AdamW(graph.trainable())
    a, b = graph.params["a"].sink.out, graph.params["b"].sink.out
    a[...] = 3.0
    b[...] = 4.0
    _, norm = clip_gradients(opt.flat_grad, max_norm=2.5)
    assert norm == pytest.approx(5.0)
    assert np.allclose(a, [1.5])
    assert np.allclose(b, [2.0])


def test_clip_norm_is_the_per_parameter_norm_within_rounding():
    """One dot over the arena sums in another order than a pairwise sum per
    parameter: the norms agree to a few ulps, and an unclipped arena keeps
    its bits."""
    rng = np.random.default_rng(3)
    graph = ModelGraph()
    for name, shape in (("w", (300, 200)), ("b", (7,)), ("s", ())):
        graph.add_param(name, np.zeros(shape), trainable=True)
    opt = AdamW(graph.trainable())
    opt.flat_grad[...] = rng.normal(0, 1, opt.flat_grad.shape)
    grads = {p.name: p.sink.out for p in opt.params}
    reference = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    before = opt.flat_grad.copy()
    _, norm = clip_gradients(opt.flat_grad, max_norm=2 * reference)
    assert abs(norm - reference) <= 1e-12 * reference
    assert opt.flat_grad.tobytes() == before.tobytes()
    _, per_array = clip_gradients(grads, max_norm=2 * reference)
    assert abs(per_array - reference) <= 1e-12 * reference



def test_an_active_clip_leaves_the_bits_of_a_plain_scaling():
    """Scaling only the entries that are not ±0.0 writes the bits that
    `g *= factor` writes, a -0.0 included, for a flat array and for the
    arrays of a dict, a 0-d one among them."""
    rng = np.random.default_rng(11)
    flat = rng.normal(0, 1, 4099)
    flat[::7], flat[3::11] = 0.0, -0.0
    flat[-500:] = 0.0
    grads = {"w": flat[:4000].reshape(40, 100).copy(), "s": np.array(-0.0),
             "t": np.array(2.5), "b": flat[4000:].copy()}
    for g in (flat, grads):
        arrays = list(g.values()) if isinstance(g, dict) else [g]
        expected = [a.copy() for a in arrays]
        _, norm = clip_gradients(g, max_norm=0.5)
        assert norm > 0.5
        for want, got in zip(expected, arrays):
            want *= 0.5 / norm
            assert got.tobytes() == want.tobytes()
    assert np.signbit(grads["s"]) and np.signbit(flat[3])


_CLIP_RSS_PROBE = """
import numpy as np
from petfuse.training import clip_gradients
try:
    with open("/proc/self/statm") as f:
        f.read()
    def resident():
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * {page}
except OSError:
    import resource
    def resident():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
clip_gradients(np.ones(8), max_norm=1.0)
g = np.zeros({size})
g[:4096] = 1.0
before = resident()
clip_gradients(g, max_norm=1.0)
print(resident() - before, g.nbytes)
"""


def test_an_active_clip_leaves_an_untouched_zero_tail_unmapped():
    """A flat gradient whose head alone was written, clipped, keeps its
    zero tail unwritten, as AdamW leaves the views no backward reaches.
    Measured in a child process by its resident size, where it can read
    /proc/self/statm, else by its peak, which the clip's mask (one byte
    per entry) may raise by an eighth of the array."""
    if not os.path.exists("/proc/self/statm"):
        try:
            import resource
            resource.getrusage(resource.RUSAGE_SELF)
        except (ImportError, OSError):
            pytest.skip("neither /proc/self/statm nor getrusage can be read")
    src = os.path.dirname(os.path.dirname(training.__file__))
    code = _CLIP_RSS_PROBE.format(page=os.sysconf("SC_PAGE_SIZE"), size=8 * 2**20)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    grown, nbytes = map(int, proc.stdout.split())
    assert grown < nbytes // 4, (grown, nbytes)


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


def _folded_adamw(theta, grads, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent hand iteration of the folded recurrence: moments scaled by
    1/(1-beta), bias corrections folded into the step size and eps."""
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    th = theta.copy()
    for t, g in enumerate(grads, start=1):
        c = math.sqrt((1 - beta2 ** t) / (1 - beta2))
        alpha = lr * (1 - beta1) / (1 - beta1 ** t) * c
        th = th * (1 - lr * wd)
        m = beta1 * m + g
        v = beta2 * v + g * g
        th = th - alpha * m / (np.sqrt(v) + eps * c)
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
        graph.params["p"].sink.out[...] = g
        opt.step(lr_t=1e-2)
    expected = _reference_adamw(theta0, gs, lr=1e-2, wd=1e-2)
    assert np.max(np.abs(graph.params["p"].data - expected)) <= 1e-12


def _fused_kernel():
    """The fused AdamW kernel; skips the test where this host cannot build
    or load it."""
    kernel = _native.function("adamw_update")
    if kernel is None:
        pytest.skip("the fused AdamW kernel cannot be built or loaded here")
    return kernel


def _kernels():
    """Each AdamW path this host runs: the fused kernel where it loads, and
    the numpy block plan (None)."""
    kernel = _native.function("adamw_update")
    return [None] if kernel is None else [kernel, None]


def _use_path(block, monkeypatch):
    """Block None runs the fused kernel; a block size runs the numpy block
    plan with that block."""
    if block is None:
        monkeypatch.setitem(_native._functions, "adamw_update", _fused_kernel())
    else:
        monkeypatch.setitem(_native._functions, "adamw_update", None)
        monkeypatch.setattr(training, "ADAM_BLOCK", block)


def _arena_graph():
    """Mixed shapes: a parameter spanning two default blocks, a (1, n) bias,
    a vector and a scalar, plus one frozen parameter."""
    graph = ModelGraph()
    rng = np.random.default_rng(11)
    for name, shape in (("w", (200, 200)), ("b", (1, 7)), ("u", (5,)), ("s", ())):
        graph.add_param(name, rng.normal(size=shape), trainable=True)
    graph.add_param("frozen", rng.normal(size=(3, 3)))
    return graph


@pytest.mark.parametrize("block", [ADAM_BLOCK, 5, pytest.param(None, id="fused")])
def test_adamw_arena_equals_reference_exactly(block, monkeypatch):
    """20 steps over several parameters, one of which ("u") gets no gradient
    on every third step, equal the hand iteration of the folded recurrence
    bit for bit and the textbook one within 1e-12, on the fused kernel and
    on the numpy block plan; a block of 5 elements cuts through every
    parameter boundary."""
    _use_path(block, monkeypatch)
    graph = _arena_graph()
    theta0 = {p.name: p.data.copy() for p in graph.trainable()}
    rng = np.random.default_rng(12)
    steps = [{n: rng.normal(size=t.shape) for n, t in theta0.items()
              if not (n == "u" and k % 3 == 0)} for k in range(20)]
    opt = AdamW(graph.trainable(), weight_decay=1e-2)
    for grads in steps:
        opt.flat_grad.fill(0.0)
        for n, g in grads.items():
            graph.params[n].sink.out[...] = g
        opt.step(lr_t=1e-2)
    for n, t in theta0.items():
        gs = [grads.get(n, np.zeros_like(t)) for grads in steps]
        got = graph.params[n].data
        assert got.shape == t.shape
        assert np.array_equal(got, _folded_adamw(t, gs, lr=1e-2, wd=1e-2)), n
        assert np.max(np.abs(got - _reference_adamw(t, gs, lr=1e-2, wd=1e-2))) <= 1e-12, n


def test_adamw_params_are_views_of_the_arena():
    graph = _arena_graph()
    frozen = graph.params["frozen"].data
    before = {p.name: p.data.copy() for p in graph.trainable()}
    opt = AdamW(graph.trainable())
    for p in graph.trainable():
        assert np.shares_memory(p.data, opt.flat), p.name
        assert np.array_equal(p.data, before[p.name])
        assert np.shares_memory(p.sink.out, opt.flat_grad)
    assert graph.params["frozen"].data is frozen
    assert not np.shares_memory(frozen, opt.flat)
    state = {n: np.full(a.shape, 3.0) for n, a in before.items()}
    graph.load_state(state)
    for p in graph.trainable():
        assert np.shares_memory(p.data, opt.flat), p.name
        assert np.array_equal(p.data, state[p.name])
    assert graph.params["frozen"].data is frozen
    assert opt.flat.sum() == 3.0 * opt.flat.size


class _DictAdamW:
    """The optimizer before the arena: one dict entry per parameter and
    fresh arrays on every step, with the folded update of `_folded_adamw`."""

    def __init__(self, params, weight_decay):
        self.params, self.weight_decay, self.t = list(params), weight_decay, 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self, grads, lr_t):
        self.t += 1
        c = math.sqrt((1 - 0.999 ** self.t) / (1 - 0.999))
        alpha = lr_t * (1 - 0.9) / (1 - 0.9 ** self.t) * c
        for p in self.params:
            g = grads[p.name]
            p.data = p.data * (1 - lr_t * self.weight_decay)
            m = self.m[p.name] = 0.9 * self.m[p.name] + g
            v = self.v[p.name] = 0.999 * self.v[p.name] + g * g
            p.data = p.data - alpha * m / (np.sqrt(v) + 1e-8 * c)


def _dict_train_loop(model, train_samples, val_samples, cfg):
    """The training loop before the arena: a fresh dict of gradients per
    micro-batch, clipping into new arrays, a per-parameter best state.
    Returns (history without seconds, best epoch, steps clipped)."""
    model.fit_normalizer(train_samples)
    graph = model.graph
    opt = _DictAdamW(graph.trainable(), cfg.weight_decay)
    n = len(train_samples)
    micro_per_epoch = math.ceil(n / cfg.batch)
    total_steps = math.ceil(micro_per_epoch / cfg.accumulation) * cfg.max_epochs
    warmup_steps = int(cfg.warmup_fraction * total_steps)
    history, best_val, best_epoch, best_state, since, step = [], -np.inf, 0, None, 0, 0
    clipped = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = ad.make_rng(cfg.seed, "shuffle", epoch).permutation(n)
        shuffled = [train_samples[i] for i in order]
        losses = []
        for start in range(0, micro_per_epoch, cfg.accumulation):
            accum = {}
            micros = range(start, min(start + cfg.accumulation, micro_per_epoch))
            for mb in micros:
                loss, binding = model.loss_batch(shuffled[mb * cfg.batch:(mb + 1) * cfg.batch],
                                                 training=True, epoch=epoch, seed=cfg.seed)
                losses.append(float(loss.data))
                ad.mul(loss, 1.0 / len(micros)).backward()
                for p in graph.trainable():
                    g = binding[p.name].grad
                    g = np.zeros_like(p.data) if g is None else g
                    accum[p.name] = accum.get(p.name, 0.0) + g
            lr_t = lr_schedule(step, total_steps, warmup_steps, cfg.lr)
            # the global norm is one dot over every gradient in parameter order
            flat = np.concatenate([accum[p.name].ravel() for p in graph.trainable()])
            norm = math.sqrt(float(flat @ flat))
            if norm > cfg.clip_norm:
                clipped += 1
                accum = {k: g * (cfg.clip_norm / norm) for k, g in accum.items()}
            opt.step(accum, lr_t)
            step += 1
        val = float(model.validation_auroc(val_samples))
        history.append((epoch, float(np.mean(losses)), val,
                        lr_schedule(step - 1, total_steps, warmup_steps, cfg.lr)))
        if val > best_val:
            best_val, best_epoch, since = val, epoch, 0
            best_state = {p.name: p.data.copy() for p in graph.trainable()}
        else:
            since += 1
            if since >= cfg.patience:
                break
    graph.load_state(best_state)
    return history, best_epoch, clipped


def test_train_loop_matches_dict_reference_loop(tmp_path):
    """Accumulation 2 with an odd last group, active clipping, dropout and
    parameters that get no gradient (the attention wq/wk): the arena loop
    ends on the same bytes as the dict-based loop, which copies every best
    epoch's parameters and loads them back at the end, and so writes the
    same checkpoint. Over 4 epochs the best is the first; over 1 it is the
    last."""
    samples = generate_synthetic(n_patients=40, seed=9)
    train, val, _ = split_patients(samples, SplitSpec())
    tok = Tokenizer.build([s.text for s in train])

    def model():
        return MultimodalModel(FusionConfig(shared_dim=32, head_hidden=16, dropout_p=0.1),
                               tok, seed=2)

    for max_epochs in (4, 1):
        cfg = TrainConfig(batch=5, accumulation=2, max_epochs=max_epochs, patience=4,
                          lr=3e-3, clip_norm=0.05, seed=2)
        assert math.ceil(len(train) / cfg.batch) % 2 == 1
        ref = model()
        history, best_epoch, clipped = _dict_train_loop(ref, train, val, cfg)
        assert clipped > 0 and best_epoch == 1
        got = model()
        result = train_loop(got, train, val, cfg)
        assert [row[:4] for row in result.history] == history
        assert result.best_epoch == best_epoch
        for p in ref.graph.trainable():
            live = got.graph.params[p.name].data
            assert live.tobytes() == p.data.tobytes(), p.name
        for name, graph in (("ref", ref.graph), ("got", got.graph)):
            save_checkpoint(tmp_path / name, graph, header_extra={}, state={})
        assert (tmp_path / "got").read_bytes() == (tmp_path / "ref").read_bytes()


def test_adamw_decay_only_shrinks(monkeypatch):
    for kernel in _kernels():
        monkeypatch.setitem(_native._functions, "adamw_update", kernel)
        graph = ModelGraph()
        graph.add_param("p", np.array([2.0]), trainable=True)
        opt = AdamW(graph.trainable(), weight_decay=0.5)
        opt.step(lr_t=0.1)
        # zero gradient: only the decoupled decay term applies
        assert graph.params["p"].data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))


def test_adamw_first_step_magnitude():
    """With one gradient and no decay the first step is -lr * sign(g)
    up to the eps correction."""
    graph = ModelGraph()
    graph.add_param("p", np.array([0.0]), trainable=True)
    opt = AdamW(graph.trainable(), weight_decay=0.0)
    graph.params["p"].sink.out[...] = 7.0
    opt.step(lr_t=1e-3)
    assert graph.params["p"].data[0] == pytest.approx(-1e-3, rel=1e-6)


def test_adamw_zero_lr_is_noop(monkeypatch):
    for kernel in _kernels():
        monkeypatch.setitem(_native._functions, "adamw_update", kernel)
        graph = ModelGraph()
        graph.add_param("p", np.array([3.0]), trainable=True)
        opt = AdamW(graph.trainable(), weight_decay=0.5)
        graph.params["p"].sink.out[...] = 1.0
        opt.step(lr_t=0.0)
        assert graph.params["p"].data[0] == 3.0


@pytest.mark.parametrize("block", [ADAM_BLOCK, pytest.param(None, id="fused")])
def test_an_overflowing_step_is_a_numeric_error_guarded_and_a_warning_not(block,
                                                                          monkeypatch):
    """A gradient of 1e200 overflows g*g: inside numeric_guard, as in
    train_loop, the step ends as NumericError; outside it numpy's default
    error state gives a RuntimeWarning. The fused kernel reports its flags
    through numpy's error state as the numpy plan's ufuncs do."""
    _use_path(block, monkeypatch)

    def overflowing():
        graph = ModelGraph()
        graph.add_param("p", np.ones(5), trainable=True)
        opt = AdamW(graph.trainable())
        graph.params["p"].sink.out[...] = 1e200
        return opt

    opt = overflowing()
    with pytest.raises(NumericError, match="training: overflow"):
        with numeric_guard("training"):
            opt.step(lr_t=1e-3)
    opt = overflowing()
    with pytest.warns(RuntimeWarning, match="overflow"):
        opt.step(lr_t=1e-3)
    assert np.isinf(opt.flat_v).all()


def test_train_writes_the_same_bytes_on_the_fused_kernel_and_the_numpy_plan(tmp_path,
                                                                            monkeypatch):
    """A LoRA `train` run, whose dead attention wq/wk only decay, writes the
    same checkpoint and history.csv (without its seconds column) on both
    AdamW paths."""
    kernel = _fused_kernel()
    data, cfg = tmp_path / "data.jsonl", tmp_path / "cfg.json"
    assert cli.main(["gen-data", "--patients", "24", "--seed", "5", "--out", str(data)]) == 0
    cfg.write_text(json.dumps({"arm": "full_pet", "policy": "lora",
                               "train": {"max_epochs": 2, "lr": 3e-3, "batch": 8}}))
    written = []
    for name, k in (("fused", kernel), ("numpy", None)):
        monkeypatch.setitem(_native._functions, "adamw_update", k)
        out = tmp_path / name
        assert cli.main(["train", "--config", str(cfg), "--data", str(data),
                         "--out", str(out)]) == 0
        with open(out / "history.csv", newline="") as f:
            rows = [row[:-1] for row in csv.reader(f)]
        assert rows[0] == ["epoch", "train_loss", "val_auroc", "lr"] and len(rows) == 3
        written.append(((out / "checkpoint.bin").read_bytes(), rows))
    assert written[0] == written[1]


_KERNEL_PROBE = """
import hashlib, subprocess
import numpy as np
import petfuse.training as training
from petfuse import _native
from petfuse.model import ModelGraph

compiles, run = [], subprocess.run
subprocess.run = lambda *a, **k: compiles.append(a) or run(*a, **k)
graph = ModelGraph()
graph.add_param("p", np.linspace(-1.0, 1.0, 1000), trainable=True)
opt = training.AdamW(graph.trainable())
for k in range(5):
    graph.params["p"].sink.out[...] = np.sin(np.arange(1000.0) * (k + 1))
    opt.step(1e-2)
bits = hashlib.sha256(b"".join(a.tobytes() for a in (opt.flat, opt.flat_m, opt.flat_v)))
print(_native.function("adamw_update") is not None, len(compiles), bits.hexdigest())
"""


_READER_PROBE = """
import hashlib, sys
import petfuse.data as data
from petfuse import _native

bits = hashlib.sha256()
for s in data.load_manifest(sys.argv[1]):
    bits.update(repr((s.id, s.patient_id, s.text, s.labels)).encode())
    bits.update(s.vision_features.tobytes())
print(_native.function("parse_numbers") is not None, bits.hexdigest())
"""


_WRITER_PROBE = """
import contextlib, hashlib, io, sys
from petfuse import _native
from petfuse.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    assert main(["gen-data", "--patients", "12", "--seed", "9", "--out", sys.argv[1]]) == 0
with open(sys.argv[1], "rb") as f:
    print(_native.function("format_six_decimals") is not None,
          hashlib.sha256(f.read()).hexdigest())
"""


def _probe(code, cache, path=None, *args):
    """The stdout words of a child process that runs `code` with `args`,
    takes its native library cache from `cache` and, if given, looks for
    the compiler on `path`."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(training.__file__)),
           "XDG_CACHE_HOME": str(cache)}
    if path is not None:
        env["PATH"] = str(path)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _kernel_probe(cache, path=None):
    """(fused, compiler calls, SHA-256 of flat/m/v after 5 steps) of a child
    process that steps AdamW (`_probe`)."""
    fused, compiles, bits = _probe(_KERNEL_PROBE, cache, path)
    return fused == "True", int(compiles), bits


def _compiler():
    """Python's own C compiler command; skips the test where it is not on PATH."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("Python's C compiler is not on PATH")
    return cc


def test_a_cold_cache_compiles_the_kernel_once_and_the_next_process_loads_it(tmp_path):
    _compiler()
    first = _kernel_probe(tmp_path)
    assert first[:2] == (True, 1)
    assert _kernel_probe(tmp_path) == (True, 0, first[2])
    cache = tmp_path / "petfuse"
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    [lib] = cache.iterdir()  # no temporary file is left behind
    assert lib.name.startswith("native-") and lib.suffix == ".so"


def test_without_a_compiler_adamw_runs_the_numpy_plan_to_the_same_bits(tmp_path):
    if os.path.isabs(_compiler()[0]):
        pytest.skip("Python's C compiler is named by an absolute path")
    fused = _kernel_probe(tmp_path / "with")
    (tmp_path / "bin").mkdir()
    plain = _kernel_probe(tmp_path / "without", path=tmp_path / "bin")
    assert fused[0] and not plain[0]
    assert plain[2] == fused[2]
    assert not any((tmp_path / "without" / "petfuse").iterdir())


def test_a_cache_directory_others_can_write_is_not_loaded_from(tmp_path):
    """A copy of a good cache, made group- or world-writable, is neither
    loaded from nor compiled into."""
    _compiler()
    assert _kernel_probe(tmp_path / "own")[:2] == (True, 1)
    shared = tmp_path / "shared" / "petfuse"
    shutil.copytree(tmp_path / "own" / "petfuse", shared)
    for mode in (0o770, 0o707):
        shared.chmod(mode)
        assert _kernel_probe(tmp_path / "shared")[:2] == (False, 0), oct(mode)


def test_without_a_compiler_a_manifest_is_read_by_json_to_the_same_samples(tmp_path):
    """Where no library can be built the row reader is json, whose samples
    are the native reader's to the bytes, and no temporary file is left."""
    if os.path.isabs(_compiler()[0]):
        pytest.skip("Python's C compiler is named by an absolute path")
    manifest = tmp_path / "m.jsonl"
    assert cli.main(["gen-data", "--patients", "12", "--seed", "3",
                     "--out", str(manifest)]) == 0
    native = _probe(_READER_PROBE, tmp_path / "with", None, str(manifest))
    (tmp_path / "bin").mkdir()
    plain = _probe(_READER_PROBE, tmp_path / "without", tmp_path / "bin", str(manifest))
    assert (native[0], plain[0]) == ("True", "False")
    assert plain[1] == native[1]
    assert not any((tmp_path / "without" / "petfuse").iterdir())


def test_without_a_compiler_gen_data_writes_the_same_manifest(tmp_path):
    """Where no library can be built every row is written by json, to the
    bytes of the native writer's pinned digest, and no temporary file is
    left."""
    if os.path.isabs(_compiler()[0]):
        pytest.skip("Python's C compiler is named by an absolute path")
    (tmp_path / "bin").mkdir()
    written = [_probe(_WRITER_PROBE, tmp_path / cache, path, str(tmp_path / f"{cache}.jsonl"))
               for cache, path in (("with", None), ("without", tmp_path / "bin"))]
    assert written == [["True", GEN_DATA_12_SEED_9_SHA256], ["False", GEN_DATA_12_SEED_9_SHA256]]
    assert not any((tmp_path / "without" / "petfuse").iterdir())


def test_a_library_of_an_older_source_is_not_loaded(tmp_path):
    """An AdamW-only library that an older petfuse left in the cache, here
    a file dlopen would refuse, is neither loaded nor removed: the library
    of this source is compiled beside it."""
    _compiler()
    cache = tmp_path / "petfuse"
    cache.mkdir(mode=0o700)
    old = cache / "adamw-0123456789abcdef.so"
    old.write_bytes(b"not a shared object")
    assert _kernel_probe(tmp_path)[:2] == (True, 1)
    assert sorted(p.name.split("-")[0] for p in cache.iterdir()) == ["adamw", "native"]
    assert old.read_bytes() == b"not a shared object"


_THREADS_PROBE = """
import subprocess, sys, threading
from petfuse import _native

compiles, run = [], subprocess.run
subprocess.run = lambda *a, **k: compiles.append(a) or run(*a, **k)
sys.setswitchinterval(1e-6)
barrier, found = threading.Barrier(8), []
names = ["adamw_update", "parse_numbers", "format_six_decimals"]

def look(name):
    barrier.wait(timeout=60)
    found.append(_native.function(name) is not None)

threads = [threading.Thread(target=look, args=(names[i % 3],)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=120)
first = len(compiles)
again = sum(_native.function(name) is not None for name in names)
print(not any(t.is_alive() for t in threads), first, sum(found), again, len(compiles))
"""


def test_threads_that_meet_a_cold_cache_compile_the_library_once(tmp_path):
    """Eight threads that ask for the AdamW kernel, the row reader and the
    row writer at once, switching every microsecond, all get them from one
    compile, and a second ask for each compiles nothing."""
    _compiler()
    assert _probe(_THREADS_PROBE, tmp_path) == ["True", "1", "8", "3", "1"]
    [lib] = (tmp_path / "petfuse").iterdir()
    assert lib.name.startswith("native-")


def test_without_a_compiler_every_function_is_none_and_is_looked_for_once(tmp_path):
    """Where the library cannot be built, every name is None after the one
    failed compile, and a second ask for each does not try again."""
    if os.path.isabs(_compiler()[0]):
        pytest.skip("Python's C compiler is named by an absolute path")
    (tmp_path / "bin").mkdir()
    assert _probe(_THREADS_PROBE, tmp_path, tmp_path / "bin") == ["True", "1", "0", "0", "1"]
    assert not any((tmp_path / "petfuse").iterdir())


def _exported(source: str) -> set[str]:
    """The names of the functions C `source` defines that are not static:
    each definition starts a line, and comments are dropped first."""
    code = re.sub(r"/\*.*?\*/", "", source, flags=re.S)
    return set(re.findall(r"^(?!static\b)[A-Za-z_][\w \t*]*?\b(\w+)\s*\(", code, re.M))


def test_the_signature_table_declares_every_function_of_the_c_source():
    """_native._SIGNATURES names each function _native.c exports and no
    other; where a compiler is present, each loaded function carries its
    entry's argtypes and restype."""
    assert _exported(_native._SOURCE.read_text()) == set(_native._SIGNATURES)
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        return  # no library to hold to the table
    for name, (argtypes, restype) in _native._SIGNATURES.items():
        fn = _native.function(name)
        assert (list(fn.argtypes), fn.restype) == (list(argtypes), restype), name


def test_the_compiler_flags_keep_every_float64_operation_exact():
    """The library is compiled without contraction into fused multiply-adds
    and with no flag that lets the compiler reorder or approximate a float64
    operation or tune it to the building machine: each function is held to
    the bits of its Python path."""
    assert "-ffp-contract=off" in _native._FLAGS
    for flag in ("-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-march=native"):
        assert flag not in _native._FLAGS


def test_the_kernel_source_ships_in_the_package():
    """pyproject's package-data puts _native.c in an installed petfuse, which
    compiles it at run time."""
    assert (importlib.resources.files("petfuse") / "_native.c").is_file()


# ---------------------------------------------------------------- config


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch=0)
    with pytest.raises(ConfigError):
        TrainConfig(warmup_fraction=1.5)
    TrainConfig()


@pytest.mark.parametrize("field", ["lr", "weight_decay", "clip_norm"])
@pytest.mark.parametrize("value", [0.0, float("nan"), float("inf")])
def test_train_config_refuses_a_step_size_that_is_not_finite_and_positive(field, value):
    """A NaN clip_norm never clipped (norm > nan is false), and a NaN lr
    failed only mid-training, in the loss."""
    with pytest.raises(ConfigError, match="must be finite and positive"):
        TrainConfig(**{field: value})


# ---------------------------------------------------------------- loop


class _StubModel:
    """Tiny scalar model with scripted validation scores. `after` holds, for
    each epoch, each parameter's first value as validation saw it."""

    def __init__(self, val_scores):
        self.graph = ModelGraph()
        self.graph.add_param("w", np.array([1.0]), trainable=True)
        self._scores = list(val_scores)
        self.calls = 0
        self.after = []

    def fit_normalizer(self, samples):
        pass

    def loss_batch(self, samples, training, epoch, seed):
        binding = self.graph.bind(training)
        w = binding["w"]
        loss = tsum(ad.mul(w, w))
        return loss, binding

    def validation_auroc(self, val):
        self.after.append({n: float(p.data.flat[0]) for n, p in self.graph.params.items()})
        score = self._scores[min(self.calls, len(self._scores) - 1)]
        self.calls += 1
        return score


def _dummy_samples(n):
    return generate_synthetic(n_patients=n, seed=0)[:n]


def test_early_stopping_trace():
    """Scores 0.6, 0.7 then flat: patience 5 stops after epoch 7 and the
    restored weights are those epoch 2 left, not those of epoch 7."""
    model = _StubModel([0.6, 0.7] + [0.65] * 30)
    cfg = TrainConfig(max_epochs=30, patience=5, batch=4, accumulation=1,
                      lr=1e-2, seed=0)
    result = train_loop(model, _dummy_samples(4), _dummy_samples(2), cfg)
    assert result.best_epoch == 2
    assert result.best_val_auroc == pytest.approx(0.7)
    assert len(result.history) == len(model.after) == 7  # 2 improving + 5 patience
    w = model.graph.params["w"].data[0]
    assert w == model.after[1]["w"] != model.after[-1]["w"]


def test_early_stopping_runs_to_max_epochs_when_improving():
    scores = [0.5 + 0.01 * i for i in range(10)]
    model = _StubModel(scores)
    cfg = TrainConfig(max_epochs=6, patience=5, batch=4, accumulation=1,
                      lr=1e-3, seed=0)
    result = train_loop(model, _dummy_samples(4), _dummy_samples(2), cfg)
    assert len(result.history) == 6
    assert result.best_epoch == 6


class _WideStubModel(_StubModel):
    """_StubModel with a wide trainable parameter that no loss reads: the
    optimizer's arena is wide, and no step makes a temporary of its size."""

    def __init__(self, val_scores, width):
        super().__init__(val_scores)
        self.graph.add_param("wide", np.ones(width), trainable=True)


@pytest.mark.parametrize("scores, copies, restored", [
    ([0.6], 0, False),       # one epoch: its parameters stay live
    ([0.6, 0.5], 1, True),   # epoch 1 is copied and loaded back
    ([0.5, 0.6], 1, False),  # epoch 1 is copied; the last epoch beats it
])
def test_only_a_best_epoch_before_the_last_is_copied(scores, copies, restored):
    """Traced peak memory is the arena, its two moments and its gradient,
    plus one arena-sized copy for a best epoch that another epoch follows.
    The parameters end as the best epoch left them, which differs from the
    last epoch when the copy is loaded back."""
    width = 1 << 20
    model = _WideStubModel(scores, width)
    arena = 8 * (width + 1)
    cfg = TrainConfig(max_epochs=len(scores), patience=5, batch=4, accumulation=1,
                      lr=1e-2, seed=0)
    train, val = _dummy_samples(4), _dummy_samples(2)
    tracemalloc.start()
    try:
        result = train_loop(model, train, val, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (4 + copies) * arena <= peak < (4.5 + copies) * arena
    assert result.best_epoch == 1 + scores.index(max(scores))
    best, last = model.after[result.best_epoch - 1], model.after[-1]
    for name in ("w", "wide"):
        live = model.graph.params[name].data
        assert (live == best[name]).all()
        assert (best[name] != last[name]) == restored


@pytest.mark.skipif(sys.platform != "linux" or os.confstr("CS_GNU_LIBC_VERSION") is None,
                    reason="glibc's mallopt and /proc/self/maps")
def test_arrays_under_the_pinned_mmap_threshold_come_from_the_heap():
    """Once petfuse.training is imported, the first array just under 32 MB
    is carved from the brk heap, where glibc's sliding threshold would map
    it apart; one over 32 MB is still mapped apart."""
    code = """if True:
        import numpy as np
        import petfuse.training
        def in_heap(a):
            for line in open("/proc/self/maps"):
                fields = line.split()
                if fields[-1] == "[heap]":
                    lo, hi = (int(x, 16) for x in fields[0].split("-"))
                    return lo <= a.ctypes.data < hi
            return False
        under = (petfuse.training.MMAP_THRESHOLD >> 3) - 4096
        a, b = np.empty(under), np.empty(under + 8192)
        print(in_heap(a), in_heap(b))
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["True", "False"]


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


# ------------------------------------------------------ arena gradient path


def _policy_model(policy, samples):
    tok = Tokenizer.build([s.text for s in samples])
    return MultimodalModel(FusionConfig(shared_dim=16, head_hidden=8, dropout_p=0.1),
                           tok, policy=policy, seed=4)


@pytest.mark.parametrize("accumulation", [1, 2, 3])
@pytest.mark.parametrize("policy", ["frozen", "lora", "bitfit", "adapter"])
def test_arena_gradients_equal_the_per_leaf_gradients(policy, accumulation):
    """Three accumulation groups of micro-batches of 20 (more than one
    encoder chunk, so a LoRA or adapter leaf gets two gradients in one
    backward): the settled arena holds, bit for bit, the per-leaf gradients
    added into zeroed arrays micro-batch by micro-batch."""
    assert 20 > ENCODE_CHUNK
    samples = generate_synthetic(n_patients=40, seed=31)
    got, ref = _policy_model(policy, samples), _policy_model(policy, samples)
    got.fit_normalizer(samples)
    ref.fit_normalizer(samples)
    opt = AdamW(got.graph.trainable(), weight_decay=1e-2)
    for group in range(3):
        expected = {p.name: np.zeros_like(p.data) for p in ref.graph.trainable()}
        for mb in range(accumulation):
            batch = samples[(group + mb) % 2::2][:20]
            loss, _ = got.loss_batch(batch, training=True, epoch=group, seed=mb)
            ad.mul(loss, 1.0 / accumulation).backward()
            loss, binding = ref.loss_batch(batch, training=True, epoch=group, seed=mb)
            ad.mul(loss, 1.0 / accumulation).backward()
            for name, g in expected.items():
                if binding[name].grad is not None:
                    g += binding[name].grad
        opt.settle_grads()
        for name, g in expected.items():
            assert got.graph.params[name].sink.out.tobytes() == g.tobytes(), (group, name)
        # move off the initial point (LoRA's B starts at zero), in step
        opt.step(lr_t=1e-2)
        ref.graph.load_state({p.name: p.data for p in got.graph.trainable()})


class _ExtraEveryOtherCall:
    """A model whose loss reads the extra parameter "extra/w" on odd calls
    of loss_batch only."""

    def __init__(self, model):
        self.inner, self.graph, self.calls = model, model.graph, 0
        self.graph.add_param("extra/w", np.ones(3), trainable=True)

    def fit_normalizer(self, samples):
        self.inner.fit_normalizer(samples)

    def validation_auroc(self, samples):
        return self.inner.validation_auroc(samples)

    def loss_batch(self, samples, training, epoch, seed):
        loss, binding = self.inner.loss_batch(samples, training, epoch, seed)
        self.calls += 1
        if self.calls % 2:
            w = binding["extra/w"]
            loss = loss + tsum(ad.mul(w, w))
        return loss, binding


@pytest.mark.parametrize("policy", ["frozen", "lora", "bitfit", "adapter"])
def test_a_view_no_gradient_reached_reads_zero_when_clipped(policy, monkeypatch):
    """A parameter that got a gradient at step k and none at step k+1 reads
    exactly 0 in flat_grad when step k+1 clips."""
    seen = []
    clip = training.clip_gradients

    def recording_clip(grads, max_norm=1.0):
        seen.append(grads[-3:].copy())  # "extra/w" is the last parameter
        return clip(grads, max_norm)

    monkeypatch.setattr(training, "clip_gradients", recording_clip)
    samples = generate_synthetic(n_patients=24, seed=33)
    train, val, _ = split_patients(samples, SplitSpec())
    model = _ExtraEveryOtherCall(_policy_model(policy, train))
    cfg = TrainConfig(batch=8, accumulation=1, max_epochs=2, patience=2, lr=1e-3)
    train_loop(model, train, val, cfg)
    assert len(seen) == model.calls >= 4
    for step, g in enumerate(seen):
        if step % 2:
            assert g.tobytes() == np.zeros(3).tobytes(), step
        else:
            assert (g != 0).all(), step


class _TapeWatcher:
    """A model whose loss_batch records, on entry, whether the previous
    micro-batch's logits, their values or their tape record, are still
    alive. It forms the loss as the wrapped model's loss_batch does."""

    def __init__(self, model):
        self.inner, self.graph = model, model.graph
        self.watched, self.alive = (), []

    def fit_normalizer(self, samples):
        self.inner.fit_normalizer(samples)

    def validation_auroc(self, samples):
        return self.inner.validation_auroc(samples)

    def loss_batch(self, samples, training, epoch, seed):
        if self.watched:
            self.alive.append(any(ref() is not None for ref in self.watched))
        logits, binding = self.inner.logits_batch(samples, training, epoch, seed)
        loss = ad.bce_with_logits(logits, label_matrix(samples))
        self.watched = (weakref.ref(logits.data), weakref.ref(loss._record.parents[0]))
        return loss, binding


@pytest.mark.parametrize("policy", ["frozen", "lora"])
def test_train_loop_frees_each_tape_before_the_next_forward(policy):
    samples = generate_synthetic(n_patients=24, seed=33)
    train, val, _ = split_patients(samples, SplitSpec())
    model = _TapeWatcher(_policy_model(policy, train))
    cfg = TrainConfig(batch=4, accumulation=2, max_epochs=2, patience=2, lr=1e-3)
    train_loop(model, train, val, cfg)
    assert len(model.alive) >= 4 and not any(model.alive)


def _lora_batch_loss(monkeypatch=None, watch=None):
    """A default-width LoRA full_pet model (rank 8, alpha 32) and the loss
    tape of one training micro-batch of 16; with `monkeypatch`, each LoRA
    projection's output values are appended to `watch` as weakrefs."""
    if monkeypatch is not None:
        def watched(graph, binding, x, addr):
            y = lora_linear(graph, binding, x, addr)
            watch.append(weakref.ref(y.data))
            return y
        monkeypatch.setattr(encoders, "lora_linear", watched)
    samples = generate_synthetic(n_patients=60, seed=3)
    train, _, _ = split_patients(samples, SplitSpec())
    model = MultimodalModel(FusionConfig(), Tokenizer.build([s.text for s in train]),
                            policy="lora", lora_cfg=LoRAConfig(rank=8, alpha=32.0))
    model.fit_normalizer(train)
    if watch is not None:
        watch.clear()
    loss, binding = model.loss_batch(train[:16], training=True, epoch=1, seed=0)
    return model, loss, binding


def test_a_lora_tape_frees_the_activations_no_backward_reads(monkeypatch):
    """The output of each LoRA projection (x times the merged weight) is
    read by the next add, whose backward keeps only shapes: it is freed
    while the tape that passes gradients through it is still alive."""
    watch = []
    _, loss, binding = _lora_batch_loss(monkeypatch, watch)
    assert len(watch) == 8  # q, k, v and o projections of two blocks
    assert loss.requires_grad and loss._record.backward is not None  # the tape is alive
    assert all(ref() is None for ref in watch)
    loss.backward()
    assert binding["text_encoder/block0/attn/wq/lora_a"].grad is not None


def _tape_bytes(loss, params) -> int:
    """Bytes of the arrays the backward closures of loss's tape hold, each
    buffer counted once and the parameters not counted."""
    def base(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    skip = {id(base(p.data)) for p in params}
    held, seen, stack = {}, set(), [loss._record]
    while stack:
        r = stack.pop()
        if id(r) in seen:
            continue
        seen.add(id(r))
        stack.extend(r.parents)
        closure = r.backward.__closure__ if r.backward is not None else None
        for cell in closure or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray) and id(base(value)) not in skip:
                held[id(base(value))] = base(value).nbytes
    return sum(held.values())


def test_a_batch_16_lora_tape_holds_what_its_backward_reads():
    """Measured at 10.7 MB (43.2 MB when each tape node kept its input
    tensors); the bound leaves 15% for the text lengths of another
    tokenizer or platform."""
    model, loss, _ = _lora_batch_loss()
    assert 8e6 < _tape_bytes(loss, model.graph.params.values()) < 12e6


@pytest.mark.parametrize("block", [ADAM_BLOCK, 5, pytest.param(None, id="fused")])
def test_a_parameter_first_reached_at_step_3_matches_the_folded_update(block, monkeypatch):
    """A parameter whose first nonzero gradient comes at step 3 ("u"), and
    one whose first comes at step 5 ("b"), only decay before then, their
    moments stay +0.0, and after 8 steps every parameter equals the folded
    recurrence over its gradients (zeros first) bit for bit, on the fused
    kernel and on the numpy block plan. Each departure rebuilds the plan
    mid-run; a block of 5 elements cuts through every parameter boundary."""
    _use_path(block, monkeypatch)
    graph = _arena_graph()
    theta0 = {p.name: p.data.copy() for p in graph.trainable()}
    first = {"u": 2, "b": 4}  # the index of the step of each one's first gradient
    rng = np.random.default_rng(13)
    steps = [{n: rng.normal(size=t.shape) for n, t in theta0.items()
              if k >= first.get(n, 0)} for k in range(8)]
    opt = AdamW(graph.trainable(), weight_decay=1e-2)
    spans = {p.name: (a, b) for p, a, b in zip(opt.params, opt._bounds, opt._bounds[1:])}
    for k, grads in enumerate(steps):
        for n, g in grads.items():
            graph.params[n].sink.out[...] = g
        opt.step(lr_t=1e-2)
        for n, k0 in first.items():
            a, b = spans[n]
            m, v = opt.flat_m[a:b], opt.flat_v[a:b]
            assert (m.tobytes() == bytes(m.nbytes)) == (k < k0), (n, k)
            assert (v.tobytes() == bytes(v.nbytes)) == (k < k0), (n, k)
    for n, t in theta0.items():
        gs = [grads.get(n, np.zeros_like(t)) for grads in steps]
        assert np.array_equal(graph.params[n].data,
                              _folded_adamw(t, gs, lr=1e-2, wd=1e-2)), n


class _Binding(dict):
    """A binding a weakref can watch."""


class _BindingWatcher(_TapeWatcher):
    """A model whose loss_batch records, on entry, whether the binding it
    returned for the previous micro-batch is still alive."""

    def __init__(self, model):
        super().__init__(model)
        self.binding = None

    def loss_batch(self, samples, training, epoch, seed):
        if self.binding is not None:
            self.alive.append(self.binding() is not None)
        loss, binding = self.inner.loss_batch(samples, training, epoch, seed)
        binding = _Binding(binding)
        self.binding = weakref.ref(binding)
        return loss, binding


def test_train_loop_drops_each_binding_before_the_next_forward():
    samples = generate_synthetic(n_patients=24, seed=33)
    train, val, _ = split_patients(samples, SplitSpec())
    model = _BindingWatcher(_policy_model("frozen", train))
    cfg = TrainConfig(batch=4, accumulation=2, max_epochs=2, patience=2, lr=1e-3)
    train_loop(model, train, val, cfg)
    assert len(model.alive) == 9 and not any(model.alive)


# ---------------------------------------------------------------- checkpoint


def test_checkpoint_roundtrip(tmp_path):
    graph = ModelGraph()
    rng = ad.make_rng(0, "ckpt")
    graph.add_param("a/w", rng.normal(size=(3, 4)), trainable=True)
    graph.add_param("b/w", rng.normal(size=(2,)), trainable=False)
    path = tmp_path / "model.bin"
    save_checkpoint(path, graph, header_extra={"note": "x"}, state={"s": [0.1]})
    header, arrays = load_checkpoint(path)
    assert set(header) == {"version", "arrays", "extra", "state"}
    assert header["version"] == training.CHECKPOINT_VERSION
    assert header["extra"]["note"] == "x" and header["state"] == {"s": [0.1]}
    assert np.array_equal(arrays["param/a/w"], graph.params["a/w"].data)
    assert "param/b/w" not in arrays  # frozen weights are reconstructable


def test_checkpoint_bytes_deterministic(tmp_path):
    graph = ModelGraph()
    rng = ad.make_rng(0, "ckpt2")
    graph.add_param("a/w", rng.normal(size=(5, 5)), trainable=True)
    p1, p2 = tmp_path / "one.bin", tmp_path / "two.bin"
    save_checkpoint(p1, graph, header_extra={"k": 1}, state={})
    save_checkpoint(p2, graph, header_extra={"k": 1}, state={})
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_a_non_finite_array(tmp_path, value):
    graph = ModelGraph()
    graph.add_param("a/w", np.zeros((2, 3)), trainable=True)
    graph.add_param("a/b", np.zeros(3), trainable=True)
    graph.params["a/b"].data[1] = value
    path = tmp_path / "model.bin"
    save_checkpoint(path, graph, header_extra={}, state={})
    with pytest.raises(InputError, match="'param/a/b'"):
        load_checkpoint(path)


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
