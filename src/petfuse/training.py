"""Optimization recipe: AdamW, warmup+cosine schedule, gradient
accumulation and clipping, early stopping on validation AUROC, checkpoints.
"""

from __future__ import annotations

import csv
import ctypes
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import _native
from . import autodiff as ad
from .errors import ConfigError, InputError, numeric_guard
from .metrics import UndefinedMetric
from .model import ModelGraph

CHECKPOINT_MAGIC = b"PFCKPT01"
# The header's "state" holds what restoring a model needs besides its
# trainable arrays (cli.py writes and reads it); version 1 had none.
CHECKPOINT_VERSION = 2
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Elements per pass of the numpy AdamW block plan: the 128 KB slices of p/m/v/g
# and the two scratch blocks stay in cache between the pass's ufuncs. Of 8K,
# 16K, 32K and 64K, 16K gave the fastest median folded step on a 2-core
# x86_64 VM, in each of three runs: 8.8-9.2 ms against 9.4-10.4 ms over
# 1,055,744 parameters, and 20.0-20.4 ms against 21.4-23.5 ms over 2,362,880.
# With the step's block plan, 32K against 16K read +0.4% on the benchmark's
# `attribution_frozen` run_s (median of 8 seeds, faster in 4 of 8): noise.
ADAM_BLOCK = 16384
# 0-d ufunc calls that raise the kernel's flags 1 (divide by zero),
# 2 (overflow) and 4 (invalid) again, in numpy's order of handling them
_FLAG_REPLAYS = ((1, np.divide, 1.0, 0.0), (2, np.multiply, 1e300, 1e300),
                 (4, np.subtract, np.inf, np.inf))
# glibc's mallopt parameters and the values pinned for them: 32 MB is the
# largest mmap threshold glibc accepts, and the trim threshold is twice it.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD, TRIM_THRESHOLD = 32 << 20, 64 << 20


def _pin_malloc_thresholds():
    """Fix glibc malloc's mmap and trim thresholds where its sliding ones
    end: every array under 32 MB comes from the heap, and the heap keeps up
    to 64 MB of free memory at its top. Left sliding, each freed map of up
    to 32 MB raised the mmap threshold to its size and the trim threshold to
    twice that, so whether an arena or the best-epoch copy came from fresh
    pages or from free heap memory still resident depended on where small
    objects lay in the heap, which moves with the length of the environment
    or of the checkout's path. On a 2-core x86_64 VM that left
    `attribution_frozen`'s peak RSS at 147, 159 or 167 MB from one run to
    the next (16.9 MB between the quartiles of 10 seeds); pinned, 1.6 MB.
    A no-op where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no libc to load
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


_pin_malloc_thresholds()


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 1e-2
    batch: int = 16
    accumulation: int = 2
    max_epochs: int = 30
    patience: int = 5
    clip_norm: float = 1.0
    warmup_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0
                   for v in (self.lr, self.weight_decay, self.clip_norm)):
            raise ConfigError("lr, weight_decay and clip_norm must be finite and positive")
        if min(self.batch, self.max_epochs, self.patience) < 1 or self.accumulation < 1:
            raise ConfigError("batch, accumulation, max_epochs, patience must be >= 1")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError("warmup_fraction must be in [0, 1)")


def lr_schedule(step: int, total_steps: int, warmup_steps: int, peak: float) -> float:
    """Linear warmup to `peak`, then cosine decay to zero at total_steps."""
    if step < warmup_steps:
        return peak * step / warmup_steps
    if total_steps == warmup_steps:
        return peak
    frac = (step - warmup_steps) / (total_steps - warmup_steps)
    return peak * 0.5 * (1.0 + math.cos(math.pi * frac))


def clip_gradients(grads, max_norm: float = 1.0):
    """Scale gradients in place by max_norm/g when their global L2 norm g
    exceeds max_norm. Returns (grads, g).

    `grads` is one flat gradient array, such as AdamW.flat_grad, or a
    name -> array dict. The norm takes one dot product per array, so no
    full-size temporary is formed; over a flat array it is a single dot.
    Only the entries that are not ±0.0 are scaled, which leaves the same
    bits (±0·factor is ±0) and leaves a gradient page that no backward
    wrote unwritten, so AdamW's untouched zero pages stay unmapped.
    """
    arrays = list(grads.values()) if isinstance(grads, dict) else [grads]
    norm = math.sqrt(sum(float(g.ravel() @ g.ravel()) for g in arrays))
    if norm > max_norm:
        factor = max_norm / norm
        for g in arrays:
            np.multiply(g, factor, out=g, where=g != 0)
    return grads, norm


def _replay_flags(flags: int):
    """Raise the floating-point flags the kernel reported again in numpy, so
    that numpy's error state in this thread acts on them as on its own: a
    FloatingPointError under 'raise', a RuntimeWarning under 'warn'."""
    for bit, ufunc, a, b in _FLAG_REPLAYS:
        if flags & bit:
            ufunc(np.array(a), np.array(b))


class AdamW:
    """Decoupled weight decay applied before the bias-corrected Adam update,
    with the bias corrections folded into the step size (Kingma & Ba 2015,
    section 2).

    The parameters live in one flat float64 arena, `flat`: construction
    copies each parameter in and rebinds its `Param.data` to a shaped view of
    it. The gradient lives only in `flat_grad`: construction gives each
    parameter a GradSink whose `out` is its shaped view of that arena, so a
    training pass writes its gradient straight into the arena:
    the first backward of a step writes a view, later ones add to it, and
    `settle_grads` zeroes any view that no backward reached. The moment and
    gradient arenas start as untouched zero pages, and a view that no
    gradient ever reaches is never written.

    `step` updates the arena in place. It keeps the moments as
    m = (textbook m)/(1-b1) and v = (textbook v)/(1-b2), so with
    c_t = sqrt((1-b2**t)/(1-b2)) the textbook update is, up to rounding,

        p *= 1 - lr*wd;   m = b1*m + g;   v = b2*v + g*g
        p -= (alpha_t*m) / (sqrt(v) + eps_t)
        alpha_t = lr*(1-b1)/(1-b1**t)*c_t,   eps_t = eps*c_t

    A parameter whose gradient has been +0.0 throughout at every step only
    decays: `step` writes moments only through the runs of the full
    update, so its m and v are still the zero pages they started as, and its
    full update would be 0/(sqrt(0)+eps_t) = 0. Once its gradient is not, it
    takes the full update from then on.

    The first `step` builds the plan it updates by: each run of full-update
    parameters, and the decay-only parameters between those runs. Where the
    native library's fused kernel, `adamw_update`, loaded, a run is the base
    addresses and length the kernel takes, and it is updated in one call that
    does the operations above for each element in turn, each rounded once, so
    it writes the same bits; elsewhere a run is cut into ADAM_BLOCK slices,
    each updated by 11 ufunc calls. Each later step only checks the decay-only
    parameters' gradients, and rebuilds the plan when one of them leaves, so
    at most once per parameter.
    """

    def __init__(self, params, weight_decay: float = 1e-2):
        self.params = list(params)
        self.weight_decay = weight_decay
        self.step_count = 0
        self._kernel = _native.function("adamw_update")
        self._bounds = np.cumsum([0] + [p.data.size for p in self.params])
        self.flat = np.empty(self._bounds[-1])
        # np.zeros maps zero pages; np.zeros_like would write every one
        self.flat_m = np.zeros(self.flat.size)
        self.flat_v = np.zeros(self.flat.size)
        self.flat_grad = np.zeros(self.flat.size)
        # arena spans of the parameters that have only ever decayed, in order
        self._decay_only = list(zip(self._bounds[:-1], self._bounds[1:]))
        self._plan = None
        for p, a, b in zip(self.params, self._bounds, self._bounds[1:]):
            view = self.flat[a:b].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            p.sink = ad.GradSink(self.flat_grad[a:b].reshape(view.shape))
        self._scratch = np.empty((2, min(ADAM_BLOCK, self.flat.size)))

    def settle_grads(self):
        """Zero each gradient view that no backward wrote since the last
        settle, then mark every view unwritten, so that the next backward
        writes its gradient afresh. Call it once per step, before clipping.
        A view that is already +0.0 throughout is left untouched."""
        for p in self.params:
            if not p.sink.written and not _is_clear(p.sink.out):
                p.sink.out.fill(0.0)
            p.sink.written = False

    def _build_plan(self):
        """Drop from the decay-only spans each one whose gradient is not
        +0.0 throughout. Returns ((param, grad) views of each decay-only
        span, the runs between them): with the kernel, the (param, m, v,
        grad) base addresses and length of each run; without it, the
        (param, m, v, grad, scratch0, scratch1) views of each ADAM_BLOCK
        slice of each run."""
        self._decay_only = [(a, b) for a, b in self._decay_only
                            if _is_clear(self.flat_grad[a:b])]
        runs = [(a, b) for a, b in zip([0] + [b for _, b in self._decay_only],
                                       [a for a, _ in self._decay_only] + [self.flat.size])
                if a < b]
        decaying = [(self.flat[a:b], self.flat_grad[a:b]) for a, b in self._decay_only]
        arenas = (self.flat, self.flat_m, self.flat_v, self.flat_grad)
        if self._kernel is not None:
            bases = [x.ctypes.data for x in arenas]
            return decaying, [(*(base + int(a) * self.flat.itemsize for base in bases),
                               int(b - a)) for a, b in runs]
        blocks = []
        for a, b in runs:
            for lo in range(a, b, ADAM_BLOCK):
                hi = min(lo + ADAM_BLOCK, b)
                blocks.append((*(x[lo:hi] for x in arenas), *self._scratch[:, :hi - lo]))
        return decaying, blocks

    def step(self, lr_t: float):
        """One update from the gradient held in `flat_grad`."""
        self.step_count += 1
        t = self.step_count
        c_t = math.sqrt((1 - ADAM_BETA2 ** t) / (1 - ADAM_BETA2))
        alpha = lr_t * (1 - ADAM_BETA1) / (1 - ADAM_BETA1 ** t) * c_t
        eps = ADAM_EPS * c_t
        shrink = 1 - lr_t * self.weight_decay
        if self._plan is None or not all(_is_clear(g) for _, g in self._plan[0]):
            self._plan = self._build_plan()
        decaying, blocks = self._plan
        for p, _ in decaying:
            np.multiply(p, shrink, out=p)
        if self._kernel is not None:
            for run in blocks:
                flags = self._kernel(*run, shrink, ADAM_BETA1, ADAM_BETA2, eps, alpha)
                if flags:
                    _replay_flags(flags)
            return
        # 0-d arrays and a positional `out` spare each of the 11 calls per
        # block numpy's conversion of a Python float and its keyword parsing
        shrink, b1, b2, eps, alpha = map(np.array, (shrink, ADAM_BETA1, ADAM_BETA2,
                                                    eps, alpha))
        for p, m, v, g, s1, s2 in blocks:
            np.multiply(p, shrink, p)       # p *= 1 - lr*wd
            np.multiply(m, b1, m)           # m = b1*m + g
            np.add(m, g, m)
            np.multiply(v, b2, v)           # v = b2*v + g*g
            np.multiply(g, g, s1)
            np.add(v, s1, v)
            np.sqrt(v, s2)                  # p -= (alpha*m) / (sqrt(v)+eps)
            np.add(s2, eps, s2)
            np.multiply(m, alpha, s1)
            np.divide(s1, s2, s1)
            np.subtract(p, s1, p)


def _is_clear(x: np.ndarray) -> bool:
    """Whether every element of x is +0.0 (a -0.0 has its sign bit set)."""
    return not x.view(np.uint64).any()


# -- checkpoint container -------------------------------------------------


def save_checkpoint(path, graph: ModelGraph, header_extra: dict, state: dict):
    """Versioned binary container: magic, JSON header, raw float64 blobs of
    the trainable parameters. The header holds `header_extra` and `state` as
    given; floats in them round-trip exactly."""
    arrays = {f"param/{name}": p.data for name, p in graph.params.items()
              if p.trainable}
    header = {
        "version": CHECKPOINT_VERSION,
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()],
        "extra": header_extra,
        "state": state,
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(len(hbytes).to_bytes(8, "little"))
        f.write(hbytes)
        for v in arrays.values():
            f.write(np.ascontiguousarray(v, dtype="<f8"))


def _array_sizes(header) -> list[int] | None:
    """Element count of each array the header lists; None unless every entry
    is {"name": str, "shape": [non-negative ints]}."""
    metas = header.get("arrays") if isinstance(header, dict) else None
    if not isinstance(metas, list) or not all(
            isinstance(m, dict) and isinstance(m.get("name"), str)
            and isinstance(m.get("shape"), list)
            and all(type(d) is int and d >= 0 for d in m["shape"]) for m in metas):
        return None
    return [math.prod(m["shape"]) for m in metas]


def load_checkpoint(path):
    """Returns (header dict, {name: array}), each array read straight into
    its own writeable array. InputError unless the file is a checkpoint of
    CHECKPOINT_VERSION whose arrays fill it exactly and hold only finite
    values."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(8) != CHECKPOINT_MAGIC:
            raise InputError(f"{path} is not a petfuse checkpoint")
        hlen = int.from_bytes(f.read(8), "little")
        if hlen > size - 16:
            raise InputError(f"{path} is truncated: its header needs {hlen} bytes, "
                             f"{max(size - 16, 0)} follow")
        try:
            header = json.loads(f.read(hlen).decode("utf-8"))
        except (ValueError, RecursionError) as e:  # truncated, corrupt or too deeply nested
            raise InputError(f"{path}: unreadable checkpoint header ({e})") from e
        sizes = _array_sizes(header)
        if sizes is None:
            raise InputError(f"{path}: checkpoint header lists no valid arrays")
        version = header.get("version")
        if version != CHECKPOINT_VERSION:  # neither True nor "2" equals 2
            raise InputError(f"{path}: unsupported checkpoint version {version!r}; "
                             f"this petfuse reads version {CHECKPOINT_VERSION}")
        have, need = size - 16 - hlen, 8 * sum(sizes)
        if have != need:
            raise InputError(f"{path} is truncated: its arrays need {need} bytes, "
                             f"{have} follow the header" if have < need else
                             f"{path} has {have - need} bytes after its last array")
        arrays = {}
        for meta in header["arrays"]:
            arr = np.empty(meta["shape"], dtype="<f8")
            f.readinto(arr)
            if not np.isfinite(arr).all():
                raise InputError(f"{path}: checkpoint array {meta['name']!r} is not finite")
            arrays[meta["name"]] = arr
    return header, arrays


# -- training loop ----------------------------------------------------------


@dataclass
class TrainResult:
    """What `train_loop` leaves; the model holds the best epoch's parameters."""
    history: list  # (epoch, train_loss, val_auroc, lr, seconds)
    best_epoch: int
    best_val_auroc: float

    def write_history_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["epoch", "train_loss", "val_auroc", "lr", "seconds"])
            for epoch, loss, auroc, lr, secs in self.history:
                w.writerow([epoch, f"{loss:.8f}", f"{auroc:.8f}", f"{lr:.10g}",
                            f"{secs:.3f}"])


@numeric_guard("training")
def train_loop(model, train_samples, val_samples, cfg: TrainConfig) -> TrainResult:
    """Run up to max_epochs with accumulation, clipping, and early stopping.

    `model` exposes .graph, .fit_normalizer(samples) (called once, on the
    training split), .loss_batch(samples, training, epoch, seed) returning
    (loss Tensor, binding), and .validation_auroc(samples). Only
    `loss_batch(training=True)` records a tape: each micro-batch's backward
    lands its gradients straight in the optimizer's flat gradient, which is
    settled, clipped and stepped once per accumulation group, and frees the
    tape, so no activation of it is alive during the next forward. A float64
    overflow or invalid operation anywhere in the run is a NumericError.
    """
    if not train_samples or not val_samples:
        raise InputError("train and validation splits must be non-empty")
    model.fit_normalizer(train_samples)

    graph = model.graph
    opt = AdamW(graph.trainable(), weight_decay=cfg.weight_decay)

    n = len(train_samples)
    micro_per_epoch = math.ceil(n / cfg.batch)
    steps_per_epoch = math.ceil(micro_per_epoch / cfg.accumulation)
    total_steps = steps_per_epoch * cfg.max_epochs
    warmup_steps = int(cfg.warmup_fraction * total_steps)

    history = []
    # The best epoch's parameters, copied into one buffer. It is allocated at
    # the first improvement, after that epoch's tapes are freed: allocated
    # before training, it raised a LoRA run's peak RSS by 18 MB.
    best_val, best_epoch, since_improve, best_flat = -np.inf, 0, 0, None
    step = 0

    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        order = ad.make_rng(cfg.seed, "shuffle", epoch).permutation(n)
        shuffled = [train_samples[i] for i in order]
        epoch_losses = []

        for group_start in range(0, micro_per_epoch, cfg.accumulation):
            micros = range(group_start, min(group_start + cfg.accumulation, micro_per_epoch))
            for mb in micros:
                batch = shuffled[mb * cfg.batch:(mb + 1) * cfg.batch]
                # the binding is dropped here: held, its leaf gradients would
                # stay alive through the next micro-batch's forward
                loss = model.loss_batch(batch, training=True, epoch=epoch,
                                        seed=cfg.seed)[0]
                epoch_losses.append(float(loss.data))
                scaled = ad.mul(loss, 1.0 / len(micros))
                scaled.backward()
            opt.settle_grads()
            lr_t = lr_schedule(step, total_steps, warmup_steps, cfg.lr)
            clip_gradients(opt.flat_grad, cfg.clip_norm)
            opt.step(lr_t)
            step += 1

        try:
            val_auroc = float(model.validation_auroc(val_samples))
        except UndefinedMetric as e:  # no label of the split holds both classes
            raise UndefinedMetric(f"validation split: {e}") from e
        history.append((epoch, float(np.mean(epoch_losses)), val_auroc,
                        lr_schedule(step - 1, total_steps, warmup_steps, cfg.lr),
                        time.perf_counter() - t0))

        if val_auroc > best_val:
            best_val, best_epoch, since_improve = val_auroc, epoch, 0
            if epoch < cfg.max_epochs:  # the last epoch's parameters stay live
                if best_flat is None:
                    best_flat = opt.flat.copy()
                else:
                    np.copyto(best_flat, opt.flat)
        else:
            since_improve += 1
            if since_improve >= cfg.patience:
                break

    if best_epoch != epoch and best_flat is not None:
        np.copyto(opt.flat, best_flat)  # the trainable parameters view opt.flat
    return TrainResult(history, best_epoch, best_val)
