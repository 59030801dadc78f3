"""Optimization recipe: AdamW, warmup+cosine schedule, gradient
accumulation and clipping, early stopping on validation AUROC, checkpoints.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, InputError
from .model import ModelGraph

CHECKPOINT_MAGIC = b"PFCKPT01"
# The header's "state" holds what restoring a model needs besides its
# trainable arrays (cli.py writes and reads it); version 1 had none.
CHECKPOINT_VERSION = 2
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Elements per pass of the fused AdamW step: the 256 KB slices of p/m/v/g
# and the two scratch blocks stay in cache between the pass's ufuncs. Of 8K,
# 16K, 32K and 64K, 32K gave the fastest median step over 1,055,744
# parameters on a 2-core x86_64 VM (12.6 ms against 13.4-15.6 ms).
ADAM_BLOCK = 32768


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

    def validate(self):
        if min(self.lr, self.weight_decay, self.clip_norm) <= 0:
            raise ConfigError("lr, weight_decay and clip_norm must be positive")
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


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float = 1.0):
    """Scale all gradients in place by max_norm/g when the global L2 norm g
    exceeds it. Returns (grads, g)."""
    sq = sum(float((g * g).sum()) for g in grads.values())
    norm = math.sqrt(sq)
    if norm > max_norm:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return grads, norm


class AdamW:
    """Decoupled weight decay applied before the bias-corrected Adam update.

    The parameters live in one flat float64 arena, `flat`: construction
    copies each parameter in and rebinds its `Param.data` to a shaped view of
    it. `grads` is a name -> view dict over `flat_grad`, so a caller can
    accumulate gradients straight into it.
    `step` updates the arena in place, block by block, with the elementwise
    operations of the textbook update in their order, so results are
    bit-identical to it.
    """

    def __init__(self, params, weight_decay: float = 1e-2):
        self.params = list(params)
        self.weight_decay = weight_decay
        self.step_count = 0
        self._bounds = np.cumsum([0] + [p.data.size for p in self.params])
        self.flat = np.empty(self._bounds[-1])
        self.flat_m = np.zeros_like(self.flat)
        self.flat_v = np.zeros_like(self.flat)
        self.flat_grad = np.zeros_like(self.flat)
        views = self.views(self.flat)
        for p in self.params:
            views[p.name][...] = p.data
            p.data = views[p.name]
        self.grads = self.views(self.flat_grad)
        self._scratch = np.empty((2, min(ADAM_BLOCK, self.flat.size)))

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Name -> view of `flat` in each parameter's shape."""
        return {p.name: flat[a:b].reshape(p.data.shape)
                for p, a, b in zip(self.params, self._bounds, self._bounds[1:])}

    def step(self, grads: dict[str, np.ndarray], lr_t: float):
        """One update; a parameter missing from `grads` gets a zero gradient."""
        self.step_count += 1
        t = self.step_count
        for name, own in self.grads.items():
            g = grads.get(name)
            if g is None:
                own.fill(0.0)
            elif g is not own:
                own[...] = g
        decay = lr_t * self.weight_decay
        bc1, bc2 = 1 - ADAM_BETA1 ** t, 1 - ADAM_BETA2 ** t
        for a in range(0, self.flat.size, ADAM_BLOCK):
            p, m, v, g = (buf[a:a + ADAM_BLOCK] for buf in
                          (self.flat, self.flat_m, self.flat_v, self.flat_grad))
            s1, s2 = self._scratch[:, :p.size]
            np.multiply(p, decay, out=s1)           # p -= (lr*wd) * p
            np.subtract(p, s1, out=p)
            np.multiply(m, ADAM_BETA1, out=m)       # m = b1*m + (1-b1)*g
            np.multiply(g, 1 - ADAM_BETA1, out=s1)
            np.add(m, s1, out=m)
            np.multiply(v, ADAM_BETA2, out=v)       # v = b2*v + ((1-b2)*g)*g
            np.multiply(g, 1 - ADAM_BETA2, out=s1)
            np.multiply(s1, g, out=s1)
            np.add(v, s1, out=v)
            np.divide(m, bc1, out=s1)               # m_hat, v_hat
            np.divide(v, bc2, out=s2)
            np.sqrt(s2, out=s2)                     # p -= (lr*m_hat) / (sqrt(v_hat)+eps)
            np.add(s2, ADAM_EPS, out=s2)
            np.multiply(s1, lr_t, out=s1)
            np.divide(s1, s2, out=s1)
            np.subtract(p, s1, out=p)


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
            f.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


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
    """Returns (header dict, {name: array}). InputError unless the file is a
    checkpoint of CHECKPOINT_VERSION whose arrays fill it exactly and hold
    only finite values."""
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
        except ValueError as e:  # truncated or corrupt header
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
        for meta, n in zip(header["arrays"], sizes):
            arr = np.frombuffer(f.read(8 * n), dtype="<f8").reshape(meta["shape"])
            if not np.isfinite(arr).all():
                raise InputError(f"{path}: checkpoint array {meta['name']!r} is not finite")
            arrays[meta["name"]] = arr.copy()
    return header, arrays


# -- training loop ----------------------------------------------------------


@dataclass
class TrainResult:
    history: list  # (epoch, train_loss, val_auroc, lr, seconds)
    best_epoch: int
    best_val_auroc: float
    best_state: dict[str, np.ndarray] = field(repr=False, default_factory=dict)

    def write_history_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["epoch", "train_loss", "val_auroc", "lr", "seconds"])
            for epoch, loss, auroc, lr, secs in self.history:
                w.writerow([epoch, f"{loss:.8f}", f"{auroc:.8f}", f"{lr:.10g}",
                            f"{secs:.3f}"])


def train_loop(model, train_samples, val_samples, cfg: TrainConfig) -> TrainResult:
    """Run up to max_epochs with accumulation, clipping, and early stopping.

    `model` exposes .graph, .fit_normalizer(samples) (called once, on the
    training split), .loss_batch(samples, training, epoch, seed) returning
    (loss Tensor, binding), and .validation_auroc(samples).
    """
    cfg.validate()
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
    best_val, best_epoch, best_flat, since_improve = -np.inf, 0, None, 0
    step = 0

    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        order = ad.make_rng(cfg.seed, "shuffle", epoch).permutation(n)
        shuffled = [train_samples[i] for i in order]
        epoch_losses = []

        for group_start in range(0, micro_per_epoch, cfg.accumulation):
            opt.flat_grad.fill(0.0)
            micros = range(group_start, min(group_start + cfg.accumulation, micro_per_epoch))
            for mb in micros:
                batch = shuffled[mb * cfg.batch:(mb + 1) * cfg.batch]
                loss, binding = model.loss_batch(batch, training=True,
                                                 epoch=epoch, seed=cfg.seed)
                epoch_losses.append(float(loss.data))
                scaled = ad.mul(loss, 1.0 / len(micros))
                scaled.backward()
                for name, g in opt.grads.items():
                    micro_g = binding[name].grad
                    if micro_g is not None:
                        g += micro_g
            lr_t = lr_schedule(step, total_steps, warmup_steps, cfg.lr)
            clip_gradients(opt.grads, cfg.clip_norm)
            opt.step(opt.grads, lr_t)
            step += 1

        val_auroc = float(model.validation_auroc(val_samples))
        history.append((epoch, float(np.mean(epoch_losses)), val_auroc,
                        lr_schedule(step - 1, total_steps, warmup_steps, cfg.lr),
                        time.perf_counter() - t0))

        if val_auroc > best_val:
            best_val, best_epoch, since_improve = val_auroc, epoch, 0
            best_flat = opt.flat.copy()
        else:
            since_improve += 1
            if since_improve >= cfg.patience:
                break

    best_state = {}
    if best_flat is not None:
        best_state = opt.views(best_flat)
        graph.load_state(best_state)
    return TrainResult(history, best_epoch, best_val, best_state)
