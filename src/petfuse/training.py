"""Optimization recipe: AdamW, warmup+cosine schedule, gradient
accumulation and clipping, early stopping on validation AUROC, checkpoints.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, InputError
from .model import ModelGraph

CHECKPOINT_MAGIC = b"PFCKPT01"


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
    """Scale all gradients by max_norm/g when the global L2 norm g exceeds it."""
    sq = sum(float((g * g).sum()) for g in grads.values())
    norm = math.sqrt(sq)
    if norm > max_norm:
        factor = max_norm / norm
        grads = {k: g * factor for k, g in grads.items()}
    return grads, norm


class AdamW:
    """Decoupled weight decay applied before the bias-corrected Adam update."""

    def __init__(self, params, weight_decay: float = 1e-2,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self, grads: dict[str, np.ndarray], lr_t: float):
        self.step_count += 1
        t = self.step_count
        for p in self.params:
            g = grads.get(p.name)
            if g is None:
                g = np.zeros_like(p.data)
            p.data = p.data - lr_t * self.weight_decay * p.data
            m = self.m[p.name] = self.beta1 * self.m[p.name] + (1 - self.beta1) * g
            v = self.v[p.name] = self.beta2 * self.v[p.name] + (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1 ** t)
            v_hat = v / (1 - self.beta2 ** t)
            p.data = p.data - lr_t * m_hat / (np.sqrt(v_hat) + self.eps)


# -- checkpoint container -------------------------------------------------


def save_checkpoint(path, graph: ModelGraph, header_extra: dict | None = None,
                    optimizer: AdamW | None = None):
    """Versioned binary container: magic, JSON header, raw float64 blobs."""
    arrays = {}
    for name, p in graph.params.items():
        if p.trainable:
            arrays[f"param/{name}"] = p.data
    if optimizer is not None:
        for k, v in optimizer.m.items():
            arrays[f"adam_m/{k}"] = v
        for k, v in optimizer.v.items():
            arrays[f"adam_v/{k}"] = v
    header = {
        "version": 1,
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()],
        "optimizer_step": optimizer.step_count if optimizer else None,
        "extra": header_extra or {},
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(len(hbytes).to_bytes(8, "little"))
        f.write(hbytes)
        for v in arrays.values():
            f.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Returns (header dict, {name: array})."""
    with open(path, "rb") as f:
        if f.read(8) != CHECKPOINT_MAGIC:
            raise InputError(f"{path} is not a petfuse checkpoint")
        hlen = int.from_bytes(f.read(8), "little")
        try:
            header = json.loads(f.read(hlen).decode("utf-8"))
        except ValueError as e:  # truncated or corrupt header
            raise InputError(f"{path}: unreadable checkpoint header ({e})") from e
        arrays = {}
        for meta in header["arrays"]:
            shape = tuple(meta["shape"])
            n = int(np.prod(shape)) if shape else 1
            buf = f.read(8 * n)
            if len(buf) != 8 * n:
                raise InputError(f"{path} is truncated: array {meta['name']!r} "
                                 f"has {len(buf)} of {8 * n} bytes")
            arrays[meta["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
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


def train_loop(model, train_samples, val_samples, cfg: TrainConfig,
               evaluate_fn=None) -> TrainResult:
    """Run up to max_epochs with accumulation, clipping, and early stopping.

    `model` exposes .graph and .loss_batch(samples, training, epoch, seed)
    returning (loss Tensor, binding). `evaluate_fn(model, val_samples)`
    returns the validation macro AUROC; injectable for testing.
    """
    cfg.validate()
    if not train_samples or not val_samples:
        raise InputError("train and validation splits must be non-empty")
    if evaluate_fn is None:
        evaluate_fn = lambda m, val: m.validation_auroc(val)
    if hasattr(model, "fit_normalizer"):
        model.fit_normalizer(train_samples)

    graph = model.graph
    opt = AdamW(graph.trainable(), weight_decay=cfg.weight_decay)

    n = len(train_samples)
    micro_per_epoch = math.ceil(n / cfg.batch)
    steps_per_epoch = math.ceil(micro_per_epoch / cfg.accumulation)
    total_steps = steps_per_epoch * cfg.max_epochs
    warmup_steps = int(cfg.warmup_fraction * total_steps)

    history = []
    best_val, best_epoch, best_state, since_improve = -np.inf, 0, None, 0
    step = 0

    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        order = ad.make_rng(cfg.seed, "shuffle", epoch).permutation(n)
        shuffled = [train_samples[i] for i in order]
        epoch_losses = []

        for group_start in range(0, micro_per_epoch, cfg.accumulation):
            accum_grads: dict[str, np.ndarray] = {}
            micros = range(group_start, min(group_start + cfg.accumulation, micro_per_epoch))
            for mb in micros:
                batch = shuffled[mb * cfg.batch:(mb + 1) * cfg.batch]
                loss, binding = model.loss_batch(batch, training=True,
                                                 epoch=epoch, seed=cfg.seed)
                epoch_losses.append(float(loss.data))
                scaled = ad.mul(loss, 1.0 / len(micros))
                scaled.backward()
                for name, g in graph.collect_grads(binding).items():
                    accum_grads[name] = accum_grads.get(name, 0.0) + g
            lr_t = lr_schedule(step, total_steps, warmup_steps, cfg.lr)
            clipped, _ = clip_gradients(accum_grads, cfg.clip_norm)
            opt.step(clipped, lr_t)
            step += 1

        val_auroc = float(evaluate_fn(model, val_samples))
        history.append((epoch, float(np.mean(epoch_losses)), val_auroc,
                        lr_schedule(step - 1, total_steps, warmup_steps, cfg.lr),
                        time.perf_counter() - t0))

        if val_auroc > best_val:
            best_val, best_epoch, since_improve = val_auroc, epoch, 0
            best_state = {p.name: p.data.copy() for p in graph.trainable()}
        else:
            since_improve += 1
            if since_improve >= cfg.patience:
                break

    if best_state is not None:
        graph.load_state(best_state, only_trainable=True)
    return TrainResult(history, best_epoch, best_val, best_state or {})
