"""Parameter-efficient tuning policies and the budget accountant.

Four policies, each defined by the encoder tensors it touches: frozen
touches none, bitfit trains the encoder's biases (its 1-D tensors), lora
adds (alpha/r) A B to every attention projection (.../attn/w{q,k,v,o}), and
adapter adds a residual bottleneck after each block. Targets are found by
address under ENCODER_PREFIX; what lora and adapter attach lives under the
address it extends (<proj>/lora_a, <block>/adapter/down_w), and the
encoder's forward pass applies it through lora_linear and adapter_residual.
lora_linear runs a projection with factors as one GEMM against the merged
weight W + (alpha/r) A B (autodiff.lora_matmul) in every pass, training or
not, so a LoRA encoder at init is the frozen one bit for bit.
All four keep the fusion pathway trainable; count_params counts every
addition exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import PolicyError
from .model import ModelGraph

POLICIES = ("frozen", "lora", "bitfit", "adapter")
ENCODER_PREFIX = "text_encoder"
_ATTN_PROJECTIONS = ("/attn/wq", "/attn/wk", "/attn/wv", "/attn/wo")


@dataclass
class LoRAConfig:
    rank: int = 8
    alpha: float = 32.0

    def __post_init__(self):
        if self.rank < 1:
            raise PolicyError("lora rank must be >= 1")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise PolicyError("lora alpha must be finite and positive")

    @property
    def scale(self) -> float:
        return self.alpha / self.rank


@dataclass
class AdapterConfig:
    bottleneck: int = 64

    def __post_init__(self):
        if self.bottleneck < 1:
            raise PolicyError("adapter bottleneck must be >= 1")


@dataclass
class BudgetReport:
    components: dict[str, int]
    total_trainable: int
    total_params: int

    def efficiency_pct(self, declared_total: int) -> float:
        """Trainable parameters as a percentage of `declared_total`."""
        return 100.0 * self.total_trainable / declared_total

    def to_json(self, declared_total: int) -> str:
        return json.dumps({
            "components": self.components,
            "total_trainable": self.total_trainable,
            "total_params": self.total_params,
            "efficiency_pct": round(self.efficiency_pct(declared_total), 2),
            "declared_total_params": declared_total,
        }, indent=2, sort_keys=True)


def apply_policy(graph: ModelGraph, policy: str,
                 lora_cfg: LoRAConfig | None = None,
                 adapter_cfg: AdapterConfig | None = None,
                 seed: int = 0) -> ModelGraph:
    """Set trainable flags and attach injections in place.

    All policies leave the fusion pathway trainable and every encoder base
    weight frozen; lora/adapter add fresh zero-effect modules so the forward
    output at application time is unchanged.
    """
    if policy not in POLICIES:
        raise PolicyError(f"unknown policy {policy!r}; expected one of {POLICIES}")

    for addr, p in graph.params.items():
        p.trainable = not addr.startswith(ENCODER_PREFIX)

    if policy == "frozen":
        return graph

    encoder = graph.addresses(ENCODER_PREFIX)
    if policy == "bitfit":
        targets = [a for a in encoder if graph.params[a].data.ndim == 1]
        if not targets:
            raise PolicyError("bitfit policy targets a graph with no encoder biases")
        for addr in targets:
            graph.params[addr].trainable = True
        return graph

    rng = ad.make_rng(seed, "policy", policy)

    if policy == "lora":
        cfg = lora_cfg or LoRAConfig()
        targets = [a for a in encoder if a.endswith(_ATTN_PROJECTIONS)]
        if not targets:
            raise PolicyError("lora policy targets a graph with no attention projections")
        width = min(min(graph.params[a].data.shape) for a in targets)
        if cfg.rank > width:
            raise PolicyError(f"lora rank {cfg.rank} exceeds the projection width {width}")
        graph.lora_scale = cfg.scale
        limit = 1.0 / math.sqrt(cfg.rank)
        for addr in targets:
            n_in, n_out = graph.params[addr].data.shape
            graph.add_drawn(f"{addr}/lora_a", (n_in, cfg.rank),
                            lambda shape: rng.uniform(-limit, limit, shape))
            graph.add_param(f"{addr}/lora_b", np.zeros((cfg.rank, n_out)), trainable=True)
        return graph

    cfg = adapter_cfg or AdapterConfig()
    # one slot per block, as wide as the block's query projection
    blocks = [a for a in encoder if a.endswith("/attn/wq")]
    if not blocks:
        raise PolicyError("adapter policy targets a graph with no encoder blocks")
    width = min(graph.params[wq].data.shape[0] for wq in blocks)
    if cfg.bottleneck > width:
        raise PolicyError(f"adapter bottleneck {cfg.bottleneck} exceeds the block "
                          f"width {width}")
    for wq in blocks:
        slot = wq[:-len("/attn/wq")] + "/adapter"
        width = graph.params[wq].data.shape[0]
        k = cfg.bottleneck
        graph.add_drawn(f"{slot}/down_w", (width, k),
                        lambda shape: rng.normal(0, 1.0 / math.sqrt(shape[0]), shape))
        graph.add_param(f"{slot}/down_b", np.zeros(k), trainable=True)
        graph.add_param(f"{slot}/up_w", np.zeros((k, width)), trainable=True)
        graph.add_param(f"{slot}/up_b", np.zeros(width), trainable=True)
    return graph


def lora_linear(graph: ModelGraph, binding, x: ad.Tensor, addr: str) -> ad.Tensor:
    """x @ W at `addr`; where LoRA factors sit there, x @ (W + (alpha/r) A B)
    as one GEMM against the merged weight, in training and inference alike."""
    a = binding.get(f"{addr}/lora_a")
    if a is None:
        return ad.matmul(x, binding[addr])
    return ad.lora_matmul(x, binding[addr], a, binding[f"{addr}/lora_b"],
                          graph.lora_scale)


def adapter_residual(binding, x: ad.Tensor, block: str) -> ad.Tensor:
    """x plus the block's residual bottleneck, or x when none is attached."""
    down_w = binding.get(f"{block}/adapter/down_w")
    if down_w is None:
        return x
    h = ad.relu(ad.matmul(x, down_w) + binding[f"{block}/adapter/down_b"])
    return x + ad.matmul(h, binding[f"{block}/adapter/up_w"]) + binding[f"{block}/adapter/up_b"]


def count_params(graph: ModelGraph) -> BudgetReport:
    """Exact integer counts of trainable params grouped by module: the first
    two address components before the last (`fusion/head/w1` -> `fusion/head`,
    `head/w1` -> `head`)."""
    components: dict[str, int] = {}
    total_trainable = 0
    total_params = 0
    for addr, p in graph.params.items():
        n = int(p.data.size)
        total_params += n
        if p.trainable:
            total_trainable += n
            key = "/".join(addr.split("/")[:-1][:2]) or addr
            components[key] = components.get(key, 0) + n
    return BudgetReport(dict(sorted(components.items())), total_trainable, total_params)
