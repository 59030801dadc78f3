"""Parameter-efficient tuning policies and the budget accountant.

Four policies over a hooked model graph: frozen (fusion only), low-rank
injection on attention projections, bias-only tuning, and bottleneck
adapters. All four keep the fusion pathway trainable; encoder-side
additions are counted exactly and arbitrated by enforce_budget.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import PolicyError
from .model import (HOOK_ADAPTER_SLOT, HOOK_ATTN_PROJ, HOOK_BIAS,
                    BottleneckAdapter, LowRankInjection, ModelGraph)

POLICIES = ("frozen", "lora", "bitfit", "adapter")
ENCODER_PREFIX = "text_encoder"


@dataclass
class LoRAConfig:
    rank: int = 8
    alpha: float = 32.0

    @property
    def scale(self) -> float:
        if self.rank < 1:
            raise PolicyError("lora rank must be >= 1")
        return self.alpha / self.rank


@dataclass
class AdapterConfig:
    bottleneck: int = 64

    def validate(self):
        if self.bottleneck < 1:
            raise PolicyError("adapter bottleneck must be >= 1")


@dataclass
class BudgetReport:
    components: dict[str, int]
    total_trainable: int
    total_params: int

    @property
    def efficiency(self) -> float:
        return self.total_trainable / self.total_params if self.total_params else 0.0

    def efficiency_pct(self, declared_total: int | None = None) -> float:
        total = declared_total if declared_total else self.total_params
        return 100.0 * self.total_trainable / total if total else 0.0

    def to_json(self, declared_total: int | None = None) -> str:
        doc = {
            "components": self.components,
            "total_trainable": self.total_trainable,
            "total_params": self.total_params,
            "efficiency_pct": round(self.efficiency_pct(declared_total), 2),
        }
        if declared_total:
            doc["declared_total_params"] = declared_total
        return json.dumps(doc, indent=2, sort_keys=True)


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

    if policy == "bitfit":
        targets = graph.hook_addresses(HOOK_BIAS, ENCODER_PREFIX)
        if not targets:
            raise PolicyError("bitfit policy targets a graph with no encoder biases")
        for addr in targets:
            graph.params[addr].trainable = True
        return graph

    rng = ad.make_rng(seed, "policy", policy)

    if policy == "lora":
        cfg = lora_cfg or LoRAConfig()
        scale = cfg.scale  # rejects rank < 1 before it reaches sqrt or shapes
        targets = graph.hook_addresses(HOOK_ATTN_PROJ, ENCODER_PREFIX)
        if not targets:
            raise PolicyError("lora policy targets a graph with no attention projections")
        for addr in targets:
            w = graph.params[addr]
            n_in, n_out = w.data.shape
            limit = 1.0 / math.sqrt(cfg.rank)
            a = graph.add_param(f"{addr}/lora_a",
                                rng.uniform(-limit, limit, (n_in, cfg.rank)), trainable=True)
            b = graph.add_param(f"{addr}/lora_b",
                                np.zeros((cfg.rank, n_out)), trainable=True)
            graph.loras[addr] = LowRankInjection(a, b, scale)
        return graph

    cfg = adapter_cfg or AdapterConfig()
    cfg.validate()
    slots = graph.hook_addresses(HOOK_ADAPTER_SLOT, ENCODER_PREFIX)
    if not slots:
        raise PolicyError("adapter policy targets a graph with no adapter slots")
    for slot in slots:
        wq = graph.params.get(slot.rsplit("/", 1)[0] + "/attn/wq")
        if wq is None:
            raise PolicyError(f"cannot infer width for adapter slot {slot}")
        width = wq.data.shape[0]
        k = cfg.bottleneck
        down_w = graph.add_param(f"{slot}/down_w",
                                 rng.normal(0, 1.0 / math.sqrt(width), (width, k)),
                                 trainable=True)
        down_b = graph.add_param(f"{slot}/down_b", np.zeros(k), trainable=True)
        up_w = graph.add_param(f"{slot}/up_w", np.zeros((k, width)), trainable=True)
        up_b = graph.add_param(f"{slot}/up_b", np.zeros(width), trainable=True)
        graph.adapters[slot] = BottleneckAdapter(down_w, down_b, up_w, up_b)
    return graph


def count_params(graph: ModelGraph, depth: int = 2) -> BudgetReport:
    """Exact integer counts of trainable params grouped by address prefix."""
    components: dict[str, int] = {}
    total_trainable = 0
    total_params = 0
    for addr, p in graph.params.items():
        n = int(p.data.size)
        total_params += n
        if p.trainable:
            total_trainable += n
            key = "/".join(addr.split("/")[:depth])
            components[key] = components.get(key, 0) + n
    return BudgetReport(dict(sorted(components.items())), total_trainable, total_params)


@dataclass
class BudgetCheck:
    passed: bool
    trainable: int
    target: int
    diff_fraction: float
    largest_components: list = field(default_factory=list)


def enforce_budget(report: BudgetReport, target: int,
                   tolerance: float = 0.01) -> BudgetCheck:
    if target <= 0:
        raise PolicyError("budget target must be positive")
    diff = abs(report.total_trainable - target) / target
    largest = sorted(report.components.items(), key=lambda kv: -kv[1])[:5]
    return BudgetCheck(diff <= tolerance, report.total_trainable, target, diff, largest)
