"""Named parameter graph with hook points for tuning policies.

Every weight lives at a slash-separated address ("fusion/attention/wq").
Hook kinds mark where policies may act: attention projections (low-rank
injection), biases (bias-only tuning), and adapter slots (bottleneck
insertion). Binding a graph produces fresh Tensors for one forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import InputError, PolicyError

HOOK_ATTN_PROJ = "attention_projection"
HOOK_BIAS = "bias"
HOOK_ADAPTER_SLOT = "adapter_slot"
HOOK_KINDS = (HOOK_ATTN_PROJ, HOOK_BIAS, HOOK_ADAPTER_SLOT)


@dataclass
class Param:
    name: str
    data: np.ndarray
    trainable: bool = False


@dataclass
class LowRankInjection:
    """Additive delta W + (alpha/r) A B on a frozen projection."""

    a: Param
    b: Param
    scale: float

    def delta(self) -> np.ndarray:
        return self.scale * (self.a.data @ self.b.data)


@dataclass
class BottleneckAdapter:
    """Residual down -> relu -> up module inserted at an adapter slot."""

    down_w: Param
    down_b: Param
    up_w: Param
    up_b: Param


@dataclass
class ModelGraph:
    params: dict[str, Param] = field(default_factory=dict)
    hooks: dict[str, list[str]] = field(default_factory=lambda: {k: [] for k in HOOK_KINDS})
    loras: dict[str, LowRankInjection] = field(default_factory=dict)
    adapters: dict[str, BottleneckAdapter] = field(default_factory=dict)

    def add_param(self, name: str, data: np.ndarray, trainable: bool = False,
                  hook: str | None = None) -> Param:
        if name in self.params:
            raise PolicyError(f"duplicate parameter address: {name}")
        p = Param(name, np.asarray(data, dtype=np.float64), trainable)
        self.params[name] = p
        if hook is not None:
            self.hooks[hook].append(name)
        return p

    def add_adapter_slot(self, name: str):
        self.hooks[HOOK_ADAPTER_SLOT].append(name)

    def trainable(self) -> list[Param]:
        return [p for p in self.params.values() if p.trainable]

    def addresses(self, prefix: str = "") -> list[str]:
        return [a for a in self.params if a.startswith(prefix)]

    def hook_addresses(self, kind: str, prefix: str = "") -> list[str]:
        return [a for a in self.hooks[kind] if a.startswith(prefix)]

    # -- forward-pass plumbing --------------------------------------------

    def bind(self) -> dict[str, ad.Tensor]:
        """Fresh Tensor per parameter; grads land on these after backward."""
        return {name: ad.Tensor(p.data, requires_grad=p.trainable)
                for name, p in self.params.items()}

    def linear(self, binding, x: ad.Tensor, addr: str) -> ad.Tensor:
        """x @ W at `addr`, applying any low-rank injection attached there."""
        y = ad.matmul(x, binding[addr])
        inj = self.loras.get(addr)
        if inj is not None:
            y = y + ad.mul(ad.matmul(ad.matmul(x, binding[inj.a.name]),
                                     binding[inj.b.name]), inj.scale)
        return y

    def apply_adapter(self, binding, x: ad.Tensor, slot: str) -> ad.Tensor:
        mod = self.adapters.get(slot)
        if mod is None:
            return x
        h = ad.relu(ad.matmul(x, binding[mod.down_w.name]) + binding[mod.down_b.name])
        return x + ad.matmul(h, binding[mod.up_w.name]) + binding[mod.up_b.name]

    def load_state(self, state: dict[str, np.ndarray]):
        """Overwrite every trainable parameter in place, so a parameter that
        is a view into an optimizer's arena stays one. `state` must name
        exactly the trainable parameters, each in its own shape; nothing is
        loaded otherwise."""
        trainable = {p.name for p in self.trainable()}
        unknown, missing = sorted(set(state) - trainable), sorted(trainable - set(state))
        if unknown or missing:
            raise InputError(f"state does not fit the model: unknown or frozen "
                             f"{unknown[:3]}, missing {missing[:3]}")
        for n, arr in state.items():
            if np.shape(arr) != self.params[n].data.shape:
                raise InputError(f"state shape {np.shape(arr)} for {n} does not fit "
                                 f"{self.params[n].data.shape}")
        for n, arr in state.items():
            self.params[n].data[...] = arr
