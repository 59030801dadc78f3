"""Named parameter graph.

Every weight lives at a slash-separated address ("fusion/attention/wq").
Tuning policies (pet.py) pick their targets by address and attach new
parameters under the addresses they extend. Binding a graph produces fresh
Tensors for one forward pass; only a training pass records a tape.

A graph built from a checkpoint's stored arrays holds them in `stored` and
draws nothing: each trainable parameter that construction would draw at
random is taken from its stored array instead (`add_drawn`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import InputError, PolicyError


@dataclass
class Param:
    name: str
    data: np.ndarray
    trainable: bool = False
    # where a training pass's gradient lands; set by the optimizer over it
    sink: ad.GradSink | None = field(default=None, repr=False)


@dataclass
class ModelGraph:
    params: dict[str, Param] = field(default_factory=dict)
    # alpha / rank of the attached LoRA factors, set by pet.apply_policy
    lora_scale: float = 0.0
    # address -> array that add_drawn takes in place of every draw; None draws
    stored: dict[str, np.ndarray] | None = field(default=None, repr=False)

    def add_param(self, name: str, data: np.ndarray, trainable: bool = False) -> Param:
        if name in self.params:
            raise PolicyError(f"duplicate parameter address: {name}")
        p = Param(name, np.asarray(data, dtype=np.float64), trainable)
        self.params[name] = p
        return p

    def add_drawn(self, name: str, shape: tuple[int, ...], draw) -> Param:
        """Add a trainable parameter of `shape` at `name`: `draw(shape)` in a
        graph that draws, else the array stored there, used as it is.
        InputError, naming the address, when no array is stored there or it
        has another shape, so a claimed size is checked before an array of
        it is allocated."""
        if self.stored is None:
            return self.add_param(name, draw(shape), trainable=True)
        arr = self.stored.get(name)
        if arr is None:
            raise InputError(f"no stored array at {name}")
        if arr.shape != shape:
            raise InputError(f"stored array {name} has shape {arr.shape}, "
                             f"the model's is {shape}")
        return self.add_param(name, arr, trainable=True)

    def trainable(self) -> list[Param]:
        return [p for p in self.params.values() if p.trainable]

    def addresses(self, prefix: str = "") -> list[str]:
        return [a for a in self.params if a.startswith(prefix)]

    def bind(self, training: bool = False) -> dict[str, ad.Tensor]:
        """Fresh Tensor per parameter. For a training pass the trainable ones
        require a gradient, which backward leaves on them and in their sink,
        if an optimizer gave them one; any other pass binds constants, so it
        records no tape."""
        return {name: ad.Tensor(p.data, requires_grad=training and p.trainable,
                                sink=p.sink)
                for name, p in self.params.items()}

    def load_state(self, state: dict[str, np.ndarray]):
        """Overwrite every trainable parameter in place, so a parameter that
        is a view into an optimizer's arena stays one; a parameter that is
        its state array already (`add_drawn`) is left as it is. `state` must
        name exactly the trainable parameters, each in its own shape; nothing
        is loaded otherwise."""
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
            if self.params[n].data is not arr:
                self.params[n].data[...] = arr
