"""Trainable cross-modal fusion pathway.

Bias-free by construction: projections, single-head Q/K/V attention without
an output projection, and a two-layer ReLU head. With defaults
(2048/768 -> 512, head 256 -> 14) the trainable count is exactly 2,362,880.
Layer norm carries no learned scale/shift so no extra parameters appear.

Each sample's report arrives as one text vector, a one-element key/value
sequence, so every attention weight is 1: the forward pass reads Wv only,
and Wq and Wk are counted in the budget but receive no gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError
from .model import ModelGraph


@dataclass
class FusionConfig:
    vision_in: int = 2048
    text_in: int = 768
    shared_dim: int = 512
    head_hidden: int = 256
    num_labels: int = 14
    dropout_p: float = 0.1

    def validate(self):
        for name in ("vision_in", "text_in", "shared_dim", "head_hidden", "num_labels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError("dropout_p must be in [0, 1)")

    def param_count(self) -> int:
        d, h, L = self.shared_dim, self.head_hidden, self.num_labels
        return self.vision_in * d + self.text_in * d + 3 * d * d + d * h + h * L


class FusionPathway:
    """Owns the fusion parameters inside a (possibly larger) model graph."""

    def __init__(self, graph: ModelGraph, cfg: FusionConfig, seed: int = 0):
        cfg.validate()
        self.cfg = cfg
        self.graph = graph
        rng = ad.make_rng(seed, "init", "fusion")
        d = cfg.shared_dim

        def init(shape):
            return rng.normal(0.0, 1.0 / np.sqrt(shape[0]), shape)

        graph.add_param("fusion/vision_proj/w", init((cfg.vision_in, d)), trainable=True)
        graph.add_param("fusion/text_proj/w", init((cfg.text_in, d)), trainable=True)
        for name in ("wq", "wk", "wv"):
            graph.add_param(f"fusion/attention/{name}", init((d, d)), trainable=True)
        graph.add_param("fusion/head/w1", init((d, cfg.head_hidden)), trainable=True)
        graph.add_param("fusion/head/w2", init((cfg.head_hidden, cfg.num_labels)),
                        trainable=True)

    def forward(self, binding, v: ad.Tensor, t: ad.Tensor, training: bool = False,
                dropout_uniform=None) -> ad.Tensor:
        """v (B, 2048), t (B, 768) -> logits (B, L).

        The attended value of a sample is its Wv-projected text row, since
        its text is a one-element sequence. Training-mode dropout needs
        `dropout_uniform`, a (B, shared_dim) array of U[0, 1) draws.
        """
        if v.data.shape[-1] != self.cfg.vision_in:
            raise ShapeError(f"vision feature length {v.data.shape[-1]} != {self.cfg.vision_in}")
        if t.data.shape[-1] != self.cfg.text_in:
            raise ShapeError(f"text feature length {t.data.shape[-1]} != {self.cfg.text_in}")
        pv = ad.matmul(v, binding["fusion/vision_proj/w"])
        pt = ad.matmul(t, binding["fusion/text_proj/w"])
        attended = ad.matmul(pt, binding["fusion/attention/wv"])
        fused = ad.dropout(ad.layer_norm(pv + attended), self.cfg.dropout_p, training,
                           dropout_uniform)
        hidden = ad.relu(ad.matmul(fused, binding["fusion/head/w1"]))
        return ad.matmul(hidden, binding["fusion/head/w2"])
