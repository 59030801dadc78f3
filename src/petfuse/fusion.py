"""Trainable cross-modal fusion pathway.

Bias-free by construction: projections, single-head Q/K/V attention without
an output projection, and a two-layer ReLU head, from `data.VISION_DIM` and
`encoders.TEXT_DIM` inputs to `data.NUM_LABELS` logits. With the default sizes
(shared 512, head 256) the trainable count is exactly 2,362,880. Layer norm
carries no learned scale/shift so no extra parameters appear.

Each sample's report arrives as one text vector, a one-element key/value
sequence, so every attention weight is 1: the forward pass reads Wv only,
and Wq and Wk are counted in the budget but receive no gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import NUM_LABELS, VISION_DIM
from .encoders import TEXT_DIM
from .errors import ConfigError
from .model import ModelGraph


@dataclass
class FusionConfig:
    shared_dim: int = 512
    head_hidden: int = 256
    dropout_p: float = 0.1

    def __post_init__(self):
        for name in ("shared_dim", "head_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError("dropout_p must be in [0, 1)")

    def param_count(self) -> int:
        d, h = self.shared_dim, self.head_hidden
        return VISION_DIM * d + TEXT_DIM * d + 3 * d * d + d * h + h * NUM_LABELS


class FusionPathway:
    """Owns the fusion parameters inside a (possibly larger) model graph."""

    def __init__(self, graph: ModelGraph, cfg: FusionConfig, seed: int = 0):
        self.cfg = cfg
        self.graph = graph
        rng = ad.make_rng(seed, "init", "fusion")
        d = cfg.shared_dim

        def init(shape):
            return rng.normal(0.0, 1.0 / np.sqrt(shape[0]), shape)

        graph.add_drawn("fusion/vision_proj/w", (VISION_DIM, d), init)
        graph.add_drawn("fusion/text_proj/w", (TEXT_DIM, d), init)
        for name in ("wq", "wk", "wv"):
            graph.add_drawn(f"fusion/attention/{name}", (d, d), init)
        graph.add_drawn("fusion/head/w1", (d, cfg.head_hidden), init)
        graph.add_drawn("fusion/head/w2", (cfg.head_hidden, NUM_LABELS), init)

    def forward(self, binding, v: ad.Tensor, t: ad.Tensor, training: bool = False,
                dropout_uniform=None) -> ad.Tensor:
        """v (B, VISION_DIM), t (B, TEXT_DIM) -> logits (B, NUM_LABELS).

        The attended value of a sample is its Wv-projected text row, since
        its text is a one-element sequence. Training-mode dropout needs
        `dropout_uniform`, a (B, shared_dim) array of U[0, 1) draws.
        """
        pv = ad.matmul(v, binding["fusion/vision_proj/w"])
        pt = ad.matmul(t, binding["fusion/text_proj/w"])
        attended = ad.matmul(pt, binding["fusion/attention/wv"])
        fused = ad.dropout(ad.layer_norm(pv + attended), self.cfg.dropout_p, training,
                           dropout_uniform)
        hidden = ad.relu(ad.matmul(fused, binding["fusion/head/w1"]))
        return ad.matmul(hidden, binding["fusion/head/w2"])
