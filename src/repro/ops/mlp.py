"""Multi-layer perceptron: functional forward pass + device cost.

Used for DLRM's bottom/top MLP stacks and the transformer feed-forward
block.  The cost helper returns the *kernel-level* cost of executing the
whole MLP as a sequence of GEMM kernels on one GPU (used by the ASTRA-style
scale-out model, which needs per-layer times rather than per-WG tasks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..hw.gpu import Gpu, KernelResources
from .activation import ACTIVATIONS
from .gemm import gemm

__all__ = ["Mlp", "mlp_flops", "mlp_time_on_gpu"]


@dataclass
class Mlp:
    """A dense MLP with per-layer weights and a shared activation."""

    weights: List[np.ndarray]
    biases: List[np.ndarray]
    activation: str = "relu"

    @classmethod
    def create(cls, layer_sizes: Sequence[int], activation: str = "relu",
               rng: np.random.Generator | None = None,
               dtype=np.float32) -> "Mlp":
        """Xavier-initialized MLP with dims ``layer_sizes[0] -> ... -> [-1]``."""
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        rng = rng if rng is not None else np.random.default_rng(0)
        ws, bs = [], []
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            ws.append((rng.standard_normal((fan_in, fan_out)) * scale)
                      .astype(dtype))
            bs.append(np.zeros(fan_out, dtype=dtype))
        return cls(weights=ws, biases=bs, activation=activation)

    @property
    def layer_sizes(self) -> List[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply all layers; activation after every layer but the last."""
        act = ACTIVATIONS[self.activation]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = gemm(h, w) + b
            if i != last:
                h = act(h)
        return h

    __call__ = forward


def mlp_flops(batch: int, layer_sizes: Sequence[int]) -> float:
    """Total GEMM FLOPs of one forward pass."""
    return sum(2.0 * batch * a * b
               for a, b in zip(layer_sizes, layer_sizes[1:]))


def mlp_time_on_gpu(gpu: Gpu, batch: int, layer_sizes: Sequence[int],
                    resources: KernelResources | None = None,
                    itemsize: int = 4, flop_efficiency: float = 0.6) -> float:
    """Closed-form execution time of the MLP, one kernel per layer.

    Whole-layer roofline: with LDS/L2 blocking, a well-tuned GEMM touches
    each operand from HBM approximately once, so the memory side uses the
    *unique* bytes of the layer (A + W + C) rather than per-tile slab
    re-reads; the compute side runs at ``flop_efficiency`` of peak (the
    sustained fraction of typical dense GEMM kernels on these layer sizes).
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if not (0.0 < flop_efficiency <= 1.0):
        raise ValueError("flop_efficiency must be in (0, 1]")
    total = 0.0
    peak = gpu.spec.flop_rate("fp32") * flop_efficiency
    bw = gpu.spec.hbm_bandwidth
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        flops = 2.0 * batch * fan_in * fan_out
        unique = (batch * fan_in + fan_in * fan_out
                  + batch * fan_out) * itemsize
        total += (gpu.spec.kernel_launch_overhead
                  + max(flops / peak, unique / bw))
    return total
