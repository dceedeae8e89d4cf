"""Tiled matrix-matrix multiply (MoE expert / transformer prompt operator).

The cost model follows the standard LDS-blocked GEMM: a ``BM x BN`` output
tile iterates over K in blocks, streaming ``K * (BM + BN)`` elements from
HBM and performing ``2 * BM * BN * K`` FLOPs.  With the paper's MoE shapes
these tiles are firmly compute-bound, which is why the paper reports the
GEMM dominating the fused GEMM + All-to-All runtime (Fig. 10).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..hw.gpu import WgCost
from ..utils.xp import xp_of
from .gemv import split_tiles

__all__ = ["gemm", "gemm_wg_cost", "gemm_tile_grid"]


def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``C = A @ B`` with shape checks. A: (M, K), B: (K, N) -> C: (M, N)."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"A and B must be 2-D, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: A {a.shape} @ B {b.shape}")
    return a @ b


def gemm_tile_grid(m: int, n: int, block_m: int = 128,
                   block_n: int = 128) -> List[Tuple[Tuple[int, int],
                                                     Tuple[int, int]]]:
    """Output tile grid: list of ((m0, m1), (n0, n1)) row/col ranges."""
    return [(rm, rn) for rm in split_tiles(m, block_m)
            for rn in split_tiles(n, block_n)]


def gemm_wg_cost(block_m: int, block_n: int, k: int,
                 itemsize: int = 4, dtype: str = "fp32") -> WgCost:
    """Cost of one WG computing a ``block_m x block_n`` output tile."""
    xp = xp_of(block_m, block_n, k, itemsize)
    if xp.any((block_m < 1) | (block_n < 1) | (k < 1)):
        raise ValueError("tile dims and k must be >= 1")
    bytes_moved = xp.asfloat((k * (block_m + block_n)
                              + block_m * block_n) * itemsize)
    flops = 2.0 * block_m * block_n * k
    return WgCost(flops=flops, bytes=bytes_moved, dtype=dtype)
