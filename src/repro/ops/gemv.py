"""Matrix-vector multiply (the transformer decode-phase operator).

The paper fuses GEMV with AllReduce for the token (decode) phase of
tensor-parallel transformer inference: each GPU holds a row-shard of the
second MLP weight matrix and produces a partial output vector.  GPU GEMV
kernels tile the *output* vector across WGs; each tile can be communicated
independently — the property the fused operator exploits.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..hw.gpu import WgCost
from ..utils.xp import xp_of

__all__ = ["gemv", "gemv_wg_cost", "split_tiles"]


def gemv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``y = A @ x`` with shape checks. A: (M, N), x: (N,) -> y: (M,)."""
    if a.ndim != 2:
        raise ValueError(f"A must be 2-D, got {a.shape}")
    if x.ndim != 1:
        raise ValueError(f"x must be 1-D, got {x.shape}")
    if a.shape[1] != x.shape[0]:
        raise ValueError(f"shape mismatch: A {a.shape} @ x {x.shape}")
    return a @ x


def split_tiles(extent: int, tile: int) -> List[Tuple[int, int]]:
    """Split ``[0, extent)`` into contiguous tiles of at most ``tile``."""
    if extent < 1:
        raise ValueError(f"extent must be >= 1, got {extent}")
    if tile < 1:
        raise ValueError(f"tile must be >= 1, got {tile}")
    return [(s, min(s + tile, extent)) for s in range(0, extent, tile)]


def gemv_wg_cost(tile_rows: int, n_cols: int, itemsize: int = 4,
                 dtype: str = "fp32") -> WgCost:
    """Cost of one WG computing ``tile_rows`` output elements.

    Streams the ``tile_rows x n_cols`` weight block once (GEMV is
    memory-bound: weights are touched exactly once), reads the input vector
    (amortized across WGs sharing it via cache — charged once per tile),
    writes the tile, and performs a multiply-add per weight element.
    """
    xp = xp_of(tile_rows, n_cols, itemsize)
    if xp.any((tile_rows < 1) | (n_cols < 1)):
        raise ValueError("tile_rows and n_cols must be >= 1")
    bytes_moved = xp.asfloat((tile_rows * n_cols + n_cols + tile_rows)
                             * itemsize)
    flops = 2.0 * tile_rows * n_cols
    return WgCost(flops=flops, bytes=bytes_moved, dtype=dtype)
