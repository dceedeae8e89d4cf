"""Embedding-bag pooling (the DLRM sparse operator).

Mirrors PyTorch's ``EmbeddingBag`` with sum/mean pooling, in the fixed
pooling-size form the DLRM data generator produces: a ``(batch, pooling)``
integer lookup matrix per table.  The per-WG cost model matches the paper's
work partitioning — one output embedding vector per logical WG
(``EmbeddingBag_updateOutputKernel_sum_mean``).
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..hw.gpu import WgCost
from ..utils.xp import xp_of

__all__ = ["embedding_pooling", "embedding_wg_cost", "embedding_table_bytes"]


def embedding_pooling(table: np.ndarray, indices: np.ndarray,
                      mode: Literal["sum", "mean"] = "sum") -> np.ndarray:
    """Pool embedding rows: ``out[b] = reduce(table[indices[b]])``.

    Args:
        table: ``(num_rows, dim)`` embedding table.
        indices: ``(batch, pooling)`` integer row ids.
        mode: "sum" or "mean".

    Returns:
        ``(batch, dim)`` pooled output in the table's dtype.
    """
    if table.ndim != 2:
        raise ValueError(f"table must be 2-D, got shape {table.shape}")
    if indices.ndim != 2:
        raise ValueError(f"indices must be 2-D, got shape {indices.shape}")
    if not np.issubdtype(indices.dtype, np.integer):
        raise TypeError(f"indices must be integers, got {indices.dtype}")
    if indices.size and (indices.min() < 0 or indices.max() >= table.shape[0]):
        raise IndexError(
            f"indices out of range [0, {table.shape[0]}) for this table")
    gathered = table[indices]              # (batch, pooling, dim)
    if mode == "sum":
        return gathered.sum(axis=1, dtype=table.dtype)
    if mode == "mean":
        return gathered.mean(axis=1, dtype=table.dtype)
    raise ValueError(f"unknown pooling mode {mode!r}")


def embedding_wg_cost(pooling: int, dim: int, itemsize: int = 4) -> WgCost:
    """Cost of one logical WG producing one pooled output vector.

    Reads ``pooling`` rows of ``dim`` elements (gather — effectively
    uncoalesced, so counted at full size), writes one row, and performs
    ``pooling * dim`` adds.  Embedding pooling is memory-bound on every
    modern GPU, and its data-dependent row gathers pay the high-occupancy
    DRAM contention knee (``access="gather"``; paper Fig. 13).
    """
    xp = xp_of(pooling, dim)
    if xp.any((pooling < 1) | (dim < 1)):
        raise ValueError("pooling and dim must be >= 1")
    bytes_moved = xp.asfloat((pooling + 1) * dim * itemsize)
    flops = xp.asfloat(pooling * dim)
    return WgCost(flops=flops, bytes=bytes_moved, dtype="fp32",
                  access="gather")


def embedding_table_bytes(num_rows: int, dim: int, itemsize: int = 4) -> int:
    """Storage footprint of one table (capacity planning in examples)."""
    return num_rows * dim * itemsize
