"""Occupancy API helpers (the analogue of ``hipOccupancyMaxActiveBlocks``).

The paper launches persistent kernels with a fixed grid no larger than the
occupancy limit returned by the HIP occupancy API; these helpers expose
that query plus the sweep used in Fig. 13.
"""

from __future__ import annotations

from typing import List

from ..hw.gpu import Gpu, KernelResources

__all__ = ["max_active_wgs", "occupancy_sweep_points"]


def max_active_wgs(gpu: Gpu, resources: KernelResources) -> int:
    """Device-wide resident-WG limit for a kernel (HIP occupancy query)."""
    return gpu.occupancy(resources).resident_wgs


def occupancy_sweep_points(max_fraction: float = 0.875,
                           steps: int = 6) -> List[float]:
    """The paper's Fig. 13 sweep: evenly spaced up to the fused kernel's
    maximum on the calibrated MI210 (87.5%; other platforms derive their
    own maximum from the register-file geometry)."""
    if steps < 2:
        raise ValueError("need at least two sweep points")
    if not (0.0 < max_fraction <= 1.0):
        raise ValueError("max_fraction must be in (0, 1]")
    step = max_fraction / steps
    return [step * (i + 1) for i in range(steps)]
