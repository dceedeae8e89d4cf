"""HBM bandwidth model with a concurrency ramp and a contention knee.

The model captures two first-order DRAM behaviours that the paper's Fig. 13
exposes for memory-bound kernels (embedding pooling):

1. **Concurrency ramp** — a GPU needs enough in-flight memory streams to
   cover DRAM latency.  With occupancy ``o`` (fraction of the device's wave
   slots that are resident) the achievable bandwidth ramps as
   ``min(concurrency * o, 1) * peak``.  Below the saturation point, adding
   workgroups adds bandwidth nearly linearly (Little's law).

2. **Contention knee** — past a utilization knee, additional concurrent
   streams *reduce* effective bandwidth (row-buffer thrashing / channel
   conflicts).  This is the piecewise-linear ``efficiency(o)`` table on the
   :class:`~repro.hw.specs.GpuSpec`.

Calibration (done once, against the paper's Fig. 13, then frozen):

* time(75%) / time(25%) = 0.54  (the paper's 46% reduction)
  ⇒ with efficiency 1 in that range, ``0.25 * concurrency = 0.54``
  ⇒ ``concurrency = 2.16`` (saturation at ~46% occupancy).
* time(87.5%) / time(75%) = 1.25 (the paper's 25% increase)
  ⇒ ``efficiency(0.875) = 0.80``.
* ``efficiency(1.0) = 0.78``: the contention penalty flattens, so a baseline
  kernel at full occupancy and the fused kernel at 87.5% occupancy run at
  nearly the same memory throughput — consistent with the paper's
  observation that the fused kernel's 12.5% occupancy loss "does not degrade
  performance".
"""

from __future__ import annotations

import numpy as np

from ..utils.xp import xp_of
from .specs import GpuSpec

__all__ = ["HbmModel"]


class HbmModel:
    """Occupancy-dependent achievable-bandwidth model for one GPU's HBM."""

    def __init__(self, spec: GpuSpec):
        self.spec = spec

    @property
    def spec(self) -> GpuSpec:
        return self._spec

    @spec.setter
    def spec(self, spec: GpuSpec) -> None:
        """Swap the device spec, revalidating and dropping every cache.

        The efficiency table and the bandwidth memo are functions of the
        spec's content; rebuilding them here keeps a swapped-in spec from
        ever reading another spec's cached entries.
        """
        pts = tuple(spec.hbm_efficiency)
        if len(pts) < 2:
            raise ValueError("hbm_efficiency needs at least two points")
        xs = [x for x, _ in pts]
        if xs != sorted(xs):
            raise ValueError("hbm_efficiency occupancies must be increasing")
        if xs[0] != 0.0:
            raise ValueError("hbm_efficiency must start at occupancy 0.0")
        self._spec = spec
        self._points = pts
        self._xs = np.array([x for x, _ in pts], dtype=np.float64)
        self._ys = np.array([y for _, y in pts], dtype=np.float64)
        # Kernels evaluate the model at a handful of distinct occupancies,
        # thousands of times each; the model is a pure function of the frozen
        # spec, so memoize on (occupancy, access).
        self._bw_cache: dict = {}

    def efficiency(self, occupancy):
        """Piecewise-linear DRAM efficiency at the given occupancy (a
        fraction, or a column of them)."""
        if isinstance(occupancy, np.ndarray):
            o = np.minimum(np.maximum(occupancy, 0.0), 1.0)
            xs, ys = self._xs, self._ys
            # First segment whose right endpoint satisfies ``o <= x1`` —
            # the segment the scalar loop below stops at.
            seg = np.searchsorted(xs[1:], o, side="left")
            overflow = seg >= len(xs) - 1      # o beyond the table's last x
            seg = np.minimum(seg, len(xs) - 2)
            x0, x1 = xs[seg], xs[seg + 1]
            y0, y1 = ys[seg], ys[seg + 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (o - x0) / (x1 - x0)
                out = y0 + t * (y1 - y0)
            out = np.where(x1 == x0, y1, out)  # degenerate segment -> y1
            return np.where(overflow, ys[-1], out)
        o = min(max(occupancy, 0.0), 1.0)
        pts = self._points
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if o <= x1:
                if x1 == x0:
                    return y1
                t = (o - x0) / (x1 - x0)
                return y0 + t * (y1 - y0)
        return pts[-1][1]

    def concurrency_ramp(self, occupancy):
        """Fraction of peak reachable given in-flight stream count."""
        xp = xp_of(occupancy)
        o = xp.minimum(xp.maximum(occupancy, 0.0), 1.0)
        return xp.minimum(self.spec.hbm_concurrency * o, 1.0)

    def achieved_bandwidth(self, occupancy, access: str = "stream"):
        """Achievable HBM bytes/s at the given occupancy fraction (or
        column of fractions; ``access`` is uniform).

        The concurrency ramp applies to every kernel.  The contention knee
        applies to ``access="gather"`` traffic only: data-dependent lookups
        (embedding pooling) thrash DRAM row buffers once too many streams
        are in flight — the paper's Fig. 13 mechanism ("memory intensive
        embedding operations encounter significant memory contention" at
        87.5% occupancy).  Coalesced streams (GEMV/GEMM/copies) prefetch
        and combine well and stay on the ramp.

        A consequence the paper also observes (Section IV-C): a baseline
        gather kernel at 100% occupancy (efficiency 0.78) and the fused one
        at its 87.5% maximum (efficiency 0.80) run at nearly the same
        throughput, so the fused kernels' register-pressure occupancy loss
        "does not degrade performance".
        """
        scalar = not isinstance(occupancy, np.ndarray)
        if scalar:
            key = (occupancy, access)
            cached = self._bw_cache.get(key)
            if cached is not None:
                return cached
        if access not in ("stream", "gather"):
            raise ValueError(f"unknown access pattern {access!r}")
        eff = self.efficiency(occupancy) if access == "gather" else 1.0
        bw = self.spec.hbm_bandwidth * self.concurrency_ramp(occupancy) * eff
        if scalar:
            self._bw_cache[key] = bw
        return bw

    def best_occupancy(self, samples: int = 200,
                       access: str = "gather") -> float:
        """Occupancy that maximizes achieved bandwidth (diagnostic)."""
        best_o, best_bw = 0.0, 0.0
        for i in range(1, samples + 1):
            o = i / samples
            bw = self.achieved_bandwidth(o, access=access)
            if bw > best_bw:
                best_o, best_bw = o, bw
        return best_o
