"""Per-platform closed-form compute timing (no simulator, no event loop).

:class:`DeviceModel` evaluates exactly the quantities
:class:`repro.hw.gpu.Gpu` computes inside the DES — occupancy from the
hardware allocation rules, roofline WG durations against the
occupancy-dependent HBM model, bulk-kernel spans with the reduced-occupancy
tail round, and the persistent kernel's grid-size balancing — as pure
functions of the frozen :class:`~repro.hw.platform.Platform`.  Wherever the
DES consumes one of these numbers directly (baseline kernels, collectives'
reduce steps), the analytic backend therefore agrees to the last bit; the
approximations live one level up, in :mod:`repro.analytic.ops`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..hw.gpu import KernelResources, OccupancyInfo, WgCost, occupancy_for
from ..hw.memory import HbmModel
from ..hw.platform import Platform, PlatformLike, get_platform
from ..utils.xp import xp_of

__all__ = ["DeviceModel", "device_model"]

#: Mirror of :data:`repro.kernels.kernel._BALANCE_ROUNDS` — task loops at
#: most this many rounds long get a balanced persistent-kernel grid.
_BALANCE_ROUNDS = 8


class DeviceModel:
    """Closed-form compute timing for one platform's GPU.

    Task counts and :class:`~repro.hw.gpu.WgCost` fields may be Python
    scalars (one scenario) or NumPy columns over a scenario axis.  Each
    method is one closed form over :mod:`repro.utils.xp`, except the
    branchy grid balancing of :meth:`persistent_occupancy`, which keeps a
    scalar and an array body side by side; the two agree bit for bit.
    """

    def __init__(self, platform: Platform):
        self.platform = platform
        self.spec = platform.gpu
        self.hbm = HbmModel(platform.gpu)
        self.base_res: KernelResources = platform.baseline_resources()
        self.fused_res: KernelResources = platform.fused_resources()
        self._occupancy: dict = {}

    # -- occupancy -----------------------------------------------------------
    def occupancy(self, res: KernelResources) -> OccupancyInfo:
        occ = self._occupancy.get(res)
        if occ is None:
            occ = self._occupancy[res] = occupancy_for(self.spec, res)
        return occ

    def persistent_occupancy(self, res: KernelResources, n_tasks,
                             n_work=None, occupancy_limit=None
                             ) -> OccupancyInfo:
        """Mirror of :class:`~repro.kernels.kernel.PersistentKernel`'s grid
        selection: explicit occupancy limit, or grid-size balancing for
        short task loops (``n_work`` = work-bearing task count).

        Over a column of ``n_tasks`` the result holds columns, and
        ``occupancy_limit`` is a float column where NaN means "no limit"
        (the scalar ``None``).
        """
        occ = self.occupancy(res)
        if isinstance(n_tasks, np.ndarray):
            n_tasks = np.asarray(n_tasks, np.int64)
            nw = n_tasks if n_work is None else np.where(
                n_work == 0, n_tasks, n_work)
            rounds = np.maximum(1, -(-nw // occ.resident_wgs))
            balanced = np.minimum(occ.resident_wgs, -(-nw // rounds))
            occ_b = occ.limited_to(np.where(rounds <= _BALANCE_ROUNDS,
                                            balanced, occ.resident_wgs))
            if occupancy_limit is None:
                return occ_b
            limit = np.asarray(occupancy_limit, np.float64)
            has_limit = ~np.isnan(limit)
            bad = has_limit & ~((0.0 < limit) & (limit <= 1.0))
            if np.any(bad):
                raise ValueError(f"occupancy_limit must be in (0, 1], got "
                                 f"{limit[bad][0]}")
            # A neutral limit of 1.0 rounds back to resident_wgs (a no-op
            # clamp), and limited_to(n_tasks) is an identity exactly where
            # the scalar guard ``n_tasks < resident_wgs`` is false.
            lim_res = np.maximum(1, np.round(
                occ.resident_wgs * np.where(has_limit, limit, 1.0)
            ).astype(np.int64))
            occ_l = occ.limited_to(lim_res).limited_to(n_tasks)
            return OccupancyInfo(
                occ.waves_per_wg,
                np.where(has_limit, occ_l.wgs_per_cu, occ_b.wgs_per_cu),
                np.where(has_limit, occ_l.resident_wgs, occ_b.resident_wgs),
                np.where(has_limit, occ_l.fraction, occ_b.fraction))
        if occupancy_limit is not None:
            if not (0.0 < occupancy_limit <= 1.0):
                raise ValueError(
                    f"occupancy_limit must be in (0, 1], got {occupancy_limit}")
            occ = occ.limited_to(
                max(1, int(round(occ.resident_wgs * occupancy_limit))))
            if n_tasks < occ.resident_wgs:
                occ = occ.limited_to(n_tasks)
        else:
            n_work = n_work if n_work else n_tasks
            rounds = max(1, -(-n_work // occ.resident_wgs))
            if rounds <= _BALANCE_ROUNDS:
                balanced = min(occ.resident_wgs, -(-n_work // rounds))
                occ = occ.limited_to(balanced)
        return occ

    def n_slots(self, occ: OccupancyInfo, n_tasks):
        return xp_of(occ.resident_wgs, n_tasks).minimum(occ.resident_wgs,
                                                        n_tasks)

    # -- timing --------------------------------------------------------------
    def wg_time(self, cost: WgCost, occ: OccupancyInfo):
        """Roofline duration of one WG (mirror of :meth:`Gpu.wg_duration`).
        Over a column, rows with zero bytes or flops get ``0 / bw == 0.0``
        exactly, as the scalar guards give them."""
        xp = xp_of(cost.bytes, cost.flops, occ.fraction)
        resident = xp.maximum(occ.resident_wgs, 1)
        mem_time = 0.0
        if xp.any(cost.bytes > 0):
            bw = self.hbm.achieved_bandwidth(occ.fraction,
                                             access=cost.access) / resident
            mem_time = cost.bytes / bw
        flop_time = 0.0
        if xp.any(cost.flops > 0):
            per_wg = self.spec.flop_rate(cost.dtype) / xp.maximum(
                resident, self.spec.num_cus)
            flop_time = cost.flops / per_wg
        return xp.maximum(mem_time, flop_time) + cost.fixed

    def task_time(self, cost: WgCost, occ: OccupancyInfo, repeat=1):
        """One logical-WG task: roofline duration plus dispatch overhead."""
        return repeat * (self.wg_time(cost, occ)
                         + self.spec.wg_dispatch_overhead)

    def bulk_kernel_time(self, n_wgs, cost: WgCost, res: KernelResources):
        """Mirror of :func:`repro.kernels.kernel.bulk_kernel_time`."""
        xp = xp_of(n_wgs)
        if xp.any(n_wgs < 1):
            raise ValueError("n_wgs must be >= 1")
        occ = self.occupancy(res)
        disp = self.spec.wg_dispatch_overhead
        full_rounds, tail = divmod(n_wgs, occ.resident_wgs)
        total = self.spec.kernel_launch_overhead
        if xp.any(full_rounds):
            total = total + full_rounds * (self.wg_time(cost, occ) + disp)
        if xp.any(tail):
            tail_occ = occ.limited_to(xp.where(tail > 0, tail,
                                               occ.resident_wgs))
            total = total + xp.where(tail > 0,
                                     self.wg_time(cost, tail_occ) + disp,
                                     0.0)
        return total

    def hbm_bandwidth(self, occupancy: float = 1.0,
                      access: str = "stream") -> float:
        return self.hbm.achieved_bandwidth(occupancy, access=access)


@lru_cache(maxsize=64)
def _device_model(platform: Platform) -> DeviceModel:
    return DeviceModel(platform)


def device_model(platform: PlatformLike = None) -> DeviceModel:
    """Memoized :class:`DeviceModel` for anything resolving to a platform."""
    return _device_model(get_platform(platform))
