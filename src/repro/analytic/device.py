"""One platform's GPU as a device for the shared timing closed forms.

The device-timing model itself — the WG roofline, task and bulk-kernel
times, the persistent kernel's grid selection, copy and reduce times —
lives once in :mod:`repro.hw.gpu`, as functions of any device with a
``spec``, an ``hbm`` model and an ``occupancy(res)`` method.  The DES
passes a simulated :class:`~repro.hw.gpu.Gpu`; the analytic backend
passes the :class:`DeviceModel` of a frozen
:class:`~repro.hw.platform.Platform`.  Wherever the DES consumes one of
these numbers directly (baseline kernels, collectives' reduce steps), the
two backends therefore agree to the last bit; the approximations live one
level up, in :mod:`repro.analytic.ops`.
"""

from __future__ import annotations

from functools import lru_cache

from ..hw.gpu import KernelResources, OccupancyInfo, occupancy_for
from ..hw.memory import HbmModel
from ..hw.platform import Platform, PlatformLike, get_platform
from ..utils.xp import xp_of

__all__ = ["DeviceModel", "device_model"]


class DeviceModel:
    """One platform's GPU, with no simulator: its spec, HBM model,
    baseline and fused kernel resources, and memoized occupancy.

    Task counts and :class:`~repro.hw.gpu.WgCost` fields handed to the
    :mod:`repro.hw.gpu` closed forms with this device may be Python
    scalars (one scenario) or NumPy columns over a scenario axis.
    """

    def __init__(self, platform: Platform):
        self.platform = platform
        self.spec = platform.gpu
        self.hbm = HbmModel(platform.gpu)
        self.base_res: KernelResources = platform.baseline_resources()
        self.fused_res: KernelResources = platform.fused_resources()
        self._occupancy: dict = {}

    def occupancy(self, res: KernelResources) -> OccupancyInfo:
        occ = self._occupancy.get(res)
        if occ is None:
            occ = self._occupancy[res] = occupancy_for(self.spec, res)
        return occ

    def n_slots(self, occ: OccupancyInfo, n_tasks):
        return xp_of(occ.resident_wgs, n_tasks).minimum(occ.resident_wgs,
                                                        n_tasks)


@lru_cache(maxsize=64)
def _device_model(platform: Platform) -> DeviceModel:
    return DeviceModel(platform)


def device_model(platform: PlatformLike = None) -> DeviceModel:
    """Memoized :class:`DeviceModel` for anything resolving to a platform."""
    return _device_model(get_platform(platform))
