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
from typing import Dict, Tuple

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
        self._base_occ = occupancy_for(self.spec, self.base_res)
        self._fused_occ = occupancy_for(self.spec, self.fused_res)
        self._occupancy: dict = {}

    def occupancy(self, res: KernelResources) -> OccupancyInfo:
        # The device's own footprints are nearly every call: matched by
        # identity, without hashing a KernelResources.
        if res is self.fused_res:
            return self._fused_occ
        if res is self.base_res:
            return self._base_occ
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


#: ``id(platform) -> (platform, model)`` for platform objects already seen.
#: Each entry holds its platform, so no live object can share its id.
_BY_IDENTITY: Dict[int, Tuple[Platform, DeviceModel]] = {}
#: Entries before the identity map starts over: mapping-form platforms
#: decode to a fresh object per scenario and must not grow it unbounded.
_IDENTITY_SLOTS = 64


def device_model(platform: PlatformLike = None) -> DeviceModel:
    """Memoized :class:`DeviceModel` for anything resolving to a platform.

    Equal platforms share one model.  A platform object seen before is
    found by identity, without hashing its nested specs again.
    """
    plat = get_platform(platform)
    hit = _BY_IDENTITY.get(id(plat))
    if hit is not None:
        return hit[1]
    model = _device_model(plat)
    if len(_BY_IDENTITY) >= _IDENTITY_SLOTS:
        _BY_IDENTITY.clear()
    _BY_IDENTITY[id(plat)] = (plat, model)
    return model
