"""GPU device model: occupancy, workgroup timing, and peer stores.

This module is the one device model the DES and the analytic backend
share.  Its timing closed forms (:func:`wg_time`, :func:`task_time`,
:func:`bulk_kernel_time`, :func:`persistent_occupancy`,
:func:`copy_time`, :func:`reduce_time`) are plain functions of a
*device* — anything with a ``spec``, an ``hbm`` model and an
``occupancy(res)`` method: a simulated :class:`Gpu`, or
:class:`repro.analytic.DeviceModel` for a whole platform.  Each is
written once against :mod:`repro.utils.xp`, so it evaluates one scenario
on Python scalars or a scenario axis on NumPy columns, bit for bit alike.
Both devices also carry their derived ``base_res``/``fused_res`` kernel
resources, which the fused operators' plans (:mod:`repro.fused`) read.

The model is deliberately at the granularity the paper operates at — the
workgroup (WG).  A kernel is a set of logical WGs, each described by a
:class:`WgCost` (FLOPs + HBM bytes).  A WG's duration follows a roofline:
``max(flop_time, mem_time)``, where the memory side uses the
occupancy-dependent achievable bandwidth of :class:`~repro.hw.memory.HbmModel`
shared equally among resident WGs, and the compute side shares CU ALUs.

Occupancy itself is computed from kernel resource usage (registers / LDS /
wave slots) with the same allocation rules real GCN/CDNA hardware uses —
this is how the fused kernels "pay" the paper's reported 12.5% occupancy
loss for their extra communication registers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..sim import NULL_TRACE, Simulator, TraceRecorder
from ..utils.xp import NP, PY, xp_of
from .memory import HbmModel
from .specs import GpuSpec

__all__ = ["WgCost", "KernelResources", "OccupancyInfo", "Gpu",
           "occupancy_for", "wg_time", "task_time", "bulk_kernel_time",
           "persistent_occupancy", "BALANCE_ROUNDS", "copy_time",
           "reduce_time"]

#: Task loops at most this many rounds long get a balanced grid; longer
#: loops amortize their tail and launch at full occupancy.
BALANCE_ROUNDS = 8

_tuple_new = tuple.__new__


class WgCost(namedtuple("WgCost", "flops bytes dtype fixed access")):
    """Work performed by one logical workgroup.

    Attributes:
        flops: floating-point operations executed.
        bytes: HBM traffic (reads + writes) in bytes.
        dtype: datatype for the FLOP rate ("fp32" or "fp16").
        fixed: additional fixed time (API calls, bookkeeping), seconds.
        access: HBM access pattern — "stream" for coalesced sequential
            traffic (GEMM/GEMV/copies), "gather" for data-dependent lookups
            (embedding pooling).  Gather traffic pays the high-occupancy
            contention knee (row-buffer/TLB thrashing); streams do not.

    An immutable record, hashable and equal by value: a tuple validated
    on construction rather than a frozen dataclass, because every analytic
    prediction builds several and a tuple is built in about a third of
    the time.
    """

    __slots__ = ()

    def __new__(cls, flops: float = 0.0, bytes: float = 0.0,
                dtype: str = "fp32", fixed: float = 0.0,
                access: str = "stream") -> "WgCost":
        # flops/bytes may be columns over a scenario axis (repro.analytic);
        # on scalars ``bad`` is a plain bool, so a valid cost never pays
        # for np.any.
        bad = (flops < 0) | (bytes < 0) | (fixed < 0)
        if bad is not False and np.any(bad):
            raise ValueError("WgCost components must be non-negative")
        if access != "stream" and access != "gather":
            raise ValueError(f"unknown access pattern {access!r}")
        return _tuple_new(cls, (flops, bytes, dtype, fixed, access))

    def plus(self, flops: float = 0.0, bytes: float = 0.0,
             fixed: float = 0.0) -> "WgCost":
        return WgCost(self.flops + flops, self.bytes + bytes,
                      self.dtype, self.fixed + fixed, self.access)

    def with_bytes(self, bytes: float) -> "WgCost":
        return WgCost(self.flops, bytes, self.dtype, self.fixed, self.access)


@dataclass(frozen=True)
class KernelResources:
    """Per-WG resource usage that determines occupancy."""

    threads_per_wg: int = 256
    vgprs_per_thread: int = 64
    lds_per_wg: int = 0

    def __post_init__(self):
        if self.threads_per_wg < 1:
            raise ValueError("threads_per_wg must be >= 1")
        if self.vgprs_per_thread < 1:
            raise ValueError("vgprs_per_thread must be >= 1")
        if self.lds_per_wg < 0:
            raise ValueError("lds_per_wg must be >= 0")


class OccupancyInfo(namedtuple(
        "OccupancyInfo", "waves_per_wg wgs_per_cu resident_wgs fraction")):
    """Result of the occupancy calculation for a kernel on a device:
    waves per WG, WGs per CU, device-wide resident WGs, and the fraction
    of the device's wave slots they fill.  An immutable record like
    :class:`WgCost`."""

    __slots__ = ()

    def limited_to(self, max_resident: int) -> "OccupancyInfo":
        """Clamp resident WGs (persistent kernels choose their grid size).

        ``max_resident`` may be a column over a scenario axis (and so may
        this info's fields): the clamp then applies elementwise, exactly
        where ``max_resident < resident_wgs`` as in the scalar body.
        """
        if xp_of(max_resident, self.resident_wgs) is NP:
            max_resident = np.asarray(max_resident, np.int64)
            if np.any(max_resident < 1):
                raise ValueError("max_resident must be >= 1")
            apply = max_resident < self.resident_wgs
            wgs_per_cu = np.maximum(1, self.wgs_per_cu * max_resident
                                    // self.resident_wgs)
            frac = self.fraction * max_resident / self.resident_wgs
            return OccupancyInfo(
                self.waves_per_wg,
                np.where(apply, wgs_per_cu, self.wgs_per_cu),
                np.where(apply, max_resident, self.resident_wgs),
                np.where(apply, frac, self.fraction))
        if max_resident < 1:
            raise ValueError("max_resident must be >= 1")
        if max_resident >= self.resident_wgs:
            return self
        wgs_per_cu = max(1, self.wgs_per_cu * max_resident // self.resident_wgs)
        frac = self.fraction * max_resident / self.resident_wgs
        return OccupancyInfo(self.waves_per_wg, wgs_per_cu,
                             max_resident, frac)


def occupancy_for(spec: GpuSpec, res: KernelResources) -> OccupancyInfo:
    """Hardware allocation rules applied to kernel resource usage.

    Pure function of two frozen dataclasses; :meth:`Gpu.occupancy` is the
    memoized per-device view of it.
    """
    s = spec
    waves_per_wg = math.ceil(res.threads_per_wg / s.wave_size)
    vgpr_alloc = math.ceil(res.vgprs_per_thread / s.vgpr_granule) * s.vgpr_granule
    waves_per_simd = min(s.max_waves_per_simd, s.vgprs_per_simd // vgpr_alloc)
    if waves_per_simd < 1:
        raise ValueError(
            f"kernel uses {res.vgprs_per_thread} VGPRs/thread; cannot fit "
            f"a single wave on {s.name}")
    waves_per_cu = waves_per_simd * s.simds_per_cu
    wgs_per_cu = waves_per_cu // waves_per_wg
    if res.lds_per_wg > 0:
        wgs_per_cu = min(wgs_per_cu, s.lds_per_cu // res.lds_per_wg)
    wgs_per_cu = min(wgs_per_cu, s.max_wgs_per_cu)
    if wgs_per_cu < 1:
        raise ValueError("kernel resources exceed a single CU")
    resident = wgs_per_cu * s.num_cus
    fraction = (wgs_per_cu * waves_per_wg) / s.max_waves_per_cu
    return OccupancyInfo(waves_per_wg, wgs_per_cu, resident, fraction)


def wg_time(device, cost: WgCost, occ: OccupancyInfo):
    """Roofline duration of one WG given the kernel's occupancy (see the
    module docstring).  Over a column, rows with zero bytes or flops get
    ``0 / bw == 0.0`` exactly, as the scalar guards give them."""
    xp = xp_of(cost.bytes, cost.flops, occ.fraction)
    resident = xp.maximum(occ.resident_wgs, 1)
    mem_time = 0.0
    if xp.any(cost.bytes > 0):
        bw = device.hbm.achieved_bandwidth(occ.fraction,
                                           access=cost.access) / resident
        mem_time = cost.bytes / bw
    flop_time = 0.0
    if xp.any(cost.flops > 0):
        # A WG can at most use one CU; beyond num_cus resident WGs they
        # share ALUs evenly.
        per_wg = device.spec.flop_rate(cost.dtype) / xp.maximum(
            resident, device.spec.num_cus)
        flop_time = cost.flops / per_wg
    return xp.maximum(mem_time, flop_time) + cost.fixed


def task_time(device, cost: WgCost, occ: OccupancyInfo, repeat=1):
    """One logical-WG task: roofline duration plus dispatch overhead."""
    return repeat * (wg_time(device, cost, occ)
                     + device.spec.wg_dispatch_overhead)


def bulk_kernel_time(device, n_wgs, cost: WgCost, res: KernelResources):
    """Closed-form time of a bulk-synchronous kernel of ``n_wgs`` uniform WGs.

    The kernel runs whole rounds of resident WGs at the kernel's occupancy;
    the remainder (tail) round runs at the *tail's* reduced occupancy —
    fewer resident WGs means each gets a larger share of a (ramp-limited)
    smaller aggregate bandwidth.  When the whole grid is smaller than the
    residency limit, the entire kernel is one such reduced-occupancy round
    — the effect behind the paper's observation that small batch sizes
    leave the baseline's per-table embedding kernels underutilized
    (Fig. 12).
    """
    xp = xp_of(n_wgs)
    if xp.any(n_wgs < 1):
        raise ValueError("n_wgs must be >= 1")
    occ = device.occupancy(res)
    disp = device.spec.wg_dispatch_overhead
    full_rounds, tail = divmod(n_wgs, occ.resident_wgs)
    total = device.spec.kernel_launch_overhead
    if xp.any(full_rounds):
        total = total + full_rounds * (wg_time(device, cost, occ) + disp)
    if xp.any(tail):
        tail_occ = occ.limited_to(xp.where(tail > 0, tail,
                                           occ.resident_wgs))
        total = total + xp.where(tail > 0,
                                 wg_time(device, cost, tail_occ) + disp, 0.0)
    return total


def persistent_occupancy(device, res: KernelResources, n_tasks, n_work=None,
                         occupancy_limit=None) -> OccupancyInfo:
    """The grid a persistent kernel of ``n_tasks`` tasks launches with.

    An explicit ``occupancy_limit`` — a fraction in (0, 1] of the kernel's
    own achievable occupancy, the knob of the paper's Fig. 13 sweep —
    clamps the grid, and never above the task count.  Without one, the
    grid is balanced: a persistent kernel knows its task count up front,
    so when the task loop is short it launches the largest grid (<=
    residency limit) that divides the ``n_work`` *work-bearing* tasks into
    whole rounds, avoiding a tail round in which most physical WGs idle.
    Zero-cost bookkeeping tasks do not drive the grid size (``n_work`` of
    0 or None counts every task).  Loops longer than
    :data:`BALANCE_ROUNDS` rounds amortize their tail and launch at full
    occupancy, as the paper's fused embedding kernel does.

    Over a column of ``n_tasks`` the result holds columns, and
    ``occupancy_limit`` is a float column where NaN means "no limit".
    """
    occ = device.occupancy(res)
    xp = xp_of(n_tasks, n_work, occupancy_limit)
    full = occ.resident_wgs
    limited = None
    if occupancy_limit is not None:
        limit = xp.asfloat(occupancy_limit)
        unset = limit != limit          # NaN: no limit, in a column only
        bad = (limit <= 0.0) | (limit > 1.0) | (xp is PY and unset)
        if xp.any(bad):
            raise ValueError(f"occupancy_limit must be in (0, 1], got "
                             f"{xp.first(occupancy_limit, bad)}")
        limited = occ.limited_to(xp.maximum(1, xp.round(
            full * xp.where(unset, 1.0, limit)))).limited_to(n_tasks)
        if not xp.any(unset):
            return limited
    if n_work is None:
        n_work = n_tasks
    else:
        n_work = xp.where(n_work == 0, n_tasks, n_work)
    rounds = xp.maximum(1, -(-n_work // full))
    balanced = occ.limited_to(xp.where(
        rounds <= BALANCE_ROUNDS, xp.minimum(full, -(-n_work // rounds)),
        full))
    if limited is None:
        return balanced
    return OccupancyInfo(
        occ.waves_per_wg,
        xp.where(unset, balanced.wgs_per_cu, limited.wgs_per_cu),
        xp.where(unset, balanced.resident_wgs, limited.resident_wgs),
        xp.where(unset, balanced.fraction, limited.fraction))


def copy_time(device, nbytes):
    """Blit-kernel local copy: read + write through HBM at full occupancy."""
    return 2.0 * nbytes / device.hbm.achieved_bandwidth(1.0)


def reduce_time(device, n_elems, n_sources: int, itemsize):
    """Element-wise reduction of ``n_sources`` buffers of ``n_elems``
    elements: the slower of the fp32 adds and the HBM reads."""
    if n_sources <= 1:
        return 0.0
    xp = xp_of(n_elems, itemsize)
    flops = xp.asfloat(n_elems) * (n_sources - 1)
    read_bytes = xp.asfloat(n_elems) * itemsize * n_sources
    flop_t = flops / device.spec.flop_rate("fp32")
    mem_t = read_bytes / device.hbm.achieved_bandwidth(1.0)
    return xp.maximum(flop_t, mem_t)


class Gpu:
    """One simulated GPU.

    Like :class:`repro.analytic.DeviceModel`, it carries the derived
    ``base_res`` and ``fused_res`` kernel resources of its spec.  Fabric
    ports and the NIC are attached by :mod:`repro.hw.topology`.
    """

    def __init__(self, sim: Simulator, spec: GpuSpec, gpu_id: int,
                 node_id: int = 0, local_id: int = 0,
                 trace: Optional[TraceRecorder] = None):
        self.sim = sim
        self.gpu_id = gpu_id
        self.node_id = node_id
        self.local_id = local_id
        self.trace = trace if trace is not None else NULL_TRACE
        self.fabric = None   # set by topology: repro.hw.fabric.Fabric
        self.nic = None      # set by topology: repro.hw.nic.Nic
        self.spec = spec     # property: also builds the HBM model + caches

    @property
    def spec(self) -> GpuSpec:
        return self._spec

    @spec.setter
    def spec(self, spec: GpuSpec) -> None:
        """Swap the device spec (ablations), dropping every derived cache.

        The occupancy/duration memos, the HBM model and the derived kernel
        resources are functions of the spec's *content*; rebuilding them
        here guarantees an overridden or replaced spec can never read
        another spec's cached entries.
        """
        # platform imports this module, so bind its derivations lazily.
        from .platform import (
            derived_baseline_resources,
            derived_fused_resources,
        )
        self._spec = spec
        self.hbm = HbmModel(spec)
        self.base_res = derived_baseline_resources(spec)
        self.fused_res = derived_fused_resources(spec)
        # Kernels ask for the same handful of (resources, cost, occupancy)
        # combinations thousands of times per launch; both calculations are
        # pure functions of immutable values, so memoize per device.
        self._occupancy_cache: dict = {}
        self._duration_cache: dict = {}

    def __repr__(self) -> str:
        return f"<Gpu {self.gpu_id} ({self.spec.name}) node={self.node_id}>"

    @property
    def name(self) -> str:
        return f"gpu{self.gpu_id}"

    # -- occupancy ----------------------------------------------------------
    def occupancy(self, res: KernelResources) -> OccupancyInfo:
        """Apply the hardware allocation rules to kernel resource usage."""
        cached = self._occupancy_cache.get(res)
        if cached is not None:
            return cached
        info = occupancy_for(self._spec, res)
        self._occupancy_cache[res] = info
        return info

    # -- timing ---------------------------------------------------------------
    def wg_duration(self, cost: WgCost, occ: OccupancyInfo) -> float:
        """Memoized :func:`wg_time` on this device."""
        key = (cost, occ)
        cached = self._duration_cache.get(key)
        if cached is not None:
            return cached
        out = self._duration_cache[key] = wg_time(self, cost, occ)
        return out

    # -- data movement -----------------------------------------------------------
    def store_remote(self, peer: "Gpu", nbytes: float, value=None):
        """Direct store of ``nbytes`` into a peer GPU over the fabric.

        Returns the completion event (bytes visible at the peer).  This is
        the zero-copy path: no intermediate local buffer is written.
        """
        if self.fabric is None:
            raise RuntimeError(f"{self!r} has no fabric attached")
        return self.fabric.transfer(self, peer, nbytes, value=value)

    def rdma_put(self, dst_gpu: "Gpu", nbytes: float, value=None):
        """GPU-initiated RDMA put to a GPU on another node (via the NIC)."""
        if self.nic is None:
            raise RuntimeError(f"{self!r} has no NIC attached")
        return self.nic.rdma_put(dst_gpu, nbytes, value=value)
