"""Pluggable hardware platforms: a named catalog plus derived resources.

A :class:`Platform` bundles everything the simulation needs to know about
one hardware generation — the GPU microarchitecture (:class:`GpuSpec`),
the intra-node fabric link, the NIC, and the default node shape — into a
single frozen, JSON-serializable value that every layer accepts under the
``platform=`` keyword:

* :func:`repro.hw.topology.build_cluster` builds the cluster out of it,
* :class:`repro.fused.base.OpHarness` resolves and forwards it,
* the experiment orchestrator hashes its canonical form into scenario
  store keys (:meth:`Platform.param`), making hardware a sweep axis.

The catalog holds the paper's calibrated ``mi210`` entry (Table I) plus
plausible — *not* calibrated — profiles of neighbouring generations
(``mi250x``, ``mi300x``, ``h100``), and :func:`generic` constructs fully
parameterized devices.  The two HBM calibration knobs (``hbm_concurrency``
and the ``hbm_efficiency`` knee, fitted once against Fig. 13 on the MI210)
are carried over to the uncalibrated profiles as an explicit assumption:
DRAM latency-hiding and contention behaviour is taken to be
generation-invariant until someone calibrates a device for real.

Kernel resource footprints are *derived* here rather than hardcoded: a
compute kernel in this codebase uses 256-thread WGs and as many VGPRs as
still sustain full occupancy on the device, and a fused kernel pays
:data:`COMM_VGPRS` extra registers for its GPU-initiated networking state
(descriptor pointers, flag addresses, slice bookkeeping).  On the MI210
that derivation yields 64 → 72 VGPRs/thread, i.e. the paper's 12.5%
occupancy loss; on other catalog entries the loss follows each device's
own register file and wave-slot geometry.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Union

from ..utils.units import GB_PER_S, GIB, US
from .gpu import KernelResources, occupancy_for
from .specs import (
    IB_NIC,
    IF_LINK,
    MI210,
    GpuSpec,
    LinkSpec,
    NicSpec,
    NodeSpec,
)

__all__ = [
    "COMM_VGPRS",
    "KERNEL_THREADS_PER_WG",
    "Platform",
    "CATALOG",
    "DEFAULT_PLATFORM",
    "PlatformLike",
    "derived_baseline_resources",
    "derived_fused_resources",
    "generic",
    "get_platform",
    "list_platforms",
    "max_occupancy_of_baseline",
    "register_platform",
]

#: Threads per workgroup used by every compute kernel in this codebase
#: (the paper's kernels launch 256-thread WGs throughout).
KERNEL_THREADS_PER_WG = 256

#: Extra VGPRs/thread a fused kernel spends on GPU-initiated networking
#: state (paper Section III-C: the register pressure behind the reported
#: occupancy loss).  Architecture-independent: it is state the *kernel*
#: carries, not a device property.
COMM_VGPRS = 8


def _baseline_vgprs(spec: GpuSpec) -> int:
    """Largest granule-aligned VGPR budget that still fills every wave slot.

    Real compute kernels are tuned to the register budget of the target:
    ``vgprs_per_simd / max_waves_per_simd`` rounded down to the allocation
    granule is the most registers a kernel can use per thread while the
    device still reaches 100% wave occupancy.  On devices with small
    register files the budget additionally shrinks until the *fused*
    variant (``+ COMM_VGPRS``) still fits at least one whole WG per CU —
    a kernel whose communicating twin cannot launch would be mis-tuned.
    """
    g = spec.vgpr_granule
    budget = spec.vgprs_per_simd // spec.max_waves_per_simd
    aligned = max((budget // g) * g, g)
    waves_per_wg = math.ceil(KERNEL_THREADS_PER_WG / spec.wave_size)
    while True:
        fused_alloc = math.ceil((aligned + COMM_VGPRS) / g) * g
        waves_per_simd = min(spec.max_waves_per_simd,
                             spec.vgprs_per_simd // fused_alloc)
        if waves_per_simd * spec.simds_per_cu >= waves_per_wg:
            return aligned
        if aligned <= g:
            raise ValueError(
                f"{spec.name}: no VGPR budget lets a fused kernel "
                f"(+{COMM_VGPRS} comm VGPRs) fit one "
                f"{KERNEL_THREADS_PER_WG}-thread WG per CU")
        aligned -= g


def derived_baseline_resources(spec: GpuSpec) -> KernelResources:
    """Resource footprint of a baseline (non-communicating) kernel."""
    return KernelResources(threads_per_wg=KERNEL_THREADS_PER_WG,
                           vgprs_per_thread=_baseline_vgprs(spec))


def derived_fused_resources(spec: GpuSpec) -> KernelResources:
    """Resource footprint of a fused kernel (extra comm registers)."""
    return KernelResources(
        threads_per_wg=KERNEL_THREADS_PER_WG,
        vgprs_per_thread=_baseline_vgprs(spec) + COMM_VGPRS)


def max_occupancy_of_baseline(spec: GpuSpec) -> float:
    """The fused kernel's occupancy ceiling as a fraction of the baseline
    kernel's (the Fig. 13 x-axis unit): 0.875 on the calibrated MI210,
    derived from the register-file geometry elsewhere."""
    base = occupancy_for(spec, derived_baseline_resources(spec)).resident_wgs
    fused = occupancy_for(spec, derived_fused_resources(spec)).resident_wgs
    return fused / base


@dataclass(frozen=True)
class Platform:
    """One hardware generation: GPU + fabric + NIC + default node shape.

    ``gpus_per_node`` is the platform's *default* scale-up width;
    experiments may still request any world size.
    """

    name: str
    gpu: GpuSpec
    link: LinkSpec
    nic: NicSpec
    gpus_per_node: int = 4
    nics_per_node: int = 1

    def __post_init__(self):
        if self.gpus_per_node < 1 or self.nics_per_node < 1:
            raise ValueError("node shape counts must be >= 1")

    # -- spec construction --------------------------------------------------
    def node_spec(self, num_gpus: Optional[int] = None) -> NodeSpec:
        """A :class:`NodeSpec` for this platform (default node width)."""
        return NodeSpec(gpu=self.gpu,
                        num_gpus=(num_gpus if num_gpus is not None
                                  else self.gpus_per_node),
                        link=self.link, nic=self.nic,
                        nics_per_node=self.nics_per_node)

    # -- derived kernel footprints ------------------------------------------
    def baseline_resources(self) -> KernelResources:
        return derived_baseline_resources(self.gpu)

    def fused_resources(self) -> KernelResources:
        return derived_fused_resources(self.gpu)

    def describe(self) -> Dict[str, Any]:
        """Key derived quantities (CLI listing, reports, sanity tests)."""
        base = occupancy_for(self.gpu, self.baseline_resources())
        fused = occupancy_for(self.gpu, self.fused_resources())
        return {
            "name": self.name,
            "num_cus": self.gpu.num_cus,
            "fp32_tflops": self.gpu.fp32_flops / 1e12,
            "fp16_tflops": self.gpu.fp16_flops / 1e12,
            "hbm_tb_per_s": self.gpu.hbm_bandwidth / 1e12,
            "hbm_gib": self.gpu.hbm_capacity / GIB,
            "link_gb_per_s": self.link.bandwidth / 1e9,
            "nic_gb_per_s": self.nic.bandwidth / 1e9,
            "gpus_per_node": self.gpus_per_node,
            "baseline_vgprs": self.baseline_resources().vgprs_per_thread,
            "fused_vgprs": self.fused_resources().vgprs_per_thread,
            "baseline_occupancy": base.fraction,
            "fused_occupancy": fused.fraction,
        }

    # -- serialization ------------------------------------------------------
    def to_params(self) -> Dict[str, Any]:
        """JSON-able mapping that round-trips through :meth:`from_params`."""
        gpu = asdict(self.gpu)
        gpu["hbm_efficiency"] = [list(pt) for pt in self.gpu.hbm_efficiency]
        return {
            "name": self.name,
            "gpu": gpu,
            "link": asdict(self.link),
            "nic": asdict(self.nic),
            "gpus_per_node": self.gpus_per_node,
            "nics_per_node": self.nics_per_node,
        }

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "Platform":
        """Inverse of :meth:`to_params` (exact round-trip)."""
        gpu = dict(params["gpu"])
        gpu["hbm_efficiency"] = tuple(tuple(pt)
                                      for pt in gpu["hbm_efficiency"])
        return cls(name=params["name"],
                   gpu=GpuSpec(**gpu),
                   link=LinkSpec(**params["link"]),
                   nic=NicSpec(**params["nic"]),
                   gpus_per_node=params.get("gpus_per_node", 4),
                   nics_per_node=params.get("nics_per_node", 1))

    def param(self) -> Union[str, Dict[str, Any]]:
        """Canonical scenario-parameter form: the catalog name when this
        *is* the built-in entry of that name, else the full mapping.

        Only *built-in* entries collapse to their name: worker processes
        and later runs can always resolve those by import, and their
        content is fixed, so the name is a faithful content address.  A
        platform registered at runtime serializes in full — its name
        alone would neither resolve in a fresh process nor re-key the
        cache if a different device were registered under it.
        """
        if _BUILTIN.get(self.name) == self:
            return self.name
        return self.to_params()

    def with_overrides(self, **kw) -> "Platform":
        """Copy with top-level fields replaced (for ablations)."""
        return replace(self, **kw)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

#: The paper's calibrated device (Table I): the catalog's only entry whose
#: numbers are fitted to measurements; everything downstream defaults to it.
MI210_PLATFORM = Platform(name="mi210", gpu=MI210, link=IF_LINK, nic=IB_NIC,
                          gpus_per_node=4)

#: MI250X-class profile: one GCD of an MI250X (datasheet-plausible, not
#: calibrated) — 110 CUs, same CDNA2 register geometry as the MI210, with
#: faster Infinity Fabric and a 200G-class NIC.
MI250X_PLATFORM = Platform(
    name="mi250x",
    gpu=MI210.with_overrides(
        name="MI250X-GCD",
        num_cus=110,
        fp32_flops=23.95e12,
        fp16_flops=191.5e12,
        hbm_bandwidth=1638.4 * GB_PER_S,
        hbm_capacity=64 * GIB,
    ),
    link=LinkSpec(bandwidth=100 * GB_PER_S, latency=0.3 * US,
                  name="InfinityFabric3"),
    nic=NicSpec(bandwidth=25 * GB_PER_S, latency=1.3 * US,
                message_overhead=0.3 * US, name="InfiniBand-HDR"),
    gpus_per_node=4,
)

#: MI300X-class profile (datasheet-plausible, not calibrated): 304 CDNA3
#: CUs, HBM3, wider Infinity Fabric mesh, 400G-class NIC.
MI300X_PLATFORM = Platform(
    name="mi300x",
    gpu=MI210.with_overrides(
        name="MI300X",
        num_cus=304,
        fp32_flops=163.4e12,
        fp16_flops=1307.4e12,
        hbm_bandwidth=5300 * GB_PER_S,
        hbm_capacity=192 * GIB,
    ),
    link=LinkSpec(bandwidth=128 * GB_PER_S, latency=0.25 * US,
                  name="InfinityFabric4"),
    nic=NicSpec(bandwidth=50 * GB_PER_S, latency=1.0 * US,
                message_overhead=0.25 * US, name="InfiniBand-NDR"),
    gpus_per_node=8,
)

#: H100-class profile (datasheet-plausible, not calibrated), mapped onto
#: this library's CU/SIMD vocabulary: an SM is a "CU" with 4 schedulers
#: ("SIMDs") of 16 warp slots each, warp size 32, 64K 32-bit registers per
#: SM (512 per lane per scheduler).  Its register file is proportionally
#: smaller per wave slot than CDNA's, so the derived fused-kernel
#: occupancy loss is 25% rather than the MI210's 12.5%.
H100_PLATFORM = Platform(
    name="h100",
    gpu=GpuSpec(
        name="H100",
        num_cus=132,
        wave_size=32,
        simds_per_cu=4,
        max_waves_per_simd=16,
        vgprs_per_simd=512,
        vgpr_granule=8,
        lds_per_cu=228 * 1024,
        max_wgs_per_cu=32,
        fp32_flops=67.0e12,
        fp16_flops=989.0e12,
        hbm_bandwidth=3350 * GB_PER_S,
        hbm_capacity=80 * GIB,
        hbm_concurrency=MI210.hbm_concurrency,
        hbm_efficiency=MI210.hbm_efficiency,
        kernel_launch_overhead=10 * US,
        wg_dispatch_overhead=0.2 * US,
        shmem_api_latency=0.8 * US,
        flag_op_latency=0.1 * US,
    ),
    link=LinkSpec(bandwidth=150 * GB_PER_S, latency=0.3 * US,
                  name="NVLink4"),
    nic=NicSpec(bandwidth=50 * GB_PER_S, latency=1.0 * US,
                message_overhead=0.25 * US, name="InfiniBand-NDR"),
    gpus_per_node=8,
)

#: The built-in entries (immutable; the name-collapsing contract of
#: :meth:`Platform.param` applies to exactly these).
_BUILTIN: Dict[str, Platform] = {
    p.name: p for p in (MI210_PLATFORM, MI250X_PLATFORM,
                        MI300X_PLATFORM, H100_PLATFORM)
}

#: Name → platform.  Mutated only through :func:`register_platform`.
CATALOG: Dict[str, Platform] = dict(_BUILTIN)

#: The default everywhere a ``platform`` is optional — the calibrated
#: device, so omitting the argument reproduces the paper bit for bit.
DEFAULT_PLATFORM = "mi210"

#: Anything :func:`get_platform` resolves.
PlatformLike = Union[None, str, Platform, Mapping[str, Any]]


def register_platform(platform: Platform,
                      overwrite: bool = False) -> Platform:
    """Add a platform to the catalog for name-based lookup.

    Built-in names can never be rebound (``overwrite`` or not): scenario
    store keys hash those bare names as content addresses, so swapping
    their meaning would silently poison every cached result.
    """
    if platform.name in _BUILTIN and platform != _BUILTIN[platform.name]:
        raise ValueError(
            f"platform {platform.name!r} is a built-in catalog entry and "
            f"cannot be replaced (its name is a cache content address)")
    if platform.name in CATALOG and not overwrite:
        raise ValueError(f"platform {platform.name!r} already registered")
    CATALOG[platform.name] = platform
    return platform


def get_platform(value: PlatformLike = None) -> Platform:
    """Resolve a platform from a name, mapping, instance, or ``None``.

    ``None`` resolves to the calibrated default (:data:`DEFAULT_PLATFORM`);
    a mapping is interpreted as :meth:`Platform.to_params` output — the
    form scenario parameters carry for non-catalog devices.
    """
    if value is None:
        return CATALOG[DEFAULT_PLATFORM]
    if isinstance(value, Platform):
        return value
    if isinstance(value, str):
        try:
            return CATALOG[value]
        except KeyError:
            raise KeyError(
                f"unknown platform {value!r}; registered: "
                f"{sorted(CATALOG)}") from None
    if isinstance(value, Mapping):
        return Platform.from_params(value)
    raise TypeError(f"cannot resolve a platform from {type(value).__name__}")


def list_platforms() -> List[Platform]:
    """Catalog entries in name order."""
    return [CATALOG[name] for name in sorted(CATALOG)]


def generic(name: str = "generic",
            base: Optional[GpuSpec] = None,
            link: Optional[LinkSpec] = None,
            nic: Optional[NicSpec] = None,
            gpus_per_node: int = 4,
            nics_per_node: int = 1,
            **gpu_overrides: Any) -> Platform:
    """A fully parameterized device: any :class:`GpuSpec` field as kwargs.

    ``base`` is the microarchitecture template (default: the calibrated
    MI210) and ``gpu_overrides`` replace individual fields::

        generic("big-hbm", hbm_bandwidth=4e12, num_cus=200)

    Link/NIC default to the Table I fabric unless replaced wholesale.
    """
    spec = (base if base is not None else MI210)
    if gpu_overrides:
        gpu_overrides.setdefault("name", name)
        spec = spec.with_overrides(**gpu_overrides)
    elif spec.name == MI210.name:
        spec = spec.with_overrides(name=name)
    return Platform(name=name, gpu=spec,
                    link=link if link is not None else IF_LINK,
                    nic=nic if nic is not None else IB_NIC,
                    gpus_per_node=gpus_per_node,
                    nics_per_node=nics_per_node)
