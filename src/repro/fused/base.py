"""Shared machinery for fused computation-collective operators.

Every operator in this package comes in two flavours sharing one workload
definition:

* ``Fused*`` — the paper's contribution: a single persistent kernel per rank
  in which workgroups communicate their output fragments as soon as they are
  computed (GPU-initiated, intra-kernel).
* ``baseline_*`` — the comparison point: bulk-synchronous compute kernel(s)
  followed by an RCCL-like collective kernel.

Both run inside the same simulated cluster and, in *functional* mode,
produce numerically identical outputs (verified by the integration tests).
In *timing-only* mode (``functional=False``) the NumPy payloads are skipped
so paper-scale configurations run quickly; all simulated-time behaviour is
unchanged.

Each operator also has a closed-form *analytic* twin
(:mod:`repro.analytic.ops`) predicting the same elapsed times without the
event loop — thousands of scenarios per second for design-space sweeps,
held to an accuracy budget against these simulated operators by
``python -m repro validate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..comm.runtime import Communicator
from ..hw.gpu import GpuSpec, KernelResources
from ..hw.platform import (
    Platform,
    PlatformLike,
    derived_baseline_resources,
    derived_fused_resources,
    get_platform,
)
from ..hw.topology import Cluster
from ..obs.capture import harness_trace
from ..obs.metrics import get_metrics
from ..sim import Simulator, TraceRecorder

__all__ = ["OpResult", "OpHarness", "fused_kernel_resources",
           "baseline_kernel_resources"]


def baseline_kernel_resources(
        spec: Optional[GpuSpec] = None) -> KernelResources:
    """Resource descriptor of a baseline (non-communicating) kernel.

    Derived from the device's occupancy model (see
    :mod:`repro.hw.platform`): 256-thread WGs at the largest VGPR budget
    that still fills every wave slot.  ``spec`` defaults to the calibrated
    default platform's GPU.
    """
    if spec is None:
        spec = get_platform().gpu
    return derived_baseline_resources(spec)


def fused_kernel_resources(spec: Optional[GpuSpec] = None) -> KernelResources:
    """Resource descriptor of a fused kernel (extra comm registers).

    The communication state costs :data:`repro.hw.platform.COMM_VGPRS`
    registers/thread on every device; what occupancy that buys depends on
    the device's register-file geometry — 87.5% on the calibrated MI210
    (the paper's reported 12.5% loss, Section III-C), and correspondingly
    different on other platforms.
    """
    if spec is None:
        spec = get_platform().gpu
    return derived_fused_resources(spec)


@dataclass
class OpResult:
    """Outcome of running an operator end-to-end on a cluster."""

    elapsed: float                         #: simulated seconds, launch → done
    outputs: Optional[List[np.ndarray]]    #: per-rank outputs (functional mode)
    stats: Dict[str, Any] = field(default_factory=dict)

    def normalized_to(self, baseline: "OpResult") -> float:
        """This result's time as a fraction of the baseline's (paper y-axis)."""
        if baseline.elapsed <= 0:
            raise ValueError("baseline elapsed time must be positive")
        return self.elapsed / baseline.elapsed


class OpHarness:
    """Owns the simulator/cluster/communicator for one operator run.

    Operators are single-shot: build a fresh harness per measurement so the
    simulated clock starts at zero and link statistics are clean.
    """

    def __init__(self, num_nodes: int = 1, gpus_per_node: int = 4,
                 trace: Optional[TraceRecorder] = None,
                 cpu_proxy: bool = False,
                 platform: PlatformLike = None):
        self.sim = Simulator()
        # ``None`` normally means NULL_TRACE; inside an active
        # ``repro.obs.capture.TraceCapture`` it means "give me a live
        # recorder and register it" — how `python -m repro trace` profiles
        # runners that never heard of tracing.
        self.trace = harness_trace(trace)
        self.platform: Platform = get_platform(platform)
        from ..hw.topology import build_cluster
        self.cluster: Cluster = build_cluster(
            self.sim, num_nodes=num_nodes, gpus_per_node=gpus_per_node,
            platform=self.platform, trace=self.trace)
        self.comm = Communicator(self.cluster, cpu_proxy=cpu_proxy)

    @property
    def world_size(self) -> int:
        return self.cluster.world_size

    def run(self, op) -> OpResult:
        """Execute an operator (anything with ``.run()`` returning a
        generator of per-rank outputs) and measure elapsed simulated time.

        While the run-metrics registry is live, the run's puts and fabric
        transfers are added to it as ``comm.puts`` and ``fabric.transfers``,
        read once from the per-object counters the hot paths keep.
        """
        m = get_metrics()
        if m.enabled:
            puts, transfers = self._traffic()
        start = self.sim.now
        outputs = self.sim.run_process(op.run(), name=type(op).__name__)
        if m.enabled:
            puts_after, transfers_after = self._traffic()
            m.inc("comm.puts", puts_after - puts)
            m.inc("fabric.transfers", transfers_after - transfers)
        return OpResult(elapsed=self.sim.now - start, outputs=outputs,
                        stats=getattr(op, "stats", {}))

    def _traffic(self) -> Tuple[int, int]:
        """(SHMEM puts issued, fabric/NIC/switch transfers started) so far."""
        return (sum(ctx.puts_issued for ctx in self.comm.ctxs),
                self.cluster.transfers())
