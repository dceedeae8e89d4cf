"""Scale-out DLRM training runner (paper Fig. 15).

Fully closed-form — roofline kernel times plus list-scheduled execution
graphs, no event loop — so both evaluation backends (the DES experiments
and :mod:`repro.analytic`) share this code and agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..hw.platform import PlatformLike
from ..models.configs import TABLE2_DLRM, TABLE2_TORUS, DlrmModelConfig, \
    TorusNetworkConfig
from .network import TorusNetwork
from .workloads import build_dlrm_graph, compute_kernel_times

__all__ = ["ScaleOutResult", "run_dlrm_scaleout", "sweep_node_counts"]


@dataclass(frozen=True)
class ScaleOutResult:
    """Outcome of one scale-out comparison."""

    num_nodes: int
    baseline_time: float
    fused_time: float
    baseline_spans: Dict[str, Tuple[float, float]]
    fused_spans: Dict[str, Tuple[float, float]]

    @property
    def normalized(self) -> float:
        return self.fused_time / self.baseline_time

    @property
    def reduction_pct(self) -> float:
        return 100.0 * (1.0 - self.normalized)

    def exposed_a2a_fraction(self) -> float:
        """Share of the baseline iteration spent in All-to-All (it is fully
        exposed there — nothing overlaps it)."""
        a2a = sum(e - s for name, (s, e) in self.baseline_spans.items()
                  if name.startswith("a2a"))
        return a2a / self.baseline_time


def run_dlrm_scaleout(num_nodes: int = 128,
                      model: Optional[DlrmModelConfig] = None,
                      net_cfg: Optional[TorusNetworkConfig] = None,
                      platform: PlatformLike = None) -> ScaleOutResult:
    """Simulate one DLRM training pass, baseline vs fused.

    ``platform`` selects the per-node GPU that kernel times are profiled
    on (default: the calibrated MI210); the torus network stays governed
    by ``net_cfg``.
    """
    if num_nodes < 2:
        raise ValueError("scale-out needs at least 2 nodes")
    model = model if model is not None else TABLE2_DLRM
    net_cfg = net_cfg if net_cfg is not None else TABLE2_TORUS
    network = TorusNetwork.square_ish(num_nodes, net_cfg)
    times = compute_kernel_times(model, network, platform=platform)
    base_total, base_spans = build_dlrm_graph(times, fused=False).simulate()
    fused_total, fused_spans = build_dlrm_graph(times, fused=True).simulate()
    return ScaleOutResult(num_nodes=num_nodes, baseline_time=base_total,
                          fused_time=fused_total,
                          baseline_spans=base_spans,
                          fused_spans=fused_spans)


def sweep_node_counts(node_counts: List[int] = (16, 32, 64, 128),
                      model: Optional[DlrmModelConfig] = None,
                      net_cfg: Optional[TorusNetworkConfig] = None,
                      platform: PlatformLike = None) -> List[ScaleOutResult]:
    """The Fig. 15 series: normalized time across system sizes."""
    return [run_dlrm_scaleout(n, model=model, net_cfg=net_cfg,
                              platform=platform)
            for n in node_counts]
