"""DLRM training-iteration graphs (the paper's Fig. 15 workload).

Builds the per-node execution DAG of one hybrid-parallel DLRM training pass
(model-parallel embeddings + data-parallel MLPs, Table II parameters), with
per-kernel durations taken from this library's GPU model — the same
methodology as the paper, which fed MI210-profiled kernel times into
ASTRA-Sim.

Baseline graph (forward then backward)::

    bottom_mlp ─┐
    embed_fwd ──► a2a_fwd ──► interact_top_fwd ──► top_inter_bwd ─► a2a_bwd
                                                   (wgrad_allreduce ∥ ...)
    a2a_bwd ──► embed_bwd ; bottom_bwd

Fused graph: each (embedding, All-to-All) pair collapses into one ``fused``
node of duration ``max(embedding', a2a) + eps`` where ``embedding'`` is the
pooling time at the fused kernel's platform-derived occupancy (87.5% on
the calibrated MI210) — WG-granular overlap inside a single persistent
kernel (paper Section IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analytic.device import device_model
from ..hw.gpu import Gpu, bulk_kernel_time, task_time
from ..hw.platform import PlatformLike
from ..models.configs import DlrmModelConfig
from ..ops.embedding import embedding_wg_cost
from ..ops.mlp import mlp_time_on_gpu
from .graph import ExecutionGraph
from .network import TorusNetwork

__all__ = ["DlrmIterationTimes", "compute_kernel_times", "build_dlrm_graph"]

#: Share of the Table II MLP stack in the bottom (dense) MLP; the rest is
#: the top (interaction) MLP.  DLRM tops are much deeper than bottoms.
_BOTTOM_FRACTION = 0.3
#: MLP backward is ~2x forward (dgrad + wgrad GEMMs).
_BWD_FACTOR = 2.0
#: Embedding backward (scatter-add of gradient rows) moves the same bytes
#: as forward pooling (no dgrad GEMM exists for an embedding bag) but pays
#: atomic-collision serialization on popular rows.
_EMBED_BWD_FACTOR = 1.5
#: Extra time a fused kernel adds over max(comp, comm): bookkeeping,
#: API latency, flag polling.
_FUSED_OVERHEAD = 0.02


@dataclass(frozen=True)
class DlrmIterationTimes:
    """Per-kernel durations (seconds) for one node's training iteration."""

    bottom_fwd: float
    embed_fwd: float
    a2a_fwd: float
    inter_top_fwd: float
    top_inter_bwd: float
    a2a_bwd: float
    embed_bwd: float
    bottom_bwd: float
    wgrad_allreduce: float
    embed_fused_fwd: float   #: pooling at the fused kernel's occupancy
    embed_fused_bwd: float


def compute_kernel_times(model: DlrmModelConfig, network: TorusNetwork,
                         gpu: Optional[Gpu] = None,
                         platform: PlatformLike = None) -> DlrmIterationTimes:
    """Every kernel time of the iteration, from the shared device closed
    forms of :mod:`repro.hw.gpu`.

    ``gpu`` is the device they are evaluated on: a simulated
    :class:`~repro.hw.gpu.Gpu`, or by default the memoized
    :class:`~repro.analytic.DeviceModel` of ``platform`` (default: the
    calibrated MI210 platform).  Both give the same times to the bit.
    """
    model.validate()
    if gpu is None:
        gpu = device_model(platform)
    p = network.num_nodes
    global_batch = model.local_batch * p
    tables_here = max(1, round(model.tables_per_node(p)))

    # MLP stacks (data parallel: local batch).
    n_bottom = max(1, int(model.mlp_layers * _BOTTOM_FRACTION))
    n_top = max(1, model.mlp_layers - n_bottom)
    bottom_sizes = [model.mlp_avg_size] * (n_bottom + 1)
    top_sizes = [model.mlp_avg_size] * (n_top + 1)
    bottom_fwd = mlp_time_on_gpu(gpu, model.local_batch, bottom_sizes)
    top_fwd = mlp_time_on_gpu(gpu, model.local_batch, top_sizes)

    # Embedding pooling (model parallel: global batch x local tables).
    n_vectors = global_batch * tables_here
    cost = embedding_wg_cost(model.avg_pooling, model.embedding_dim)
    embed_fwd = bulk_kernel_time(gpu, n_vectors, cost, gpu.base_res)
    # Fused kernel: same pooling at the fused footprint's derived occupancy
    # (87.5% on the calibrated MI210 — the paper's register-pressure loss —
    # and whatever the register-file geometry yields elsewhere), single
    # launch.
    fused_occ = gpu.occupancy(gpu.fused_res)
    rounds = max(1.0, n_vectors / fused_occ.resident_wgs)
    embed_fused_fwd = (gpu.spec.kernel_launch_overhead
                       + task_time(gpu, cost, fused_occ, rounds))

    # Collectives.
    a2a = network.alltoall_time(model.alltoall_bytes_per_node())
    mlp_params = sum(a * b for a, b in zip(bottom_sizes, bottom_sizes[1:]))
    mlp_params += sum(a * b for a, b in zip(top_sizes, top_sizes[1:]))
    wgrad_ar = network.allreduce_time(4.0 * mlp_params)

    return DlrmIterationTimes(
        bottom_fwd=bottom_fwd,
        embed_fwd=embed_fwd,
        a2a_fwd=a2a,
        inter_top_fwd=top_fwd,
        top_inter_bwd=_BWD_FACTOR * top_fwd,
        a2a_bwd=a2a,
        embed_bwd=_EMBED_BWD_FACTOR * embed_fwd,
        bottom_bwd=_BWD_FACTOR * bottom_fwd,
        wgrad_allreduce=wgrad_ar,
        embed_fused_fwd=embed_fused_fwd,
        embed_fused_bwd=_EMBED_BWD_FACTOR * embed_fused_fwd,
    )


def build_dlrm_graph(times: DlrmIterationTimes,
                     fused: bool) -> ExecutionGraph:
    """One training iteration as an execution DAG."""
    g = ExecutionGraph()
    if not fused:
        g.add("bottom_fwd", "comp", times.bottom_fwd)
        g.add("embed_fwd", "comp", times.embed_fwd)
        g.add("a2a_fwd", "net", times.a2a_fwd, deps=["embed_fwd"])
        g.add("inter_top_fwd", "comp", times.inter_top_fwd,
              deps=["a2a_fwd", "bottom_fwd"])
        g.add("top_inter_bwd", "comp", times.top_inter_bwd,
              deps=["inter_top_fwd"])
        g.add("a2a_bwd", "net", times.a2a_bwd, deps=["top_inter_bwd"])
        g.add("embed_bwd", "comp", times.embed_bwd, deps=["a2a_bwd"])
        g.add("bottom_bwd", "comp", times.bottom_bwd, deps=["top_inter_bwd"])
        g.add("wgrad_allreduce", "net", times.wgrad_allreduce,
              deps=["top_inter_bwd", "bottom_bwd"])
    else:
        fused_fwd = (max(times.embed_fused_fwd, times.a2a_fwd)
                     * (1.0 + _FUSED_OVERHEAD))
        fused_bwd = (max(times.embed_fused_bwd, times.a2a_bwd)
                     * (1.0 + _FUSED_OVERHEAD))
        g.add("bottom_fwd", "comp", times.bottom_fwd)
        g.add("fused_embed_a2a_fwd", "fused", fused_fwd)
        g.add("inter_top_fwd", "comp", times.inter_top_fwd,
              deps=["fused_embed_a2a_fwd", "bottom_fwd"])
        g.add("top_inter_bwd", "comp", times.top_inter_bwd,
              deps=["inter_top_fwd"])
        g.add("fused_a2a_embed_bwd", "fused", fused_bwd,
              deps=["top_inter_bwd"])
        g.add("bottom_bwd", "comp", times.bottom_bwd, deps=["top_inter_bwd"])
        g.add("wgrad_allreduce", "net", times.wgrad_allreduce,
              deps=["top_inter_bwd", "bottom_bwd"])
    return g
