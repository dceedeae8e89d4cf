"""Per-figure experiment definitions — one function per paper table/figure.

Each function regenerates the corresponding evaluation artifact on the
simulated substrate and returns a :class:`~repro.bench.harness.FigureResult`
whose rows mirror the paper's x-axis configurations; its ``render()`` is
the paper-vs-measured comparison.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..fused.base import OpHarness
from ..fused.embedding_alltoall import (
    BaselineEmbeddingAllToAll,
    EmbeddingA2AConfig,
    FusedEmbeddingAllToAll,
)
from ..fused.gemm_alltoall import (
    BaselineGemmAllToAll,
    FusedGemmAllToAll,
    GemmA2AConfig,
)
from ..fused.gemv_allreduce import (
    BaselineGemvAllReduce,
    FusedGemvAllReduce,
    GemvAllReduceConfig,
)
from ..astra import run_dlrm_scaleout, sweep_node_counts
from ..hw.platform import PlatformLike, get_platform, \
    max_occupancy_of_baseline
from ..models.configs import TABLE2_DLRM, TABLE2_TORUS
from ..sim import TraceRecorder
from .harness import FigureResult, Row, compare

__all__ = [
    "table1_setup",
    "table2_setup",
    "fig8_embedding_a2a_intranode",
    "fig9_gemv_allreduce",
    "fig10_gemm_a2a",
    "fig11_wg_timeline",
    "fig12_embedding_a2a_internode",
    "fig13_occupancy_sweep",
    "fig14_scheduling_skew",
    "fig15_scaleout",
]

#: Default sweep grids (paper configuration labels: {batch | tables/GPU}).
FIG8_GRID: Sequence[Tuple[int, int]] = (
    (512, 64), (512, 256), (1024, 64), (1024, 256),
    (2048, 64), (2048, 256), (4096, 64), (4096, 256),
)
FIG12_GRID: Sequence[Tuple[int, int]] = (
    (256, 64), (256, 256), (512, 256), (1024, 64), (1024, 256),
    (2048, 256), (4096, 64), (4096, 256),
)
FIG9_GRID: Sequence[Tuple[int, int]] = (
    (8192, 8192), (8192, 16384), (16384, 8192), (16384, 16384),
    (32768, 8192), (32768, 16384), (65536, 8192), (65536, 16384),
)
FIG10_GRID: Sequence[Tuple[int, int, int]] = (
    (2048, 4096, 8192), (4096, 4096, 8192), (8192, 4096, 8192),
    (4096, 4096, 14336), (8192, 4096, 14336),
)


def table1_setup(platform: PlatformLike = None) -> FigureResult:
    """Table I: the simulated system's configuration (per platform)."""
    p = get_platform(platform)
    gpu, link, nic = p.gpu, p.link, p.nic
    res = FigureResult("Table I", "System setup (simulated substrate)")
    res.extra.update({
        "GPU": f"{gpu.name} model: {gpu.num_cus} CUs, "
               f"{gpu.hbm_bandwidth / 1e12:.2f} TB/s HBM, "
               f"{gpu.fp32_flops / 1e12:.1f}/{gpu.fp16_flops / 1e12:.0f} "
               f"TFLOP/s fp32/fp16",
        "Scale-up": f"{p.gpus_per_node} GPUs fully connected, "
                    f"{link.bandwidth / 1e9:.0f} GB/s "
                    f"{link.name} per link",
        "Scale-out": f"2 nodes x1 GPU over {nic.bandwidth / 1e9:.0f} GB/s "
                     f"{nic.name}",
        "Software": "repro SHMEM-like GPU-initiated comm + RCCL-like "
                    "baseline collectives",
    })
    return res


def table2_setup() -> FigureResult:
    """Table II: scale-out simulation parameters."""
    res = FigureResult("Table II", "Scale-out simulation setup")
    res.extra.update({
        "Embedding dimension": TABLE2_DLRM.embedding_dim,
        "MLP layers": f"avg size {TABLE2_DLRM.mlp_avg_size}, "
                      f"#layers {TABLE2_DLRM.mlp_layers}",
        "Avg pooling size": TABLE2_DLRM.avg_pooling,
        "Topology": f"2D torus, "
                    f"{TABLE2_TORUS.link_bandwidth * 8 / 1e9:.0f} Gb/s "
                    f"links, {TABLE2_TORUS.link_latency * 1e9:.0f} ns",
    })
    return res


def _embedding_figure(grid, num_nodes, gpus_per_node, figure, description,
                      paper_mean, paper_best,
                      platform: PlatformLike = None) -> FigureResult:
    res = FigureResult(figure, description, paper_mean=paper_mean,
                       paper_best=paper_best)
    for batch, tables in grid:
        cfg = EmbeddingA2AConfig(global_batch=batch, tables_per_gpu=tables,
                                 functional=False)
        res.add(compare(
            cfg.label,
            lambda h, cfg=cfg: FusedEmbeddingAllToAll(h, cfg),
            lambda h, cfg=cfg: BaselineEmbeddingAllToAll(h, cfg),
            num_nodes=num_nodes, gpus_per_node=gpus_per_node,
            platform=platform))
    return res


def fig8_embedding_a2a_intranode(grid=FIG8_GRID,
                                 platform: PlatformLike = None
                                 ) -> FigureResult:
    """Fig. 8: zero-copy fused embedding + A2A, 4 GPUs intra-node."""
    return _embedding_figure(
        grid, num_nodes=1, gpus_per_node=4, figure="Fig. 8",
        description="Normalized execution time, intra-node embedding+A2A",
        paper_mean=0.80, paper_best=0.68, platform=platform)


def fig12_embedding_a2a_internode(grid=FIG12_GRID,
                                  platform: PlatformLike = None
                                  ) -> FigureResult:
    """Fig. 12: fused embedding + A2A across 2 IB-connected nodes."""
    return _embedding_figure(
        grid, num_nodes=2, gpus_per_node=1, figure="Fig. 12",
        description="Normalized execution time, inter-node embedding+A2A",
        paper_mean=0.69, paper_best=0.42, platform=platform)


def fig9_gemv_allreduce(grid=FIG9_GRID, world: int = 4,
                        platform: PlatformLike = None) -> FigureResult:
    """Fig. 9: zero-copy fused GEMV + AllReduce, 4 GPUs."""
    res = FigureResult("Fig. 9",
                       "Normalized execution time, GEMV+AllReduce",
                       paper_mean=0.87, paper_best=0.78)
    for m, n_total in grid:
        cfg = GemvAllReduceConfig(m=m, n_per_gpu=n_total // world,
                                  functional=False)
        res.add(compare(
            cfg.label,
            lambda h, cfg=cfg: FusedGemvAllReduce(h, cfg),
            lambda h, cfg=cfg: BaselineGemvAllReduce(h, cfg),
            num_nodes=1, gpus_per_node=world, platform=platform))
    return res


def fig10_gemm_a2a(grid=FIG10_GRID, world: int = 4,
                   platform: PlatformLike = None) -> FigureResult:
    """Fig. 10: fused GEMM + A2A (Triton extension), 4 GPUs."""
    res = FigureResult("Fig. 10",
                       "Normalized execution time, GEMM+All-to-All",
                       paper_mean=0.88, paper_best=0.80)
    for tokens, model_dim, ffn in grid:
        cfg = GemmA2AConfig(tokens=tokens, model_dim=model_dim, ffn_dim=ffn,
                            functional=False)
        res.add(compare(
            cfg.label,
            lambda h, cfg=cfg: FusedGemmAllToAll(h, cfg),
            lambda h, cfg=cfg: BaselineGemmAllToAll(h, cfg),
            num_nodes=1, gpus_per_node=world, platform=platform))
    return res


def fig11_wg_timeline(batch: int = 512, tables: int = 32,
                      wgs_per_slice: int = 16,
                      timeline_width: int = 100,
                      platform: PlatformLike = None) -> FigureResult:
    """Fig. 11: persistent-WG execution timeline with put-issue markers.

    The paper profiles batch 2048, tables/GPU 256, slices of 16 WGs on the
    2-node setup, showing non-blocking PUTs issued mid-kernel, mostly by
    the last WG of each 16-WG cluster, ahead of local-slice computation.
    The default here scales the batch/tables down (the timeline shape is
    size-independent) so the trace stays small; pass the paper's values to
    reproduce it at full size.
    """
    trace = TraceRecorder()
    cfg = EmbeddingA2AConfig(global_batch=batch, tables_per_gpu=tables,
                             functional=False, slice_vectors=wgs_per_slice,
                             tasks_per_slice=wgs_per_slice)
    h = OpHarness(num_nodes=2, gpus_per_node=1, trace=trace,
                  platform=platform)
    result = h.run(FusedEmbeddingAllToAll(h, cfg))

    res = FigureResult("Fig. 11",
                       "Profiled timeline of persistent WGs (node 0)")
    puts = trace.filter(kind="put_issue",
                        predicate=lambda e: e.actor.startswith("gpu0"))
    [kernel_span] = [s for s in trace.spans("kernel")
                     if s.detail.get("kernel") == "fused_emb_a2a[0]"]
    kspan = kernel_span.end - kernel_span.start
    first_put = min(p.time for p in puts) - kernel_span.start
    last_put = max(p.time for p in puts) - kernel_span.start
    res.extra.update({
        "kernel_time": f"{kspan * 1e3:.3f} ms",
        "puts_issued_node0": len(puts),
        "first_put_at": f"{100 * first_put / kspan:.1f}% of kernel",
        "last_put_at": f"{100 * last_put / kspan:.1f}% of kernel",
        "elapsed": f"{result.elapsed * 1e3:.3f} ms",
    })
    actors = [f"gpu0/wg{i}" for i in range(0, 32)]
    res.extra["timeline"] = "\n" + trace.render_timeline(
        actors=actors, width=timeline_width)
    return res


#: The paper's Fig. 13 x-axis (fractions of *baseline* occupancy; the
#: last point is the MI210 fused kernel's register-pressure maximum).
FIG13_FRACTIONS: Sequence[float] = (0.25, 0.375, 0.5, 0.625, 0.75, 0.875)


def occupancy_fractions_for(platform: PlatformLike,
                            fractions: Optional[Sequence[float]] = None
                            ) -> Sequence[float]:
    """Resolve a Fig. 13 fraction grid against a platform's fused maximum.

    ``None`` means the paper's default grid clipped to what the
    platform's derived fused footprint can actually reach (on the MI210
    the grid passes through unchanged).  Explicit fractions are the
    caller's responsibility and pass through untouched.
    """
    if fractions is not None:
        return fractions
    max_frac = max_occupancy_of_baseline(get_platform(platform).gpu)
    return tuple(f for f in FIG13_FRACTIONS if f <= max_frac + 1e-9)


def fig13_occupancy_sweep(batch: int = 1024, tables: int = 256,
                          fractions: Optional[Sequence[float]] = None,
                          platform: PlatformLike = None) -> FigureResult:
    """Fig. 13: fused-kernel execution time across occupancy settings.

    x-axis is occupancy relative to the *baseline* kernel; 87.5% is the
    fused kernel's register-pressure maximum on the calibrated MI210 (the
    derived footprint of other platforms differs, and the default grid
    clips to each platform's own maximum).
    """
    fractions = occupancy_fractions_for(platform, fractions)
    res = FigureResult("Fig. 13", "Impact of WG occupancy on execution time")
    times = {}
    for frac in fractions:
        cfg = EmbeddingA2AConfig(global_batch=batch, tables_per_gpu=tables,
                                 functional=False,
                                 occupancy_of_baseline=frac)
        h = OpHarness(num_nodes=2, gpus_per_node=1, platform=platform)
        times[frac] = h.run(FusedEmbeddingAllToAll(h, cfg)).elapsed
    t_max = max(times.values())
    for frac in fractions:
        # Report as "fused time at occupancy f" vs the worst point, the
        # paper's bar-chart semantics (relative execution time).
        res.add(Row(label=f"{100 * frac:.1f}%", fused_time=times[frac],
                    baseline_time=t_max))
    if 0.25 in times and 0.75 in times and 0.875 in times:
        res.extra["reduction_25_to_75"] = (
            f"{100 * (1 - times[0.75] / times[0.25]):.1f}% "
            f"(paper: 46%)")
        res.extra["increase_75_to_875"] = (
            f"{100 * (times[0.875] / times[0.75] - 1):.1f}% "
            f"(paper: 25%)")
    return res


def fig14_scheduling_skew(grid: Sequence[Tuple[int, int]] = (
        (1024, 64), (2048, 32), (2048, 64)),
        platform: PlatformLike = None) -> FigureResult:
    """Fig. 14: per-node completion skew, comm-aware vs oblivious."""
    res = FigureResult(
        "Fig. 14", "Node execution-time skew by scheduling policy")
    skews = {"comm_aware": [], "oblivious": []}
    for sched in ("comm_aware", "oblivious"):
        for batch, tables in grid:
            cfg = EmbeddingA2AConfig(global_batch=batch,
                                     tables_per_gpu=tables,
                                     functional=False, scheduler=sched)
            h = OpHarness(num_nodes=2, gpus_per_node=1, platform=platform)
            out = h.run(FusedEmbeddingAllToAll(h, cfg))
            ends = out.stats["rank_end_times"]
            skew = abs(ends[0] - ends[1]) / max(ends.values())
            skews[sched].append(skew)
            res.add(Row(label=f"{sched} {batch}|{tables}",
                        fused_time=ends[0], baseline_time=ends[1]))
    res.extra["avg_skew_comm_aware"] = (
        f"{100 * sum(skews['comm_aware']) / len(skews['comm_aware']):.2f}% "
        f"(paper: ~1%)")
    res.extra["avg_skew_oblivious"] = (
        f"{100 * sum(skews['oblivious']) / len(skews['oblivious']):.2f}% "
        f"(paper: ~7%)")
    res.extra["skews"] = skews
    return res


def fig15_scaleout(node_counts: Sequence[int] = (16, 32, 64, 128),
                   platform: PlatformLike = None) -> FigureResult:
    """Fig. 15: full DLRM training pass at scale (ASTRA-style)."""
    res = FigureResult(
        "Fig. 15", "Scale-out DLRM training, fused vs baseline",
        paper_mean=0.79)
    for r in sweep_node_counts(list(node_counts), platform=platform):
        res.add(Row(label=f"{r.num_nodes} nodes", fused_time=r.fused_time,
                    baseline_time=r.baseline_time))
    r128 = run_dlrm_scaleout(128, platform=platform)
    res.extra["reduction_128_nodes"] = (
        f"{r128.reduction_pct:.1f}% (paper: ~21%)")
    res.extra["baseline_exposed_a2a_128"] = (
        f"{100 * r128.exposed_a2a_fraction():.0f}% "
        f"(motivation claim: >35%)")
    return res
