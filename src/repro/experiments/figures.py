"""The paper's evaluation as registered sweeps.

Every paper table and figure (Tables I–II, Figs. 8–15), every ablation and
the extension/design-space grids are expressed here as a
:class:`~repro.experiments.specs.SweepSpec`: a list of independent
scenarios (one simulation — or one fused/baseline pair — each) plus an
assembler that builds the :class:`FigureResult` (worst-point
normalization, skew statistics, paper-comparison strings).  This is the
only figure pipeline; ``tests/experiments/test_figure_golden.py`` pins
its assembled output.  Each runner dispatches on the ``backend`` scenario
parameter: the default discrete-event engine, or the closed-form analytic
engine (:mod:`repro.analytic`) that evaluates the same workload thousands
of times faster — the axis behind the large ``dse_*`` design-space
sweeps.  Scenario independence is what buys parallel sharding and
content-addressed caching.

The sweep factories (``fig8_sweep(grid=...)`` etc.) take grid parameters
so tests and users can build reduced or enlarged variants:
``run_sweep(fig9_sweep(grid=...)).figure()``.  Module import registers
the paper-default instance of each under its canonical name (``fig8`` …
``fig15``, ``table1/2``, ``ablation-*``, ``ext-embedding-backward``, and
a tiny ``smoke`` sweep for CI), which ``regenerate(name)`` runs.  The
registration holds the factory, not the sweep: each default instance is
built on its first lookup.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bench.harness import FigureResult, Row, compare
from ..fused.base import OpHarness
from ..fused.embedding_alltoall import (
    BaselineEmbeddingAllToAll,
    EmbeddingA2AConfig,
    FusedEmbeddingAllToAll,
)
from ..fused.embedding_grad_alltoall import (
    BaselineEmbeddingGradAllToAll,
    FusedEmbeddingGradAllToAll,
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
from ..hw.platform import PlatformLike, get_platform, \
    max_occupancy_of_baseline
from ..models.configs import TABLE2_DLRM, TABLE2_TORUS
from ..sim import TraceRecorder
from .registry import assembler, register_sweep_factory, runner
from .specs import (
    BACKENDS,
    DEFAULT_BACKEND,
    ScenarioSpec,
    SweepSpec,
    scenario,
)

__all__ = [
    "fig8_sweep", "fig9_sweep", "fig10_sweep", "fig11_sweep", "fig12_sweep",
    "fig13_sweep", "fig14_sweep", "fig15_sweep", "table1_sweep",
    "table2_sweep", "ablation_slice_size_sweep", "ablation_scheduling_sweep",
    "ablation_zero_copy_sweep", "ablation_cpu_proxy_sweep",
    "ext_embedding_backward_sweep", "smoke_sweep", "xhw_embedding_a2a_sweep",
    "xhw_gemv_allreduce_sweep", "xhw_gemm_a2a_sweep", "xhw_scaleout_sweep",
    "xhw_smoke_sweep", "XHW_PLATFORMS", "xalgo_allreduce_sweep",
    "xalgo_alltoall_sweep", "xalgo_smoke_sweep", "XALGO_ALLREDUCE",
    "XALGO_ALLTOALL", "dse_fused_frontier_sweep", "dse_smoke_sweep",
    "DSE_PLATFORMS", "DSE_ALGOS", "trace_smoke_sweep", "FIG8_GRID",
    "FIG9_GRID", "FIG10_GRID", "FIG12_GRID", "FIG13_FRACTIONS",
    "occupancy_fractions_for",
]


def _scenario_backend(p: Dict[str, Any]) -> str:
    """Pop and validate a scenario's evaluation engine.

    Runners branch on the result: ``"sim"`` (the default, represented by
    the parameter's *absence* so pre-backend store keys are unchanged)
    runs the discrete-event simulator, ``"analytic"`` the closed-form
    backend (:mod:`repro.analytic`).
    """
    backend = p.pop("backend", DEFAULT_BACKEND)
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}")
    return backend


def _engine_params(algo: Optional[str] = None,
                   backend: str = DEFAULT_BACKEND) -> Dict[str, str]:
    """The ``algo``/``backend`` scenario parameters with each default left
    out, exactly as :meth:`ScenarioSpec.with_algo`/``with_backend`` would
    leave them, so a single ``scenario(...)`` call encodes the final spec.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}")
    params = {} if backend == DEFAULT_BACKEND else {"backend": backend}
    if algo is not None:
        params["algo"] = algo
    return params


def _platform_param(platform: PlatformLike):
    """Canonical ``platform`` scenario parameter (hashed into store keys).

    Resolving first normalizes every accepted spelling (``None``, name,
    :class:`~repro.hw.platform.Platform`, params mapping) to one stable
    JSON value: the catalog name when the platform is registered, else its
    full params mapping.
    """
    return get_platform(platform).param()

def _reject_algo(p: Dict[str, Any], runner: str) -> None:
    """Fail fast when an ``algo`` parameter reaches a runner with no
    baseline collective to schedule.

    Without this, a sweep-wide ``--algo`` (or a typo'd param) would
    either crash deep inside an analytic twin or — worse — run the
    scenario unchanged and cache an identical result under a new key.
    """
    if "algo" in p:
        raise ValueError(
            f"runner {runner!r} has no baseline collective; the 'algo' "
            f"parameter does not apply (drop --algo / the algo param, "
            f"or use a collective-bearing sweep — see "
            f"`python -m repro algos`)")


#: Hidden-scenario convention: labels starting with this prefix feed a
#: figure's ``extra`` statistics but do not appear as rows.
HIDDEN = "_"


# ----------------------------------------------------------------------
# Scenario runners: one simulation (or fused/baseline pair) per call.
# ----------------------------------------------------------------------

@runner("embedding_a2a_pair")
def _embedding_a2a_pair(params: Dict[str, Any]) -> Dict[str, Any]:
    """Fused vs baseline embedding+A2A on fresh clusters.

    ``params`` holds ``num_nodes``/``gpus_per_node`` plus any
    :class:`EmbeddingA2AConfig` fields; an optional ``baseline`` mapping
    gives the baseline operator its own config fields (the zero-copy
    ablation compares against an unmodified baseline).
    """
    p = dict(params)
    if _scenario_backend(p) == "analytic":
        from ..analytic import predict_embedding_a2a
        return predict_embedding_a2a(**p)
    num_nodes = p.pop("num_nodes")
    gpus_per_node = p.pop("gpus_per_node")
    platform = p.pop("platform", None)
    baseline = p.pop("baseline", None)
    cfg = EmbeddingA2AConfig(functional=False, **p)
    base_cfg = cfg.baseline_config(baseline)
    row = compare(cfg.label,
                  lambda h: FusedEmbeddingAllToAll(h, cfg),
                  lambda h: BaselineEmbeddingAllToAll(h, base_cfg),
                  num_nodes=num_nodes, gpus_per_node=gpus_per_node,
                  platform=platform)
    return {"fused_time": row.fused_time, "baseline_time": row.baseline_time}


@runner("embedding_fused")
def _embedding_fused(params: Dict[str, Any]) -> Dict[str, Any]:
    """A single fused embedding+A2A run (occupancy/scheduling/proxy knobs)."""
    p = dict(params)
    if _scenario_backend(p) == "analytic":
        from ..analytic import predict_embedding_fused
        return predict_embedding_fused(**p)
    num_nodes = p.pop("num_nodes", 2)
    gpus_per_node = p.pop("gpus_per_node", 1)
    cpu_proxy = p.pop("cpu_proxy", False)
    platform = p.pop("platform", None)
    cfg = EmbeddingA2AConfig(functional=False, **p)
    h = OpHarness(num_nodes=num_nodes, gpus_per_node=gpus_per_node,
                  cpu_proxy=cpu_proxy, platform=platform)
    out = h.run(FusedEmbeddingAllToAll(h, cfg))
    return {
        "elapsed": out.elapsed,
        "rank_end_times": {str(r): t
                           for r, t in out.stats["rank_end_times"].items()},
    }


@runner("gemv_allreduce_pair")
def _gemv_allreduce_pair(params: Dict[str, Any]) -> Dict[str, Any]:
    p = dict(params)
    if _scenario_backend(p) == "analytic":
        from ..analytic import predict_gemv_allreduce
        return predict_gemv_allreduce(**p)
    world = p.pop("world", 4)
    platform = p.pop("platform", None)
    cfg = GemvAllReduceConfig(functional=False, **p)
    row = compare(cfg.label,
                  lambda h: FusedGemvAllReduce(h, cfg),
                  lambda h: BaselineGemvAllReduce(h, cfg),
                  num_nodes=1, gpus_per_node=world, platform=platform)
    return {"fused_time": row.fused_time, "baseline_time": row.baseline_time}


@runner("gemm_a2a_pair")
def _gemm_a2a_pair(params: Dict[str, Any]) -> Dict[str, Any]:
    p = dict(params)
    if _scenario_backend(p) == "analytic":
        from ..analytic import predict_gemm_a2a
        return predict_gemm_a2a(**p)
    world = p.pop("world", 4)
    platform = p.pop("platform", None)
    cfg = GemmA2AConfig(functional=False, **p)
    row = compare(cfg.label,
                  lambda h: FusedGemmAllToAll(h, cfg),
                  lambda h: BaselineGemmAllToAll(h, cfg),
                  num_nodes=1, gpus_per_node=world, platform=platform)
    return {"fused_time": row.fused_time, "baseline_time": row.baseline_time}


@runner("embedding_grad_pair")
def _embedding_grad_pair(params: Dict[str, Any]) -> Dict[str, Any]:
    p = dict(params)
    if _scenario_backend(p) == "analytic":
        from ..analytic import predict_embedding_grad_a2a
        return predict_embedding_grad_a2a(**p)
    num_nodes = p.pop("num_nodes", 2)
    gpus_per_node = p.pop("gpus_per_node", 1)
    platform = p.pop("platform", None)
    cfg = EmbeddingA2AConfig(functional=False, **p)
    row = compare(cfg.label,
                  lambda h: FusedEmbeddingGradAllToAll(h, cfg),
                  lambda h: BaselineEmbeddingGradAllToAll(h, cfg),
                  num_nodes=num_nodes, gpus_per_node=gpus_per_node,
                  platform=platform)
    return {"fused_time": row.fused_time, "baseline_time": row.baseline_time}


@runner("wg_timeline")
def _wg_timeline(params: Dict[str, Any]) -> Dict[str, Any]:
    """Fig. 11's traced run: persistent-WG timeline with put-issue markers.

    The paper profiles batch 2048, tables/GPU 256, slices of 16 WGs on the
    2-node setup, showing non-blocking PUTs issued mid-kernel, mostly by
    the last WG of each 16-WG cluster, ahead of local-slice computation.
    The default scales the batch/tables down (the timeline shape is
    size-independent) so the trace stays small.
    """
    p = dict(params)
    _reject_algo(p, "wg_timeline")
    if _scenario_backend(p) == "analytic":
        from ..analytic import predict_wg_timeline
        return predict_wg_timeline(**p)
    batch = params.get("batch", 512)
    tables = params.get("tables", 32)
    wgs_per_slice = params.get("wgs_per_slice", 16)
    timeline_width = params.get("timeline_width", 100)
    trace = TraceRecorder()
    cfg = EmbeddingA2AConfig(global_batch=batch, tables_per_gpu=tables,
                             functional=False, slice_vectors=wgs_per_slice,
                             tasks_per_slice=wgs_per_slice)
    h = OpHarness(num_nodes=2, gpus_per_node=1, trace=trace,
                  platform=params.get("platform"))
    result = h.run(FusedEmbeddingAllToAll(h, cfg))

    puts = trace.filter(kind="put_issue",
                        predicate=lambda e: e.actor.startswith("gpu0"))
    [kernel_span] = [s for s in trace.spans("kernel")
                     if s.detail.get("kernel") == "fused_emb_a2a[0]"]
    actors = [f"gpu0/wg{i}" for i in range(0, 32)]
    from ..analytic.ops import wg_timeline_record
    return wg_timeline_record(
        kernel_span.end - kernel_span.start,
        min(p.time for p in puts) - kernel_span.start,
        max(p.time for p in puts) - kernel_span.start,
        len(puts), result.elapsed,
        trace.render_timeline(actors=actors, width=timeline_width))


@runner("dlrm_scaleout")
def _dlrm_scaleout(params: Dict[str, Any]) -> Dict[str, Any]:
    # The scale-out pipeline (repro.astra) is closed-form already, so both
    # backends share it and agree exactly; the backend parameter only
    # distinguishes the store keys.
    p = dict(params)
    _reject_algo(p, "dlrm_scaleout")
    _scenario_backend(p)
    from ..analytic import predict_dlrm_scaleout
    return predict_dlrm_scaleout(**p)


@runner("table_setup")
def _table_setup(params: Dict[str, Any]) -> Dict[str, Any]:
    """Table I (the simulated system, per platform) or Table II (the
    scale-out simulation parameters) as ``extra`` key/value text."""
    p = dict(params)
    _reject_algo(p, "table_setup")
    _scenario_backend(p)  # table rendering is closed-form on either engine
    if p["which"] == "table1":
        plat = get_platform(p.get("platform"))
        gpu, link, nic = plat.gpu, plat.link, plat.nic
        extra = {
            "GPU": f"{gpu.name} model: {gpu.num_cus} CUs, "
                   f"{gpu.hbm_bandwidth / 1e12:.2f} TB/s HBM, "
                   f"{gpu.fp32_flops / 1e12:.1f}/"
                   f"{gpu.fp16_flops / 1e12:.0f} TFLOP/s fp32/fp16",
            "Scale-up": f"{plat.gpus_per_node} GPUs fully connected, "
                        f"{link.bandwidth / 1e9:.0f} GB/s "
                        f"{link.name} per link",
            "Scale-out": f"2 nodes x1 GPU over "
                         f"{nic.bandwidth / 1e9:.0f} GB/s {nic.name}",
            "Software": "repro SHMEM-like GPU-initiated comm + RCCL-like "
                        "baseline collectives",
        }
    else:
        extra = {
            "Embedding dimension": TABLE2_DLRM.embedding_dim,
            "MLP layers": f"avg size {TABLE2_DLRM.mlp_avg_size}, "
                          f"#layers {TABLE2_DLRM.mlp_layers}",
            "Avg pooling size": TABLE2_DLRM.avg_pooling,
            "Topology": f"2D torus, "
                        f"{TABLE2_TORUS.link_bandwidth * 8 / 1e9:.0f} Gb/s "
                        f"links, {TABLE2_TORUS.link_latency * 1e9:.0f} ns",
        }
    return {"extra": extra}


# ----------------------------------------------------------------------
# Assemblers: scenario results -> the sweep's FigureResult.
# ----------------------------------------------------------------------

def _visible(specs: Sequence[ScenarioSpec], results: Sequence[Dict]):
    return [(s, r) for s, r in zip(specs, results)
            if not s.label.startswith(HIDDEN)]


@assembler("rows")
def _assemble_rows(sweep: SweepSpec, specs, results, figure: str = "",
                   description: str = "", paper_mean=None, paper_best=None
                   ) -> FigureResult:
    """Plain paired rows: one fused/baseline scenario per row."""
    res = FigureResult(figure or sweep.title,
                       description or sweep.description,
                       paper_mean=paper_mean, paper_best=paper_best)
    for spec, result in _visible(specs, results):
        res.add(Row(label=spec.label, fused_time=result["fused_time"],
                    baseline_time=result["baseline_time"]))
    return res


@assembler("table")
def _assemble_table(sweep: SweepSpec, specs, results, figure: str = "",
                    description: str = "") -> FigureResult:
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    res.extra.update(results[0]["extra"])
    return res


@assembler("timeline")
def _assemble_timeline(sweep: SweepSpec, specs, results, figure: str = "",
                       description: str = "") -> FigureResult:
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    # Underscore keys are raw metrics for the diff layer, not part of the
    # figure's display statistics.
    res.extra.update({k: v for k, v in results[0].items()
                      if not k.startswith("_")})
    return res


@assembler("occupancy")
def _assemble_occupancy(sweep: SweepSpec, specs, results, figure: str = "",
                        description: str = "") -> FigureResult:
    """Fig. 13 semantics: each point normalized against the worst point."""
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    times = {spec.params["occupancy_of_baseline"]: result["elapsed"]
             for spec, result in zip(specs, results)}
    t_max = max(times.values())
    for frac in times:
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


@assembler("sched_skew")
def _assemble_sched_skew(sweep: SweepSpec, specs, results, figure: str = "",
                         description: str = "") -> FigureResult:
    """Fig. 14 semantics: per-node completion skew by scheduling policy."""
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    skews: Dict[str, List[float]] = {"comm_aware": [], "oblivious": []}
    for spec, result in zip(specs, results):
        p = spec.params
        ends = result["rank_end_times"]
        skew = abs(ends["0"] - ends["1"]) / max(ends.values())
        skews[p["scheduler"]].append(skew)
        res.add(Row(label=spec.label, fused_time=ends["0"],
                    baseline_time=ends["1"]))
    res.extra["avg_skew_comm_aware"] = (
        f"{100 * sum(skews['comm_aware']) / len(skews['comm_aware']):.2f}% "
        f"(paper: ~1%)")
    res.extra["avg_skew_oblivious"] = (
        f"{100 * sum(skews['oblivious']) / len(skews['oblivious']):.2f}% "
        f"(paper: ~7%)")
    res.extra["skews"] = skews
    return res


def _platform_display(value) -> str:
    """Display name of a canonical ``platform`` scenario parameter."""
    return value if isinstance(value, str) else value.get("name", "custom")


@assembler("xalgo")
def _assemble_xalgo(sweep: SweepSpec, specs, results, figure: str = "",
                    description: str = "") -> FigureResult:
    """Algorithm-axis semantics: one fused/baseline row per (schedule,
    workload) point, plus the cross-schedule aggregates.

    ``baseline_us_by_algo`` reports the mean baseline collective+compute
    time per schedule; ``best_algo_by_point`` names the winning schedule
    per workload point — the "which schedule wins where" answer the
    sweep exists for.
    """
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    by_algo: Dict[str, List[float]] = {}
    by_point: Dict[str, Dict[str, float]] = {}
    for spec, result in _visible(specs, results):
        res.add(Row(label=spec.label, fused_time=result["fused_time"],
                    baseline_time=result["baseline_time"]))
        algo = spec.params.get("algo", "default")
        point = spec.label.split(" ", 1)[-1]
        by_algo.setdefault(algo, []).append(result["baseline_time"])
        by_point.setdefault(point, {})[algo] = result["baseline_time"]
    res.extra["baseline_us_by_algo"] = {
        algo: round(1e6 * sum(v) / len(v), 3)
        for algo, v in sorted(by_algo.items())}
    res.extra["best_algo_by_point"] = {
        point: min(times, key=times.get)
        for point, times in sorted(by_point.items())}
    return res


@assembler("xhw")
def _assemble_xhw(sweep: SweepSpec, specs, results, figure: str = "",
                  description: str = "") -> FigureResult:
    """Cross-hardware semantics: fused/baseline rows per (platform,
    workload) point plus per-platform speedup aggregates.

    ``speedup_by_platform`` reports mean baseline/fused time per platform
    (>1 = the fused operator wins), the headline number of the
    cross-hardware what-if sweeps.
    """
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    by_platform: Dict[str, List[float]] = {}
    for spec, result in _visible(specs, results):
        res.add(Row(label=spec.label, fused_time=result["fused_time"],
                    baseline_time=result["baseline_time"]))
        name = _platform_display(spec.params["platform"])
        by_platform.setdefault(name, []).append(
            result["baseline_time"] / result["fused_time"])
    res.extra["speedup_by_platform"] = {
        name: round(sum(v) / len(v), 4)
        for name, v in by_platform.items()}
    return res


@assembler("dse_frontier")
def _assemble_dse_frontier(sweep: SweepSpec, specs, results, figure: str = "",
                           description: str = "") -> FigureResult:
    """Design-space semantics: per-platform Pareto frontiers of
    (fused latency, fused-over-baseline speedup).

    A global frontier would collapse onto the fastest device; per platform
    is the design question the sweep answers — *on this hardware*, which
    configurations are undominated (no other config is both faster and a
    bigger win)?  Rows are the union of the per-platform frontiers
    (minimize fused time, maximize baseline/fused speedup); the full grid
    stays in the scenario records.  ``extra`` carries the grid size, the
    frontier as raw data, and the globally undominated subset.
    """
    from ..analytic import pareto_frontier
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    grouped: Dict[str, list] = {}
    points = []
    for spec, result in _visible(specs, results):
        point = (spec, result, result["baseline_time"] / result["fused_time"])
        points.append(point)
        grouped.setdefault(_platform_display(spec.params["platform"]),
                           []).append(point)
    objectives = lambda p: (p[1]["fused_time"], -p[2])  # noqa: E731
    by_platform: Dict[str, int] = {}
    frontier_data = []
    for name in sorted(grouped):
        frontier = pareto_frontier(grouped[name], objectives)
        by_platform[name] = len(frontier)
        for spec, result, speedup in frontier:
            res.add(Row(label=spec.label, fused_time=result["fused_time"],
                        baseline_time=result["baseline_time"]))
            frontier_data.append({
                "label": spec.label,
                "fused_us": round(result["fused_time"] * 1e6, 3),
                "speedup": round(speedup, 4),
            })
    global_frontier = pareto_frontier(points, objectives)
    best = max(points, key=lambda p: p[2])
    res.extra["n_scenarios"] = len(points)
    res.extra["n_frontier"] = len(frontier_data)
    res.extra["best_speedup"] = f"{best[2]:.2f}x at {best[0].label}"
    res.extra["frontier_by_platform"] = by_platform
    res.extra["global_frontier"] = sorted(s.label
                                          for s, _r, _x in global_frontier)
    res.extra["frontier"] = frontier_data
    return res


@assembler("scaleout")
def _assemble_scaleout(sweep: SweepSpec, specs, results, figure: str = "",
                       description: str = "", paper_mean=None) -> FigureResult:
    """Fig. 15: node-count rows + the 128-node headline statistics."""
    res = FigureResult(figure or sweep.title,
                       description or sweep.description,
                       paper_mean=paper_mean)
    for spec, result in _visible(specs, results):
        res.add(Row(label=spec.label, fused_time=result["fused_time"],
                    baseline_time=result["baseline_time"]))
    r128 = next(r for s, r in zip(specs, results)
                if s.params["num_nodes"] == 128)
    res.extra["reduction_128_nodes"] = (
        f"{r128['reduction_pct']:.1f}% (paper: ~21%)")
    res.extra["baseline_exposed_a2a_128"] = (
        f"{100 * r128['exposed_a2a_fraction']:.0f}% "
        f"(motivation claim: >35%)")
    return res


@assembler("slice_ablation")
def _assemble_slice_ablation(sweep: SweepSpec, specs, results,
                             figure: str = "", description: str = ""
                             ) -> FigureResult:
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    times = {spec.params["slice_vectors"]: result["elapsed"]
             for spec, result in zip(specs, results)}
    worst = max(times.values())
    for sv in times:
        res.add(Row(label=f"slice={sv}", fused_time=times[sv],
                    baseline_time=worst))
    # String keys: JSON object keys are strings, so an int-keyed dict
    # would serialize in a different order fresh (numeric sort) vs from
    # the cache (lexicographic), breaking byte-identical reports.
    res.extra["times_us"] = {str(sv): round(t * 1e6, 1)
                             for sv, t in times.items()}
    return res


@assembler("sched_ablation")
def _assemble_sched_ablation(sweep: SweepSpec, specs, results,
                             figure: str = "", description: str = ""
                             ) -> FigureResult:
    """End-to-end time pairs: fused=comm_aware, baseline=oblivious."""
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    times: Dict[Tuple[int, int], Dict[str, float]] = {}
    for spec, result in zip(specs, results):
        p = spec.params
        point = (p["global_batch"], p["tables_per_gpu"])
        times.setdefault(point, {})[p["scheduler"]] = result["elapsed"]
    for (batch, tables), by_sched in times.items():
        res.add(Row(label=f"{batch}|{tables}",
                    fused_time=by_sched["comm_aware"],
                    baseline_time=by_sched["oblivious"]))
    return res


@assembler("proxy_ablation")
def _assemble_proxy_ablation(sweep: SweepSpec, specs, results,
                             figure: str = "", description: str = ""
                             ) -> FigureResult:
    res = FigureResult(figure or sweep.title,
                       description or sweep.description)
    times = {spec.params.get("cpu_proxy", False): result["elapsed"]
             for spec, result in zip(specs, results)}
    res.add(Row(label="gpu-initiated", fused_time=times[False],
                baseline_time=times[True]))
    res.add(Row(label="cpu-proxy", fused_time=times[True],
                baseline_time=times[True]))
    res.extra["proxy_penalty"] = (
        f"{100 * (times[True] / times[False] - 1):.2f}% slower through "
        f"the proxy")
    return res


# ----------------------------------------------------------------------
# Sweep factories (parameterizable grids) + paper-default registrations.
# ----------------------------------------------------------------------

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


def _embedding_pair_scenarios(grid, num_nodes: int, gpus_per_node: int,
                              platform: PlatformLike = None
                              ) -> List[ScenarioSpec]:
    return [
        scenario("embedding_a2a_pair", label=f"{batch}|{tables}",
                 global_batch=batch, tables_per_gpu=tables,
                 num_nodes=num_nodes, gpus_per_node=gpus_per_node,
                 platform=_platform_param(platform))
        for batch, tables in grid
    ]


def fig8_sweep(grid=FIG8_GRID, name: str = "fig8",
               platform: PlatformLike = None) -> SweepSpec:
    """Fig. 8: zero-copy fused embedding + A2A, 4 GPUs intra-node."""
    return SweepSpec.make(
        name, "Fig. 8",
        _embedding_pair_scenarios(grid, num_nodes=1, gpus_per_node=4,
                                  platform=platform),
        assembler="rows", figure="Fig. 8",
        description="Normalized execution time, intra-node embedding+A2A",
        paper_mean=0.80, paper_best=0.68)


def fig12_sweep(grid=FIG12_GRID, name: str = "fig12",
                platform: PlatformLike = None) -> SweepSpec:
    """Fig. 12: fused embedding + A2A across 2 IB-connected nodes."""
    return SweepSpec.make(
        name, "Fig. 12",
        _embedding_pair_scenarios(grid, num_nodes=2, gpus_per_node=1,
                                  platform=platform),
        assembler="rows", figure="Fig. 12",
        description="Normalized execution time, inter-node embedding+A2A",
        paper_mean=0.69, paper_best=0.42)


def fig9_sweep(grid=FIG9_GRID, world: int = 4, name: str = "fig9",
               platform: PlatformLike = None) -> SweepSpec:
    """Fig. 9: zero-copy fused GEMV + AllReduce, 4 GPUs."""
    scenarios = [
        scenario("gemv_allreduce_pair",
                 label=GemvAllReduceConfig(m=m, n_per_gpu=n_total // world,
                                           functional=False).label,
                 m=m, n_per_gpu=n_total // world, world=world,
                 platform=_platform_param(platform))
        for m, n_total in grid
    ]
    return SweepSpec.make(
        name, "Fig. 9", scenarios, assembler="rows", figure="Fig. 9",
        description="Normalized execution time, GEMV+AllReduce",
        paper_mean=0.87, paper_best=0.78)


def fig10_sweep(grid=FIG10_GRID, world: int = 4, name: str = "fig10",
                platform: PlatformLike = None) -> SweepSpec:
    """Fig. 10: fused GEMM + A2A (Triton extension), 4 GPUs."""
    scenarios = [
        scenario("gemm_a2a_pair",
                 label=GemmA2AConfig(tokens=tokens, model_dim=model_dim,
                                     ffn_dim=ffn, functional=False).label,
                 tokens=tokens, model_dim=model_dim, ffn_dim=ffn, world=world,
                 platform=_platform_param(platform))
        for tokens, model_dim, ffn in grid
    ]
    return SweepSpec.make(
        name, "Fig. 10", scenarios, assembler="rows", figure="Fig. 10",
        description="Normalized execution time, GEMM+All-to-All",
        paper_mean=0.88, paper_best=0.80)


def fig11_sweep(batch: int = 512, tables: int = 32, wgs_per_slice: int = 16,
                timeline_width: int = 100, name: str = "fig11",
                platform: PlatformLike = None) -> SweepSpec:
    """Fig. 11: persistent-WG execution timeline (one traced run)."""
    return SweepSpec.make(
        name, "Fig. 11",
        [scenario("wg_timeline", label=f"{batch}|{tables}",
                  batch=batch, tables=tables, wgs_per_slice=wgs_per_slice,
                  timeline_width=timeline_width,
                  platform=_platform_param(platform))],
        assembler="timeline", figure="Fig. 11",
        description="Profiled timeline of persistent WGs (node 0)")


def fig13_sweep(batch: int = 1024, tables: int = 256,
                fractions: Optional[Sequence[float]] = None,
                name: str = "fig13",
                platform: PlatformLike = None) -> SweepSpec:
    """Fig. 13: fused-kernel execution time across occupancy settings.

    x-axis is occupancy relative to the *baseline* kernel; 87.5% is the
    fused kernel's register-pressure maximum on the calibrated MI210 (the
    derived footprint of other platforms differs, and the default grid
    clips to each platform's own maximum).
    """
    fractions = occupancy_fractions_for(platform, fractions)
    scenarios = [
        scenario("embedding_fused", label=f"{100 * frac:.1f}%",
                 global_batch=batch, tables_per_gpu=tables,
                 occupancy_of_baseline=frac, num_nodes=2, gpus_per_node=1,
                 platform=_platform_param(platform))
        for frac in fractions
    ]
    return SweepSpec.make(
        name, "Fig. 13", scenarios, assembler="occupancy", figure="Fig. 13",
        description="Impact of WG occupancy on execution time")


def fig14_sweep(grid: Sequence[Tuple[int, int]] = (
        (1024, 64), (2048, 32), (2048, 64)),
        name: str = "fig14",
        platform: PlatformLike = None) -> SweepSpec:
    """Fig. 14: per-node completion skew, comm-aware vs oblivious."""
    scenarios = [
        scenario("embedding_fused", label=f"{sched} {batch}|{tables}",
                 global_batch=batch, tables_per_gpu=tables, scheduler=sched,
                 num_nodes=2, gpus_per_node=1,
                 platform=_platform_param(platform))
        for sched in ("comm_aware", "oblivious")
        for batch, tables in grid
    ]
    return SweepSpec.make(
        name, "Fig. 14", scenarios, assembler="sched_skew", figure="Fig. 14",
        description="Node execution-time skew by scheduling policy")


def fig15_sweep(node_counts: Sequence[int] = (16, 32, 64, 128),
                name: str = "fig15",
                platform: PlatformLike = None) -> SweepSpec:
    """Fig. 15: full DLRM training pass at scale (ASTRA-style).

    The headline 128-node statistics come from a hidden scenario when
    ``node_counts`` leaves 128 out.
    """
    plat = _platform_param(platform)
    scenarios = [
        scenario("dlrm_scaleout", label=f"{n} nodes", num_nodes=n,
                 platform=plat)
        for n in node_counts
    ]
    if 128 not in node_counts:
        scenarios.append(
            scenario("dlrm_scaleout", label=f"{HIDDEN}128 nodes",
                     num_nodes=128, platform=plat))
    return SweepSpec.make(
        name, "Fig. 15", scenarios, assembler="scaleout", figure="Fig. 15",
        description="Scale-out DLRM training, fused vs baseline",
        paper_mean=0.79)


def table1_sweep(name: str = "table1",
                 platform: PlatformLike = None) -> SweepSpec:
    """Table I: the simulated system's configuration (per platform)."""
    return SweepSpec.make(
        name, "Table I",
        [scenario("table_setup", label="setup", which="table1",
                  platform=_platform_param(platform))],
        assembler="table", figure="Table I",
        description="System setup (simulated substrate)")


def table2_sweep(name: str = "table2") -> SweepSpec:
    """Table II: scale-out simulation parameters."""
    return SweepSpec.make(
        name, "Table II",
        [scenario("table_setup", label="setup", which="table2")],
        assembler="table", figure="Table II",
        description="Scale-out simulation setup")


#: Slice sizes swept by the granularity ablation.
ABLATION_SLICES: Tuple[int, ...] = (8, 16, 32, 64, 128)


def ablation_slice_size_sweep(batch: int = 1024, tables: int = 64,
                              slices: Sequence[int] = ABLATION_SLICES,
                              name: str = "ablation-slice-size",
                              platform: PlatformLike = None) -> SweepSpec:
    max_frac = max_occupancy_of_baseline(get_platform(platform).gpu)
    scenarios = [
        # Occupancy pinned to the fused kernel's (platform-derived)
        # maximum so the sweep isolates communication granularity from
        # grid-size effects.
        scenario("embedding_fused", label=f"slice={sv}",
                 global_batch=batch, tables_per_gpu=tables, slice_vectors=sv,
                 occupancy_of_baseline=max_frac, num_nodes=2, gpus_per_node=1,
                 platform=_platform_param(platform))
        for sv in slices
    ]
    return SweepSpec.make(
        name, "Ablation", scenarios, assembler="slice_ablation",
        figure="Ablation",
        description=f"slice-size sweep, inter-node {batch}|{tables}")


def ablation_scheduling_sweep(grid: Sequence[Tuple[int, int]] = (
        (1024, 64), (2048, 64)),
        name: str = "ablation-scheduling",
        platform: PlatformLike = None) -> SweepSpec:
    scenarios = [
        scenario("embedding_fused", label=f"{sched} {batch}|{tables}",
                 global_batch=batch, tables_per_gpu=tables, scheduler=sched,
                 num_nodes=2, gpus_per_node=1,
                 platform=_platform_param(platform))
        for batch, tables in grid
        for sched in ("comm_aware", "oblivious")
    ]
    return SweepSpec.make(
        name, "Ablation", scenarios, assembler="sched_ablation",
        figure="Ablation", description="scheduling policy, end-to-end time")


def ablation_zero_copy_sweep(grid: Sequence[Tuple[int, int]] = (
        (1024, 64), (2048, 128)),
        name: str = "ablation-zero-copy",
        platform: PlatformLike = None) -> SweepSpec:
    scenarios = [
        scenario("embedding_a2a_pair",
                 label=f"{batch}|{tables} zc={'on' if zc else 'off'}",
                 global_batch=batch, tables_per_gpu=tables, zero_copy=zc,
                 num_nodes=1, gpus_per_node=4,
                 platform=_platform_param(platform),
                 baseline={"global_batch": batch, "tables_per_gpu": tables})
        for batch, tables in grid
        for zc in (True, False)
    ]
    return SweepSpec.make(
        name, "Ablation", scenarios, assembler="rows", figure="Ablation",
        description="zero-copy contribution (intra-node)")


def ablation_cpu_proxy_sweep(batch: int = 1024, tables: int = 64,
                             name: str = "ablation-cpu-proxy",
                             platform: PlatformLike = None) -> SweepSpec:
    scenarios = [
        scenario("embedding_fused",
                 label="cpu-proxy" if proxy else "gpu-initiated",
                 global_batch=batch, tables_per_gpu=tables, cpu_proxy=proxy,
                 num_nodes=2, gpus_per_node=1,
                 platform=_platform_param(platform))
        for proxy in (False, True)
    ]
    return SweepSpec.make(
        name, "Ablation", scenarios, assembler="proxy_ablation",
        figure="Ablation",
        description="GPU-initiated vs CPU-proxy networking")


def ext_embedding_backward_sweep(grid: Sequence[Tuple[int, int]] = (
        (256, 64), (1024, 64), (1024, 256), (4096, 64)),
        name: str = "ext-embedding-backward",
        platform: PlatformLike = None) -> SweepSpec:
    scenarios = [
        scenario("embedding_grad_pair", label=f"{batch}|{tables}",
                 global_batch=batch, tables_per_gpu=tables,
                 num_nodes=2, gpus_per_node=1,
                 platform=_platform_param(platform))
        for batch, tables in grid
    ]
    return SweepSpec.make(
        name, "Extension", scenarios, assembler="rows", figure="Extension",
        description="fused gradient A2A + scatter-add (inter-node)")


# ----------------------------------------------------------------------
# Cross-hardware sweeps: the platform catalog as a sweep axis.
# ----------------------------------------------------------------------

#: Catalog entries the cross-hardware sweeps grid over by default.
XHW_PLATFORMS: Tuple[str, ...] = ("mi210", "mi250x", "mi300x", "h100")

#: Default workload points per cross-hardware sweep (kept small: the
#: platform axis multiplies them).
XHW_EMB_GRID: Tuple[Tuple[int, int], ...] = ((1024, 64), (4096, 256))
XHW_GEMV_GRID: Tuple[Tuple[int, int], ...] = ((8192, 8192), (32768, 16384))
XHW_GEMM_GRID: Tuple[Tuple[int, int, int], ...] = (
    (2048, 4096, 8192), (8192, 4096, 14336))
XHW_NODE_COUNTS: Tuple[int, ...] = (16, 64)


def xhw_embedding_a2a_sweep(grid=XHW_EMB_GRID,
                            platforms: Sequence[PlatformLike] = XHW_PLATFORMS,
                            name: str = "xhw_embedding_a2a") -> SweepSpec:
    """Fused embedding+A2A (Fig. 8 operator) across hardware platforms."""
    scenarios = [
        scenario("embedding_a2a_pair",
                 label=f"{_platform_display(pp)} {batch}|{tables}",
                 global_batch=batch, tables_per_gpu=tables,
                 num_nodes=1, gpus_per_node=4, platform=pp)
        for pp in map(_platform_param, platforms)
        for batch, tables in grid
    ]
    return SweepSpec.make(
        name, "Cross-HW", scenarios, assembler="xhw",
        figure="Cross-HW embedding+A2A",
        description="fused vs baseline embedding+A2A across platforms")


def xhw_gemv_allreduce_sweep(grid=XHW_GEMV_GRID, world: int = 4,
                             platforms: Sequence[PlatformLike]
                             = XHW_PLATFORMS,
                             name: str = "xhw_gemv_allreduce") -> SweepSpec:
    """Fused GEMV+AllReduce (Fig. 9 operator) across hardware platforms."""
    scenarios = [
        scenario("gemv_allreduce_pair",
                 label=f"{_platform_display(pp)} "
                       f"{GemvAllReduceConfig(m=m, n_per_gpu=n // world, functional=False).label}",
                 m=m, n_per_gpu=n // world, world=world, platform=pp)
        for pp in map(_platform_param, platforms)
        for m, n in grid
    ]
    return SweepSpec.make(
        name, "Cross-HW", scenarios, assembler="xhw",
        figure="Cross-HW GEMV+AllReduce",
        description="fused vs baseline GEMV+AllReduce across platforms")


def xhw_gemm_a2a_sweep(grid=XHW_GEMM_GRID, world: int = 4,
                       platforms: Sequence[PlatformLike] = XHW_PLATFORMS,
                       name: str = "xhw_gemm_a2a") -> SweepSpec:
    """Fused GEMM+A2A (Fig. 10 operator) across hardware platforms."""
    scenarios = [
        scenario("gemm_a2a_pair",
                 label=f"{_platform_display(pp)} "
                       f"{tokens}x{model_dim}x{ffn}",
                 tokens=tokens, model_dim=model_dim, ffn_dim=ffn,
                 world=world, platform=pp)
        for pp in map(_platform_param, platforms)
        for tokens, model_dim, ffn in grid
    ]
    return SweepSpec.make(
        name, "Cross-HW", scenarios, assembler="xhw",
        figure="Cross-HW GEMM+All-to-All",
        description="fused vs baseline GEMM+A2A across platforms")


def xhw_scaleout_sweep(node_counts: Sequence[int] = XHW_NODE_COUNTS,
                       platforms: Sequence[PlatformLike] = XHW_PLATFORMS,
                       name: str = "xhw_scaleout") -> SweepSpec:
    """Scale-out DLRM training (Fig. 15 workload) across platforms."""
    scenarios = [
        scenario("dlrm_scaleout",
                 label=f"{_platform_display(pp)} {n} nodes",
                 num_nodes=n, platform=pp)
        for pp in map(_platform_param, platforms)
        for n in node_counts
    ]
    return SweepSpec.make(
        name, "Cross-HW", scenarios, assembler="xhw",
        figure="Cross-HW DLRM scale-out",
        description="fused vs baseline DLRM iteration across platforms")


def xhw_smoke_sweep(name: str = "xhw-smoke") -> SweepSpec:
    """Two-platform cross-hardware slice for CI cache-behaviour checks."""
    return xhw_gemv_allreduce_sweep(grid=((8192, 8192),),
                                    platforms=("mi210", "h100"), name=name)


# ----------------------------------------------------------------------
# Collective-algorithm sweeps: the schedule menu as a sweep axis.
# ----------------------------------------------------------------------

#: AllReduce schedules the algorithm sweeps grid over (single node, so
#: ``hier`` would just collapse onto ``direct`` — exercised by the
#: multi-node equivalence tests instead).
XALGO_ALLREDUCE: Tuple[str, ...] = ("direct", "ring", "tree")
#: All-to-All schedules on the 2x2 shape, where all three differ.
XALGO_ALLTOALL: Tuple[str, ...] = ("flat", "pairwise", "hier")
XALGO_GEMV_GRID: Tuple[Tuple[int, int], ...] = ((8192, 8192),
                                                (65536, 8192))
XALGO_EMB_GRID: Tuple[Tuple[int, int], ...] = ((1024, 64), (4096, 256))


def xalgo_allreduce_sweep(grid=XALGO_GEMV_GRID, world: int = 4,
                          algos: Sequence[str] = XALGO_ALLREDUCE,
                          platform: PlatformLike = None,
                          name: str = "xalgo_allreduce") -> SweepSpec:
    """GEMV+AllReduce (Fig. 9 operator) across baseline AllReduce
    schedules: the fused operator vs each :mod:`repro.collectives`
    algorithm's bulk collective."""
    scenarios = [
        scenario("gemv_allreduce_pair",
                 label=f"{algo} "
                       f"{GemvAllReduceConfig(m=m, n_per_gpu=n // world, functional=False).label}",
                 m=m, n_per_gpu=n // world, world=world,
                 platform=_platform_param(platform), **_engine_params(algo))
        for algo in algos
        for m, n in grid
    ]
    return SweepSpec.make(
        name, "Algorithms", scenarios, assembler="xalgo",
        figure="Collective algorithms: AllReduce",
        description="fused GEMV+AllReduce vs per-schedule baselines")


def xalgo_alltoall_sweep(grid=XALGO_EMB_GRID, num_nodes: int = 2,
                         gpus_per_node: int = 2,
                         algos: Sequence[str] = XALGO_ALLTOALL,
                         platform: PlatformLike = None,
                         name: str = "xalgo_alltoall") -> SweepSpec:
    """Embedding+A2A (Fig. 8/12 operator) on a 2-node x 2-GPU cluster
    across baseline All-to-All schedules (the shape where flat, pairwise
    and hierarchical genuinely differ)."""
    scenarios = [
        scenario("embedding_a2a_pair", label=f"{algo} {batch}|{tables}",
                 global_batch=batch, tables_per_gpu=tables,
                 num_nodes=num_nodes, gpus_per_node=gpus_per_node,
                 platform=_platform_param(platform), **_engine_params(algo))
        for algo in algos
        for batch, tables in grid
    ]
    return SweepSpec.make(
        name, "Algorithms", scenarios, assembler="xalgo",
        figure="Collective algorithms: All-to-All",
        description="fused embedding+A2A vs per-schedule baselines")


def xalgo_smoke_sweep(name: str = "xalgo-smoke") -> SweepSpec:
    """One workload x three AllReduce schedules for CI cache checks."""
    return xalgo_allreduce_sweep(grid=((8192, 8192),), name=name)


# ----------------------------------------------------------------------
# Design-space exploration: large analytic grids + Pareto frontiers.
# ----------------------------------------------------------------------

#: Platform axis of the design-space sweeps (the full catalog).
DSE_PLATFORMS: Tuple[str, ...] = ("mi210", "mi250x", "mi300x", "h100")
#: Workload axes: global batch x tables (message volume), slice size
#: (message granularity), occupancy split, and cluster topology.
DSE_BATCHES: Tuple[int, ...] = (256, 512, 1024, 2048, 4096, 8192)
DSE_TABLES: Tuple[int, ...] = (16, 64, 256)
DSE_SLICES: Tuple[int, ...] = (16, 32, 64)
DSE_OCCUPANCIES: Tuple[float, ...] = (0.25, 0.5, 0.75)
DSE_TOPOLOGIES: Tuple[Tuple[int, int], ...] = ((1, 4), (2, 1))
#: Baseline collective-schedule axis.  ``None`` is the legacy flat
#: schedule (keeping those scenarios' store keys identical to the
#: pre-algo grid); ``"pairwise"`` genuinely differs on both default
#: topologies.  Hierarchical schedules collapse to flat on 1-GPU or
#: 1-node shapes, so they live in ``xalgo_alltoall``'s 2x2 sweep.
DSE_ALGOS: Tuple[Optional[str], ...] = (None, "pairwise")


def dse_fused_frontier_sweep(name: str = "dse_fused_frontier",
                             platforms: Sequence[PlatformLike]
                             = DSE_PLATFORMS,
                             batches: Sequence[int] = DSE_BATCHES,
                             tables: Sequence[int] = DSE_TABLES,
                             slices: Sequence[int] = DSE_SLICES,
                             occupancies: Sequence[float] = DSE_OCCUPANCIES,
                             topologies: Sequence[Tuple[int, int]]
                             = DSE_TOPOLOGIES,
                             algos: Sequence[Optional[str]] = DSE_ALGOS,
                             backend: str = "analytic") -> SweepSpec:
    """Fused embedding+A2A design space: platform x batch x tables x
    slice size x occupancy split x topology x collective schedule,
    Pareto-assembled.

    The default grid is ~2,600 scenarios — minutes-per-point under the
    DES, a handful of seconds end to end under the analytic backend.
    """
    scenarios = []
    for pp in map(_platform_param, platforms):
        pname = _platform_display(pp)
        for num_nodes, gpus_per_node in topologies:
            for batch in batches:
                for tb in tables:
                    for sv in slices:
                        for occ in occupancies:
                            for algo in algos:
                                suffix = f" {algo}" if algo else ""
                                scenarios.append(scenario(
                                    "embedding_a2a_pair",
                                    label=(f"{pname} "
                                           f"{num_nodes}x{gpus_per_node}"
                                           f" {batch}|{tb} sv{sv} occ{occ}"
                                           f"{suffix}"),
                                    global_batch=batch, tables_per_gpu=tb,
                                    slice_vectors=sv,
                                    occupancy_of_baseline=occ,
                                    num_nodes=num_nodes,
                                    gpus_per_node=gpus_per_node, platform=pp,
                                    **_engine_params(algo, backend)))
    return SweepSpec.make(
        name, "DSE", scenarios, assembler="dse_frontier", figure="DSE",
        description="fused embedding+A2A design-space frontier "
                    "(latency vs speedup)")


def dse_smoke_sweep(name: str = "dse-smoke") -> SweepSpec:
    """Small analytic slice for CI cache-behaviour checks (8 scenarios)."""
    return dse_fused_frontier_sweep(
        name=name, platforms=("mi210", "h100"), batches=(512, 2048),
        tables=(64,), slices=(32,), occupancies=(0.25, 0.75),
        topologies=((2, 1),))


def trace_smoke_sweep(name: str = "trace-smoke") -> SweepSpec:
    """One tiny pinned traced scenario for the CI golden-trace byte-compare.

    The parameters are frozen: the exported Chrome trace is committed as a
    golden file and compared byte-for-byte, so any change here (or any
    nondeterminism in the simulator/exporter) fails the gate.
    """
    scenarios = [
        scenario("wg_timeline", label="trace 64|4", batch=64, tables=4,
                 wgs_per_slice=8, timeline_width=60,
                 platform=_platform_param(None)),
    ]
    return SweepSpec.make(
        name, "Trace smoke", scenarios, assembler="timeline", figure="Trace",
        description="pinned traced scenario for the golden Chrome-trace "
                    "export check")


def smoke_sweep(name: str = "smoke") -> SweepSpec:
    """Small, fast sweep for CI cache-behaviour checks (~2 s serial)."""
    plat = _platform_param(None)
    scenarios = [
        scenario("gemv_allreduce_pair", label="8k|2k",
                 m=8192, n_per_gpu=2048, world=4, platform=plat),
        scenario("embedding_a2a_pair", label="256|16",
                 global_batch=256, tables_per_gpu=16,
                 num_nodes=2, gpus_per_node=1, platform=plat),
        scenario("dlrm_scaleout", label="16 nodes", num_nodes=16,
                 platform=plat),
    ]
    return SweepSpec.make(
        name, "Smoke", scenarios, assembler="rows", figure="Smoke",
        description="CI smoke sweep (mixed runners, small configs)")


#: The paper-default registrations, in ``python -m repro list`` order:
#: name, title and factory.  Each sweep is built on its first lookup.
for _name, _title, _factory in (
    ("table1", "Table I", table1_sweep),
    ("table2", "Table II", table2_sweep),
    ("fig8", "Fig. 8", fig8_sweep),
    ("fig9", "Fig. 9", fig9_sweep),
    ("fig10", "Fig. 10", fig10_sweep),
    ("fig11", "Fig. 11", fig11_sweep),
    ("fig12", "Fig. 12", fig12_sweep),
    ("fig13", "Fig. 13", fig13_sweep),
    ("fig14", "Fig. 14", fig14_sweep),
    ("fig15", "Fig. 15", fig15_sweep),
    ("ablation-slice-size", "Ablation", ablation_slice_size_sweep),
    ("ablation-scheduling", "Ablation", ablation_scheduling_sweep),
    ("ablation-zero-copy", "Ablation", ablation_zero_copy_sweep),
    ("ablation-cpu-proxy", "Ablation", ablation_cpu_proxy_sweep),
    ("ext-embedding-backward", "Extension", ext_embedding_backward_sweep),
    ("xhw_embedding_a2a", "Cross-HW", xhw_embedding_a2a_sweep),
    ("xhw_gemv_allreduce", "Cross-HW", xhw_gemv_allreduce_sweep),
    ("xhw_gemm_a2a", "Cross-HW", xhw_gemm_a2a_sweep),
    ("xhw_scaleout", "Cross-HW", xhw_scaleout_sweep),
    ("xhw-smoke", "Cross-HW", xhw_smoke_sweep),
    ("xalgo_allreduce", "Algorithms", xalgo_allreduce_sweep),
    ("xalgo_alltoall", "Algorithms", xalgo_alltoall_sweep),
    ("xalgo-smoke", "Algorithms", xalgo_smoke_sweep),
    ("dse_fused_frontier", "DSE", dse_fused_frontier_sweep),
    ("dse-smoke", "DSE", dse_smoke_sweep),
    ("smoke", "Smoke", smoke_sweep),
    ("trace-smoke", "Trace smoke", trace_smoke_sweep),
):
    register_sweep_factory(_name, _title, _factory)
