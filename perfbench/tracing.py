"""Traced runs: time and count calls into each layer from outside.

:class:`Tracer` wraps public functions of the program's modules while it
is installed.  A spanned function records ``(name, start, end, parent
span, call id)``; a hot function (``wait_until``, ``transfer``, the
``put_*`` family) is only counted.  Spans stay in memory; the worker
aggregates them and writes a Chrome trace when it ends.  Counters of the
program's own metrics registry (``repro.obs.metrics``) are read as deltas
around each traced call.

The program is not modified: wrappers are set as attributes of the
modules and classes that the program looks names up on at call time, and
:meth:`Tracer.uninstall` restores the originals, so untimed and traced
calls can alternate in one process.  Timed calls never run with metrics
or wrappers on, because metrics swap the engine loop for its
instrumented twin.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "LAYER_METRICS", "layer_metrics", "merge_aggregates"]

#: name -> (unit, better).  Every traced run reports every name; a layer
#: the workload never reaches reads 0.
DES_RUNNERS = ("embedding_a2a_pair", "embedding_fused", "embedding_grad_pair",
               "gemm_a2a_pair", "gemv_allreduce_pair")
PREDICT_RUNNERS = {
    "predict_embedding_a2a": "embedding_a2a_pair",
    "predict_embedding_fused": "embedding_fused",
    "predict_embedding_grad_a2a": "embedding_grad_pair",
    "predict_gemm_a2a": "gemm_a2a_pair",
    "predict_gemv_allreduce": "gemv_allreduce_pair",
    "predict_wg_timeline": "wg_timeline",
}
#: span name -> layer whose self time it counts into.
SELF_LAYERS = {
    "run_scenario": "execution", "run_sweep": "execution",
    "runner": "figures", "harness.build": "fused", "op.fused": "fused",
    "op.baseline": "fused", "sim.run": "sim", "predict": "analytic",
    "batch.build": "batch", "batch.evaluate": "batch",
    "explorer.pareto": "explorer", "run_mega": "mega", "spec.key": "specs",
    "store.get": "store", "report.build": "report", "sweep.figure": "figure",
}
SELF_NAMES = sorted(set(SELF_LAYERS.values()) | {"bench"})

LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "sim.run_ms": ("ms", "lower"),
    "sim.events_per_scenario": ("count", "lower"),
    **{f"sim.events_per_scenario.{r}": ("count", "lower")
       for r in DES_RUNNERS},
    "sim.ns_per_event": ("ns", "lower"),
    "sim.heap_peak": ("count", "lower"),
    "fabric.transfers_per_scenario": ("count", "lower"),
    "kernel.launches_per_scenario": ("count", "lower"),
    "kernel.tasks_per_scenario": ("count", "lower"),
    "kernel.fastpath_frac": ("ratio", "higher"),
    "comm.wait_until_per_scenario": ("count", "lower"),
    "comm.puts_per_scenario": ("count", "lower"),
    **{f"des.scenario_ms.{r}": ("ms", "lower") for r in DES_RUNNERS},
    "fused.op_ms.fused": ("ms", "lower"),
    "fused.op_ms.baseline": ("ms", "lower"),
    "fused.harness_build_ms": ("ms", "lower"),
    "fused.normalized_mean": ("ratio", "lower"),
    "collectives.auto_decisions": ("count", "lower"),
    **{f"analytic.predict_us.{r}": ("us", "lower")
       for r in sorted(PREDICT_RUNNERS.values())},
    "batch.build_ms": ("ms", "lower"),
    "batch.evaluate_ms": ("ms", "lower"),
    "explorer.pareto_ms": ("ms", "lower"),
    "batch.rows": ("count", "lower"),
    "batch.groups": ("count", "lower"),
    "batch.vectorized_frac": ("ratio", "higher"),
    "execution.overhead_us": ("us", "lower"),
    "specs.key_us": ("us", "lower"),
    "specs.keys_per_call": ("count", "lower"),
    "store.get_us": ("us", "lower"),
    "store.reads_per_call": ("count", "lower"),
    "store.read_bytes_per_call": ("bytes", "lower"),
    "sweep.hit_frac": ("ratio", "higher"),
    "report.build_ms": ("ms", "lower"),
    "sweep.figure_ms": ("ms", "lower"),
    **{f"self_ms.{layer}": ("ms", "lower") for layer in SELF_NAMES},
    "process.import_s": ("s", "lower"),
    "workload.gen_s": ("s", "lower"),
    "obs.trace_overhead_frac": ("ratio", "lower"),
}

#: Counters of the program's metrics registry read per traced run.
_COUNTERS = ("sim.events_processed", "kernel.launches", "kernel.tasks",
             "kernel.fastpath_uniform_tasks", "kernel.fastpath_batched_tasks",
             "batch.rows", "batch.groups", "batch.scalar_fallback_rows",
             "sweep.cache_hits", "sweep.cache_misses", "store.reads",
             "store.read_bytes")


def _patch_targets() -> List[Tuple[Any, str, str, str]]:
    """(owner, attribute, kind, name): what the tracer wraps."""
    import repro.analytic as analytic
    import repro.analytic.explorer as explorer
    import repro.experiments.execution as execution
    import repro.experiments.mega as mega
    import repro.experiments.report as report
    from repro.analytic.batch import ScenarioBatch
    from repro.comm.shmem import FlagArray, ShmemContext
    from repro.experiments.execution import SweepRun
    from repro.experiments.specs import ScenarioSpec
    from repro.experiments.store import ResultStore
    from repro.fused.base import OpHarness
    from repro.sim.engine import Simulator
    from repro.sim.resources import FairShareLink, FifoChannel

    targets = [
        (execution, "run_scenario", "span", "run_scenario"),
        (execution, "call_runner", "runner", "runner"),
        (execution, "run_sweep", "span", "run_sweep"),
        (mega, "run_mega", "span", "run_mega"),
        (report, "build_report", "span", "report.build"),
        (explorer, "pareto_mask", "span", "explorer.pareto"),
        (ScenarioBatch, "from_grid", "classmethod", "batch.build"),
        (ScenarioBatch, "evaluate", "span", "batch.evaluate"),
        (ScenarioSpec, "key", "span", "spec.key"),
        (ResultStore, "get", "span", "store.get"),
        (SweepRun, "figure", "span", "sweep.figure"),
        (OpHarness, "__init__", "span", "harness.build"),
        (OpHarness, "run", "op", "op"),
        (Simulator, "run", "span", "sim.run"),
        (FairShareLink, "transfer", "count", "fabric.transfer"),
        (FifoChannel, "transfer", "count", "fabric.transfer"),
        # ShmemContext.wait_until delegates here; the fused kernels call
        # it directly.
        (FlagArray, "wait_until", "count", "comm.wait_until"),
    ]
    for attr in sorted(vars(ShmemContext)):
        if attr.startswith("put_"):
            targets.append((ShmemContext, attr, "count", "comm.put"))
    for attr in sorted(PREDICT_RUNNERS):
        targets.append((analytic, attr, "predict", attr))
    return targets


def _op_span_name(harness: Any, op: Any) -> str:
    """``OpHarness.run`` spans split by operator class."""
    return "op.fused" if type(op).__name__.startswith("Fused") \
        else "op.baseline"


class Tracer:
    """Spans and counts of the calls into each layer, one process."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, call id)
        self.spans: List[Optional[Tuple[str, float, float, int, int]]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: per-runner deltas of ``sim.events_processed``
        self.runner_events: Dict[str, int] = defaultdict(int)
        #: per-runner scenario counts (sim backend)
        self.des_scenarios: Dict[str, int] = defaultdict(int)
        #: simulated fused/baseline ratios of traced DES pair scenarios
        self.normalized: List[float] = []
        #: (call id, wall seconds) of every traced call
        self.calls: List[Tuple[int, float]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.heap_peak = 0
        self.auto_decisions = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._call_id = -1
        self._registry: Any = None
        self._targets = _patch_targets()

    # -- wrappers -----------------------------------------------------------
    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, t0: float) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, t0, t1, parent, self._call_id)

    def _spanned(self, fn: Callable, name: str,
                 name_of: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if name_of is None else name_of(*args, **kwargs)
            idx = self._open()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, label, t0)
        return wrapper

    def _counted(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _runner(self, fn: Callable) -> Callable:
        """``call_runner``: a span named by backend and runner, plus the
        runner's share of simulated events and its simulated result."""
        @functools.wraps(fn)
        def wrapper(spec):
            sim = spec.backend == "sim"
            name = f"des:{spec.runner}" if sim else f"runner:{spec.runner}"
            counters = self._registry.counters
            before = counters.get("sim.events_processed", 0)
            idx = self._open()
            t0 = time.perf_counter()
            try:
                result = fn(spec)
            finally:
                self._close(idx, name, t0)
            if sim:
                self.runner_events[spec.runner] += (
                    counters.get("sim.events_processed", 0) - before)
                self.des_scenarios[spec.runner] += 1
                if "fused_time" in result and "baseline_time" in result:
                    self.normalized.append(
                        result["fused_time"] / result["baseline_time"])
            return result
        return wrapper

    def _wrap(self, owner: Any, attr: str, kind: str, name: str) -> Any:
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        if kind == "span":
            return raw, self._spanned(raw, name)
        if kind == "classmethod":
            return raw, classmethod(self._spanned(raw.__func__, name))
        if kind == "count":
            return raw, self._counted(raw, name)
        if kind == "runner":
            return raw, self._runner(raw)
        if kind == "op":
            return raw, self._spanned(raw, name, _op_span_name)
        if kind == "predict":
            return raw, self._spanned(raw, f"predict:{PREDICT_RUNNERS[name]}")
        raise ValueError(kind)

    # -- traced calls -------------------------------------------------------
    def install(self, call_id: int) -> None:
        from repro.obs.metrics import MetricsRegistry, enable_metrics
        self._call_id = call_id
        self._registry = enable_metrics(MetricsRegistry())
        for owner, attr, kind, name in self._targets:
            raw, wrapped = self._wrap(owner, attr, kind, name)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self, wall_s: float) -> None:
        from repro.obs.metrics import disable_metrics
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        disable_metrics()
        reg = self._registry
        for name in _COUNTERS:
            self.counters[name] += reg.counters.get(name, 0)
        self.auto_decisions += sum(
            v for k, v in reg.counters.items()
            if k.startswith("collectives.auto."))
        self.heap_peak = max(self.heap_peak,
                             reg.gauges.get("sim.heap_peak", 0))
        self.calls.append((self._call_id, wall_s))
        self._registry = None

    # -- aggregation --------------------------------------------------------
    def aggregate(self) -> Dict[str, Any]:
        """JSON-able per-process totals that :func:`merge_aggregates`
        combines across processes."""
        cover = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                cover[span[3]] += span[2] - span[1]
        by_name: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        top_cover: Dict[int, float] = defaultdict(float)
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, t0, t1, parent, call = span
            entry = by_name[name]
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += t1 - t0 - cover[idx]
            if parent < 0:
                top_cover[call] += t1 - t0
        bench_self = sum(wall - top_cover[call] for call, wall in self.calls)
        return {
            "spans": {k: list(v) for k, v in sorted(by_name.items())},
            "counts": dict(self.counts),
            "counters": dict(self.counters),
            "runner_events": dict(self.runner_events),
            "des_scenarios": dict(self.des_scenarios),
            "normalized": list(self.normalized),
            "heap_peak": self.heap_peak,
            "auto_decisions": self.auto_decisions,
            "calls": len(self.calls),
            "bench_self_s": bench_self,
        }

    def host_spans(self, max_calls: int) -> List[Tuple[str, float, float]]:
        """(name, start, end) of the spans of the first ``max_calls``
        traced calls, for :func:`repro.obs.chrome.write_chrome_trace`."""
        keep = {call for call, _w in self.calls[:max_calls]}
        return [(s[0], s[1], s[2]) for s in self.spans
                if s is not None and s[4] in keep]


def merge_aggregates(aggs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the per-process aggregates of one traced run."""
    out: Dict[str, Any] = {
        "spans": defaultdict(lambda: [0, 0.0, 0.0]), "counts": defaultdict(int),
        "counters": defaultdict(float), "runner_events": defaultdict(int),
        "des_scenarios": defaultdict(int), "normalized": [], "heap_peak": 0,
        "auto_decisions": 0, "calls": 0, "bench_self_s": 0.0,
    }
    for agg in aggs:
        for name, (n, total, self_s) in agg["spans"].items():
            entry = out["spans"][name]
            entry[0] += n
            entry[1] += total
            entry[2] += self_s
        for key in ("counts", "counters", "runner_events", "des_scenarios"):
            for name, v in agg[key].items():
                out[key][name] += v
        out["normalized"].extend(agg["normalized"])
        out["heap_peak"] = max(out["heap_peak"], agg["heap_peak"])
        for key in ("auto_decisions", "calls", "bench_self_s"):
            out[key] += agg[key]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: Dict[str, Any], import_s: float, gen_s: float,
                  overhead_frac: float) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value from a merged aggregate."""
    spans, counts, counters = agg["spans"], agg["counts"], agg["counters"]

    def span(name: str) -> Tuple[int, float, float]:
        n, total, self_s = spans.get(name, (0, 0.0, 0.0))
        return n, total, self_s

    def mean_ms(name: str) -> float:
        n, total, _ = span(name)
        return _ratio(1e3 * total, n)

    des_n = sum(agg["des_scenarios"].values())
    calls = agg["calls"]
    events = counters.get("sim.events_processed", 0)
    _, sim_total, _ = span("sim.run")
    tasks = counters.get("kernel.tasks", 0)
    rows = counters.get("batch.rows", 0)
    hits = counters.get("sweep.cache_hits", 0)
    misses = counters.get("sweep.cache_misses", 0)
    run_n, run_total, _ = span("run_scenario")
    runner_total = sum(v[1] for k, v in spans.items()
                       if k.startswith(("des:", "runner:")))

    m: Dict[str, float] = {
        "sim.run_ms": _ratio(1e3 * sim_total, des_n),
        "sim.events_per_scenario": _ratio(events, des_n),
        "sim.ns_per_event": _ratio(1e9 * sim_total, events),
        "sim.heap_peak": agg["heap_peak"],
        "fabric.transfers_per_scenario": _ratio(
            counts.get("fabric.transfer", 0), des_n),
        "kernel.launches_per_scenario": _ratio(
            counters.get("kernel.launches", 0), des_n),
        "kernel.tasks_per_scenario": _ratio(tasks, des_n),
        "kernel.fastpath_frac": _ratio(
            counters.get("kernel.fastpath_uniform_tasks", 0)
            + counters.get("kernel.fastpath_batched_tasks", 0), tasks),
        "comm.wait_until_per_scenario": _ratio(
            counts.get("comm.wait_until", 0), des_n),
        "comm.puts_per_scenario": _ratio(counts.get("comm.put", 0), des_n),
        "fused.op_ms.fused": mean_ms("op.fused"),
        "fused.op_ms.baseline": mean_ms("op.baseline"),
        "fused.harness_build_ms": mean_ms("harness.build"),
        "fused.normalized_mean": _ratio(sum(agg["normalized"]),
                                        len(agg["normalized"])),
        "collectives.auto_decisions": agg["auto_decisions"],
        "batch.build_ms": mean_ms("batch.build"),
        "batch.evaluate_ms": mean_ms("batch.evaluate"),
        "explorer.pareto_ms": mean_ms("explorer.pareto"),
        "batch.rows": _ratio(rows, calls),
        "batch.groups": _ratio(counters.get("batch.groups", 0), calls),
        "batch.vectorized_frac": (
            1.0 - _ratio(counters.get("batch.scalar_fallback_rows", 0), rows)
            if rows else 0.0),
        "execution.overhead_us": _ratio(1e6 * (run_total - runner_total),
                                        run_n),
        "specs.key_us": 1e3 * mean_ms("spec.key"),
        "specs.keys_per_call": _ratio(span("spec.key")[0], calls),
        "store.get_us": 1e3 * mean_ms("store.get"),
        "store.reads_per_call": _ratio(counters.get("store.reads", 0), calls),
        "store.read_bytes_per_call": _ratio(
            counters.get("store.read_bytes", 0), calls),
        "sweep.hit_frac": _ratio(hits, hits + misses),
        "report.build_ms": mean_ms("report.build"),
        "sweep.figure_ms": mean_ms("sweep.figure"),
        "process.import_s": import_s,
        "workload.gen_s": gen_s,
        "obs.trace_overhead_frac": overhead_frac,
    }
    for r in DES_RUNNERS:
        m[f"sim.events_per_scenario.{r}"] = _ratio(
            agg["runner_events"].get(r, 0), agg["des_scenarios"].get(r, 0))
        m[f"des.scenario_ms.{r}"] = mean_ms(f"des:{r}")
    for r in PREDICT_RUNNERS.values():
        m[f"analytic.predict_us.{r}"] = 1e3 * mean_ms(f"predict:{r}")
    self_s: Dict[str, float] = defaultdict(float)
    for name, (_n, _total, s) in spans.items():
        base = name.split(":", 1)[0]
        layer = SELF_LAYERS.get("runner" if base in ("des", "runner")
                                else base)
        if layer is not None:
            self_s[layer] += s
    self_s["bench"] = agg["bench_self_s"]
    for layer in SELF_NAMES:
        m[f"self_ms.{layer}"] = _ratio(1e3 * self_s[layer], calls)
    missing = set(LAYER_METRICS) - set(m)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return m
