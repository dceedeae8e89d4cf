"""``python -m repro`` — the command-line surface of the orchestrator.

Subcommands::

    list [--json]             registered sweeps and their sizes
    platforms                 hardware catalog with derived quantities
    algos                     collective-algorithm catalog + selector
    run SWEEP [SWEEP...]      execute sweeps (cache-aware, parallel)
    report SWEEP [SWEEP...]   render sweeps (fully-cached runs are instant)
    diff OLD NEW              compare two sweep report JSON files
    validate                  analytic-vs-DES fidelity vs. accuracy budget
    cache stats               result-store size and per-sweep breakdown
    trace SWEEP [SWEEP...]    export a Chrome/Perfetto trace (--out FILE)
    stats SWEEP [SWEEP...]    run with live metrics; print the registry
    lint [--json]             static invariant checks (determinism,
                              hot-path guards, param compat, ...)

``run``/``report`` share the cache flags: ``--cache DIR`` (default
``.repro-cache``), ``--no-cache``, ``--force``.  ``run all`` runs every
registered sweep (mega sweeps — the axis-defined ``dse_mega`` grids
evaluated through the vectorized batch engine — are listed alongside and
run by name, but stay out of ``all``); ``--backend analytic`` re-keys and re-runs any sweep
under the closed-form engine.  ``diff`` exits non-zero when the reports
disagree, so it doubles as a CI regression gate against a committed
baseline report; ``validate`` exits non-zero when the analytic backend
drifts outside its declared accuracy budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .mega import find_mega, list_megas, run_mega
from .registry import get_sweep, list_sweeps
from .report import diff_reports, load_report, render_report, report_json
from .execution import default_workers, run_sweep
from .specs import (
    BACKENDS,
    DEFAULT_BACKEND,
    sweep_with_algo,
    sweep_with_backend,
)
from .store import DEFAULT_CACHE_DIR, ResultStore

__all__ = ["main"]


def _resolve_names(names: Sequence[str]) -> List[str]:
    if "all" in names:
        return [s.name for s in list_sweeps()]
    return list(names)


def _make_store(args: argparse.Namespace) -> Optional[ResultStore]:
    if args.no_cache:
        return None
    return ResultStore(args.cache)


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def progress(done, total, outcome):
        state = "cached" if outcome.cached else "ran"
        label = outcome.spec.label or outcome.spec.runner
        print(f"  [{done}/{total}] {label}: {state}", file=sys.stderr)

    return progress


def _cmd_list(args: argparse.Namespace) -> int:
    sweeps = list_sweeps()
    if getattr(args, "json", False):
        print(json.dumps([
            {
                "name": s.name,
                "title": s.title,
                "description": s.description,
                "scenarios": len(s),
                "assembler": s.assembler,
                "backends": sorted({sc.backend for sc in s.scenarios}),
                "key": s.key(),
            }
            for s in sweeps
        ] + [
            {
                "name": m.name,
                "title": m.title,
                "description": m.description,
                "scenarios": len(m),
                "assembler": "mega",
                "backends": ["analytic"],
                "key": m.key(),
            }
            for m in list_megas()
        ], indent=2, sort_keys=True))
        return 0
    megas = list_megas()
    width = max(len(s.name) for s in sweeps + megas)
    for sweep in sweeps:
        print(f"{sweep.name:<{width}}  {len(sweep):>4} scenario(s)  "
              f"{sweep.title}: {sweep.description}")
    for mega in megas:
        print(f"{mega.name:<{width}}  {len(mega):>4} scenario(s)  "
              f"{mega.title}: {mega.description} [mega]")
    return 0


def _cmd_platforms(args: argparse.Namespace) -> int:
    """Render the hardware catalog with its key derived quantities."""
    from ..hw.platform import list_platforms
    rows = [p.describe() for p in list_platforms()]
    header = (f"{'name':<10} {'CUs':>4} {'fp32':>7} {'fp16':>7} "
              f"{'HBM':>8} {'link':>7} {'nic':>6} {'g/node':>6} "
              f"{'vgprs':>9} {'fused occ':>9}")
    print(header)
    print("-" * len(header))
    for r in rows:
        print(f"{r['name']:<10} {r['num_cus']:>4} "
              f"{r['fp32_tflops']:>6.1f}T {r['fp16_tflops']:>6.0f}T "
              f"{r['hbm_tb_per_s']:>5.2f}TB/s "
              f"{r['link_gb_per_s']:>4.0f}GB {r['nic_gb_per_s']:>4.0f}GB "
              f"{r['gpus_per_node']:>6} "
              f"{r['baseline_vgprs']:>3}->{r['fused_vgprs']:<3} "
              f"{100 * r['fused_occupancy']:>8.1f}%")
    print("\nfp32/fp16: peak TFLOP/s; HBM: peak bandwidth; link/nic: "
          "per-link bandwidth;")
    print("vgprs: derived baseline->fused kernel registers/thread; "
          "fused occ: the fused")
    print("kernel's derived occupancy (the calibrated MI210 loses the "
          "paper's 12.5%).")
    return 0


def _cmd_algos(args: argparse.Namespace) -> int:
    """Render the collective-algorithm catalog and selection heuristic."""
    from ..collectives import (
        PAIRWISE_MAX_BYTES,
        TREE_MAX_BYTES,
        algorithm_table,
    )
    rows = algorithm_table()
    if getattr(args, "json", False):
        print(json.dumps([
            {"kind": kind, "name": name, "summary": summary}
            for kind, name, summary in rows
        ], indent=2, sort_keys=True))
        return 0
    width = max(len(name) for _k, name, _s in rows)
    for kind in ("allreduce", "alltoall"):
        print(f"{kind}:")
        for k, name, summary in rows:
            if k == kind:
                print(f"  {name:<{width}}  {summary}")
    print("\nauto-selection: single node -> direct/flat (fully-connected "
          "fabric).")
    print(f"AllReduce across nodes: <= {TREE_MAX_BYTES // 1024} KB is "
          "overhead-bound -> hier (tree on 1-GPU nodes); larger -> ring.")
    print(f"All-to-All across nodes: chunks <= {PAIRWISE_MAX_BYTES // 1024}"
          " KB are message-rate-bound -> hier (pairwise on 1-GPU nodes); "
          "larger -> flat.")
    print("\nSelect per sweep with `run SWEEP --algo NAME` (or `auto`); "
          "scenarios without an")
    print("algo parameter keep the legacy schedule and their existing "
          "cache keys.")
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    """Result-store hygiene: record count, bytes, per-sweep breakdown."""
    store = ResultStore(args.cache)
    sizes = {key: store.path_for(key).stat().st_size
             for key in store.keys()}
    total_records, total_bytes = len(sizes), sum(sizes.values())
    rows = []
    claimed = set()
    for sweep in list_sweeps():
        keys = {s.key() for s in sweep.scenarios}
        keys.add(sweep.key())
        cached = keys & sizes.keys()
        claimed |= cached
        rows.append({
            "sweep": sweep.name,
            "records": len(cached),
            "scenarios": len(sweep),
            "bytes": sum(sizes[k] for k in cached),
        })
    other = sizes.keys() - claimed
    if getattr(args, "json", False):
        print(json.dumps({
            "cache": str(store.root),
            "records": total_records,
            "bytes": total_bytes,
            "sweeps": rows,
            "other_records": len(other),
            "other_bytes": sum(sizes[k] for k in other),
        }, indent=2, sort_keys=True))
        return 0
    print(f"{store.root}: {total_records} record(s), {total_bytes} bytes")
    width = max(len(r["sweep"]) for r in rows)
    for r in rows:
        if not r["records"]:
            continue
        # A sweep can claim len(sweep)+1 records: its scenarios plus the
        # sweep-level assembled-figure record.
        print(f"  {r['sweep']:<{width}}  {r['records']:>5}/{r['scenarios'] + 1:<5} "
              f"record(s)  {r['bytes']:>10} bytes")
    if other:
        print(f"  {'(unregistered)':<{width}}  {len(other):>5}       "
              f"record(s)  {sum(sizes[k] for k in other):>10} bytes")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from ..analytic.validate import run_validation
    store = _make_store(args)
    report = run_validation(store=store, workers=args.workers,
                            progress=_progress_printer(args.quiet))
    if getattr(args, "json", False):
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _run_and_render(args: argparse.Namespace, expect_cached: bool) -> int:
    store = _make_store(args)
    report_dir = getattr(args, "report_dir", None)
    if report_dir is not None:
        Path(report_dir).mkdir(parents=True, exist_ok=True)
    status = 0
    backend = getattr(args, "backend", None)
    algo = getattr(args, "algo", None)
    for name in _resolve_names(args.sweeps):
        mega = find_mega(name)
        if mega is not None:
            if backend == "sim":
                print(f"::error::{name}: mega sweeps are analytic-only",
                      file=sys.stderr)
                return 1
            if algo is not None:
                print(f"::error::{name}: mega sweeps fix their algo axis "
                      f"in the grid; --algo does not apply", file=sys.stderr)
                return 1
            print(f"== {name} ({len(mega)} scenarios) ==", file=sys.stderr)
            run = run_mega(mega, store=store, force=args.force)
            report = run.report()
            print(render_report(report))
            print(f"{name}: {len(mega)} scenarios, {run.cache_hits} cached, "
                  f"{run.executed} executed", file=sys.stderr)
            print()
            if report_dir is not None:
                out = Path(report_dir) / f"{name}.json"
                out.write_text(report_json(report), encoding="utf-8")
                print(f"wrote {out}", file=sys.stderr)
            if expect_cached and run.executed:
                print(f"::error::{name}: expected a fully cached run but "
                      f"{run.executed} scenario(s) executed", file=sys.stderr)
                status = 1
            continue
        sweep = get_sweep(name)
        if backend is not None:
            sweep = sweep_with_backend(sweep, backend)
        if algo is not None:
            sweep = sweep_with_algo(sweep, algo)
        print(f"== {name} ({len(sweep)} scenarios) ==", file=sys.stderr)
        run = run_sweep(sweep, store=store, workers=args.workers,
                        force=args.force,
                        progress=_progress_printer(args.quiet))
        report = run.report()
        print(render_report(report))
        print(f"{name}: {len(sweep)} scenarios, {run.cache_hits} cached, "
              f"{run.executed} executed", file=sys.stderr)
        print()
        if report_dir is not None:
            out = Path(report_dir) / f"{name}.json"
            out.write_text(report_json(report), encoding="utf-8")
            print(f"wrote {out}", file=sys.stderr)
        if expect_cached and run.executed:
            print(f"::error::{name}: expected a fully cached run but "
                  f"{run.executed} scenario(s) executed", file=sys.stderr)
            status = 1
    return status


def _cmd_run(args: argparse.Namespace) -> int:
    return _run_and_render(args, expect_cached=args.expect_cached)


def _cmd_report(args: argparse.Namespace) -> int:
    args.force = False
    return _run_and_render(args, expect_cached=False)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Export a Chrome/Perfetto trace of the named sweeps' scenarios.

    Scenarios run inline (no cache interaction — tracing is a profiling
    view, not an execution mode), each inside the process-wide
    :class:`~repro.obs.capture.TraceCapture`, so every simulated cluster
    they build contributes a labelled run to the export.
    """
    from ..obs.capture import TraceCapture
    from ..obs.chrome import write_chrome_trace
    from ..obs.metrics import MetricsRegistry
    from .execution import run_scenario
    host = MetricsRegistry() if args.host_spans else None
    matched = 0
    with TraceCapture() as cap:
        for name in _resolve_names(args.sweeps):
            if find_mega(name) is not None:
                print(f"::error::{name}: mega sweeps are analytic-only; "
                      f"there is no simulated timeline to trace",
                      file=sys.stderr)
                return 1
            sweep = get_sweep(name)
            for spec in sweep.scenarios:
                label = spec.label or spec.runner
                if args.scenario is not None and args.scenario != label:
                    continue
                matched += 1
                cap.begin_scenario(f"{name}:{label}")
                if host is not None:
                    with host.timer(f"{name}:{label}"):
                        run_scenario(spec)
                else:
                    run_scenario(spec)
                if not args.quiet:
                    print(f"  traced {name}:{label}", file=sys.stderr)
    if not matched:
        print(f"::error::no scenario labelled {args.scenario!r} in "
              f"{args.sweeps}", file=sys.stderr)
        return 1
    if cap.n_events == 0:
        print("::error::nothing traced — the selected scenarios build no "
              "simulated cluster (analytic backend?)", file=sys.stderr)
        return 1
    out = write_chrome_trace(
        args.out, cap.runs,
        host_spans=host.host_spans if host is not None else ())
    print(f"wrote {out} ({cap.n_events} trace events, "
          f"{len(cap.runs)} run(s))", file=sys.stderr)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run sweeps with the metrics registry live and print its snapshot."""
    from ..obs.metrics import MetricsRegistry, enable_metrics, reset_metrics
    store = _make_store(args)
    registry = enable_metrics(MetricsRegistry())
    try:
        for name in _resolve_names(args.sweeps):
            mega = find_mega(name)
            if mega is not None:
                run = run_mega(mega, store=store, force=args.force)
            else:
                run = run_sweep(get_sweep(name), store=store,
                                workers=args.workers, force=args.force,
                                progress=_progress_printer(args.quiet))
            print(f"{name}: {run.cache_hits} cached, {run.executed} "
                  f"executed", file=sys.stderr)
        if getattr(args, "json", False):
            print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
        else:
            print(registry.render())
    finally:
        reset_metrics()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from ..lint.cli import run as run_lint_cli
    return run_lint_cli(args)


def _cmd_diff(args: argparse.Namespace) -> int:
    diff = diff_reports(load_report(args.old), load_report(args.new),
                        rtol=args.rtol)
    print(diff.render())
    return 0 if diff.ok else 1


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="evaluation engine for every scenario (default: whatever the "
             f"sweep declares, usually {DEFAULT_BACKEND!r}; 'analytic' is "
             "the closed-form backend and re-keys the cache records)")
    parser.add_argument(
        "--algo", default=None,
        help="collective-algorithm schedule for every scenario (a "
             "`python -m repro algos` name, or 'auto' for the "
             "size/topology selector; re-keys the cache records). Only "
             "collective-bearing sweeps accept it — runners without a "
             "baseline collective reject the parameter.")


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache", default=DEFAULT_CACHE_DIR,
                        help="result-store directory "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result store entirely")
    parser.add_argument("--workers", type=int, default=default_workers(),
                        help="worker processes for uncached scenarios "
                             "(default: $REPRO_WORKERS or 1)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-scenario progress lines")
    parser.add_argument("--report-dir", default=None,
                        help="also write <sweep>.json report files here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, cache, and compare the paper's evaluation sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered sweeps")
    p_list.add_argument("--json", action="store_true",
                        help="machine-readable listing (names, sizes, keys)")
    p_list.set_defaults(fn=_cmd_list)

    sub.add_parser(
        "platforms",
        help="list the hardware platform catalog (derived quantities)"
    ).set_defaults(fn=_cmd_platforms)

    p_algos = sub.add_parser(
        "algos",
        help="list the collective-algorithm catalog and selection "
             "heuristic")
    p_algos.add_argument("--json", action="store_true",
                         help="machine-readable listing")
    p_algos.set_defaults(fn=_cmd_algos)

    p_run = sub.add_parser("run", help="execute sweeps")
    p_run.add_argument("sweeps", nargs="+",
                       help="sweep names (or 'all')")
    _add_cache_args(p_run)
    _add_backend_arg(p_run)
    p_run.add_argument("--force", action="store_true",
                       help="re-execute scenarios even on cache hits")
    p_run.add_argument("--expect-cached", action="store_true",
                       help="fail unless every scenario is a cache hit "
                            "(CI cache-behaviour gate)")
    p_run.set_defaults(fn=_cmd_run)

    p_report = sub.add_parser(
        "report", help="render sweeps (cache-aware; cached runs are free)")
    p_report.add_argument("sweeps", nargs="+", help="sweep names (or 'all')")
    _add_cache_args(p_report)
    _add_backend_arg(p_report)
    p_report.set_defaults(fn=_cmd_report)

    p_validate = sub.add_parser(
        "validate",
        help="run matched sim/analytic grids; fail outside the accuracy "
             "budget")
    _add_cache_args(p_validate)
    p_validate.add_argument("--json", action="store_true",
                            help="machine-readable validation report")
    p_validate.set_defaults(fn=_cmd_validate)

    p_cache = sub.add_parser("cache", help="result-store tooling")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_stats = cache_sub.add_parser(
        "stats", help="record count / bytes / per-sweep breakdown")
    p_stats.add_argument("--cache", default=DEFAULT_CACHE_DIR,
                         help="result-store directory "
                              f"(default: {DEFAULT_CACHE_DIR})")
    p_stats.add_argument("--json", action="store_true",
                         help="machine-readable statistics")
    p_stats.set_defaults(fn=_cmd_cache_stats)

    p_trace = sub.add_parser(
        "trace",
        help="export a Chrome/Perfetto trace of a sweep's scenarios")
    p_trace.add_argument("sweeps", nargs="+",
                         help="sweep names (or 'all')")
    p_trace.add_argument("--out", default="trace.json",
                         help="output path (default: trace.json); load it "
                              "in Perfetto or chrome://tracing")
    p_trace.add_argument("--scenario", default=None,
                         help="only trace the scenario with this label")
    p_trace.add_argument("--host-spans", action="store_true",
                         help="also record host wall-clock per-scenario "
                              "spans (nondeterministic; keep off for "
                              "golden comparisons)")
    p_trace.add_argument("--quiet", action="store_true",
                         help="suppress per-scenario progress lines")
    p_trace.set_defaults(fn=_cmd_trace)

    p_stats = sub.add_parser(
        "stats",
        help="run sweeps with the run-metrics registry live and print "
             "its counters/gauges/timers")
    p_stats.add_argument("sweeps", nargs="+", help="sweep names (or 'all')")
    _add_cache_args(p_stats)
    p_stats.add_argument("--force", action="store_true",
                         help="re-execute scenarios even on cache hits")
    p_stats.add_argument("--json", action="store_true",
                         help="machine-readable metrics snapshot")
    p_stats.set_defaults(fn=_cmd_stats)

    from ..lint.cli import build_parser as build_lint_parser
    p_lint = sub.add_parser(
        "lint",
        help="statically enforce the repo's determinism, hot-path, "
             "parameter and registry contracts")
    build_lint_parser(p_lint)
    p_lint.set_defaults(fn=_cmd_lint)

    p_diff = sub.add_parser(
        "diff", help="compare two sweep report JSON files")
    p_diff.add_argument("old", help="baseline report path")
    p_diff.add_argument("new", help="candidate report path")
    p_diff.add_argument("--rtol", type=float, default=0.0,
                        help="allowed relative deviation per metric "
                             "(default: exact)")
    p_diff.set_defaults(fn=_cmd_diff)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)
