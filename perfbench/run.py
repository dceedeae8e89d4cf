"""Host-time benchmark of the ``repro`` package.

Run from the repository root::

    python3 perfbench/run.py --workload des-ops --seed 1 --seconds 16 --trace 0

Workloads (see :mod:`workloads`): ``des-ops``, ``analytic-points``,
``analytic-mega``, ``sweep-warm``.  A run regenerates the workload from
``--seed`` and splits its call plan over :data:`PARTS` worker processes,
started one after another and never at the same time, so set-up is
measured in several fresh interpreters.

The amount of work is fixed by ``--seed`` and ``--seconds``:
``--seconds`` sets the number of calls through each workload's nominal
call rate (never fewer than :data:`MIN_CALLS`), and the run then makes
all of them, however long they take.

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics.  The four time metrics are host wall-clock times
(``time.perf_counter``), each divided by the machine's speed factor at
its moment (see :mod:`speed`); the lines above the JSON also give them
unscaled.

* ``scenarios_per_s``: scenarios (design points for ``analytic-mega``)
  completed over the summed time of the timed calls;
* ``call_ms_p50``, ``call_ms_p90``: per-call latency over all calls;
* ``setup_s``: median over the workers of the time from spawning a fresh
  interpreter to its first timed call (imports, registration, workload
  generation, the ``sweep-warm`` cold run, warm-up calls);
* ``peak_rss_mb``: median over the workers of each one's peak RSS;
* ``ok_frac``: calls that returned and passed every output check, over
  calls attempted.

With ``--trace 1`` the workers alternate untraced and traced calls and
the JSON carries the per-layer metrics of :mod:`tracing` instead; the
layer table goes to ``perfbench/.out/<workload>.layers.json`` and each
worker's spans to ``perfbench/.out/<workload>.part<N>.trace.json``
(Chrome trace format, loadable in Perfetto).
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent

#: Worker processes per run.
PARTS = 4
#: Timed calls per run are never fewer (p90 then has 10 samples above it).
MIN_CALLS = 100
#: Calls per second of ``--seconds``: about the rate one worker makes
#: calls at on a 2-core x86 VM under Python 3.11.
NOMINAL_RATE = {"des-ops": 6.8, "analytic-points": 8.0,
                "analytic-mega": 7.0, "sweep-warm": 6.0}
#: The whole run, workers included, must end within this many seconds.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"scenarios_per_s": "scenarios/s", "call_ms_p50": "ms",
                    "call_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "ratio"}


def plan_calls(workload: str, seconds: int) -> int:
    """Timed calls per run for ``--seconds``."""
    return max(MIN_CALLS, math.ceil(seconds * NOMINAL_RATE[workload]))


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def worker_env(root: Path) -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` switch, with the
    checkout's sources first on the path and one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH_DIR)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_workers(args, root: Path, deadline: float) -> List[Dict[str, Any]]:
    """Run the workers one after another; returns their reports, each with
    the worker's set-up time added."""
    env = worker_env(root)
    work = BENCH_DIR / ".work"
    try:
        return [run_worker(args, root, env, part, work, deadline)
                for part in range(PARTS)]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_worker(args, root: Path, env: Dict[str, str], part: int, work: Path,
               deadline: float) -> Dict[str, Any]:
    """Start worker ``part`` in a fresh interpreter and wait for it."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--calls", str(plan_calls(args.workload, args.seconds)),
           "--part", str(part), "--parts", str(PARTS),
           "--trace", str(args.trace),
           "--workdir", str(work / f"{args.workload}-{part}")]
    if args.trace:
        cmd += ["--chrome", str(BENCH_DIR / ".out"
                                / f"{args.workload}.part{part}.trace.json")]
    t_spawn = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {part} exited with {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["t_first"] - t_spawn
    return out


def judge(parts: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Every call, marked ``ok`` when it returned, passed its checks and
    matched the result of the first call of the same input."""
    calls = sorted((c for p in parts for c in p["calls"]),
                   key=lambda c: c["pos"])
    reference: Dict[str, Optional[str]] = {}
    for c in calls:
        if c["error"] is None:
            reference.setdefault(c["key"], c["digest"])
    for c in calls:
        c["ok"] = (c["error"] is None
                   and c["digest"] == reference.get(c["key"]))
        if c["error"] is None and not c["ok"]:
            print(f"call {c['pos']}: result differs from an earlier repeat "
                  f"of the same input", file=sys.stderr)
    return calls


def attach_speed(parts: List[Dict[str, Any]]) -> None:
    """Give every call its speed factor ``f``, and every worker the factor
    of its first call (see :mod:`speed`)."""
    from speed import speed_factors
    for p in parts:
        factors = speed_factors(p["probe_kind"],
                                [c["probe"] for c in p["calls"]])
        for c, f in zip(p["calls"], factors):
            c["f"] = f
        p["f"] = factors[0]


def end_to_end(parts, calls, scaled: bool) -> Dict[str, Any]:
    """The end-to-end metrics; with ``scaled``, every host time is divided
    by the speed factor of its moment."""
    secs = [c["s"] / c["f"] if scaled else c["s"] for c in calls]
    setups = [p["setup_s"] / p["f"] if scaled else p["setup_s"]
              for p in parts]
    return {
        "scenarios_per_s": sum(c["n"] for c in calls) / sum(secs),
        "call_ms_p50": 1e3 * statistics.median(secs),
        "call_ms_p90": 1e3 * percentile(secs, 0.9),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in parts) / 1024,
        "ok_frac": sum(c["ok"] for c in calls) / len(calls),
    }


def per_layer(args, parts, calls) -> Dict[str, Any]:
    from tracing import LAYER_METRICS, layer_metrics, merge_aggregates
    timed = [c["s"] for c in calls if not c["traced"]]
    traced = [c["s"] for c in calls if c["traced"]]
    values = layer_metrics(
        merge_aggregates([p["layers"] for p in parts]),
        import_s=statistics.median(p["import_s"] for p in parts),
        gen_s=statistics.median(p["gen_s"] for p in parts),
        overhead_frac=statistics.median(traced) / statistics.median(timed) - 1)
    out_dir = BENCH_DIR / ".out"
    out_dir.mkdir(exist_ok=True)
    table = {name: {"value": values[name], "unit": unit}
             for name, (unit, _better) in LAYER_METRICS.items()}
    (out_dir / f"{args.workload}.layers.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "traced_calls": len(traced), "metrics": table},
                   indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_RATE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro package under {root}: run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    # Compile once up front, so no worker's set-up pays for .pyc writes.
    compileall.compile_dir(root / "src", quiet=1)
    compileall.compile_dir(BENCH_DIR, quiet=1, maxlevels=0)

    try:
        parts = run_workers(args, root, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    expected = str((root / "src" / "repro").resolve())
    digests = {p["inputs_digest"] for p in parts}
    if any(p["repro"] != expected for p in parts) or len(digests) != 1:
        print("workers disagree on the package or the inputs",
              file=sys.stderr)
        return 1

    attach_speed(parts)
    calls = judge(parts)
    failed = sum(not c["ok"] for c in calls)
    factor = statistics.median(c["f"] for c in calls)
    raw: Dict[str, float] = {}
    if args.trace:
        metrics = per_layer(args, parts, calls)
    else:
        raw = end_to_end(parts, calls, scaled=False)
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end(parts, calls,
                                                 scaled=True).items()}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"inputs sha256 {digests.pop()}")
    print(f"calls {len(calls)} in {PARTS} processes  failed {failed}  "
          f"median speed factor {factor:.4f}")
    for name, m in metrics.items():
        unscaled = f"  (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}{unscaled}")
    print(json.dumps({"correct": failed == 0, "attempted": len(calls),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
