"""One worker process of a benchmark run.

``run.py`` starts several of these, one after another, for one workload.
Each regenerates the workload from the seed, sets it up, warms it up,
then makes every ``parts``-th call of the plan starting at ``part``.  It
prints one JSON object on its last stdout line: the clock reading at its
first timed call (``time.perf_counter`` is system-wide on Linux, so the
parent can subtract its own reading taken just before the spawn), the
per-call timings, speed probes (see :mod:`speed`), digests and check
failures, and its peak RSS.

With ``--trace 1`` the worker alternates: even calls are timed with
tracing off, odd calls are traced (see :mod:`tracing`).  It then also
reports the layer aggregates and writes its spans as a Chrome trace.

Usage (from the repository root, with ``src`` and ``perfbench`` on
``PYTHONPATH``)::

    python3 perfbench/worker.py --workload des-ops --seed 1 --calls 136 \\
        --part 0 --parts 4 --trace 0 --workdir perfbench/.work/des-ops-0
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()

#: Traced calls whose spans go into the Chrome trace (the aggregates use
#: every traced call).
CHROME_CALLS = 4


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--calls", type=int, required=True)
    ap.add_argument("--part", type=int, required=True)
    ap.add_argument("--parts", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--chrome", type=Path, default=None)
    args = ap.parse_args(argv)

    import repro
    from repro.experiments import ensure_registered
    ensure_registered()
    t_import = time.perf_counter()

    from speed import probe
    from workloads import make_workload
    args.workdir.mkdir(parents=True, exist_ok=True)
    wl = make_workload(args.workload, args.seed, args.calls, args.workdir)
    t_gen = time.perf_counter()

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    calls = []
    try:
        wl.setup()
        wl.warmup()
        mine = list(range(args.part, len(wl.plan), args.parts))
        for k, pos in enumerate(mine):
            i = wl.plan[pos]
            traced = tracer is not None and k % 2 == 1
            gc.collect()
            speed = probe(wl.probe_kind)
            if traced:
                tracer.install(pos)
            t0 = time.perf_counter()
            if not k:
                t_first = t0
            try:
                result = wl.call(i)
                err = None
            except Exception:
                result, err = None, traceback.format_exc(limit=4)
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall(wall)
            digest = None
            if err is None:
                digest = wl.result_digest(i, result)
                err = wl.check(i, result, digest)
            if err is not None:
                print(f"call {pos} ({wl.input_key(i)[:12]}) failed: {err}",
                      file=sys.stderr)
            calls.append({"pos": pos, "key": wl.input_key(i), "s": wall,
                          "n": wl.scenarios(i), "digest": digest,
                          "error": err, "traced": traced, "probe": speed})
            del result
    finally:
        wl.close()

    out = {
        "repro": str(Path(repro.__file__).resolve().parent),
        "inputs_digest": wl.inputs_digest(),
        "t_first": t_first,
        "import_s": t_import - T_START,
        "gen_s": t_gen - t_import,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calls": calls,
        "probe_kind": wl.probe_kind,
    }
    if tracer is not None:
        out["layers"] = tracer.aggregate()
        if args.chrome is not None:
            from repro.obs.chrome import write_chrome_trace
            args.chrome.parent.mkdir(parents=True, exist_ok=True)
            write_chrome_trace(args.chrome, [],
                               host_spans=tracer.host_spans(CHROME_CALLS))
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
