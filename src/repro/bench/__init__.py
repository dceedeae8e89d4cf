"""Benchmark harness: paired fused/baseline runs, figure results, and the
host-performance report.

:class:`FigureResult` is what every registered figure sweep assembles
(see :mod:`repro.experiments.figures`); :func:`compare` runs one
fused/baseline pair on fresh clusters.  Regenerate a paper figure with
``repro.experiments.regenerate("fig9")`` or
``run_sweep(fig9_sweep(grid=...)).figure()``.
"""

from .harness import FigureResult, Row, compare
from .perf import time_call, write_bench_report

__all__ = [
    "FigureResult",
    "Row",
    "compare",
    "time_call",
    "write_bench_report",
]
