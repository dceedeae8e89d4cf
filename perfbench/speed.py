"""Machine-speed probes: fixed pieces of interpreter or NumPy work.

The reference VM's speed drifts by tens of percent over seconds to
minutes (other tenants share the host), and that drift moves every host
time a run measures.  Before every timed call, outside the timer, a
worker times the probe of its workload's kind, so the probes sample the
same moments as the calls.  ``run.py`` divides each call's time by the
speed factor at that moment: the median of the 17 probes around the
call over the probe's time on the reference machine.

Each workload uses the probe closest to its own work: ``numpy`` for the
vectorized grid workload, whose speed follows memory bandwidth, and
``python`` for the interpreter-bound rest.  The probes run none of the
program's code, and the garbage collector is off while they run, so the
program's heap does not bear on their time.
"""

from __future__ import annotations

import gc
import heapq
import json
import statistics
import time
from typing import Callable, Dict, List

import numpy as np

class _Event:
    __slots__ = ("t", "n")

    def __init__(self, t: float, n: int):
        self.t = t
        self.n = n


def _accumulate():
    total = 0.0
    while True:
        total += yield total


_EVENTS = [_Event(0.5 * i, i) for i in range(20_000)]
_KEYS = [("k", i) for i in range(256)]
_GRID = np.random.default_rng(0).permutation(100_000).astype(np.float64)
_BUF = (np.empty_like(_GRID), np.empty_like(_GRID))


def _python() -> None:
    """What the event loop and the closed forms do: heap pushes and pops
    over objects spread through memory, a generator resumed per event,
    attribute reads, dict updates and a JSON round trip."""
    heap: List[tuple] = []
    acc = _accumulate()
    next(acc)
    for i in range(2000):
        ev = _EVENTS[(i * 7919) % len(_EVENTS)]
        heapq.heappush(heap, (ev.t + i % 97, i, ev))
        acc.send(1.0)
    total = 0.0
    while heap:
        ev = heapq.heappop(heap)[2]
        total += ev.t * ev.n
    counts: Dict[tuple, float] = {}
    for i in range(4000):
        key = _KEYS[i % 256]
        counts[key] = counts.get(key, 0.0) + i * 0.5
    json.loads(json.dumps({str(k[1]): v for k, v in counts.items()},
                          sort_keys=True))


def _numpy() -> None:
    """What the vectorized grid engine does: elementwise passes and a sort
    over columns larger than the CPU caches.  It writes into preallocated
    buffers, so the allocator state the program leaves behind does not
    bear on its time."""
    b, c = _BUF
    np.multiply(_GRID, 1.0001, out=b)
    np.add(b, 3.0, out=b)
    np.sqrt(b, out=c)
    np.add(b, 1.0, out=b)
    np.divide(c, b, out=c)
    b[:] = c
    b[:20_000].sort(kind="stable")
    float(b[::7].sum())


PROBES: Dict[str, Callable[[], None]] = {"python": _python, "numpy": _numpy}

#: Median probe time on the reference machine (2-core x86 VM, Python
#: 3.11.7, NumPy 1.26) in its usual state, where the factor is then
#: about 1; in the machine's fast spells it reads about 0.45.
NOMINAL_S: Dict[str, float] = {"python": 0.0045, "numpy": 0.0023}

#: Probes per side of a call in the speed factor's moving median.
WINDOW = 8


def probe(kind: str) -> float:
    """Run the ``kind`` probe once; returns its wall time in seconds."""
    work = PROBES[kind]
    gc.disable()
    try:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def speed_factors(kind: str, probes: List[float]) -> List[float]:
    """Per-call speed factors of one worker: the moving median of its
    probe times, over the nominal probe time."""
    n = len(probes)
    return [statistics.median(probes[max(0, k - WINDOW):k + WINDOW + 1])
            / NOMINAL_S[kind] for k in range(n)]
