"""Reference implementations the tests check production code against."""

from typing import Callable, Dict, Iterable, List, Sequence, Tuple, TypeVar

from repro.analytic.explorer import dominates
from repro.astra.graph import _RESOURCES, ExecutionGraph
from repro.comm.shmem import FlagArray, _Countdown
from repro.sim import Event

T = TypeVar("T")


def pareto_frontier_legacy(items: Sequence[T],
                           objectives: Callable[[T], Tuple[float, ...]]
                           ) -> List[T]:
    """All-pairs ``O(n^2)`` Pareto frontier: the regression oracle for
    :func:`repro.analytic.explorer.pareto_frontier`."""
    objs = [tuple(objectives(it)) for it in items]
    out: List[T] = []
    for i, item in enumerate(items):
        if not any(dominates(objs[j], objs[i]) for j in range(len(items))
                   if j != i):
            out.append(item)
    return out


def flag_wait_all_legacy(flags: FlagArray, rank: int, idxs: Iterable[int],
                         value: int = 1) -> Event:
    """Per-wait :meth:`repro.comm.shmem.FlagArray.wait_all`: every pending
    call gets its own countdown and its own event — the oracle for joined
    identical waits."""
    ev = flags.sim.event()
    vals = flags._values[rank]
    pending = [i for i in idxs if vals[i] < value]
    if not pending:
        ev.succeed()
        return ev
    countdown = _Countdown(ev, len(pending))
    for i in pending:
        flags._waiters.setdefault((rank, i), []).append((value, countdown))
    return ev


def graph_simulate_legacy(graph: ExecutionGraph
                          ) -> Tuple[float, Dict[str, Tuple[float, float]]]:
    """Rescan-every-pending-node list scheduling: the oracle for
    :meth:`repro.astra.ExecutionGraph.simulate`'s ready list."""
    free_at = {"comp": 0.0, "net": 0.0}
    done: Dict[str, float] = {}
    spans: Dict[str, Tuple[float, float]] = {}
    pending = graph.nodes()
    while pending:
        best = None
        best_start = None
        for node in pending:
            if any(d not in done for d in node.deps):
                continue
            ready = max((done[d] for d in node.deps), default=0.0)
            start = max([ready] + [free_at[r]
                                   for r in _RESOURCES[node.kind]])
            if best_start is None or start < best_start:
                best, best_start = node, start
        if best is None:
            raise ValueError("dependency cycle in execution graph")
        end = best_start + best.duration
        for r in _RESOURCES[best.kind]:
            free_at[r] = end
        done[best.name] = end
        spans[best.name] = (best_start, end)
        pending.remove(best)
    return (max(done.values()) if done else 0.0), spans
