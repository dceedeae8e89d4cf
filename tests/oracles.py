"""Reference implementations the tests check production code against."""

from typing import Callable, Iterable, List, Sequence, Tuple, TypeVar

from repro.analytic.explorer import dominates
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
