"""Reference implementations the tests check production code against."""

from typing import Callable, List, Sequence, Tuple, TypeVar

from repro.analytic.explorer import dominates

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
