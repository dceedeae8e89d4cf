"""Logical-WG scheduling policies.

The paper's *communication-aware scheduling* (Sections III-A/IV-C, Fig. 14)
executes logical WGs that produce remotely-communicated slices *before* the
ones producing locally-consumed slices, maximizing the window in which
remote transfers overlap with remaining computation.  The baseline
*communication-oblivious* order starts from WG (0,0,0) and proceeds
sequentially.

Policies are pure functions over task lists (stable — they never reorder
within the remote or local groups), so they compose with any kernel.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from .grid import WgTask

__all__ = ["comm_aware_order", "oblivious_order", "SCHEDULERS", "get_scheduler"]


def oblivious_order(tasks: Sequence[WgTask]) -> List[WgTask]:
    """Baseline: natural task order (WG (0,0,0) onward)."""
    return list(tasks)


def comm_aware_order(tasks: Sequence[WgTask]) -> List[WgTask]:
    """Remote-slice tasks first, each group in stable original order."""
    remote: List[WgTask] = []
    local: List[WgTask] = []
    for t in tasks:
        (remote if t.meta.get("remote", False) else local).append(t)
    return remote + local


SCHEDULERS: dict = {
    "comm_aware": comm_aware_order,
    "oblivious": oblivious_order,
}


def get_scheduler(name: str) -> Callable[[Sequence[WgTask]], List[WgTask]]:
    try:
        return SCHEDULERS[name]
    except KeyError:
        raise KeyError(f"unknown scheduler {name!r}; "
                       f"choose from {sorted(SCHEDULERS)}") from None
