"""Kernel execution layer: grids, persistent WGs, occupancy, scheduling."""

from .flags import WgDoneBitmask
from .grid import SlotContext, WgTask
from .kernel import PersistentKernel, make_uniform_tasks, run_kernel
from .occupancy import max_active_wgs, occupancy_sweep_points
from .scheduler import SCHEDULERS, comm_aware_order, get_scheduler, oblivious_order

__all__ = [
    "PersistentKernel",
    "SCHEDULERS",
    "SlotContext",
    "WgDoneBitmask",
    "WgTask",
    "comm_aware_order",
    "get_scheduler",
    "make_uniform_tasks",
    "max_active_wgs",
    "oblivious_order",
    "occupancy_sweep_points",
    "run_kernel",
]
