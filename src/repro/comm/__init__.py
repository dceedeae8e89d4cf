"""Communication substrate: symmetric heap, SHMEM API, collectives."""

from .collectives import CollectiveLibrary
from .runtime import Communicator
from .shmem import FlagArray, ShmemContext
from .symheap import HeapError, SymmetricBuffer, SymmetricHeap

__all__ = [
    "CollectiveLibrary",
    "Communicator",
    "FlagArray",
    "HeapError",
    "ShmemContext",
    "SymmetricBuffer",
    "SymmetricHeap",
]
