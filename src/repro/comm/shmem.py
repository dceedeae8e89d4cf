"""GPU-initiated intra-kernel communication API (ROC_SHMEM-like).

This module provides the primitives the paper's fused kernels are written
against:

* :meth:`ShmemContext.put_nbi` — non-blocking put of a NumPy payload into a
  peer rank's symmetric buffer.  Routed over the intra-node fabric (native
  stores) or the NIC (RDMA) depending on where the destination rank lives.
* :meth:`ShmemContext.fence` — ordering: all prior puts to a destination
  complete before anything issued after the fence.
* :meth:`ShmemContext.quiet` — all outstanding puts from this rank complete.
* :meth:`ShmemContext.put_signal` — the paper's "PUT data, remote fence,
  PUT sliceRdy flag" idiom as one call: the flag write is issued only after
  the payload is delivered.
* :class:`FlagArray` / :meth:`ShmemContext.wait_until` — remote-visible flag
  words that consumer workgroups poll on.
* :meth:`FlagArray.wait_all` — poll a whole subset of flags (a persistent
  WG's share of ``sliceRdy``) with one event that fires once, when the
  last flag lands, instead of one wake per flag.  It resumes the waiter
  at the same simulated time as polling the flags one by one.

Functional data movement happens eagerly (NumPy copies) while the *timing*
of visibility is carried by events — consumers must gate on flags, exactly
as real fused kernels must.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..sim import Event, Simulator

__all__ = ["FlagArray", "ShmemContext"]

#: Size of one flag word on the wire (bytes).
FLAG_BYTES = 8


class _Countdown:
    """A :meth:`FlagArray.wait_all` waiter: succeeds its event at zero."""

    __slots__ = ("event", "left")

    def __init__(self, event: Event, left: int):
        self.event = event
        self.left = left

    def succeed(self, _value: int) -> None:
        self.left -= 1
        if self.left == 0:
            self.event.succeed()


class FlagArray:
    """A symmetric array of integer flags with event-based waiters."""

    def __init__(self, sim: Simulator, world_size: int, n_flags: int,
                 name: str = "flags"):
        if n_flags < 1:
            raise ValueError("n_flags must be >= 1")
        self.sim = sim
        self.name = name
        self.n_flags = n_flags
        # One list of flag words per rank: element access on plain lists
        # is what every poll and set pays, and is several times cheaper
        # than NumPy scalar indexing.
        self._values = [[0] * n_flags for _ in range(world_size)]
        # Waiters per flag: (wanted value, Event or _Countdown).
        self._waiters: Dict[Tuple[int, int], List[Tuple[int, Any]]] = {}

    def read(self, rank: int, idx: int) -> int:
        return self._values[rank][idx]

    def set(self, rank: int, idx: int, value: int = 1) -> None:
        """Set a flag on ``rank`` *now* and wake satisfied waiters."""
        self._values[rank][idx] = value
        key = (rank, idx)
        waiters = self._waiters.pop(key, [])
        still = []
        for want, ev in waiters:
            if value >= want:
                ev.succeed(value)
            else:
                still.append((want, ev))
        if still:
            self._waiters[key] = still

    def wait_until(self, rank: int, idx: int, value: int = 1) -> Event:
        """Event that fires when flag ``idx`` on ``rank`` reaches ``value``."""
        ev = self.sim.event()
        current = self._values[rank][idx]
        if current >= value:
            ev.succeed(current)
        else:
            self._waiters.setdefault((rank, idx), []).append((value, ev))
        return ev

    def wait_all(self, rank: int, idxs: Iterable[int],
                 value: int = 1) -> Event:
        """Event that fires once every flag in ``idxs`` on ``rank`` has
        reached ``value``: when the last one lands, or now if all have."""
        ev = self.sim.event()
        vals = self._values[rank]
        pending = [i for i in idxs if vals[i] < value]
        if not pending:
            ev.succeed()
            return ev
        countdown = _Countdown(ev, len(pending))
        waiters = self._waiters
        for i in pending:
            waiters.setdefault((rank, i), []).append((value, countdown))
        return ev

    def all_set(self, rank: int, value: int = 1) -> bool:
        return all(v >= value for v in self._values[rank])

    def reset(self) -> None:
        if self._waiters:
            raise RuntimeError(f"reset of {self.name!r} with pending waiters")
        for row in self._values:
            row[:] = [0] * len(row)


class ShmemContext:
    """Per-rank handle for GPU-initiated communication.

    One context per GPU ("PE" in SHMEM terms); it knows how to route a put
    to any destination rank: same GPU (free — the data is already local),
    same node (fabric stores), or remote node (RDMA through the NIC).
    """

    #: Extra latency when network transactions are triggered through a CPU
    #: proxy thread instead of directly by the GPU (the alternative the
    #: paper's Fig. 5 discussion mentions, e.g. MSCCL++-style proxies):
    #: doorbell-to-CPU wakeup plus the proxy's submission path.
    CPU_PROXY_LATENCY = 2.0e-6

    def __init__(self, sim: Simulator, cluster, rank: int,
                 cpu_proxy: bool = False):
        self.sim = sim
        self.cluster = cluster
        self.rank = rank
        self.gpu = cluster.gpu(rank)
        self.cpu_proxy = cpu_proxy
        # Outstanding put completions, per destination rank, for fence/quiet.
        self._pending: Dict[int, List[Event]] = {}
        self.puts_issued = 0
        self.bytes_put = 0.0

    # -- core put ------------------------------------------------------------
    def put_nbi(self, dst_buf, src: np.ndarray, dst_rank: int,
                dst_index=slice(None)) -> Event:
        """Non-blocking put: copy ``src`` into ``dst_buf`` on ``dst_rank``.

        Returns the delivery event.  The payload lands in the destination
        rank's backing array; visibility ordering is the caller's job (use
        flags / ``put_signal``).
        """
        if not (0 <= dst_rank < self.cluster.world_size):
            raise ValueError(f"bad destination rank {dst_rank}")
        src = np.asarray(src)
        nbytes = float(src.nbytes)
        # Functional effect.
        dst_buf.local(dst_rank)[dst_index] = src
        # Timing effect.
        ev = self._route(dst_rank, nbytes)
        self._pending.setdefault(dst_rank, []).append(ev)
        self.puts_issued += 1
        self.bytes_put += nbytes
        return ev

    def put_bytes(self, dst_rank: int, nbytes: float) -> Event:
        """Timing-only non-blocking put (no functional payload).

        Used by operators running in timing-only mode on paper-scale
        configurations where materializing the tensors is pointless; the
        event/fence/quiet semantics are identical to :meth:`put_nbi`.
        """
        if not (0 <= dst_rank < self.cluster.world_size):
            raise ValueError(f"bad destination rank {dst_rank}")
        if nbytes < 0:
            raise ValueError(f"negative put size {nbytes}")
        ev = self._route(dst_rank, nbytes)
        self._pending.setdefault(dst_rank, []).append(ev)
        self.puts_issued += 1
        self.bytes_put += nbytes
        return ev

    def put_signal_bytes(self, dst_rank: int, nbytes: float,
                         flags: FlagArray, flag_idx: int,
                         flag_value: int = 1,
                         notify: bool = True) -> Optional[Event]:
        """Timing-only variant of :meth:`put_signal`.

        With ``notify=False`` no completion event is materialized (returns
        ``None``) — producers that rely purely on the destination's flag, as
        the fused kernels do, save one heap event per slice.
        """
        data_ev = self.put_bytes(dst_rank, nbytes)
        done = self.sim.event() if notify else None

        def after_data(_ev):
            flag_ev = self._route(dst_rank, FLAG_BYTES)
            self._pending.setdefault(dst_rank, []).append(flag_ev)

            def after_flag(_e):
                flags.set(dst_rank, flag_idx, flag_value)
                if done is not None:
                    done.succeed()

            flag_ev.add_callback(after_flag)

        data_ev.add_callback(after_data)
        return done

    def _route(self, dst_rank: int, nbytes: float) -> Event:
        dst_gpu = self.cluster.gpu(dst_rank)
        if dst_rank == self.rank:
            ev = self.sim.event()
            ev.succeed()
            return ev
        if dst_gpu.node_id == self.gpu.node_id:
            # Fabric stores are native GPU instructions — no proxy involved.
            return self.gpu.store_remote(dst_gpu, nbytes)
        if not self.cpu_proxy:
            return self.gpu.rdma_put(dst_gpu, nbytes)
        # CPU-proxy path: the GPU rings a doorbell; a host thread submits
        # the RDMA work request after the proxy wakeup latency.
        done = self.sim.event()
        wakeup = self.sim.timeout(self.CPU_PROXY_LATENCY)

        def submit(_ev):
            self.gpu.rdma_put(dst_gpu, nbytes).add_callback(
                lambda _e: done.succeed())

        wakeup.add_callback(submit)
        return done

    # -- ordering ----------------------------------------------------------
    def fence(self, dst_rank: int) -> Event:
        """Event: all puts previously issued to ``dst_rank`` are delivered."""
        pending = self._pending.get(dst_rank, [])
        live = [ev for ev in pending if not ev.processed]
        self._pending[dst_rank] = live
        return self.sim.all_of(live)

    def quiet(self) -> Event:
        """Event: all outstanding puts from this rank are delivered."""
        live = []
        for dst, evs in self._pending.items():
            alive = [ev for ev in evs if not ev.processed]
            self._pending[dst] = alive
            live.extend(alive)
        return self.sim.all_of(live)

    # -- composite idioms ------------------------------------------------------
    def put_signal(self, dst_buf, src: np.ndarray, dst_rank: int,
                   flags: FlagArray, flag_idx: int, flag_value: int = 1,
                   dst_index=slice(None)) -> Event:
        """PUT payload, remote fence, PUT flag — the paper's slice handoff.

        The returned event fires when the *flag* is visible at the
        destination, which (because of the fence) implies the payload is too.
        """
        data_ev = self.put_nbi(dst_buf, src, dst_rank, dst_index=dst_index)
        done = self.sim.event()

        def after_data(_ev):
            flag_ev = self._route(dst_rank, FLAG_BYTES)
            self._pending.setdefault(dst_rank, []).append(flag_ev)

            def after_flag(_e):
                flags.set(dst_rank, flag_idx, flag_value)
                done.succeed()

            flag_ev.add_callback(after_flag)

        data_ev.add_callback(after_data)
        return done

    def wait_until(self, flags: FlagArray, flag_idx: int,
                   value: int = 1) -> Event:
        """Poll a local flag until it reaches ``value`` (consumer side)."""
        return flags.wait_until(self.rank, flag_idx, value)
