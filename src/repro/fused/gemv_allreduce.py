"""Fused GEMV + AllReduce (the paper's Section III-B scale-up operator).

Tensor-parallel transformer decode: the second MLP weight matrix is
row-sharded, so every GPU computes a *partial* output vector ``y_r = A_r @
x_r`` and an AllReduce sums the partials — a collective the paper reports
contributing up to 46% of decode latency.

**Fused kernel** (zero-copy, two-phase direct AllReduce):

* Each GPU computes all output tiles; tile ownership for the reduction is
  block-distributed (GPU ``o`` reduces rows ``[o*M/W, (o+1)*M/W)``).
* Tiles owned by a *peer* are stored **directly into the peer's partial
  buffer** over the fabric as they are computed (zero-copy: the local HBM
  write is skipped entirely) — communication overlaps the remaining GEMV.
* Communication-aware scheduling computes peer-owned tiles first.
* When a GPU has finished streaming all tiles owned by peer ``o``, it sets
  one ``partialRdy`` flag on ``o`` (after its stores complete).
* Owners then reduce their chunk (local partial + W-1 received) and
  broadcast the reduced tiles to all peers (the all-gather phase), again as
  direct stores, followed by one ``finalRdy`` flag per peer.
* Persistent WGs exit once every owner's ``finalRdy`` flag has arrived —
  the full reduced vector is then present on every GPU.

**Baseline**: a bulk-synchronous GEMV kernel followed by an RCCL-like
two-phase direct AllReduce kernel.

Timing models fp16 decode (``itemsize=2``); functional verification runs
the same dataflow in fp32 NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from ..collectives import check_algo
from ..hw.gpu import WgCost, bulk_kernel_time
from ..kernels import WgTask, get_scheduler
from ..ops.gemv import gemv, gemv_wg_cost, split_tiles
from ..utils.xp import xp_of
from .base import OpHarness, run_fused_kernels

__all__ = ["GemvAllReduceConfig", "GemvAllReducePlan", "gemv_allreduce_plan",
           "FusedGemvAllReduce", "BaselineGemvAllReduce", "make_gemv_inputs"]


@dataclass(frozen=True)
class GemvAllReduceConfig:
    """Workload: per-GPU weight shard ``(m, n_per_gpu)``, input ``x``.

    The paper labels configurations by matrix size; ``n_per_gpu`` is the
    row-sharded reduction dimension (total N / world).
    """

    m: int
    n_per_gpu: int
    tile_rows: int = 16
    itemsize: int = 2               #: fp16 weights/activations (decode)
    flop_dtype: str = "fp16"
    functional: bool = True
    scheduler: str = "comm_aware"
    #: Baseline AllReduce schedule (:mod:`repro.collectives` name or
    #: ``"auto"``); ``None`` keeps the paper's direct two-phase schedule.
    algo: Optional[str] = None
    seed: int = 0

    def validate(self, world: int) -> None:
        """Reject invalid configs; numeric fields may be columns over a
        scenario axis (the analytic backend), and the message then names
        the first offending row."""
        check_algo("allreduce", self.algo)
        xp = xp_of(self.m, self.n_per_gpu, self.tile_rows)
        if xp.any((self.m < 1) | (self.n_per_gpu < 1)):
            raise ValueError("m and n_per_gpu must be >= 1")
        bad = self.m % (world * self.tile_rows) != 0
        if xp.any(bad):
            raise ValueError(
                f"m={xp.first(self.m, bad)} must be divisible by "
                f"world*tile_rows={xp.first(world * self.tile_rows, bad)}")

    def chunk_rows(self, world: int) -> int:
        return self.m // world

    def tile_bytes(self) -> float:
        return xp_of(self.tile_rows, self.itemsize).asfloat(
            self.tile_rows * self.itemsize)

    def tile_cost(self) -> WgCost:
        """One output tile's GEMV: the bulk kernel's WG."""
        return gemv_wg_cost(self.tile_rows, self.n_per_gpu, self.itemsize,
                            dtype=self.flop_dtype)

    @property
    def label(self) -> str:
        def k(v):
            return f"{v // 1024}k" if v % 1024 == 0 and v >= 1024 else str(v)
        return f"{k(self.m)}|{k(self.n_per_gpu)}"


class GemvAllReducePlan(NamedTuple):
    """One rank's fused GEMV kernel, as both engines read it."""

    cost: WgCost                #: a tile this rank owns + flag bookkeeping
    zc_cost: WgCost             #: a peer's tile: no local write
    reduce_cost: WgCost         #: reduce one owned tile over every source


def gemv_allreduce_plan(device, cfg: GemvAllReduceConfig,
                        world: int) -> GemvAllReducePlan:
    """The fused GEMV kernel's plan on ``device`` (a simulated
    :class:`~repro.hw.gpu.Gpu` or an analytic ``DeviceModel``).  A tile
    owned by a peer is stored straight into the peer's partial buffer
    (zero-copy).  ``validate`` makes every tile ``tile_rows`` high, so one
    reduce cost serves every tile."""
    cost = cfg.tile_cost().plus(fixed=device.spec.flag_op_latency)
    xp = xp_of(cfg.tile_rows, cfg.itemsize)
    return GemvAllReducePlan(
        cost, cost.with_bytes(cost.bytes - cfg.tile_rows * cfg.itemsize),
        WgCost(flops=xp.asfloat((world - 1) * cfg.tile_rows),
               bytes=xp.asfloat((world + 1) * cfg.tile_rows * cfg.itemsize),
               dtype="fp32"))


def make_gemv_inputs(cfg: GemvAllReduceConfig, world: int):
    """Per-rank weight shards and inputs (fp32 for exact verification)."""
    mats, vecs = [], []
    for r in range(world):
        rng = np.random.default_rng(cfg.seed + 31 * r)
        mats.append(rng.standard_normal((cfg.m, cfg.n_per_gpu))
                    .astype(np.float32))
        vecs.append(rng.standard_normal(cfg.n_per_gpu).astype(np.float32))
    return mats, vecs


def reference_output(mats, vecs) -> np.ndarray:
    """Ground truth: sum of per-rank partial GEMVs."""
    return np.sum(np.stack([a @ x for a, x in zip(mats, vecs)]), axis=0)


class FusedGemvAllReduce:
    """The paper's fused scale-up operator."""

    def __init__(self, harness: OpHarness, cfg: GemvAllReduceConfig):
        cfg.validate(harness.world_size)
        if harness.cluster.num_nodes != 1:
            raise ValueError(
                "FusedGemvAllReduce is a scale-up operator (single node)")
        self.harness = harness
        self.cfg = cfg
        self.sim = harness.sim
        self.cluster = harness.cluster
        self.comm = harness.comm
        self.world = harness.world_size
        self.stats: Dict = {}

        self.mats = self.vecs = None
        self.partial = self.y = None
        if cfg.functional:
            self.mats, self.vecs = make_gemv_inputs(cfg, self.world)
            # partial.local(o)[src] holds src's contribution to o's chunk.
            self.partial = self.comm.alloc(
                (self.world, cfg.chunk_rows(self.world)), np.float32)
            self.y = self.comm.alloc((cfg.m,), np.float32)
        self.partial_rdy = self.comm.alloc_flags(self.world, name="partialRdy")
        self.final_rdy = self.comm.alloc_flags(self.world, name="finalRdy")
        self.plans = [gemv_allreduce_plan(gpu, cfg, self.world)
                      for gpu in self.cluster.gpus]

    # -- task construction ---------------------------------------------------
    def _build_tasks(self, rank: int) -> List[WgTask]:
        cfg, world = self.cfg, self.world
        chunk = cfg.chunk_rows(world)
        ctx = self.comm.ctx(rank)
        base_cost, zc_cost, reduce_cost = self.plans[rank]

        # Transfers in flight towards each owner, for the partialRdy chain.
        transfers: Dict[int, list] = {o: [] for o in range(world)}
        tasks: List[WgTask] = []
        task_id = 0
        tiles = split_tiles(chunk, cfg.tile_rows)

        # Phase A — compute all tiles (natural order: tile-index order).
        for owner in range(world):
            remote = owner != rank
            for i, (t0, t1) in enumerate(tiles):
                last_of_owner = i == len(tiles) - 1
                tasks.append(WgTask(
                    task_id=task_id,
                    cost=zc_cost if remote else base_cost,
                    meta={"remote": remote, "owner": owner, "phase": "A"},
                    compute=(self._make_gemv_compute(rank, owner, t0, t1)
                             if cfg.functional else None),
                    on_complete=self._make_store_hook(
                        ctx, rank, owner, t0, t1, transfers, last_of_owner)))
                task_id += 1

        # Phase B — reduce my chunk and broadcast (runs after phase A in
        # queue order; flags enforce cross-GPU correctness).
        # The reduce itself is charged inside the hook.
        final_transfers: Dict[int, list] = {d: [] for d in range(world)}
        free = WgCost()
        for i, (t0, t1) in enumerate(tiles):
            tasks.append(WgTask(
                task_id=task_id, cost=free,
                meta={"remote": False, "owner": rank, "phase": "B"},
                on_complete=self._make_reduce_hook(
                    ctx, rank, t0, t1, reduce_cost, final_transfers,
                    last=(i == len(tiles) - 1))))
            task_id += 1

        # Both schedulers keep every phase-B task after every phase-A task
        # (B tasks are local and come last in natural order).  The other
        # order could deadlock: a B hook blocks its WG on partialRdy, and
        # with every WG so blocked no A task would run to set it.
        return get_scheduler(self.cfg.scheduler)(tasks)

    def _make_gemv_compute(self, rank: int, owner: int, t0: int, t1: int):
        cfg, world = self.cfg, self.world
        chunk = cfg.chunk_rows(world)
        rows = slice(owner * chunk + t0, owner * chunk + t1)

        def compute():
            tile = gemv(self.mats[rank][rows], self.vecs[rank])
            self._tile_payloads[(rank, owner, t0)] = tile
            if owner == rank:
                self.partial.local(rank)[rank, t0:t1] = tile

        return compute

    def _make_store_hook(self, ctx, rank, owner, t0, t1, transfers, last):
        cfg = self.cfg
        nbytes = float((t1 - t0) * cfg.itemsize)

        def hook(slot_ctx, task):
            if owner != rank:
                if slot_ctx.trace.enabled:
                    slot_ctx.record("put_issue", owner=owner, nbytes=nbytes)
                if cfg.functional:
                    # Functional payloads are fp32 (verification); timing
                    # always models the fp16 wire size.
                    tile = self._tile_payloads.pop((rank, owner, t0))
                    self.partial.local(owner)[rank, t0:t1] = tile
                ev = ctx.put_bytes(owner, nbytes)
                transfers[owner].append(ev)
                if last:
                    self._signal_when_done(ctx, transfers[owner], owner,
                                           self.partial_rdy, rank)
            elif last:
                self.partial_rdy.set(rank, rank)
            return None

        return hook

    def _make_reduce_hook(self, ctx, rank, t0, t1, reduce_cost,
                          final_transfers, last):
        cfg, world = self.cfg, self.world
        chunk = cfg.chunk_rows(world)
        itemsize = cfg.itemsize

        def hook(slot_ctx, task):
            # Wait for every source's contribution to my chunk.
            yield self.partial_rdy.wait_all(rank, range(world))
            yield slot_ctx.charge(
                slot_ctx.gpu.wg_duration(reduce_cost, slot_ctx.occupancy))
            if cfg.functional:
                reduced = self.partial.local(rank)[:, t0:t1].sum(axis=0)
                self.y.local(rank)[rank * chunk + t0:rank * chunk + t1] = \
                    reduced
            # Broadcast (all-gather phase): direct stores to every peer.
            nbytes = float((t1 - t0) * itemsize)
            for d in range(world):
                if d == rank:
                    continue
                if slot_ctx.trace.enabled:
                    slot_ctx.record("put_issue", owner=d, nbytes=nbytes,
                                    phase="allgather")
                if cfg.functional:
                    self.y.local(d)[rank * chunk + t0:rank * chunk + t1] = \
                        reduced
                ev = ctx.put_bytes(d, nbytes)
                final_transfers[d].append(ev)
            if last:
                for d in range(world):
                    if d == rank:
                        continue
                    self._signal_when_done(ctx, final_transfers[d], d,
                                           self.final_rdy, rank)

        return hook

    def _signal_when_done(self, ctx, transfer_events, dst_rank, flags, idx):
        """Chain: when all transfers complete, put the flag (fenced)."""
        agg = self.sim.all_of([ev for ev in transfer_events
                               if not ev.processed])

        def fire(_ev):
            flag_ev = ctx.put_bytes(dst_rank, 8.0)
            flag_ev.add_callback(lambda _e: flags.set(dst_rank, idx))

        agg.add_callback(fire)

    def _epilogue(self, rank: int):
        peers = [o for o in range(self.world) if o != rank]

        def epilogue(slot_ctx):
            if peers:
                yield self.final_rdy.wait_all(rank, peers)

        return epilogue

    # -- execution ------------------------------------------------------------
    def run(self):
        self._tile_payloads: Dict = {}
        kernels = yield from run_fused_kernels(
            self, "fused_gemv_ar", epilogue=self._epilogue)
        self.stats["occupancy"] = kernels[0].occupancy.fraction
        if self.cfg.functional:
            return [self.y.local(r) for r in range(self.world)]
        return None


class BaselineGemvAllReduce:
    """Bulk-synchronous baseline: GEMV kernel, then RCCL direct AllReduce."""

    def __init__(self, harness: OpHarness, cfg: GemvAllReduceConfig):
        cfg.validate(harness.world_size)
        self.harness = harness
        self.cfg = cfg
        self.sim = harness.sim
        self.cluster = harness.cluster
        self.comm = harness.comm
        self.world = harness.world_size
        self.stats: Dict = {}
        self.mats = self.vecs = None
        if cfg.functional:
            self.mats, self.vecs = make_gemv_inputs(cfg, self.world)

    def run(self):
        cfg, world = self.cfg, self.world
        n_tiles = cfg.m // cfg.tile_rows
        cost = cfg.tile_cost()
        res = self.cluster.gpu(0).base_res

        partials: List[Optional[np.ndarray]] = [None] * world

        def rank_compute(r):
            if cfg.functional:
                partials[r] = gemv(self.mats[r], self.vecs[r])
            yield self.sim.timeout(
                bulk_kernel_time(self.cluster.gpu(r), n_tiles, cost, res))

        procs = [self.sim.process(rank_compute(r)) for r in range(world)]
        yield self.sim.all_of(procs)
        self.stats["compute_done"] = self.sim.now

        # Timing always models the fp16 wire size; functional outputs are
        # computed in fp32 on the side (matching the fused operator).
        yield from self.comm.collectives.all_reduce_bytes(
            float(cfg.m * cfg.itemsize), cfg.m, itemsize=cfg.itemsize,
            algorithm=cfg.algo or "direct")
        if cfg.functional:
            total = np.sum(np.stack(partials), axis=0)
            return [total.copy() for _ in range(world)]
        return None
