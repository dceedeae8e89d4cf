"""Fused embedding pooling + All-to-All (the paper's Section III-A operator).

DLRM distributes embedding tables model-parallel (``tables_per_gpu`` per
rank) while the top MLP runs data-parallel, so after pooling each rank must
scatter its pooled vectors to the rank owning each batch shard — the
All-to-All that dominates distributed DLRM time.

**Fused kernel** (one persistent HIP-like kernel per rank):

* Logical WG = one pooled output vector ``(batch item, table)``; a *slice*
  is ``slice_vectors`` consecutive vectors of one table bound for one
  destination rank.
* The last logical WG of a slice (detected through the ``WG_Done`` bitmask)
  issues a non-blocking PUT of the slice plus a fenced ``sliceRdy`` flag to
  the destination, then keeps computing — communication overlaps the
  remaining pooling work.
* *Communication-aware scheduling* runs remote slices before local ones.
* *Zero-copy* (scale-up): slices bound for same-node peers are stored
  directly into the peer's output buffer over the fabric, skipping the
  local HBM write of the output vector.
* Each persistent WG finally polls a distinct subset of the rank's
  ``sliceRdy`` flags, so the kernel returns only when the rank's full
  A2A output ``(local_batch, world*tables, dim)`` is ready.

**Baseline**: one bulk-synchronous pooling kernel *per table* (the public
DLRM/PyTorch ``EmbeddingBag`` structure) followed by an RCCL-like
All-to-All kernel.  Small batches leave each per-table kernel far below
device residency — the utilization gap behind the paper's >fully-overlapped
wins at small global batch sizes (Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, NamedTuple, Optional

import numpy as np

from ..collectives import check_algo
from ..comm.shmem import FlagArray
from ..hw.gpu import WgCost, bulk_kernel_time
from ..kernels import WgTask, get_scheduler
from ..ops.embedding import embedding_pooling, embedding_wg_cost
from ..utils.xp import xp_of
from .base import OpHarness, run_fused_kernels

__all__ = ["EmbeddingA2AConfig", "EmbeddingA2APlan", "embedding_a2a_plan",
           "FusedEmbeddingAllToAll", "BaselineEmbeddingAllToAll",
           "make_embedding_inputs"]

ITEMSIZE = 4  # fp32 embeddings throughout, as in the public DLRM code

#: Scatter-add pays atomic-collision serialization over a plain gather.
SCATTER_ATOMIC_FACTOR = 1.5


@dataclass(frozen=True)
class EmbeddingA2AConfig:
    """Workload definition shared by the fused and baseline operators.

    The paper labels configurations ``{global batch | tables per GPU}``;
    ``dim=256`` matches its kernel evaluation, ``pooling=70`` its Table II.
    """

    global_batch: int
    tables_per_gpu: int
    dim: int = 256
    pooling: int = 70
    rows_per_table: int = 1000
    slice_vectors: int = 32          #: pooled vectors per communicated slice
    tasks_per_slice: int = 0         #: 0 = auto; >1 exposes intra-slice WGs
    pooling_mode: str = "sum"
    functional: bool = True          #: carry real NumPy payloads
    scheduler: str = "comm_aware"
    occupancy_of_baseline: Optional[float] = None  #: Fig. 13 x-axis knob
    zero_copy: bool = True           #: direct peer stores for same-node dests
    #: Baseline All-to-All schedule (:mod:`repro.collectives` name or
    #: ``"auto"``); ``None`` keeps the legacy flat RCCL-like schedule.
    algo: Optional[str] = None
    seed: int = 0

    def validate(self, world: int) -> None:
        """Reject invalid configs; numeric fields may be columns over a
        scenario axis (the analytic backend), and the message then names
        the first offending row."""
        check_algo("alltoall", self.algo)
        tps, sv = self.tasks_per_slice, self.slice_vectors
        xp = xp_of(self.global_batch, self.tables_per_gpu, sv, tps)
        if xp.any((self.global_batch < 1) | (self.tables_per_gpu < 1)):
            raise ValueError("batch and tables must be >= 1")
        bad = self.global_batch % world != 0
        if xp.any(bad):
            raise ValueError(
                f"global_batch {xp.first(self.global_batch, bad)} not "
                f"divisible by world {world}")
        local = self.global_batch // world
        bad = local % sv != 0
        if xp.any(bad):
            raise ValueError(
                f"local batch {xp.first(local, bad)} not divisible by "
                f"slice_vectors {xp.first(sv, bad)}")
        if xp.any((tps != 0) & (sv % xp.where(tps != 0, tps, 1) != 0)):
            raise ValueError("slice_vectors must be divisible by tasks_per_slice")
        if self.pooling_mode not in ("sum", "mean"):
            raise ValueError(f"bad pooling mode {self.pooling_mode!r}")

    def local_batch(self, world: int) -> int:
        return self.global_batch // world

    def slices_per_stripe(self, world: int) -> int:
        """Slices per (table, destination) stripe."""
        return self.local_batch(world) // self.slice_vectors

    def slice_bytes(self) -> float:
        return xp_of(self.slice_vectors, self.dim).asfloat(
            self.slice_vectors * self.dim * ITEMSIZE)

    def chunk_bytes(self, world: int) -> float:
        """Bytes each rank sends each peer in the baseline All-to-All: its
        pooled vectors of every table for one batch shard."""
        return xp_of(self.global_batch, self.tables_per_gpu, self.dim).asfloat(
            self.local_batch(world) * self.tables_per_gpu * self.dim
            * ITEMSIZE)

    def scatter_cost(self, vectors: int) -> WgCost:
        """Scatter-add of ``vectors`` gradient rows into their tables (the
        backward operator's WG): the pooling gather's traffic, paying
        :data:`SCATTER_ATOMIC_FACTOR` for atomic collisions."""
        base = embedding_wg_cost(self.pooling, self.dim, ITEMSIZE)
        return WgCost(flops=base.flops * vectors,
                      bytes=base.bytes * vectors * SCATTER_ATOMIC_FACTOR,
                      dtype="fp32", access="gather")

    def baseline_config(self, overrides: Optional[Mapping[str, Any]]
                        ) -> "EmbeddingA2AConfig":
        """The baseline operator's config: ``self``, or a config of its
        own built from ``overrides``, which inherits ``algo`` unless it
        names its own (the algo axis compares like against like)."""
        if overrides is None:
            return self
        return EmbeddingA2AConfig(functional=self.functional,
                                  **{"algo": self.algo, **overrides})

    @property
    def label(self) -> str:
        return f"{self.global_batch}|{self.tables_per_gpu}"


class EmbeddingA2APlan(NamedTuple):
    """One rank's fused embedding kernel, as both engines read it."""

    tasks_per_slice: Any        #: logical WGs per slice (auto resolved)
    repeat: Any                 #: pooled vectors per logical WG
    cost: WgCost                #: one pooled vector + WG_Done bookkeeping
    zc_cost: WgCost             #: the same, minus the local output write
    #: The Fig. 13 knob as a fraction of the fused kernel's own occupancy;
    #: ``None`` (NaN in a column) means no limit.
    occupancy_limit: Any


def embedding_a2a_plan(device, cfg: EmbeddingA2AConfig,
                       world: int) -> EmbeddingA2APlan:
    """The fused embedding kernel's plan on ``device`` (a simulated
    :class:`~repro.hw.gpu.Gpu` or an analytic ``DeviceModel``).

    ``tasks_per_slice == 0`` (auto) splits slices just enough that the
    task count comfortably exceeds the persistent-WG count — otherwise
    coarse tasks quantize the tail of the kernel into idle rounds that
    real logical-WG-granular hardware scheduling would not have: the first
    divisor in ``(1, 2, 4, 8, 16, 32)`` of ``slice_vectors`` meeting an
    8-rounds target, else one task per vector.  ``occupancy_of_baseline`` (a
    fraction of *baseline* occupancy) converts to a fraction of the fused
    kernel's own achievable occupancy, and must not exceed it.
    """
    sv, tps = cfg.slice_vectors, cfg.tasks_per_slice
    n_slices = world * cfg.tables_per_gpu * cfg.slices_per_stripe(world)
    xp = xp_of(n_slices, tps)
    todo = tps == 0
    if xp.any(todo):
        slots = xp.minimum(device.occupancy(device.fused_res).resident_wgs,
                           n_slices)
        target = xp.ceil(8 * slots / n_slices)
        for div in (1, 2, 4, 8, 16, 32):
            take = todo & (div >= target) & (sv % div == 0)
            if xp.any(take):
                tps = xp.where(take, div, tps)
                todo = todo ^ take
                if not xp.any(todo):
                    break
        else:
            tps = xp.where(todo, sv, tps)

    cost = embedding_wg_cost(cfg.pooling, cfg.dim, ITEMSIZE).plus(
        fixed=device.spec.flag_op_latency)

    limit = frac = cfg.occupancy_of_baseline
    if frac is not None:
        base = device.occupancy(device.base_res).resident_wgs
        fused = device.occupancy(device.fused_res).resident_wgs
        limit = frac * base / fused
        xp = xp_of(limit)
        bad = limit > 1.0 + 1e-9        # NaN compares False
        if xp.any(bad):
            raise ValueError(
                f"occupancy {xp.first(frac, bad)} of baseline exceeds the "
                f"fused kernel's maximum ({fused / base:.3f} of baseline)")
        limit = xp.minimum(limit, 1.0)
    return EmbeddingA2APlan(
        tps, sv // tps, cost,
        cost.with_bytes(cost.bytes - cfg.dim * ITEMSIZE), limit)


def make_embedding_inputs(cfg: EmbeddingA2AConfig, world: int):
    """Per-rank tables and lookup indices (functional mode only)."""
    tables, indices = [], []
    for r in range(world):
        rng = np.random.default_rng(cfg.seed + 1000 * r)
        tables.append(rng.standard_normal(
            (cfg.tables_per_gpu, cfg.rows_per_table, cfg.dim))
            .astype(np.float32))
        indices.append(rng.integers(
            0, cfg.rows_per_table,
            size=(cfg.tables_per_gpu, cfg.global_batch, cfg.pooling),
            dtype=np.int64))
    return tables, indices


def reference_output(cfg: EmbeddingA2AConfig, world: int,
                     tables, indices) -> List[np.ndarray]:
    """Ground truth: pool everything, then permute like an All-to-All.

    Output on rank d: ``(local_batch, world*tables, dim)`` where feature
    column ``src*T + t`` holds table ``t`` of rank ``src`` pooled over
    d's batch shard.
    """
    local = cfg.local_batch(world)
    t_per = cfg.tables_per_gpu
    outs = [np.zeros((local, world * t_per, cfg.dim), np.float32)
            for _ in range(world)]
    for src in range(world):
        for t in range(t_per):
            pooled = embedding_pooling(tables[src][t], indices[src][t],
                                       mode=cfg.pooling_mode)
            for d in range(world):
                outs[d][:, src * t_per + t, :] = \
                    pooled[d * local:(d + 1) * local]
    return outs


class FusedEmbeddingAllToAll:
    """The paper's fused operator, one persistent kernel per rank."""

    def __init__(self, harness: OpHarness, cfg: EmbeddingA2AConfig):
        cfg.validate(harness.world_size)
        self.harness = harness
        self.cfg = cfg
        self.sim = harness.sim
        self.cluster = harness.cluster
        self.comm = harness.comm
        self.world = harness.world_size
        self.stats: Dict = {}

        self.tables = self.indices = None
        self.out = None
        if cfg.functional:
            self.tables, self.indices = make_embedding_inputs(cfg, self.world)
            self.out = self.comm.alloc(
                (cfg.local_batch(self.world),
                 self.world * cfg.tables_per_gpu, cfg.dim), np.float32)

        n_s = cfg.slices_per_stripe(self.world)
        self.n_flags = self.world * cfg.tables_per_gpu * n_s
        self.flags = [
            self.comm.alloc_flags(self.n_flags, name=f"sliceRdy[{r}]")
            for r in range(self.world)
        ]
        self.plans = [embedding_a2a_plan(gpu, cfg, self.world)
                      for gpu in self.cluster.gpus]

    # -- flag indexing ---------------------------------------------------------
    def flag_index(self, src: int, table: int, s: int) -> int:
        n_s = self.cfg.slices_per_stripe(self.world)
        return (src * self.cfg.tables_per_gpu + table) * n_s + s

    # -- kernel construction ---------------------------------------------------
    def _build_tasks(self, rank: int) -> List[WgTask]:
        cfg, world = self.cfg, self.world
        n_s = cfg.slices_per_stripe(world)
        tasks_per_slice, repeat, base_cost, zc_cost, _ = self.plans[rank]
        ctx = self.comm.ctx(rank)
        tasks: List[WgTask] = []
        task_id = 0
        # Natural (oblivious) order: output-entry order = global batch order,
        # i.e. destination-major — exactly the paper's WG(0,0,0)-onward order.
        for d in range(world):
            remote = d != rank
            same_node = self.cluster.same_node(rank, d)
            # Zero-copy: same-node remote slices skip the local output write.
            cost = (zc_cost if (remote and same_node and cfg.zero_copy)
                    else base_cost)
            for s in range(n_s):
                for t in range(cfg.tables_per_gpu):
                    # A slice's hook-free leading pieces share one meta.
                    meta = {"remote": remote, "dest": d, "table": t,
                            "slice": s, "last": False}
                    for _ in range(tasks_per_slice - 1):
                        tasks.append(WgTask(task_id=task_id, cost=cost,
                                            repeat=repeat, meta=meta))
                        task_id += 1
                    tasks.append(WgTask(
                        task_id=task_id, cost=cost, repeat=repeat,
                        meta=dict(meta, last=True),
                        compute=(self._make_compute(rank, d, t, s)
                                 if cfg.functional else None),
                        on_complete=self._make_hook(ctx, rank, d, t, s)))
                    task_id += 1
        return get_scheduler(cfg.scheduler)(tasks)

    def _make_compute(self, rank: int, d: int, t: int, s: int):
        cfg, world = self.cfg, self.world
        local = cfg.local_batch(world)
        b0 = d * local + s * cfg.slice_vectors
        b1 = b0 + cfg.slice_vectors

        def compute():
            pooled = embedding_pooling(
                self.tables[rank][t], self.indices[rank][t, b0:b1],
                mode=cfg.pooling_mode)
            if d == rank:
                rows = slice(s * cfg.slice_vectors, (s + 1) * cfg.slice_vectors)
                self.out.local(rank)[rows, rank * cfg.tables_per_gpu + t, :] = \
                    pooled
            else:
                self._payloads[(rank, d, t, s)] = pooled

        return compute

    def _make_hook(self, ctx, rank: int, d: int, t: int, s: int):
        cfg = self.cfg
        fidx = self.flag_index(rank, t, s)
        spec = self.cluster.gpu(rank).spec

        def hook(slot_ctx, task):
            if d == rank:
                # Local slice: data already in place; mark it ready.
                self.flags_for(rank).set(rank, fidx)
                return None
            if slot_ctx.trace.enabled:
                slot_ctx.record("put_issue", dest=d, table=t, slice=s,
                                nbytes=cfg.slice_bytes())
            # The issuing thread pays the API latency; the transfer itself
            # is non-blocking (the WG moves on to its next task).
            if cfg.functional:
                payload = self._payloads.pop((rank, d, t, s))
                rows = slice(s * cfg.slice_vectors,
                             (s + 1) * cfg.slice_vectors)
                ctx.put_signal(
                    self.out, payload, dst_rank=d,
                    flags=self.flags_for(d), flag_idx=fidx,
                    dst_index=(rows, rank * cfg.tables_per_gpu + t,
                               slice(None)))
            else:
                ctx.put_signal_bytes(d, cfg.slice_bytes(),
                                     self.flags_for(d), fidx, notify=False)
            yield slot_ctx.charge(spec.shmem_api_latency)

        return hook

    def flags_for(self, rank: int) -> FlagArray:
        return self.flags[rank]

    def _epilogue(self, rank: int):
        flags = self.flags_for(rank)

        def epilogue(slot_ctx):
            mine = range(slot_ctx.slot_id, self.n_flags, slot_ctx.kernel.n_slots)
            if mine:
                yield flags.wait_all(rank, mine)

        return epilogue

    # -- execution ------------------------------------------------------------
    def run(self):
        self._payloads: Dict = {}
        kernels = yield from run_fused_kernels(
            self, "fused_emb_a2a",
            occupancy_limit=lambda r: self.plans[r].occupancy_limit,
            epilogue=self._epilogue)
        self.stats["occupancy"] = kernels[0].occupancy.fraction
        if self.cfg.functional:
            return [self.out.local(r) for r in range(self.world)]
        return None


class BaselineEmbeddingAllToAll:
    """Bulk-synchronous baseline: per-table pooling kernels, then RCCL A2A."""

    def __init__(self, harness: OpHarness, cfg: EmbeddingA2AConfig):
        cfg.validate(harness.world_size)
        self.harness = harness
        self.cfg = cfg
        self.sim = harness.sim
        self.cluster = harness.cluster
        self.comm = harness.comm
        self.world = harness.world_size
        self.stats: Dict = {}
        self.tables = self.indices = None
        if cfg.functional:
            self.tables, self.indices = make_embedding_inputs(cfg, self.world)

    def run(self):
        cfg, world = self.cfg, self.world
        cost = embedding_wg_cost(cfg.pooling, cfg.dim, ITEMSIZE)
        res = self.cluster.gpu(0).base_res

        pooled_all: List[List[np.ndarray]] = [[] for _ in range(world)]

        def rank_compute(r):
            gpu = self.cluster.gpu(r)
            for t in range(cfg.tables_per_gpu):
                if cfg.functional:
                    pooled_all[r].append(embedding_pooling(
                        self.tables[r][t], self.indices[r][t],
                        mode=cfg.pooling_mode))
                yield self.sim.timeout(
                    bulk_kernel_time(gpu, cfg.global_batch, cost, res))

        procs = [self.sim.process(rank_compute(r)) for r in range(world)]
        yield self.sim.all_of(procs)
        self.stats["compute_done"] = self.sim.now

        local = cfg.local_batch(world)
        if cfg.functional:
            # sends[r]: (world, local, T, dim) — shard the pooled outputs.
            sends = []
            for r in range(world):
                stacked = np.stack(pooled_all[r], axis=1)  # (B, T, dim)
                sends.append(stacked.reshape(
                    world, local, cfg.tables_per_gpu, cfg.dim))
            outs = yield from self.comm.collectives.all_to_all(
                sends, algorithm=cfg.algo)
            # (world, local, T, dim) -> (local, world*T, dim)
            return [o.transpose(1, 0, 2, 3).reshape(
                local, world * cfg.tables_per_gpu, cfg.dim) for o in outs]
        yield from self.comm.collectives.all_to_all_bytes(
            cfg.chunk_bytes(world), algorithm=cfg.algo)
        return None
