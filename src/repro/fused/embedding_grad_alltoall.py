"""Fused All-to-All + embedding backward (gradient scatter-add).

The paper's Fig. 15 overlaps the embedding operations of *both* passes with
their dependent All-to-All.  The backward direction inverts the forward
operator's structure: the collective comes *first* (each rank returns
pooled-output gradients to the rank owning the table), and the dependent
computation is the scatter-add of gradient rows into the embedding tables.

**Fused kernel** (receiver-driven): each rank's persistent kernel sends its
gradient slices with ``put_signal`` (non-blocking, communication-aware
order: remote first) and interleaves *apply* tasks that wait on incoming
``sliceRdy`` flags and immediately scatter-add the received slice — so the
gradient application overlaps the still-arriving All-to-All instead of
waiting for the full collective at a kernel boundary.

**Baseline**: an RCCL-like All-to-All kernel, then a bulk-synchronous
scatter-add kernel.

Gradient layout mirrors the forward output: rank ``d`` holds
``(local_batch, world*T, dim)`` gradients; the slice for (src=r, table t,
batch range) returns to rank ``r`` and is accumulated into its table ``t``
rows through the stored lookup indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..hw.gpu import WgCost, bulk_kernel_time
from ..kernels import PersistentKernel, WgTask, get_scheduler
from ..ops.embedding import embedding_wg_cost
from .base import (
    OpHarness,
    baseline_kernel_resources,
    fused_kernel_resources,
)
from .embedding_alltoall import (
    ITEMSIZE,
    EmbeddingA2AConfig,
    make_embedding_inputs,
)

__all__ = ["FusedEmbeddingGradAllToAll", "BaselineEmbeddingGradAllToAll",
           "make_gradients", "reference_table_grads",
           "SCATTER_ATOMIC_FACTOR"]

#: Scatter-add pays atomic-collision serialization over a plain gather.
SCATTER_ATOMIC_FACTOR = 1.5


def make_gradients(cfg: EmbeddingA2AConfig, world: int) -> List[np.ndarray]:
    """Per-rank upstream gradients: (local_batch, world*T, dim)."""
    local = cfg.local_batch(world)
    out = []
    for d in range(world):
        rng = np.random.default_rng(cfg.seed + 7777 * (d + 1))
        out.append(rng.standard_normal(
            (local, world * cfg.tables_per_gpu, cfg.dim)).astype(np.float32))
    return out


def scatter_add(table_grad: np.ndarray, indices: np.ndarray,
                grads: np.ndarray) -> None:
    """Accumulate pooled-output gradients into table rows.

    Each batch item's gradient flows to every row it pooled
    (sum pooling => unit jacobian per looked-up row).
    """
    batch, pooling = indices.shape
    np.add.at(table_grad, indices.reshape(-1),
              np.repeat(grads, pooling, axis=0))


def reference_table_grads(cfg: EmbeddingA2AConfig, world: int,
                          grads_by_dst: List[np.ndarray]) -> List[np.ndarray]:
    """Ground truth: gather all destinations' gradients, scatter per table."""
    _tables, indices = make_embedding_inputs(cfg, world)
    local = cfg.local_batch(world)
    t_per = cfg.tables_per_gpu
    out = []
    for r in range(world):
        tg = np.zeros((t_per, cfg.rows_per_table, cfg.dim), np.float32)
        for t in range(t_per):
            for d in range(world):
                batch_range = slice(d * local, (d + 1) * local)
                scatter_add(tg[t], indices[r][t, batch_range],
                            grads_by_dst[d][:, r * t_per + t, :])
        out.append(tg)
    return out


def _scatter_cost(cfg: EmbeddingA2AConfig, vectors: int) -> WgCost:
    """Scatter-add of ``vectors`` gradient rows (per logical WG batch)."""
    base = embedding_wg_cost(cfg.pooling, cfg.dim, ITEMSIZE)
    return WgCost(flops=base.flops * vectors,
                  bytes=base.bytes * vectors * SCATTER_ATOMIC_FACTOR,
                  dtype="fp32", access="gather")


class FusedEmbeddingGradAllToAll:
    """Backward fusion: gradient All-to-All overlapped with scatter-add."""

    def __init__(self, harness: OpHarness, cfg: EmbeddingA2AConfig):
        cfg.validate(harness.world_size)
        self.harness = harness
        self.cfg = cfg
        self.sim = harness.sim
        self.cluster = harness.cluster
        self.comm = harness.comm
        self.world = harness.world_size
        self.stats: Dict = {}

        self.grads = None
        self.indices = None
        self.table_grads = None
        self.recv = None
        if cfg.functional:
            self.grads = make_gradients(cfg, self.world)
            _tables, self.indices = make_embedding_inputs(cfg, self.world)
            self.table_grads = [
                np.zeros((cfg.tables_per_gpu, cfg.rows_per_table, cfg.dim),
                         np.float32)
                for _ in range(self.world)
            ]
            # Receive staging: (world [src dst-shard], local, T, dim).
            self.recv = self.comm.alloc(
                (self.world, cfg.local_batch(self.world),
                 cfg.tables_per_gpu, cfg.dim), np.float32)
        n_s = cfg.slices_per_stripe(self.world)
        self.n_flags = self.world * cfg.tables_per_gpu * n_s
        self.flags = [self.comm.alloc_flags(self.n_flags, name=f"gradRdy[{r}]")
                      for r in range(self.world)]

    def flag_index(self, src_dst: int, table: int, s: int) -> int:
        n_s = self.cfg.slices_per_stripe(self.world)
        return (src_dst * self.cfg.tables_per_gpu + table) * n_s + s

    # -- task construction ---------------------------------------------------
    def _build_tasks(self, rank: int) -> List[WgTask]:
        cfg, world = self.cfg, self.world
        n_s = cfg.slices_per_stripe(world)
        ctx = self.comm.ctx(rank)
        spec = self.cluster.gpu(rank).spec
        slice_bytes = cfg.slice_bytes()

        # Send tasks: ship my gradient slices to their table owners.  The
        # send itself is bandwidth work, not FLOPs — modelled as a stream
        # read of the slice plus the API latency.
        send_cost = WgCost(bytes=slice_bytes, dtype="fp32",
                           fixed=spec.flag_op_latency)
        tasks: List[WgTask] = []
        task_id = 0
        for owner in range(world):
            remote = owner != rank
            for t in range(cfg.tables_per_gpu):
                for s in range(n_s):
                    tasks.append(WgTask(
                        task_id=task_id, cost=send_cost,
                        meta={"remote": remote, "role": "send",
                              "owner": owner, "table": t, "slice": s},
                        on_complete=self._make_send_hook(
                            ctx, rank, owner, t, s,
                            spec.shmem_api_latency)))
                    task_id += 1

        # Apply tasks: wait for each incoming slice, scatter-add it.
        # Receiver-side communication-aware order: locally-produced
        # gradients first (their flags are set by this rank's own sends),
        # so the scatter-add overlaps the remote slices still in flight —
        # otherwise every physical WG head-of-line blocks on the wire.
        # The scatter-add is charged inside the hook, after the wait.
        apply_cost = _scatter_cost(cfg, cfg.slice_vectors)
        free = WgCost()
        src_order = ([rank] + [r for r in range(world) if r != rank]
                     if cfg.scheduler == "comm_aware" else range(world))
        for src_dst in src_order:
            for t in range(cfg.tables_per_gpu):
                for s in range(n_s):
                    tasks.append(WgTask(
                        task_id=task_id, cost=free,
                        meta={"remote": False, "role": "apply",
                              "src": src_dst, "table": t, "slice": s},
                        on_complete=self._make_apply_hook(
                            rank, src_dst, t, s, apply_cost)))
                    task_id += 1
        return get_scheduler(cfg.scheduler)(tasks)

    def _make_send_hook(self, ctx, rank: int, owner: int, t: int, s: int,
                        api_latency: float):
        cfg, world = self.cfg, self.world
        t_per = cfg.tables_per_gpu
        fidx = self.flag_index(rank, t, s)
        rows = slice(s * cfg.slice_vectors, (s + 1) * cfg.slice_vectors)

        def hook(slot_ctx, task):
            if slot_ctx.trace.enabled:
                slot_ctx.record("put_issue", owner=owner, table=t, slice=s)
            if cfg.functional:
                payload = self.grads[rank][rows, owner * t_per + t, :]
                ctx.put_signal(self.recv, payload, dst_rank=owner,
                               flags=self.flags[owner], flag_idx=fidx,
                               dst_index=(rank, rows, t, slice(None)))
            else:
                ctx.put_signal_bytes(owner, cfg.slice_bytes(),
                                     self.flags[owner], fidx, notify=False)
            if owner != rank:
                yield slot_ctx.charge(api_latency)

        return hook

    def _make_apply_hook(self, rank: int, src_dst: int, t: int, s: int,
                         apply_cost: WgCost):
        cfg, world = self.cfg, self.world
        local = cfg.local_batch(world)
        fidx = self.flag_index(src_dst, t, s)
        rows = slice(s * cfg.slice_vectors, (s + 1) * cfg.slice_vectors)

        def hook(slot_ctx, task):
            yield self.flags[rank].wait_until(rank, fidx)
            yield slot_ctx.charge(
                slot_ctx.gpu.wg_duration(apply_cost, slot_ctx.occupancy))
            if cfg.functional:
                batch = slice(src_dst * local + s * cfg.slice_vectors,
                              src_dst * local + (s + 1) * cfg.slice_vectors)
                scatter_add(self.table_grads[rank][t],
                            self.indices[rank][t, batch],
                            self.recv.local(rank)[src_dst, rows, t, :])

        return hook

    # -- execution ------------------------------------------------------------
    def run(self):
        self.stats["rank_end_times"] = {}
        kernels = []
        for r in range(self.world):
            gpu = self.cluster.gpu(r)
            kernels.append(PersistentKernel(
                gpu, fused_kernel_resources(gpu.spec),
                self._build_tasks(r), name=f"fused_emb_grad_a2a[{r}]",
                trace=self.harness.trace))

        def rank_proc(r, kern):
            yield from kern.run()
            self.stats["rank_end_times"][r] = self.sim.now

        procs = [self.sim.process(rank_proc(r, k), name=f"rank{r}")
                 for r, k in enumerate(kernels)]
        yield self.sim.all_of(procs)
        if self.cfg.functional:
            return self.table_grads
        return None


class BaselineEmbeddingGradAllToAll:
    """Bulk-synchronous: gradient All-to-All kernel, then scatter kernel."""

    def __init__(self, harness: OpHarness, cfg: EmbeddingA2AConfig):
        cfg.validate(harness.world_size)
        self.harness = harness
        self.cfg = cfg
        self.sim = harness.sim
        self.cluster = harness.cluster
        self.comm = harness.comm
        self.world = harness.world_size
        self.stats: Dict = {}
        self.grads = self.indices = None
        if cfg.functional:
            self.grads = make_gradients(cfg, self.world)
            _t, self.indices = make_embedding_inputs(cfg, self.world)

    def run(self):
        cfg, world = self.cfg, self.world
        local = cfg.local_batch(world)
        t_per = cfg.tables_per_gpu
        chunk = float(local * t_per * cfg.dim * ITEMSIZE)
        yield from self.comm.collectives.all_to_all_bytes(
            chunk, algorithm=cfg.algo)

        # Scatter-add kernel: one logical WG per gradient vector.
        n_vectors = cfg.global_batch * t_per
        cost = _scatter_cost(cfg, 1)

        def rank_proc(r):
            gpu = self.cluster.gpu(r)
            yield self.sim.timeout(bulk_kernel_time(
                gpu, n_vectors, cost,
                baseline_kernel_resources(gpu.spec)))

        procs = [self.sim.process(rank_proc(r)) for r in range(world)]
        yield self.sim.all_of(procs)

        if cfg.functional:
            return reference_table_grads(cfg, world, self.grads)
        return None
