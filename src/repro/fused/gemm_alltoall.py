"""Fused GEMM + All-to-All, written in the mini-Triton extension.

Mixture-of-Experts expert parallelism: each GPU hosts one expert FFN.
After the dispatch All-to-All, every expert's GEMM input holds token blocks
from each source GPU; the *combine* All-to-All returns output rows to their
origin — the collective this operator fuses (paper Sections II-A / III-B:
"implemented in Triton with communication extensions").

The tile program computes one ``BLOCK_M x BLOCK_N`` output tile; because
token rows are grouped by source GPU, a whole tile belongs to exactly one
destination, and the instance hands it to ``tl.comm.put_tile`` — a direct
store into the destination's output buffer (zero-copy scale-up).  The
operator layer adds the per-destination completion counting (the WG_Done
bitmask role) and fenced ``tileRdy`` signals, and persistent WGs exit after
their incoming flags arrive.

**Baseline**: a bulk-synchronous Triton-style GEMM kernel followed by an
RCCL-like All-to-All.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..frameworks.triton import build_tasks, jit, tl
from ..hw.gpu import WgCost, bulk_kernel_time
from ..kernels import PersistentKernel, WgTask, get_scheduler
from ..ops.gemm import gemm_wg_cost
from ..utils.xp import xp_of
from .base import (
    OpHarness,
    baseline_kernel_resources,
    fused_kernel_resources,
)

__all__ = ["GemmA2AConfig", "FusedGemmAllToAll", "BaselineGemmAllToAll",
           "make_gemm_inputs", "gemm_a2a_kernel"]


@dataclass(frozen=True)
class GemmA2AConfig:
    """MoE expert GEMM: ``(tokens, model_dim) @ (model_dim, ffn_dim)``.

    ``tokens`` is the expert's post-dispatch row count (uniform top-k
    routing, as the paper assumes); rows are grouped by source GPU.
    """

    tokens: int
    model_dim: int
    ffn_dim: int
    block_m: int = 64
    block_n: int = 128
    itemsize: int = 2               #: fp16 activations/weights
    flop_dtype: str = "fp16"
    functional: bool = True
    scheduler: str = "comm_aware"
    #: Baseline All-to-All schedule (:mod:`repro.collectives` name or
    #: ``"auto"``); ``None`` keeps the legacy flat RCCL-like schedule.
    algo: Optional[str] = None
    seed: int = 0

    def validate(self, world: int) -> None:
        """Reject invalid configs; numeric fields may be columns over a
        scenario axis (the analytic backend), and the message then names
        the first offending row."""
        from ..collectives import check_algo
        check_algo("alltoall", self.algo)
        xp = xp_of(self.tokens, self.model_dim, self.ffn_dim, self.block_m,
                   self.block_n)
        if xp.any((self.tokens < 1) | (self.model_dim < 1)
                  | (self.ffn_dim < 1)):
            raise ValueError("all GEMM dims must be >= 1")
        bad = self.tokens % (world * self.block_m) != 0
        if xp.any(bad):
            raise ValueError(
                f"tokens={xp.first(self.tokens, bad)} must divide into "
                f"world*block_m={xp.first(world * self.block_m, bad)}")
        bad = self.ffn_dim % self.block_n != 0
        if xp.any(bad):
            raise ValueError(
                f"ffn_dim={xp.first(self.ffn_dim, bad)} must be divisible "
                f"by block_n={xp.first(self.block_n, bad)}")

    def tokens_per_src(self, world: int) -> int:
        return self.tokens // world

    def tile_wire_bytes(self) -> float:
        return xp_of(self.block_m, self.block_n, self.itemsize).asfloat(
            self.block_m * self.block_n * self.itemsize)

    @property
    def label(self) -> str:
        def k(v):
            return f"{v // 1024}k" if v % 1024 == 0 and v >= 1024 else str(v)
        return f"{k(self.tokens)}|{k(self.model_dim)}|{k(self.ffn_dim)}"


def make_gemm_inputs(cfg: GemmA2AConfig, world: int):
    """Per-expert activations and weights (fp32 for exact verification)."""
    acts, weights = [], []
    scale = 1.0 / np.sqrt(cfg.model_dim)
    for r in range(world):
        rng = np.random.default_rng(cfg.seed + 17 * r)
        acts.append((rng.standard_normal((cfg.tokens, cfg.model_dim))
                     * scale).astype(np.float32))
        weights.append((rng.standard_normal((cfg.model_dim, cfg.ffn_dim))
                        * scale).astype(np.float32))
    return acts, weights


def reference_output(cfg: GemmA2AConfig, world: int, acts, weights):
    """Ground truth: expert GEMMs, then the combine permutation.

    out[s][r] = (acts[r] @ weights[r])[s-th token block].
    """
    tps = cfg.tokens_per_src(world)
    c = [a @ w for a, w in zip(acts, weights)]
    return [np.stack([c[r][s * tps:(s + 1) * tps] for r in range(world)])
            for s in range(world)]


# ---------------------------------------------------------------------------
# The tile program (what a user of the extended Triton would write)
# ---------------------------------------------------------------------------

@jit
def gemm_a2a_kernel(a, b, out_buf, rank, tokens_per_src, block_m, block_n,
                    wire_bytes):
    """One output tile of the expert GEMM, sent straight to its owner.

    ``out_buf`` is a symmetric ``(world, tokens_per_src, ffn_dim)`` tensor:
    destination ``dst`` receives its token block from expert ``rank`` at
    ``out_buf[dst][rank]``.
    """
    pid_m = tl.program_id(0)
    pid_n = tl.program_id(1)
    m0 = pid_m * block_m
    n0 = pid_n * block_n
    a_tile = tl.load(a, rows=(m0, block_m))            # (BM, K)
    b_tile = tl.load(b, cols=(n0, block_n))            # (K, BN)
    acc = tl.dot(a_tile, b_tile)                       # (BM, BN)
    dst = m0 // tokens_per_src
    row0 = m0 - dst * tokens_per_src
    tl.comm.put_tile(out_buf, acc, dst_rank=dst,
                     index=(rank, slice(row0, row0 + block_m),
                            slice(n0, n0 + block_n)),
                     wire_bytes=wire_bytes)


class FusedGemmAllToAll:
    """The paper's Triton-extension fused operator."""

    def __init__(self, harness: OpHarness, cfg: GemmA2AConfig):
        cfg.validate(harness.world_size)
        if harness.cluster.num_nodes != 1:
            raise ValueError(
                "FusedGemmAllToAll is a scale-up operator (single node)")
        self.harness = harness
        self.cfg = cfg
        self.sim = harness.sim
        self.cluster = harness.cluster
        self.comm = harness.comm
        self.world = harness.world_size
        self.stats: Dict = {}

        self.acts = self.weights = None
        self.out = None
        if cfg.functional:
            self.acts, self.weights = make_gemm_inputs(cfg, self.world)
            self.out = self.comm.alloc(
                (self.world, self.world, cfg.tokens_per_src(self.world),
                 cfg.ffn_dim), np.float32)
            # out.local(s)[r] = token block of s from expert r; the leading
            # world axis of the allocation is unused padding-free view:
            # index [dst] inside put_tile uses (rank, rows, cols) on the
            # destination's (world, tps, ffn) view.
        self.tile_rdy = self.comm.alloc_flags(self.world, name="tileRdy")

    def _grid(self):
        cfg, world = self.cfg, self.world
        return (cfg.tokens // cfg.block_m, cfg.ffn_dim // cfg.block_n)

    def _tile_cost(self, remote: bool) -> WgCost:
        cfg = self.cfg
        spec = self.cluster.gpus[0].spec
        cost = gemm_wg_cost(cfg.block_m, cfg.block_n, cfg.model_dim,
                            itemsize=cfg.itemsize, dtype=cfg.flop_dtype)
        cost = cost.plus(fixed=spec.flag_op_latency)
        if remote:
            # Zero-copy: the tile leaves over the fabric, no local C write.
            cost = cost.with_bytes(
                cost.bytes - cfg.block_m * cfg.block_n * cfg.itemsize)
        return cost

    def _build_tasks(self, rank: int):
        cfg, world = self.cfg, self.world
        grid = self._grid()
        tps = cfg.tokens_per_src(world)
        ctx = self.comm.ctx(rank)
        # Per-destination completion counting (the WG_Done bitmask role):
        # when the last tile for dest d has issued its put, the wrapped
        # hook chains a fenced tileRdy signal behind the outstanding puts.
        tiles_per_dest = (tps // cfg.block_m) * grid[1]
        remaining = {d: tiles_per_dest for d in range(world)}
        pending_by_dst: dict = {}
        # Only two tile costs exist; every task shares one of them.
        costs = {remote: self._tile_cost(remote) for remote in (False, True)}

        if cfg.functional:
            def meta_fn(pos):
                dst = (pos[0] * cfg.block_m) // tps
                return {"remote": dst != rank, "dest": dst}

            # View of the destination layout for put_tile indexing: each
            # dest d's buffer is out.local(d)[d] -> (world, tps, ffn).
            out_view = _DestView(self.out)
            tasks = build_tasks(
                gemm_a2a_kernel, grid,
                (self.acts[rank], self.weights[rank], out_view, rank, tps,
                 cfg.block_m, cfg.block_n, cfg.tile_wire_bytes()),
                cost=costs[False],  # per-task cost set below
                shmem_ctx=ctx, meta_fn=meta_fn)
            for t in tasks:
                t.cost = costs[t.meta["remote"]]
                t.on_complete = self._wrap_hook(
                    t.on_complete, t.meta["dest"], rank, ctx, remaining,
                    pending_by_dst)
        else:
            # Analytic mirror of the Triton path (same tasks, no payloads);
            # a tile's hook depends only on its destination.
            api_latency = self.cluster.gpu(rank).spec.shmem_api_latency
            wire_bytes = cfg.tile_wire_bytes()
            hooks = [self._wrap_hook(
                self._put_hook(ctx, d, wire_bytes, api_latency,
                               pending_by_dst),
                d, rank, ctx, remaining, pending_by_dst)
                for d in range(world)]
            tasks = []
            for i in range(grid[0]):
                dst = (i * cfg.block_m) // tps
                remote = dst != rank
                for j in range(grid[1]):
                    tasks.append(WgTask(
                        task_id=len(tasks), cost=costs[remote],
                        meta={"remote": remote, "dest": dst,
                              "grid_pos": (i, j)},
                        on_complete=hooks[dst]))
        return get_scheduler(cfg.scheduler)(tasks)

    @staticmethod
    def _put_hook(ctx, dst, wire_bytes, api_latency, pending_by_dst):
        def hook(slot_ctx, task):
            if slot_ctx.trace.enabled:
                slot_ctx.record("put_issue", dest=dst)
            ev = ctx.put_bytes(dst, wire_bytes)
            pending_by_dst.setdefault(dst, []).append(ev)
            yield slot_ctx.charge(api_latency)

        return hook

    def _wrap_hook(self, inner, dest, rank, ctx, remaining, pending_by_dst):
        def hook(slot_ctx, task):
            if inner is not None:
                gen = inner(slot_ctx, task)
                if gen is not None:
                    yield from gen
            remaining[dest] -= 1
            if remaining[dest] == 0:
                evs = [e for e in pending_by_dst.get(dest, [])
                       if not e.processed]

                def fire(_ev, dest=dest):
                    flag_ev = ctx.put_bytes(dest, 8.0)
                    flag_ev.add_callback(
                        lambda _e: self.tile_rdy.set(dest, rank))

                self.sim.all_of(evs).add_callback(fire)

        return hook

    def _epilogue(self, rank: int):
        def epilogue(slot_ctx):
            yield self.tile_rdy.wait_all(rank, range(self.world))

        return epilogue

    def run(self):
        self.stats["rank_end_times"] = {}
        kernels = []
        for r in range(self.world):
            # The Triton path shares pending-put tracking between
            # build_tasks and the wrapper via the op's dicts; construct
            # per rank.
            tasks = self._build_tasks(r)
            gpu = self.cluster.gpu(r)
            kernels.append(PersistentKernel(
                gpu, fused_kernel_resources(gpu.spec), tasks,
                name=f"fused_gemm_a2a[{r}]", epilogue=self._epilogue(r),
                trace=self.harness.trace))

        def rank_proc(r, kern):
            yield from kern.run()
            self.stats["rank_end_times"][r] = self.sim.now

        procs = [self.sim.process(rank_proc(r, k), name=f"rank{r}")
                 for r, k in enumerate(kernels)]
        yield self.sim.all_of(procs)
        self.stats["occupancy"] = kernels[0].occupancy.fraction
        if self.cfg.functional:
            return [self.out.local(s)[s] for s in range(self.world)]
        return None


class _DestView:
    """Adapter: ``put_tile`` destination indexing for the output buffer.

    ``local(d)`` exposes dest ``d``'s ``(world, tps, ffn)`` receive buffer
    (row ``d`` of the symmetric allocation).
    """

    def __init__(self, symbuf):
        self._buf = symbuf

    def local(self, rank: int):
        return self._buf.local(rank)[rank]


class BaselineGemmAllToAll:
    """Bulk-synchronous baseline: GEMM kernel, then RCCL All-to-All."""

    def __init__(self, harness: OpHarness, cfg: GemmA2AConfig):
        cfg.validate(harness.world_size)
        self.harness = harness
        self.cfg = cfg
        self.sim = harness.sim
        self.cluster = harness.cluster
        self.comm = harness.comm
        self.world = harness.world_size
        self.stats: Dict = {}
        self.acts = self.weights = None
        if cfg.functional:
            self.acts, self.weights = make_gemm_inputs(cfg, self.world)

    def run(self):
        cfg, world = self.cfg, self.world
        grid = (cfg.tokens // cfg.block_m, cfg.ffn_dim // cfg.block_n)
        n_tiles = grid[0] * grid[1]
        cost = gemm_wg_cost(cfg.block_m, cfg.block_n, cfg.model_dim,
                            itemsize=cfg.itemsize, dtype=cfg.flop_dtype)
        res = baseline_kernel_resources(self.cluster.gpu(0).spec)

        outputs: List[Optional[np.ndarray]] = [None] * world

        def rank_compute(r):
            if cfg.functional:
                outputs[r] = self.acts[r] @ self.weights[r]
            yield self.sim.timeout(
                bulk_kernel_time(self.cluster.gpu(r), n_tiles, cost, res))

        procs = [self.sim.process(rank_compute(r)) for r in range(world)]
        yield self.sim.all_of(procs)
        self.stats["compute_done"] = self.sim.now

        tps = cfg.tokens_per_src(world)
        chunk = float(tps * cfg.ffn_dim * cfg.itemsize)
        yield from self.comm.collectives.all_to_all_bytes(
            chunk, algorithm=cfg.algo)
        if cfg.functional:
            return [np.stack([outputs[r][s * tps:(s + 1) * tps]
                              for r in range(world)])
                    for s in range(world)]
        return None
