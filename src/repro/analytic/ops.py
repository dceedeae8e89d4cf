"""Closed-form predictions of every DES scenario runner's metrics.

One ``predict_*`` function per scenario runner in
:mod:`repro.experiments.figures`, each returning the same result mapping
shape the DES runner produces, so the two backends are interchangeable
behind the experiment orchestrator.  Numeric config fields may also be
NumPy columns over a scenario axis: every form is written once against
:mod:`repro.utils.xp`, and :mod:`repro.analytic.batch` calls these same
functions with columns.

Each fused operator's geometry and costs — tasks per slice, task costs,
the Fig. 13 occupancy limit — come from the operator's plan in
:mod:`repro.fused` (``embedding_a2a_plan`` and its siblings), evaluated
on the platform's :class:`~repro.analytic.DeviceModel`: the DES builds
its tasks from the same plan, so no decision is written twice.  Baseline
tile costs and All-to-All chunk sizes are config methods, shared the
same way.

Model structure (per fused operator):

* **Compute span** — the persistent kernel's task queue evaluated in
  aggregate: total roofline task time (at the kernel's *derived* fused
  occupancy, including the grid-balancing the runtime applies) divided by
  the physical slot count, plus the per-hook API charges the issuing WGs
  pay.
* **Communication drain** — each channel (per-destination fabric link, or
  the shared NIC) drains the operator's put stream at its alpha-beta(-
  gamma) rate, starting when the first slice is computed; with
  communication-aware scheduling the last remote put issues after the
  *remote* share of the queue, with oblivious scheduling at the very end.
* **Overlap** — the operator completes at
  ``max(compute span, comm drain) + signal tail``: the paper's
  occupancy-scaled compute/communication overlap in one expression.

Baseline operators (bulk kernels + RCCL-like collectives) are evaluated
through the same pure closed forms the DES consumes, so baseline times
agree with the simulator essentially exactly; the approximation error
lives in the fused-kernel queue/drain terms and is quantified by
``python -m repro validate``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..fused.embedding_alltoall import (
    ITEMSIZE,
    EmbeddingA2AConfig,
    embedding_a2a_plan,
)
from ..fused.embedding_grad_alltoall import embedding_grad_plan
from ..fused.gemm_alltoall import GemmA2AConfig, gemm_a2a_plan
from ..fused.gemv_allreduce import GemvAllReduceConfig, gemv_allreduce_plan
from ..hw.gpu import bulk_kernel_time, persistent_occupancy, task_time, wg_time
from ..hw.platform import PlatformLike
from ..ops.embedding import embedding_wg_cost
from ..utils.xp import xp_of
from .comm import FLAG_BYTES, CommModel

__all__ = [
    "predict_embedding_a2a",
    "predict_embedding_fused",
    "predict_embedding_grad_a2a",
    "predict_gemv_allreduce",
    "predict_gemm_a2a",
    "predict_dlrm_scaleout",
    "predict_wg_timeline",
]


# ---------------------------------------------------------------------------
# Shared fused-kernel machinery
# ---------------------------------------------------------------------------

def _overlap_finish(compute_end, first_issue, last_issue, drain, tail):
    """Completion time of an overlapped put stream: the channel drains from
    the first computed slice, cannot finish before the last put is issued,
    and the final payload's fenced flag still has to land."""
    xp = xp_of(compute_end, first_issue, last_issue, drain, tail)
    return xp.maximum(compute_end,
                      xp.maximum(last_issue, first_issue + drain) + tail)


def _queue_span(total_dur, n_tasks, slots):
    """Makespan of ``n_tasks`` greedily pulled from a shared queue.

    ``total_dur / slots`` is the work-conserving lower bound; the last
    round is quantized to whole tasks (the slot executing the final task
    of a non-divisible queue finishes one mean task-duration late), which
    is exact for uniform tasks and the round-robin fast path."""
    xp = xp_of(total_dur, n_tasks, slots)
    ok = n_tasks >= 1
    if not xp.any(ok):
        return 0.0
    avg = total_dur / xp.maximum(n_tasks, 1)
    span = total_dur / slots + avg * (xp.ceil(n_tasks / slots)
                                      - n_tasks / slots)
    return xp.where(ok, span, 0.0)


# ---------------------------------------------------------------------------
# Embedding + All-to-All (forward)
# ---------------------------------------------------------------------------

def _embedding_fused_time(cm: CommModel,
                          cfg: EmbeddingA2AConfig) -> Dict[str, float]:
    """Fused embedding+A2A span plus the put-issue window (for Fig. 11)
    on ``cm``'s cluster; ``cfg`` is validated for ``cm.world``."""
    gpus_per_node, world = cm.gpus_per_node, cm.world
    d = cm.device
    spec = d.spec
    xp = xp_of(cfg.global_batch, cfg.tables_per_gpu, cfg.slice_vectors)

    T = cfg.tables_per_gpu
    n_s = cfg.slices_per_stripe(world)
    plan = embedding_a2a_plan(d, cfg, world)
    tps = plan.tasks_per_slice
    per_dest_tasks = T * n_s * tps
    n_tasks = world * per_dest_tasks

    occ = persistent_occupancy(d, d.fused_res, n_tasks,
                               occupancy_limit=plan.occupancy_limit)
    slots = d.n_slots(occ, n_tasks)

    dur_base = task_time(d, plan.cost, occ, plan.repeat)
    dur_zc = task_time(d, plan.zc_cost, occ, plan.repeat)
    # Destination classes as seen from any rank (the topology is symmetric).
    same_node_remote = gpus_per_node - 1
    other_node = world - gpus_per_node
    dur_same = dur_zc if cfg.zero_copy else dur_base

    remote_compute = per_dest_tasks * (same_node_remote * dur_same
                                       + other_node * dur_base)
    hook_charge = (world - 1) * T * n_s * spec.shmem_api_latency
    total = per_dest_tasks * dur_base + remote_compute + hook_charge

    launch = spec.kernel_launch_overhead
    compute_end = launch + _queue_span(total, n_tasks, slots)
    # First remote slice: its tps pieces run in parallel across slots.
    first_task = dur_same if same_node_remote else dur_base
    first_issue = launch + first_task * xp.ceil(tps / slots)
    if cfg.scheduler == "comm_aware":
        last_issue = launch + (remote_compute + hook_charge) / slots
    else:
        last_issue = compute_end

    slice_bytes = cfg.slice_bytes()
    msgs = T * n_s                       # slices per remote destination
    finish = compute_end
    if same_node_remote:
        drain = cm.drain_time(msgs * (slice_bytes + FLAG_BYTES), 2 * msgs,
                              remote_node=False)
        finish = xp.maximum(finish, _overlap_finish(
            compute_end, first_issue, last_issue, drain,
            cm.signal_tail(slice_bytes, remote_node=False)))
    if other_node:
        # The NIC is a *node* resource: all gpus_per_node ranks drain
        # their off-node slices through the same TX engine (a no-op on
        # 1-GPU nodes, where this has always been exact).
        nic_msgs = gpus_per_node * other_node * msgs
        drain = cm.drain_time(nic_msgs * (slice_bytes + FLAG_BYTES),
                              2 * nic_msgs, remote_node=True)
        first_nic = first_issue
        if same_node_remote:
            # Destinations are walked in ascending order, so on the
            # worst-placed node every same-node-remote stripe computes
            # before the first off-node put issues — the NIC drain
            # starts one intra-node stripe late (mixed shapes only;
            # 1-GPU nodes have no such stripe and stay exact).
            same_total = per_dest_tasks * same_node_remote * dur_same \
                + same_node_remote * T * n_s * spec.shmem_api_latency
            first_nic = launch + same_total / slots
        finish = xp.maximum(finish, _overlap_finish(
            compute_end, first_nic, last_issue, drain,
            cm.signal_tail(slice_bytes, remote_node=True)))
    return {"elapsed": finish, "first_issue": first_issue,
            "last_issue": last_issue, "launch": launch,
            "puts_per_remote_dest": msgs}


def _embedding_baseline_time(cm: CommModel, cfg: EmbeddingA2AConfig) -> float:
    """Per-table bulk pooling kernels, then the RCCL-like All-to-All, on
    ``cm``'s cluster; ``cfg`` is validated for ``cm.world``."""
    d = cm.device
    cost = embedding_wg_cost(cfg.pooling, cfg.dim, ITEMSIZE)
    compute = cfg.tables_per_gpu * bulk_kernel_time(
        d, cfg.global_batch, cost, d.base_res)
    return compute + cm.alltoall_time(cfg.chunk_bytes(cm.world),
                                      algo=cfg.algo)


def predict_embedding_a2a(num_nodes: int, gpus_per_node: int,
                          platform: PlatformLike = None,
                          baseline: Optional[Dict[str, Any]] = None,
                          **cfg_fields: Any) -> Dict[str, float]:
    """Analytic twin of the ``embedding_a2a_pair`` runner."""
    cfg = EmbeddingA2AConfig(functional=False, **cfg_fields)
    base_cfg = cfg.baseline_config(baseline)
    world = num_nodes * gpus_per_node
    cfg.validate(world)
    if base_cfg is not cfg:
        base_cfg.validate(world)
    cm = CommModel(platform, num_nodes, gpus_per_node)
    return {
        "fused_time": _embedding_fused_time(cm, cfg)["elapsed"],
        "baseline_time": _embedding_baseline_time(cm, base_cfg),
    }


def predict_embedding_fused(num_nodes: int = 2, gpus_per_node: int = 1,
                            cpu_proxy: bool = False,
                            platform: PlatformLike = None,
                            **cfg_fields: Any) -> Dict[str, Any]:
    """Analytic twin of the ``embedding_fused`` runner (Figs. 13/14 and
    the slice/proxy ablations).  Rank timelines are symmetric in closed
    form, so every rank reports the same end time (zero predicted skew)."""
    cfg = EmbeddingA2AConfig(functional=False, **cfg_fields)
    world = num_nodes * gpus_per_node
    cfg.validate(world)
    fused = _embedding_fused_time(
        CommModel(platform, num_nodes, gpus_per_node, cpu_proxy=cpu_proxy),
        cfg)
    return {
        "elapsed": fused["elapsed"],
        "rank_end_times": {str(r): fused["elapsed"] for r in range(world)},
    }


# ---------------------------------------------------------------------------
# Embedding gradient All-to-All (backward)
# ---------------------------------------------------------------------------

def predict_embedding_grad_a2a(num_nodes: int = 2, gpus_per_node: int = 1,
                               platform: PlatformLike = None,
                               **cfg_fields: Any) -> Dict[str, float]:
    """Analytic twin of the ``embedding_grad_pair`` runner."""
    cfg = EmbeddingA2AConfig(functional=False, **cfg_fields)
    world = num_nodes * gpus_per_node
    cfg.validate(world)
    cm = CommModel(platform, num_nodes, gpus_per_node)
    d = cm.device
    spec = d.spec
    xp = xp_of(cfg.global_batch, cfg.tables_per_gpu, cfg.slice_vectors,
               cfg.dim)

    T = cfg.tables_per_gpu
    n_s = cfg.slices_per_stripe(world)
    n_send = world * T * n_s
    slice_bytes = cfg.slice_bytes()

    occ = persistent_occupancy(d, d.fused_res, 2 * n_send, n_work=n_send)
    slots = d.n_slots(occ, 2 * n_send)
    plan = embedding_grad_plan(d, cfg, world)
    send_dur = task_time(d, plan.send_cost, occ)
    n_remote = (world - 1) * T * n_s
    send_total = n_send * send_dur + n_remote * spec.shmem_api_latency

    apply_dur = wg_time(d, plan.apply_cost, occ)
    apply_total = n_send * (spec.wg_dispatch_overhead + apply_dur)

    launch = spec.kernel_launch_overhead
    send_end = launch + _queue_span(send_total, n_send, slots)
    # Remote sends go first (comm-aware); their payloads drain through the
    # NIC/fabric while sends and local applies proceed, and the receiver's
    # final apply cannot run before the last slice's fenced flag lands.
    first_issue = launch + send_dur
    last_issue = launch + ((n_remote * send_dur
                            + n_remote * spec.shmem_api_latency) / slots)
    remote_dst = num_nodes > 1      # 2-node shape: the peer is off-node
    per_channel = n_remote // max(world - 1, 1)
    drain = cm.drain_time(per_channel * (slice_bytes + FLAG_BYTES),
                          2 * per_channel, remote_node=remote_dst)
    arrival = xp.maximum(last_issue, first_issue + drain) + cm.signal_tail(
        slice_bytes, remote_node=remote_dst)
    # Applies sit at the back of the shared queue, so the apply phase pays
    # its own last-round quantization on top of the send phase.
    finish = xp.maximum(send_end + _queue_span(apply_total, n_send, slots),
                        arrival + spec.wg_dispatch_overhead + apply_dur)

    # Baseline: All-to-All kernel, then a bulk scatter-add kernel.
    baseline = (cm.alltoall_time(cfg.chunk_bytes(world), algo=cfg.algo)
                + bulk_kernel_time(d, cfg.global_batch * T,
                                   cfg.scatter_cost(1), d.base_res))
    return {"fused_time": finish, "baseline_time": baseline}


# ---------------------------------------------------------------------------
# GEMV + AllReduce (scale-up)
# ---------------------------------------------------------------------------

def predict_gemv_allreduce(world: int = 4, platform: PlatformLike = None,
                           **cfg_fields: Any) -> Dict[str, float]:
    """Analytic twin of the ``gemv_allreduce_pair`` runner."""
    cfg = GemvAllReduceConfig(functional=False, **cfg_fields)
    cfg.validate(world)
    cm = CommModel(platform, num_nodes=1, gpus_per_node=world)
    d = cm.device
    spec = d.spec
    xp = xp_of(cfg.m, cfg.n_per_gpu, cfg.tile_rows, cfg.itemsize)

    chunk = cfg.chunk_rows(world)
    tiles_per_owner = chunk // cfg.tile_rows
    n_a = world * tiles_per_owner
    n_b = tiles_per_owner
    tile_bytes = cfg.tile_bytes()

    occ = persistent_occupancy(d, d.fused_res, n_a + n_b, n_work=n_a)
    slots = d.n_slots(occ, n_a + n_b)
    plan = gemv_allreduce_plan(d, cfg, world)
    t_a = _queue_span(
        tiles_per_owner * (task_time(d, plan.cost, occ)
                           + (world - 1) * task_time(d, plan.zc_cost, occ)),
        n_a, slots)
    launch = spec.kernel_launch_overhead
    # Every owner's partialRdy: the last streamed tile plus its chained
    # fenced flag (put issued behind an all-of over the tile transfers).
    partial_ready = launch + t_a + cm.signal_tail(tile_bytes,
                                                  remote_node=False)

    reduce_dur = wg_time(d, plan.reduce_cost, occ)
    rounds_b = xp.ceil(n_b / slots)
    t_b = rounds_b * (spec.wg_dispatch_overhead + reduce_dur)
    # All-gather phase: each owner streams its reduced chunk to every peer
    # over dedicated links, finishing with a fenced finalRdy flag.
    bcast_drain = chunk * cfg.itemsize / cm.link.bandwidth
    fused = (partial_ready + xp.maximum(t_b, bcast_drain)
             + cm.signal_tail(tile_bytes, remote_node=False))

    # Baseline: bulk GEMV kernel, then RCCL-like direct AllReduce.
    baseline = (bulk_kernel_time(d, cfg.m // cfg.tile_rows, cfg.tile_cost(),
                                 d.base_res)
                + cm.allreduce_time(xp.asfloat(cfg.m * cfg.itemsize), cfg.m,
                                    itemsize=cfg.itemsize,
                                    algo=cfg.algo or "direct"))
    return {"fused_time": fused, "baseline_time": baseline}


# ---------------------------------------------------------------------------
# GEMM + All-to-All (MoE expert)
# ---------------------------------------------------------------------------

def predict_gemm_a2a(world: int = 4, platform: PlatformLike = None,
                     **cfg_fields: Any) -> Dict[str, float]:
    """Analytic twin of the ``gemm_a2a_pair`` runner."""
    cfg = GemmA2AConfig(functional=False, **cfg_fields)
    cfg.validate(world)
    cm = CommModel(platform, num_nodes=1, gpus_per_node=world)
    d = cm.device
    spec = d.spec

    grid_m, grid_n = cfg.grid()
    n_tasks = grid_m * grid_n
    tiles_per_dest = n_tasks // world
    tile_wire = cfg.tile_wire_bytes()

    occ = persistent_occupancy(d, d.fused_res, n_tasks)
    slots = d.n_slots(occ, n_tasks)
    plan = gemm_a2a_plan(d, cfg, world)
    dur_base = task_time(d, plan.cost, occ)
    dur_zc = task_time(d, plan.zc_cost, occ)
    # Every tile's hook issues a put (self-puts are free but still charge
    # the API latency to the issuing WG).
    remote_compute = ((world - 1) * tiles_per_dest
                      * (dur_zc + spec.shmem_api_latency))
    total = (tiles_per_dest * (dur_base + spec.shmem_api_latency)
             + remote_compute)

    launch = spec.kernel_launch_overhead
    compute_end = launch + _queue_span(total, n_tasks, slots)
    first_issue = launch + dur_zc
    last_issue = launch + remote_compute / slots  # comm-aware: remote first
    if cfg.scheduler != "comm_aware":
        last_issue = compute_end
    drain = cm.drain_time(tiles_per_dest * (tile_wire + FLAG_BYTES),
                          2 * tiles_per_dest, remote_node=False)
    fused = _overlap_finish(compute_end, first_issue, last_issue, drain,
                            cm.signal_tail(tile_wire, remote_node=False))

    baseline = (bulk_kernel_time(d, n_tasks, cfg.tile_cost(), d.base_res)
                + cm.alltoall_time(cfg.chunk_bytes(world), algo=cfg.algo))
    return {"fused_time": fused, "baseline_time": baseline}


# ---------------------------------------------------------------------------
# DLRM scale-out and the Fig. 11 timeline
# ---------------------------------------------------------------------------

def predict_dlrm_scaleout(num_nodes: int,
                          platform: PlatformLike = None) -> Dict[str, float]:
    """Scale-out DLRM iteration — **shared** with the DES backend.

    The Fig. 15 pipeline (:mod:`repro.astra`) is already closed-form: per-
    kernel durations from the same roofline model plus list-scheduled
    execution graphs, no event loop involved.  Both backends therefore
    call the same code and agree exactly.
    """
    from ..astra import run_dlrm_scaleout
    r = run_dlrm_scaleout(num_nodes, platform=platform)
    return {
        "fused_time": r.fused_time,
        "baseline_time": r.baseline_time,
        "reduction_pct": r.reduction_pct,
        "exposed_a2a_fraction": r.exposed_a2a_fraction(),
    }


def _wg_timeline_values(batch: int = 512, tables: int = 32,
                        wgs_per_slice: int = 16, timeline_width: int = 100,
                        platform: PlatformLike = None) -> Dict[str, Any]:
    """The numbers behind :func:`predict_wg_timeline` (scalars or
    columns): kernel span, put-issue window and put count."""
    cfg = EmbeddingA2AConfig(global_batch=batch, tables_per_gpu=tables,
                             functional=False, slice_vectors=wgs_per_slice,
                             tasks_per_slice=wgs_per_slice)
    cfg.validate(2)
    fused = _embedding_fused_time(CommModel(platform, 2, 1), cfg)
    return {"kernel_span": fused["elapsed"],
            "first_put": fused["first_issue"],
            "last_put": fused["last_issue"],
            "puts": fused["puts_per_remote_dest"]}


def wg_timeline_record(kernel_span: float, first_put: float,
                       last_put: float, puts: int, elapsed: float,
                       timeline: str) -> Dict[str, Any]:
    """One ``wg_timeline`` (Fig. 11) result, for either backend.

    Put times are relative to the kernel start.  The underscore keys are
    raw metrics (dropped from the figure's extra) so ``repro diff``
    catches timing regressions that the display strings would hide.
    """
    return {
        "kernel_time": f"{kernel_span * 1e3:.3f} ms",
        "puts_issued_node0": puts,
        "first_put_at": f"{100 * first_put / kernel_span:.1f}% of kernel",
        "last_put_at": f"{100 * last_put / kernel_span:.1f}% of kernel",
        "elapsed": f"{elapsed * 1e3:.3f} ms",
        "timeline": "\n" + timeline,
        "_kernel_time_s": kernel_span,
        "_first_put_frac": first_put / kernel_span,
        "_last_put_frac": last_put / kernel_span,
        "_elapsed_s": elapsed,
    }


def _wg_timeline_record(values: Dict[str, Any]) -> Dict[str, Any]:
    """One scenario's analytic ``wg_timeline`` result from its
    :func:`_wg_timeline_values` (the closed form's span is also its
    elapsed time)."""
    return wg_timeline_record(
        values["kernel_span"], values["first_put"], values["last_put"],
        values["puts"], values["kernel_span"],
        "(per-WG timeline requires the DES trace; run this sweep under "
        "backend=sim to render it)")


def predict_wg_timeline(batch: int = 512, tables: int = 32,
                        wgs_per_slice: int = 16, timeline_width: int = 100,
                        platform: PlatformLike = None) -> Dict[str, Any]:
    """Analytic twin of the ``wg_timeline`` runner (Fig. 11).

    Geometry (put count) is exact; kernel span and the put-issue window
    come from the closed-form queue model.  The per-WG timeline rendering
    requires the DES trace and is replaced by a pointer to it.
    """
    return _wg_timeline_record(_wg_timeline_values(
        batch, tables, wgs_per_slice, timeline_width, platform))
