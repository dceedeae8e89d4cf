"""The fused operators build their task lists without per-task copies.

Tasks whose costs are equal share one :class:`~repro.hw.gpu.WgCost`: the
kernel task loop memoizes a cost's duration by ``id(cost)``, so a fresh
copy per task silently re-derives (and re-hashes) it for every task.  The
costs a hook charges (the GEMV reduce, the gradient scatter-add) are held
to the same rule, and the hook-free pieces of one embedding slice share one
``meta`` dict (``WgTask.meta`` is read-only once a task is built).  The
configurations are the size of the ``des-ops`` benchmark's scenarios.
"""

from collections import defaultdict

import pytest

from repro.fused import (
    EmbeddingA2AConfig,
    FusedEmbeddingAllToAll,
    FusedGemmAllToAll,
    FusedGemvAllReduce,
    GemmA2AConfig,
    GemvAllReduceConfig,
    OpHarness,
)
from repro.fused.embedding_grad_alltoall import FusedEmbeddingGradAllToAll


def _assert_equal_costs_shared(costs):
    first = {}
    for cost in costs:
        assert first.setdefault(cost, cost) is cost, \
            f"{cost} was built more than once"


def _spy_cost_arg(monkeypatch, cls, method, index):
    """Record the cost argument (``index``-th after ``self``) of every
    hook ``cls.method`` builds."""
    seen = []
    original = getattr(cls, method)

    def spy(self, *args, **kwargs):
        seen.append(args[index])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, spy)
    return seen


def _check_builds(op, hook_costs=None, hooked=None):
    """Per rank: one cost object per distinct task cost, and per distinct
    cost ``hooked`` tasks' hooks charge."""
    for rank in range(op.world):
        if hook_costs is not None:
            hook_costs.clear()
        tasks = op._build_tasks(rank)
        _assert_equal_costs_shared(t.cost for t in tasks)
        if hook_costs is not None:
            assert len(hook_costs) == sum(map(hooked, tasks))
            _assert_equal_costs_shared(hook_costs)
    return tasks


@pytest.mark.parametrize("nodes,gpus,platform,batch,tables", [
    (1, 4, "mi250x", 512, 16),
    (2, 1, "mi210", 512, 64),
])
def test_embedding_a2a_shares_costs_and_slice_meta(nodes, gpus, platform,
                                                   batch, tables):
    h = OpHarness(num_nodes=nodes, gpus_per_node=gpus, platform=platform)
    cfg = EmbeddingA2AConfig(global_batch=batch, tables_per_gpu=tables,
                             functional=False)
    op = FusedEmbeddingAllToAll(h, cfg)
    _check_builds(op)
    for rank in range(op.world):
        tasks = op._build_tasks(rank)
        pieces = defaultdict(list)
        for t in tasks:
            if t.on_complete is None:
                pieces[(t.meta["dest"], t.meta["table"],
                        t.meta["slice"])].append(t)
        assert pieces, "config must split slices into several tasks"
        for key, group in pieces.items():
            assert len({id(t.meta) for t in group}) == 1, key
            assert group[0].meta["last"] is False


def test_embedding_grad_shares_costs(monkeypatch):
    applied = _spy_cost_arg(monkeypatch, FusedEmbeddingGradAllToAll,
                            "_make_apply_hook", 4)
    h = OpHarness(num_nodes=2, gpus_per_node=1, platform="h100")
    op = FusedEmbeddingGradAllToAll(
        h, EmbeddingA2AConfig(global_batch=512, tables_per_gpu=64,
                              functional=False))
    _check_builds(op, applied, lambda t: t.meta["role"] == "apply")


def test_gemm_shares_costs():
    h = OpHarness(num_nodes=1, gpus_per_node=4, platform="mi250x")
    op = FusedGemmAllToAll(
        h, GemmA2AConfig(tokens=512, model_dim=4096, ffn_dim=8192,
                         functional=False))
    tasks = _check_builds(op)
    assert len({id(t.cost) for t in tasks}) == 2


def test_gemv_shares_costs(monkeypatch):
    reduced = _spy_cost_arg(monkeypatch, FusedGemvAllReduce,
                            "_make_reduce_hook", 4)
    h = OpHarness(num_nodes=1, gpus_per_node=4, platform="mi250x")
    op = FusedGemvAllReduce(
        h, GemvAllReduceConfig(m=8192, n_per_gpu=4096, functional=False))
    _check_builds(op, reduced, lambda t: t.meta["phase"] == "B")
