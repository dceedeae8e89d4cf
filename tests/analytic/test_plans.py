"""One plan per fused operator, read by both engines.

Each fused operator's geometry and costs come from one ``*_plan(device,
cfg, world)`` function: the DES evaluates it on a simulated
:class:`~repro.hw.gpu.Gpu` per rank, the analytic twin on a platform's
:class:`~repro.analytic.DeviceModel`, over Python scalars or NumPy
columns.  These tests pin that the two devices give the same plan, that a
column plan is the per-row scalar plans bit for bit, and that both
engines reject an unreachable Fig. 13 occupancy with the same message.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.analytic import device_model
from repro.analytic.ops import predict_embedding_a2a
from repro.fused import (
    EmbeddingA2AConfig,
    FusedEmbeddingAllToAll,
    GemmA2AConfig,
    GemvAllReduceConfig,
    OpHarness,
)
from repro.fused.embedding_alltoall import embedding_a2a_plan
from repro.fused.embedding_grad_alltoall import embedding_grad_plan
from repro.fused.gemm_alltoall import gemm_a2a_plan
from repro.fused.gemv_allreduce import gemv_allreduce_plan
from repro.hw.gpu import WgCost
from repro.hw.platform import list_platforms, max_occupancy_of_baseline

PLATFORMS = [p.name for p in list_platforms()]

#: (plan function, config type, config fields, cluster shape) per operator.
OPERATORS = {
    "embedding_a2a": (embedding_a2a_plan, EmbeddingA2AConfig,
                      dict(global_batch=1024, tables_per_gpu=16,
                           occupancy_of_baseline=0.5), (2, 2)),
    "embedding_grad": (embedding_grad_plan, EmbeddingA2AConfig,
                       dict(global_batch=512, tables_per_gpu=8), (2, 1)),
    "gemm_a2a": (gemm_a2a_plan, GemmA2AConfig,
                 dict(tokens=512, model_dim=1024, ffn_dim=2048), (1, 4)),
    "gemv_allreduce": (gemv_allreduce_plan, GemvAllReduceConfig,
                       dict(m=4096, n_per_gpu=1024), (1, 4)),
}


@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_gpu_and_device_model_give_the_same_plan(op, platform):
    plan_fn, config, fields, (nodes, gpus) = OPERATORS[op]
    cfg = config(functional=False, **fields)
    h = OpHarness(num_nodes=nodes, gpus_per_node=gpus, platform=platform)
    expected = plan_fn(device_model(platform), cfg, h.world_size)
    for gpu in h.cluster.gpus:
        assert plan_fn(gpu, cfg, h.world_size) == expected


def _assert_same_bits(column, row, scalar):
    """Row ``row`` of a plan field evaluated over columns equals the field
    evaluated on that row's scalars, to the bit (``None`` is NaN)."""
    if isinstance(scalar, WgCost):
        assert (column.dtype, column.access) == (scalar.dtype, scalar.access)
        for name in ("flops", "bytes", "fixed"):
            _assert_same_bits(getattr(column, name), row,
                              getattr(scalar, name))
        return
    value = np.broadcast_to(column, np.shape(column) or (row + 1,))[row]
    if scalar is None:
        assert math.isnan(value)
    elif isinstance(scalar, float):
        assert np.float64(value).tobytes() == np.float64(scalar).tobytes()
    else:
        assert value == scalar


def _assert_column_plan_is_scalar_plans(plan_fn, device, rows, world):
    """The plan over ``rows`` (configs) as columns — int64 for integer
    fields, float64 with NaN for ``None`` in the Fig. 13 knob, as
    :mod:`repro.analytic.batch` builds them — equals each row's scalar
    plan, field by field."""
    config = type(rows[0])
    columns = {}
    for f in dataclasses.fields(config):
        values = [getattr(r, f.name) for r in rows]
        if f.name == "occupancy_of_baseline":
            columns[f.name] = np.array(
                [np.nan if v is None else v for v in values], np.float64)
        elif type(values[0]) is int:
            columns[f.name] = np.array(values, np.int64)
    col_plan = plan_fn(device, dataclasses.replace(rows[0], **columns),
                       world)
    for i, row in enumerate(rows):
        for column, scalar in zip(col_plan, plan_fn(device, row, world)):
            _assert_same_bits(column, i, scalar)


def _emb(**kw):
    fields = dict(global_batch=512, tables_per_gpu=8, slice_vectors=32,
                  tasks_per_slice=0, occupancy_of_baseline=None,
                  functional=False)
    return EmbeddingA2AConfig(**{**fields, **kw})


@pytest.mark.parametrize("platform", ["mi210", "h100"])
def test_embedding_column_plan_is_the_scalar_plans(platform):
    d = device_model(platform)
    rows = [
        _emb(tasks_per_slice=4),                          # explicit split
        _emb(),                                           # auto split
        _emb(global_batch=4096, tables_per_gpu=64),       # auto: 1 per slice
        _emb(occupancy_of_baseline=0.5),                  # Fig. 13 knob
        _emb(occupancy_of_baseline=None, tasks_per_slice=8),  # NaN column
        # Target 8 tasks per slice, but 8 does not divide 12: whole vectors.
        _emb(global_batch=24, tables_per_gpu=1, slice_vectors=12),
    ]
    assert embedding_a2a_plan(d, rows[-1], 2).tasks_per_slice == 12
    _assert_column_plan_is_scalar_plans(embedding_a2a_plan, d, rows, 2)


@pytest.mark.parametrize("op,rows", [
    ("embedding_grad", [dict(global_batch=512, tables_per_gpu=8),
                        dict(global_batch=256, tables_per_gpu=4,
                             slice_vectors=16, dim=128)]),
    ("gemm_a2a", [dict(tokens=512, model_dim=1024, ffn_dim=2048),
                  dict(tokens=256, model_dim=512, ffn_dim=1024,
                       block_m=32, block_n=64)]),
    ("gemv_allreduce", [dict(m=4096, n_per_gpu=1024),
                        dict(m=2048, n_per_gpu=512, tile_rows=8)]),
])
def test_column_plan_is_the_scalar_plans(op, rows):
    plan_fn, config, _, (nodes, gpus) = OPERATORS[op]
    _assert_column_plan_is_scalar_plans(
        plan_fn, device_model("mi210"),
        [config(functional=False, **r) for r in rows], nodes * gpus)


@pytest.mark.parametrize("platform", ["mi210", "h100"])
def test_unreachable_occupancy_message_is_the_same_in_both_engines(platform):
    frac = max_occupancy_of_baseline(
        device_model(platform).spec) + 0.05
    fields = dict(global_batch=512, tables_per_gpu=8,
                  occupancy_of_baseline=frac)
    h = OpHarness(num_nodes=2, gpus_per_node=1, platform=platform)
    with pytest.raises(ValueError, match="exceeds") as des:
        h.run(FusedEmbeddingAllToAll(
            h, EmbeddingA2AConfig(functional=False, **fields)))
    with pytest.raises(ValueError, match="exceeds") as analytic:
        predict_embedding_a2a(2, 1, platform=platform, **fields)
    assert str(des.value) == str(analytic.value)
