"""Batch-vs-scalar equivalence: the vectorized engine against its oracle.

The scalar ``predict_*`` functions are the pinned reference; every
vectorized closed form must agree elementwise to <= 1e-9 relative (the
implementation actually mirrors expression order, so the assertions here
demand *exact* equality and the tolerance is pure headroom).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic import CommModel, device_model
from repro.analytic.batch import (
    ScenarioBatch,
    batch_runners,
    batch_supported,
    evaluate_batch_records,
)
from repro.analytic.ops import (
    predict_dlrm_scaleout,
    predict_embedding_a2a,
    predict_embedding_fused,
    predict_embedding_grad_a2a,
    predict_gemm_a2a,
    predict_gemv_allreduce,
    predict_wg_timeline,
)
from repro.hw.gpu import WgCost, bulk_kernel_time, persistent_occupancy
from repro.hw.platform import generic
from repro.obs.metrics import enable_metrics, reset_metrics
from repro.utils.units import GB_PER_S

platforms = st.builds(
    lambda cus, per_cu_gb, flops16: generic(
        "prop", num_cus=cus, hbm_bandwidth=cus * per_cu_gb * GB_PER_S,
        fp32_flops=flops16 * 1e12 / 8, fp16_flops=flops16 * 1e12,
    ).with_overrides(gpus_per_node=4),
    cus=st.integers(min_value=64, max_value=320),
    per_cu_gb=st.floats(min_value=12.0, max_value=30.0),
    flops16=st.floats(min_value=100.0, max_value=1500.0),
)


def _assert_value_equal(got, want, where):
    # ``type(...) is`` on purpose: NumPy's float64 subclasses float, and
    # the batch must return the scalar path's exact builtin types.
    assert type(got) is type(want), \
        f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert set(got) == set(want), where
        for k, w in want.items():
            _assert_value_equal(got[k], w, f"{where}.{k}")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-9, abs=0.0), where
        assert got == want, f"{where}: {got!r} != {want!r} (bit drift)"
    else:
        assert got == want, where


def _assert_records_equal(batch_records, scalar_records):
    assert len(batch_records) == len(scalar_records)
    for i, (got, want) in enumerate(zip(batch_records, scalar_records)):
        _assert_value_equal(got, want, f"record[{i}]")


def _check(runner, scalar_fn, params_list):
    got = evaluate_batch_records(runner, params_list)
    assert got is not None
    want = [scalar_fn(**p) for p in params_list]
    _assert_records_equal(got, want)


# ---------------------------------------------------------------------------
# Deterministic matrices over topologies / platforms / algos
# ---------------------------------------------------------------------------

TOPOS = [(1, 1), (1, 4), (2, 1), (2, 2), (2, 4)]


@pytest.mark.parametrize("platform", ["mi210", "mi300x"])
@pytest.mark.parametrize("algo", [None, "auto", "flat", "pairwise", "hier"])
def test_embedding_a2a_matrix(platform, algo):
    params = [
        dict(num_nodes=nn, gpus_per_node=gpn, platform=platform, algo=algo,
             global_batch=gb, tables_per_gpu=t)
        for (nn, gpn), gb, t in itertools.product(
            TOPOS, (256, 1024, 4096), (8, 64))
        if gb % (nn * gpn) == 0 and (gb // (nn * gpn)) % 32 == 0
    ]
    _check("embedding_a2a_pair", predict_embedding_a2a, params)


def test_embedding_a2a_knobs():
    params = [
        dict(num_nodes=2, gpus_per_node=2, global_batch=1024,
             tables_per_gpu=32, occupancy_of_baseline=occ, zero_copy=zc,
             scheduler=sched, slice_vectors=sv, dim=dim, pooling=pool)
        for occ, zc, sched, sv, dim, pool in itertools.product(
            (None, 0.25, 0.5), (True, False), ("comm_aware", "round_robin"),
            (16, 32), (64, 256), (10, 70))
    ]
    _check("embedding_a2a_pair", predict_embedding_a2a, params)


def test_embedding_a2a_baseline_override_and_tasks_per_slice():
    params = [
        dict(num_nodes=1, gpus_per_node=4, global_batch=2048,
             tables_per_gpu=16, tasks_per_slice=tps,
             baseline={"global_batch": 2048, "tables_per_gpu": 16})
        for tps in (0, 4, 32)
    ] + [
        dict(num_nodes=2, gpus_per_node=1, global_batch=b,
             tables_per_gpu=8,
             baseline={"global_batch": 512, "tables_per_gpu": 8,
                       "algo": "pairwise"})
        for b in (512, 1024)
    ]
    _check("embedding_a2a_pair", predict_embedding_a2a, params)


@pytest.mark.parametrize("topo", [(2, 1), (1, 4), (2, 4)])
def test_embedding_fused_matrix(topo):
    nn, gpn = topo
    params = [
        dict(num_nodes=nn, gpus_per_node=gpn, cpu_proxy=proxy,
             global_batch=gb, tables_per_gpu=16,
             occupancy_of_baseline=occ)
        for proxy, gb, occ in itertools.product(
            (False, True), (256 * nn * gpn, 1024 * nn * gpn),
            (None, 0.5))
    ]
    _check("embedding_fused", predict_embedding_fused, params)


@pytest.mark.parametrize("algo", [None, "auto", "hier"])
def test_embedding_grad_matrix(algo):
    params = [
        dict(num_nodes=nn, gpus_per_node=gpn, platform=plat, algo=algo,
             global_batch=gb, tables_per_gpu=t, slice_vectors=sv)
        for (nn, gpn), plat, gb, t, sv in itertools.product(
            [(2, 1), (2, 2)], ["mi210", "h100"], (512, 2048), (8, 64),
            (16, 32))
        if (gb // (nn * gpn)) % sv == 0
    ]
    _check("embedding_grad_pair", predict_embedding_grad_a2a, params)


@pytest.mark.parametrize("algo", [None, "auto", "direct"])
def test_gemv_matrix(algo):
    params = [
        dict(world=w, platform=plat, algo=algo, m=m, n_per_gpu=n,
             tile_rows=tr, itemsize=isz)
        for w, plat, m, n, tr, isz in itertools.product(
            (2, 4, 8), ["mi210", "mi250x"], (4096, 16384, 65536),
            (1024, 8192), (16, 32), (2, 4))
        if m % (w * tr) == 0
    ]
    _check("gemv_allreduce_pair", predict_gemv_allreduce, params)


@pytest.mark.parametrize("algo", [None, "auto", "pairwise"])
def test_gemm_matrix(algo):
    params = [
        dict(world=w, platform=plat, algo=algo, tokens=tok,
             model_dim=md, ffn_dim=ffn, flop_dtype=dt)
        for w, plat, tok, md, ffn, dt in itertools.product(
            (2, 4), ["mi210", "h100"], (512, 4096), (1024, 4096),
            (1024, 8192), ("fp16", "fp32"))
        if tok % (w * 64) == 0
    ]
    _check("gemm_a2a_pair", predict_gemm_a2a, params)


def test_dlrm_scaleout_matrix():
    params = [dict(num_nodes=nn, platform=plat)
              for nn in (2, 4, 8) for plat in ("mi210", "mi300x")]
    _check("dlrm_scaleout", predict_dlrm_scaleout, params)


def test_wg_timeline_matrix():
    params = [dict(batch=b, tables=t, wgs_per_slice=w)
              for b, t, w in itertools.product((256, 512), (16, 32),
                                               (8, 16))]
    _check("wg_timeline", predict_wg_timeline, params)


# ---------------------------------------------------------------------------
# Schema plumbing: grouping, grids, columns, fallback
# ---------------------------------------------------------------------------

def test_mixed_structural_groups_keep_input_order():
    params = []
    for i in range(12):
        topo = [(2, 1), (1, 4), (2, 2)][i % 3]
        params.append(dict(num_nodes=topo[0], gpus_per_node=topo[1],
                           global_batch=256 * (1 + i % 4) * topo[0] * topo[1],
                           tables_per_gpu=8 + 8 * (i % 2),
                           algo=[None, "auto"][i % 2]))
    _check("embedding_a2a_pair", predict_embedding_a2a, params)


def test_from_grid_matches_grid_param_order():
    axes = {"num_nodes": [1, 2], "global_batch": [512, 1024, 2048],
            "gpus_per_node": [1, 2], "tables_per_gpu": [8, 32],
            "algo": [None, "auto"]}
    batch = ScenarioBatch.from_grid("embedding_a2a_pair", axes)
    names = list(axes)
    combos = [dict(zip(names, vals))
              for vals in itertools.product(*axes.values())]
    assert batch.n == len(combos)
    want = [predict_embedding_a2a(**p) for p in combos]
    _assert_records_equal(batch.records(), want)
    cols = batch.evaluate()
    assert cols["fused_time"].shape == (len(combos),)
    for i, w in enumerate(want):
        assert cols["fused_time"][i] == w["fused_time"]
        assert cols["baseline_time"][i] == w["baseline_time"]


def test_from_columns_matches_scalar():
    rng = np.random.default_rng(7)
    n = 64
    m = 16 * 4 * rng.integers(1, 200, n)
    npg = 256 * rng.integers(1, 40, n)
    batch = ScenarioBatch.from_columns(
        "gemv_allreduce_pair", {"m": m, "n_per_gpu": npg},
        structural={"world": 4, "algo": "auto"})
    cols = batch.evaluate()
    for i in range(n):
        want = predict_gemv_allreduce(world=4, algo="auto", m=int(m[i]),
                                      n_per_gpu=int(npg[i]))
        assert cols["fused_time"][i] == want["fused_time"]
        assert cols["baseline_time"][i] == want["baseline_time"]


def test_unrepresentable_rows_fall_back_to_scalar():
    # A knob value no int64 column can hold (512.0) makes its row a group
    # of its own with no columns, i.e. the scalar evaluation itself.
    params = [
        dict(num_nodes=2, gpus_per_node=1, global_batch=512.0,
             tables_per_gpu=8),
        dict(num_nodes=2, gpus_per_node=1, global_batch=1024,
             tables_per_gpu=8),
    ]
    m = enable_metrics()
    try:
        batch = ScenarioBatch.from_params("embedding_a2a_pair", params)
        got = batch.records()
    finally:
        reset_metrics()
    assert m.counters["batch.scalar_fallback_rows"] == 1
    assert m.counters["batch.groups"] == 2
    _assert_records_equal(got, [predict_embedding_a2a(**p) for p in params])


def test_from_grid_rejects_knob_values_that_fit_no_column():
    # A grid axis is one column: a knob value it cannot hold exactly is an
    # error naming the axis, never a silent cast.
    axes = {"num_nodes": [2], "gpus_per_node": [1], "tables_per_gpu": [8]}
    with pytest.raises(ValueError, match="axis 'global_batch': value 512.0"):
        ScenarioBatch.from_grid("embedding_a2a_pair",
                                {**axes, "global_batch": [1024, 512.0]})
    with pytest.raises(ValueError, match="axis 'occupancy_of_baseline'"):
        ScenarioBatch.from_grid(
            "embedding_a2a_pair",
            {**axes, "global_batch": [512], "occupancy_of_baseline": ["x"]})
    batch = ScenarioBatch.from_grid(
        "embedding_a2a_pair",
        {**axes, "global_batch": [512], "occupancy_of_baseline": [None, 0.5]})
    assert batch.fallback_rows == 0 and len(batch.groups) == 1


def test_rows_setting_different_knobs_match_scalar():
    # Rows with and without ``dim``, with ``occupancy_of_baseline`` None or
    # left out, in one batch: a knob a row leaves out takes the closed
    # form's own default.
    params = [
        dict(num_nodes=2, gpus_per_node=1, global_batch=gb,
             tables_per_gpu=8, **extra)
        for gb in (512, 1024)
        for extra in ({}, {"dim": 64}, {"occupancy_of_baseline": None},
                      {"dim": 128, "occupancy_of_baseline": None},
                      {"occupancy_of_baseline": 0.5})
    ]
    _check("embedding_a2a_pair", predict_embedding_a2a, params)
    batch = ScenarioBatch.from_params("embedding_a2a_pair", params)
    assert len(batch.groups) == 4      # one per set of knob names
    assert batch.fallback_rows == 0


def test_unknown_names_are_rejected():
    base = dict(num_nodes=2, gpus_per_node=1, global_batch=512,
                tables_per_gpu=8)
    with pytest.raises(TypeError) as scalar_err:
        predict_embedding_a2a(**base, bogus=1)
    with pytest.raises(TypeError) as err:
        evaluate_batch_records("embedding_a2a_pair", [{**base, "bogus": 1}])
    assert str(err.value) == str(scalar_err.value)
    with pytest.raises(TypeError) as err:
        ScenarioBatch.from_grid(
            "embedding_a2a_pair",
            {k: [v] for k, v in {**base, "bogus": 1}.items()}).evaluate()
    assert str(err.value) == str(scalar_err.value)
    with pytest.raises(ValueError, match="unknown columns"):
        ScenarioBatch.from_columns(
            "embedding_a2a_pair",
            {"global_batch": [512], "tables_per_gpu": [8], "bogus": [1]},
            structural={"num_nodes": 2, "gpus_per_node": 1})


def test_unsupported_runner_returns_none():
    assert evaluate_batch_records("table_setup", [{}]) is None
    assert not batch_supported("table_setup")
    assert batch_supported("embedding_a2a_pair")
    assert "gemm_a2a_pair" in batch_runners()


def test_batch_validation_mirrors_scalar():
    # One closed form, one validation: the batch engine rejects each bad
    # input with the scalar path's exact message.
    bad_inputs = [
        ("embedding_a2a_pair", predict_embedding_a2a,
         dict(num_nodes=2, gpus_per_node=1, global_batch=513,
              tables_per_gpu=8)),
        ("embedding_a2a_pair", predict_embedding_a2a,
         dict(num_nodes=2, gpus_per_node=1, global_batch=1000,
              tables_per_gpu=8)),
        ("embedding_grad_pair", predict_embedding_grad_a2a,
         dict(global_batch=512, tables_per_gpu=8, slice_vectors=32,
              tasks_per_slice=3)),
        ("gemv_allreduce_pair", predict_gemv_allreduce,
         dict(world=4, m=100, n_per_gpu=64)),
        ("gemm_a2a_pair", predict_gemm_a2a,
         dict(world=4, tokens=1024, model_dim=512, ffn_dim=1000)),
        ("embedding_a2a_pair", predict_embedding_a2a,
         dict(num_nodes=2, gpus_per_node=1, global_batch=512,
              tables_per_gpu=8, occupancy_of_baseline=2.0)),
    ]
    for runner, scalar_fn, params in bad_inputs:
        with pytest.raises(ValueError) as scalar_err:
            scalar_fn(**params)
        with pytest.raises(ValueError) as batch_err:
            evaluate_batch_records(runner, [params])
        assert str(batch_err.value) == str(scalar_err.value), runner


RUNNER_CASES = [
    ("embedding_a2a_pair", predict_embedding_a2a,
     dict(num_nodes=2, gpus_per_node=2, global_batch=1024,
          tables_per_gpu=16, algo="auto", occupancy_of_baseline=0.5)),
    ("embedding_fused", predict_embedding_fused,
     dict(global_batch=512, tables_per_gpu=8, cpu_proxy=True)),
    ("embedding_grad_pair", predict_embedding_grad_a2a,
     dict(num_nodes=2, gpus_per_node=2, global_batch=512,
          tables_per_gpu=8)),
    ("gemv_allreduce_pair", predict_gemv_allreduce,
     dict(world=4, m=8192, n_per_gpu=1024, algo="auto")),
    ("gemm_a2a_pair", predict_gemm_a2a,
     dict(world=4, tokens=1024, model_dim=1024, ffn_dim=1024)),
    ("dlrm_scaleout", predict_dlrm_scaleout, dict(num_nodes=2)),
    ("wg_timeline", predict_wg_timeline, dict(batch=256, tables=16)),
]


def _assert_builtin(value, where):
    # ``type(...) is`` on purpose: NumPy's float64 subclasses float.
    if isinstance(value, dict):
        for k, v in value.items():
            _assert_builtin(v, f"{where}.{k}")
    else:
        assert type(value) in (float, int, str), \
            f"{where} is {type(value).__name__}"


@pytest.mark.parametrize("runner,scalar_fn,params", RUNNER_CASES,
                         ids=[c[0] for c in RUNNER_CASES])
def test_results_are_builtins(runner, scalar_fn, params):
    """The scalar ``xp`` backend never leaks NumPy scalars, and batch
    records convert their columns back to builtins."""
    _assert_builtin(scalar_fn(**params), f"{runner} scalar")
    other = {**params, "platform": "h100"}
    for i, rec in enumerate(evaluate_batch_records(runner,
                                                   [params, other])):
        _assert_builtin(rec, f"{runner} batch[{i}]")


# ---------------------------------------------------------------------------
# Property tests: randomized platform geometries (hypothesis)
# ---------------------------------------------------------------------------

@given(plat=platforms, batch_k=st.integers(min_value=1, max_value=16),
       tables=st.sampled_from((8, 32, 256)),
       topo=st.sampled_from(((1, 4), (2, 1), (2, 4))),
       algo=st.sampled_from((None, "auto", "flat", "hier")),
       occ=st.sampled_from((None, 0.25, 0.75)))
@settings(max_examples=40, deadline=None)
def test_embedding_batch_equals_scalar_on_random_platforms(
        plat, batch_k, tables, topo, algo, occ):
    nn, gpn = topo
    params = [dict(num_nodes=nn, gpus_per_node=gpn, platform=plat,
                   global_batch=256 * batch_k * nn * gpn,
                   tables_per_gpu=tables, algo=algo,
                   occupancy_of_baseline=occ)]
    _check("embedding_a2a_pair", predict_embedding_a2a, params)


@given(plat=platforms, m_k=st.integers(min_value=1, max_value=64),
       n=st.sampled_from((1024, 4096, 16384)),
       world=st.sampled_from((2, 4, 8)),
       algo=st.sampled_from((None, "auto", "direct")))
@settings(max_examples=40, deadline=None)
def test_gemv_batch_equals_scalar_on_random_platforms(
        plat, m_k, n, world, algo):
    params = [dict(world=world, platform=plat, m=world * 16 * 8 * m_k,
                   n_per_gpu=n, algo=algo)]
    _check("gemv_allreduce_pair", predict_gemv_allreduce, params)


@given(plat=platforms, tokens_k=st.integers(min_value=1, max_value=32),
       ffn=st.sampled_from((1024, 8192)),
       algo=st.sampled_from((None, "auto", "pairwise")))
@settings(max_examples=30, deadline=None)
def test_gemm_batch_equals_scalar_on_random_platforms(
        plat, tokens_k, ffn, algo):
    params = [dict(world=4, platform=plat, tokens=256 * tokens_k,
                   model_dim=2048, ffn_dim=ffn, algo=algo)]
    _check("gemm_a2a_pair", predict_gemm_a2a, params)


@given(plat=platforms, batch_k=st.integers(min_value=1, max_value=16),
       tables=st.sampled_from((8, 64)),
       topo=st.sampled_from(((2, 1), (2, 2))))
@settings(max_examples=30, deadline=None)
def test_grad_batch_equals_scalar_on_random_platforms(
        plat, batch_k, tables, topo):
    nn, gpn = topo
    params = [dict(num_nodes=nn, gpus_per_node=gpn, platform=plat,
                   global_batch=32 * batch_k * nn * gpn,
                   tables_per_gpu=tables)]
    _check("embedding_grad_pair", predict_embedding_grad_a2a, params)


@given(plat=platforms,
       chunk=st.floats(min_value=0.0, max_value=1e9),
       nn=st.sampled_from((1, 2, 4)), gpn=st.sampled_from((1, 4)),
       algo=st.sampled_from((None, "auto", "flat", "pairwise", "hier")))
@settings(max_examples=60, deadline=None)
def test_alltoall_batch_equals_scalar(plat, chunk, nn, gpn, algo):
    cm = CommModel(plat, num_nodes=nn, gpus_per_node=gpn)
    chunks = np.array([0.0, chunk, chunk / 3, 64 * 1024.0, 64 * 1024.0 + 1])
    got = cm.alltoall_time(chunks, algo=algo)
    for i, c in enumerate(chunks):
        assert got[i] == cm.alltoall_time(float(c), algo=algo)


@given(plat=platforms,
       elems=st.integers(min_value=1, max_value=10_000_000),
       nn=st.sampled_from((1, 2, 4)), gpn=st.sampled_from((1, 4)),
       algo=st.sampled_from((None, "auto", "direct", "ring")))
@settings(max_examples=60, deadline=None)
def test_allreduce_batch_equals_scalar(plat, elems, nn, gpn, algo):
    cm = CommModel(plat, num_nodes=nn, gpus_per_node=gpn)
    n_elems = np.array([1, elems, max(1, elems // 7), 8 * 1024, 8 * 1024 + 1])
    nbytes = 4.0 * n_elems
    got = cm.allreduce_time(nbytes, n_elems, itemsize=4, algo=algo)
    for i in range(len(n_elems)):
        assert got[i] == cm.allreduce_time(float(nbytes[i]),
                                           int(n_elems[i]), itemsize=4,
                                           algo=algo)


@given(plat=platforms,
       n_tasks=st.integers(min_value=1, max_value=100_000),
       n_work=st.sampled_from((None, 0, 17, 4096)),
       limit=st.sampled_from((None, 0.1, 0.5, 1.0)))
@settings(max_examples=60, deadline=None)
def test_persistent_occupancy_batch_equals_scalar(plat, n_tasks, n_work,
                                                  limit):
    d = device_model(plat)
    tasks = np.array([1, 2, n_tasks, n_tasks + 1, 10 * n_tasks])
    work = None if n_work is None else np.full(len(tasks), n_work)
    # Every row at ``limit``, then limited rows mixed with unlimited ones
    # (NaN in the column, None for a scalar).
    for limits in ([limit] * 5, [limit, None, limit, None, 0.5]):
        lim = None if limits == [None] * 5 else np.array(
            [np.nan if x is None else x for x in limits])
        occ_b = persistent_occupancy(d, d.fused_res, tasks, n_work=work,
                                     occupancy_limit=lim)
        for i, (nt, x) in enumerate(zip(tasks, limits)):
            occ_s = persistent_occupancy(d, d.fused_res, int(nt),
                                         n_work=n_work, occupancy_limit=x)
            assert occ_b.wgs_per_cu[i] == occ_s.wgs_per_cu
            assert occ_b.resident_wgs[i] == occ_s.resident_wgs
            assert occ_b.fraction[i] == occ_s.fraction


@given(plat=platforms,
       n_wgs=st.integers(min_value=1, max_value=1_000_000),
       flops=st.floats(min_value=0.0, max_value=1e9),
       nbytes=st.floats(min_value=0.0, max_value=1e9),
       access=st.sampled_from(("stream", "gather")))
@settings(max_examples=60, deadline=None)
def test_bulk_kernel_time_batch_equals_scalar(plat, n_wgs, flops, nbytes,
                                              access):
    d = device_model(plat)
    wgs = np.array([1, n_wgs, max(1, n_wgs // 3)])
    cost = WgCost(flops=flops, bytes=nbytes, dtype="fp32", access=access)
    got = bulk_kernel_time(d, wgs, cost, d.base_res)
    for i, n in enumerate(wgs):
        assert got[i] == bulk_kernel_time(d, int(n), cost, d.base_res)
