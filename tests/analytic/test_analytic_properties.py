"""Property tests for the analytic models (hypothesis).

Three families, over randomized ``generic()`` platforms:

* **positivity** — every predicted duration is strictly positive;
* **monotonicity** — more work (message volume, table count, matrix rows,
  tokens) never predicts less time;
* **overlap bound** — a fused operator never exceeds its baseline's
  serial compute + communication time.

The overlap bound is deliberately scoped to the regime where it is true
*of the simulator as well*: real HBM-per-CU ratios (the catalog spans
~15-25 GB/s per CU) and workloads large enough that the persistent
kernel's task list fills the device.  Outside it, fusion genuinely can
lose — starved-DRAM devices where the baseline's underfilled kernels
dodge the Fig. 13 contention knee, or task lists so short the fused
kernel launches at a sliver of occupancy — and the DES shows the same
normalized times the analytic model does (cross-checked in
``tests/analytic/test_device_comm.py`` and the validate subsystem).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic import (
    device_model,
    predict_embedding_a2a,
    predict_embedding_grad_a2a,
    predict_gemm_a2a,
    predict_gemv_allreduce,
)
from repro.hw.platform import generic
from repro.utils.units import GB_PER_S

#: Randomized-but-plausible device geometry.  HBM scales with CU count at
#: a real-GPU ratio, and overhead/latency parameters stay at the
#: calibrated MI210 values (they are not a design axis here).
platforms = st.builds(
    lambda cus, per_cu_gb, flops16: generic(
        "prop", num_cus=cus, hbm_bandwidth=cus * per_cu_gb * GB_PER_S,
        fp32_flops=flops16 * 1e12 / 8, fp16_flops=flops16 * 1e12,
    ).with_overrides(gpus_per_node=4),
    cus=st.integers(min_value=64, max_value=320),
    per_cu_gb=st.floats(min_value=12.0, max_value=30.0),
    flops16=st.floats(min_value=100.0, max_value=1500.0),
)


def _positive_pair(result):
    assert result["fused_time"] > 0
    assert result["baseline_time"] > 0


def _fused_resident(plat) -> int:
    d = device_model(plat)
    return d.occupancy(d.fused_res).resident_wgs


@given(plat=platforms,
       batch_k=st.integers(min_value=2, max_value=16),
       tables=st.sampled_from((32, 64, 256)),
       topo=st.sampled_from(((1, 4), (2, 1))))
@settings(max_examples=40, deadline=None)
def test_embedding_positive_and_fused_bounded_by_serial(plat, batch_k,
                                                        tables, topo):
    num_nodes, gpus_per_node = topo
    world = num_nodes * gpus_per_node
    batch = 256 * batch_k
    res = predict_embedding_a2a(
        num_nodes=num_nodes, gpus_per_node=gpus_per_node, platform=plat,
        global_batch=batch, tables_per_gpu=tables)
    _positive_pair(res)
    # The overlap bound applies in the saturating regime only: the fused
    # kernel's slice list fills the device (see module docstring).
    if world * tables * (batch // world // 32) >= _fused_resident(plat):
        assert res["fused_time"] <= res["baseline_time"] * (1 + 1e-9)


@given(plat=platforms, batch_k=st.integers(min_value=1, max_value=12))
@settings(max_examples=30, deadline=None)
def test_embedding_monotone_in_batch(plat, batch_k):
    small = predict_embedding_a2a(num_nodes=2, gpus_per_node=1,
                                  platform=plat, global_batch=256 * batch_k,
                                  tables_per_gpu=32)
    big = predict_embedding_a2a(num_nodes=2, gpus_per_node=1, platform=plat,
                                global_batch=512 * batch_k,
                                tables_per_gpu=32)
    _positive_pair(small)
    assert big["fused_time"] >= small["fused_time"] * (1 - 1e-9)
    assert big["baseline_time"] >= small["baseline_time"] * (1 - 1e-9)


@given(plat=platforms, tables=st.integers(min_value=1, max_value=128))
@settings(max_examples=30, deadline=None)
def test_embedding_monotone_in_tables(plat, tables):
    small = predict_embedding_a2a(num_nodes=2, gpus_per_node=1,
                                  platform=plat, global_batch=1024,
                                  tables_per_gpu=tables)
    big = predict_embedding_a2a(num_nodes=2, gpus_per_node=1, platform=plat,
                                global_batch=1024,
                                tables_per_gpu=2 * tables)
    assert big["fused_time"] >= small["fused_time"] * (1 - 1e-9)
    assert big["baseline_time"] >= small["baseline_time"] * (1 - 1e-9)


@given(plat=platforms, m_k=st.integers(min_value=1, max_value=16),
       n=st.sampled_from((1024, 4096, 16384)))
@settings(max_examples=40, deadline=None)
def test_gemv_positive_monotone_bounded(plat, m_k, n):
    small = predict_gemv_allreduce(world=4, platform=plat, m=1024 * m_k,
                                   n_per_gpu=n)
    big = predict_gemv_allreduce(world=4, platform=plat, m=2048 * m_k,
                                 n_per_gpu=n)
    _positive_pair(small)
    # Monotone in the message size (the AllReduced vector is m elements).
    assert big["fused_time"] >= small["fused_time"] * (1 - 1e-9)
    assert big["baseline_time"] >= small["baseline_time"] * (1 - 1e-9)
    # The overlap bound needs the task list to *comfortably* fill the
    # device: right at one-task-per-slot the queue model's last-round
    # quantization can nudge the fused time a fraction of a percent past
    # the baseline (observed 0.3% at ratio ~1.03 on odd CU counts), which
    # is a discretization artifact, not a modelling claim.
    if 1024 * m_k // 16 >= 2 * _fused_resident(plat):
        assert small["fused_time"] <= small["baseline_time"] * (1 + 1e-9)


@given(plat=platforms, tokens_k=st.integers(min_value=1, max_value=16),
       ffn=st.sampled_from((1024, 8192)))
@settings(max_examples=30, deadline=None)
def test_gemm_positive_monotone_bounded(plat, tokens_k, ffn):
    small = predict_gemm_a2a(world=4, platform=plat, tokens=512 * tokens_k,
                             model_dim=2048, ffn_dim=ffn)
    big = predict_gemm_a2a(world=4, platform=plat, tokens=1024 * tokens_k,
                           model_dim=2048, ffn_dim=ffn)
    _positive_pair(small)
    assert big["fused_time"] >= small["fused_time"] * (1 - 1e-9)
    assert big["baseline_time"] >= small["baseline_time"] * (1 - 1e-9)
    assert small["fused_time"] <= small["baseline_time"] * (1 + 1e-9)


@given(plat=platforms, batch_k=st.integers(min_value=1, max_value=8),
       tables=st.sampled_from((64, 256)))
@settings(max_examples=30, deadline=None)
def test_grad_positive_and_bounded(plat, batch_k, tables):
    batch = 512 * batch_k
    res = predict_embedding_grad_a2a(num_nodes=2, gpus_per_node=1,
                                     platform=plat, global_batch=batch,
                                     tables_per_gpu=tables)
    _positive_pair(res)
    if 2 * tables * (batch // 2 // 32) >= _fused_resident(plat):
        assert res["fused_time"] <= res["baseline_time"] * (1 + 1e-9)


@given(plat=platforms,
       link_gb=st.floats(min_value=10.0, max_value=400.0),
       chunk=st.floats(min_value=0.0, max_value=1e8))
@settings(max_examples=40, deadline=None)
def test_collectives_monotone_in_message_size(plat, link_gb, chunk):
    from repro.analytic import CommModel
    from repro.hw.specs import LinkSpec
    plat = plat.with_overrides(link=LinkSpec(bandwidth=link_gb * GB_PER_S,
                                             latency=3e-7))
    cm = CommModel(plat, num_nodes=1, gpus_per_node=4)
    assert cm.alltoall_time(chunk) > 0
    assert cm.alltoall_time(2 * chunk + 1) >= cm.alltoall_time(chunk)
    assert (cm.allreduce_time(2 * chunk + 8, max(1, int(chunk)),
                              algo="direct")
            >= cm.allreduce_time(chunk, max(1, int(chunk // 2) or 1),
                                 algo="direct"))
