"""Tests for the minitorch integration layer."""

import numpy as np
import pytest

from repro.comm import Communicator
from repro.comm.symheap import HeapError
from repro.frameworks.minitorch import (
    Device,
    OPS,
    SymmetricTensor,
    embedding_all_to_all_op,
    gemm_all_to_all_op,
    gemv_all_reduce_op,
    get_op,
    register_op,
    tensor,
    to_symmetric,
)
from repro.fused import EmbeddingA2AConfig, GemmA2AConfig, GemvAllReduceConfig
from repro.hw import build_cluster
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# Tensor / Device
# ---------------------------------------------------------------------------

def test_tensor_basics():
    t = tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert t.device == Device("cpu")
    assert t.ndim == 2


def test_device_parse_and_errors():
    assert Device.parse("gpu:3") == Device("gpu", 3)
    assert Device.parse("cpu").kind == "cpu"
    with pytest.raises(ValueError):
        Device.parse("tpu:0")
    with pytest.raises(ValueError):
        Device("gpu")
    with pytest.raises(ValueError):
        Device("quantum")


def test_to_copies_data():
    t = tensor([1.0, 2.0])
    g = t.to("gpu:1")
    g.numpy()[0] = 99.0
    assert t.numpy()[0] == 1.0
    assert g.device == Device("gpu", 1)


def test_arithmetic_and_matmul():
    a = tensor([[1.0, 0.0], [0.0, 1.0]])
    b = tensor([[2.0, 3.0], [4.0, 5.0]])
    np.testing.assert_array_equal((a @ b).numpy(), b.numpy())
    np.testing.assert_array_equal((a + b).numpy(), a.numpy() + b.numpy())
    np.testing.assert_array_equal((b - a).numpy(), b.numpy() - a.numpy())
    np.testing.assert_array_equal((a * 2).numpy(), 2 * a.numpy())
    np.testing.assert_array_equal(b[0].numpy(), [2.0, 3.0])


def test_clone_independent():
    t = tensor([1.0])
    c = t.clone()
    c.numpy()[0] = 7.0
    assert t.numpy()[0] == 1.0


# ---------------------------------------------------------------------------
# Symmetric tensors
# ---------------------------------------------------------------------------

def make_comm(world=4):
    sim = Simulator()
    return Communicator(build_cluster(sim, 1, world))


def test_to_symmetric_places_payload_on_rank():
    comm = make_comm()
    host = tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    st = to_symmetric(host, comm, rank=2)
    assert isinstance(st, SymmetricTensor)
    np.testing.assert_array_equal(st.numpy(2), host.numpy())
    assert np.all(st.numpy(0) == 0)
    assert st.world_size == 4


def test_symmetric_on_shares_storage():
    comm = make_comm()
    st = to_symmetric(np.zeros((2, 2), np.float32), comm)
    view = st.on(1)
    view.numpy()[0, 0] = 5.0
    assert st.numpy(1)[0, 0] == 5.0
    assert view.device == Device("gpu", 1)


def test_symmetric_free():
    comm = make_comm()
    st = to_symmetric(np.zeros(4, np.float32), comm)
    st.free()
    with pytest.raises(HeapError):
        st.numpy(0)


# ---------------------------------------------------------------------------
# Operator registry
# ---------------------------------------------------------------------------

def test_registry_contains_paper_ops():
    assert {"embeddingAll2AllOp", "gemvAllReduceOp", "gemmAll2AllOp"} <= set(OPS)
    assert get_op("embeddingAll2AllOp") is embedding_all_to_all_op
    with pytest.raises(KeyError):
        get_op("noSuchOp")


def test_register_op_rejects_duplicates():
    with pytest.raises(ValueError, match="already registered"):
        register_op("embeddingAll2AllOp")(lambda: None)


def test_embedding_op_end_to_end():
    cfg = EmbeddingA2AConfig(global_batch=64, tables_per_gpu=4, dim=16,
                             pooling=5, rows_per_table=50, slice_vectors=8)
    outs, elapsed = embedding_all_to_all_op(cfg, num_nodes=2, gpus_per_node=1)
    assert len(outs) == 2
    assert outs[0].shape == (32, 8, 16)
    assert outs[0].device == Device("gpu", 0)
    assert elapsed > 0
    outs_b, elapsed_b = embedding_all_to_all_op(
        cfg, num_nodes=2, gpus_per_node=1, fused=False)
    np.testing.assert_allclose(outs[0].numpy(), outs_b[0].numpy(), rtol=1e-5)
    assert elapsed < elapsed_b


def test_gemv_op_end_to_end():
    cfg = GemvAllReduceConfig(m=256, n_per_gpu=64)
    outs, elapsed = gemv_all_reduce_op(cfg)
    assert len(outs) == 4 and outs[0].shape == (256,)
    outs_b, _ = gemv_all_reduce_op(cfg, fused=False)
    np.testing.assert_allclose(outs[0].numpy(), outs_b[0].numpy(), rtol=1e-4)


def test_gemm_op_end_to_end():
    cfg = GemmA2AConfig(tokens=512, model_dim=128, ffn_dim=256, block_m=64)
    outs, elapsed = gemm_all_to_all_op(cfg)
    assert len(outs) == 4 and outs[0].shape == (4, 128, 256)
    outs_b, _ = gemm_all_to_all_op(cfg, fused=False)
    np.testing.assert_allclose(outs[0].numpy(), outs_b[0].numpy(), rtol=1e-4)
