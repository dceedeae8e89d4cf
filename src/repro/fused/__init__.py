"""The paper's fused computation-collective operators."""

from .base import OpHarness, OpResult
from .embedding_alltoall import (
    BaselineEmbeddingAllToAll,
    EmbeddingA2AConfig,
    FusedEmbeddingAllToAll,
)
from .embedding_grad_alltoall import (
    BaselineEmbeddingGradAllToAll,
    FusedEmbeddingGradAllToAll,
)
from .gemm_alltoall import (
    BaselineGemmAllToAll,
    FusedGemmAllToAll,
    GemmA2AConfig,
)
from .gemv_allreduce import (
    BaselineGemvAllReduce,
    FusedGemvAllReduce,
    GemvAllReduceConfig,
)

__all__ = [
    "BaselineEmbeddingAllToAll",
    "BaselineEmbeddingGradAllToAll",
    "BaselineGemmAllToAll",
    "BaselineGemvAllReduce",
    "FusedEmbeddingGradAllToAll",
    "EmbeddingA2AConfig",
    "FusedEmbeddingAllToAll",
    "FusedGemmAllToAll",
    "FusedGemvAllReduce",
    "GemmA2AConfig",
    "GemvAllReduceConfig",
    "OpHarness",
    "OpResult",
]
