"""WeightedVertices layer (Section III-B, the paper's first extension).

The original DGCNN follows SortPooling with a Conv1D of kernel and stride
``sum(c_t)``.  The paper observes that a *single-channel* Conv1D of
kernel/stride ``k`` applied to the transposed sort-pooling output is
equivalent to

    E = f(W × Z^sp)            (Equation 3)

with ``W ∈ R^{1×k}``: a weighted sum of the k retained vertex embeddings,
i.e. a learned graph embedding in the style of Xu et al.'s structure2vec
aggregation.  That is what this layer computes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.init import xavier_uniform
from repro.nn.layers import Module, Parameter
from repro.nn.tensor import Tensor


class WeightedVertices(Module):
    """Aggregate ``(k, C)`` vertex embeddings into a ``(C,)`` graph embedding.

    Parameters
    ----------
    k:
        Number of vertices kept by the preceding SortPooling layer.
    activation:
        Element-wise nonlinearity ``f`` of Equation (3); ReLU by default,
        matching the worked example in Figure 5.
    """

    def __init__(
        self,
        k: int,
        activation: str = "relu",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if activation not in ("relu", "tanh"):
            raise ConfigurationError(
                f"activation must be 'relu' or 'tanh', got {activation!r}"
            )
        generator = rng if rng is not None else np.random.default_rng()
        self.k = k
        self.activation = activation
        self.weight = Parameter(
            xavier_uniform((1, k), generator), name="weighted_vertices.weight"
        )

    def forward(self, z_sp: Tensor) -> Tensor:
        """``(k, C) -> (C,)`` graph embedding via Equation (3).

        A batch ``(B, k, C)`` gives ``(B, C)``, one embedding per graph.
        """
        if z_sp.ndim not in (2, 3) or z_sp.shape[-2] != self.k:
            raise ShapeError(
                f"WeightedVertices expects ([B,] {self.k}, C) input, got {z_sp.shape}"
            )
        embedding = (self.weight @ z_sp).reshape(*z_sp.shape[:-2], z_sp.shape[-1])
        if self.activation == "relu":
            return embedding.relu()
        return embedding.tanh()
