"""Graph convolution layers (Section III-A-2, Equation 1).

One layer computes ``Z_{t+1} = f(D̂^-1 Â Z_t W_t)``: a linear map of the
channels followed by propagation of every vertex's features to itself and
its out-neighbours (breadth-first-search fashion), row-normalized by the
augmented degree.  Stacking ``h`` layers aggregates multi-scale
substructural attributes; the concatenation ``Z^{1:h} = [Z_1, ..., Z_h]``
is what the pooling stage consumes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batched import GraphBatch, propagate
from repro.exceptions import ConfigurationError
from repro.features.acfg import ACFG
from repro.nn import concatenate
from repro.nn.init import xavier_uniform
from repro.nn.layers import Module, Parameter
from repro.nn.tensor import Tensor

#: Supported element-wise nonlinearities ``f`` in Equation (1).
_ACTIVATIONS = ("tanh", "relu")


class GraphConvolution(Module):
    """A single ``Z' = f(P Z W)`` layer, where ``P = D̂^-1 Â`` is fixed per graph."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        activation: str = "tanh",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if activation not in _ACTIVATIONS:
            raise ConfigurationError(
                f"activation must be one of {_ACTIVATIONS}, got {activation!r}"
            )
        generator = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.activation = activation
        self.weight = Parameter(
            xavier_uniform((in_channels, out_channels), generator),
            name="graph_conv.weight",
        )

    def forward(self, propagation: np.ndarray, z: Tensor) -> Tensor:
        """Apply the layer for one graph.

        Parameters
        ----------
        propagation:
            The constant ``(n, n)`` operator ``D̂^-1 Â`` of the graph.
        z:
            Current vertex features, shape ``(n, in_channels)``.
        """
        mixed = z @ self.weight              # F = Z W        (n, out)
        propagated = Tensor(propagation) @ mixed  # O = Â F, normalized
        if self.activation == "tanh":
            return propagated.tanh()
        return propagated.relu()


class GraphConvolutionStack(Module):
    """``h`` stacked graph convolutions producing ``Z^{1:h}``.

    Parameters
    ----------
    in_channels:
        Number of input attribute channels ``c`` (11 for Table I).
    layer_sizes:
        Output width of each layer, e.g. ``(32, 32, 32, 32)`` or
        ``(128, 64, 32, 32)`` from Table II.
    activation:
        Nonlinearity ``f``; the original DGCNN uses ``tanh``.
    normalize_propagation:
        When ``True`` (Equation 1) propagation uses ``D̂^-1 Â``; when
        ``False`` the raw ``Â`` is used instead — the ablation target of
        DESIGN.md §5 (unnormalized aggregation lets high-degree dispatch
        blocks dominate and saturates tanh).
    """

    def __init__(
        self,
        in_channels: int,
        layer_sizes: Sequence[int],
        activation: str = "tanh",
        rng: Optional[np.random.Generator] = None,
        normalize_propagation: bool = True,
    ) -> None:
        super().__init__()
        self.normalize_propagation = normalize_propagation
        if not layer_sizes:
            raise ConfigurationError("layer_sizes must contain at least one layer")
        if any(size < 1 for size in layer_sizes):
            raise ConfigurationError(f"layer sizes must be positive: {layer_sizes}")
        self.in_channels = in_channels
        self.layer_sizes: Tuple[int, ...] = tuple(layer_sizes)
        widths = [in_channels, *layer_sizes]
        for index in range(len(layer_sizes)):
            setattr(
                self,
                f"conv{index}",
                GraphConvolution(
                    widths[index], widths[index + 1], activation=activation, rng=rng
                ),
            )
        self.num_layers = len(layer_sizes)

    @property
    def total_channels(self) -> int:
        """Width of ``Z^{1:h}``: the sum of all layer output widths."""
        return sum(self.layer_sizes)

    def layer(self, index: int) -> GraphConvolution:
        return getattr(self, f"conv{index}")

    def forward(self, acfg: ACFG) -> Tensor:
        """Compute ``Z^{1:h}`` for one graph: shape ``(n, sum(layer_sizes))``.

        This dense per-graph path is the *reference implementation*; the
        production path is :meth:`forward_batch`, which runs each layer
        once over a whole :class:`~repro.core.batched.GraphBatch`.  The
        two are numerically equivalent (``tests/core/test_batched.py``).
        """
        propagation = acfg.operator(self.normalize_propagation).toarray()
        z = Tensor(acfg.attributes)
        outputs: List[Tensor] = []
        for index in range(self.num_layers):
            z = self.layer(index)(propagation, z)
            outputs.append(z)
        return concatenate(outputs, axis=1)

    def forward_batch(self, batch: GraphBatch) -> Tensor:
        """Compute ``Z^{1:h}`` for a merged batch: ``(N, sum(layer_sizes))``.

        One sparse matmul per layer over the block-diagonal operator
        replaces ``B`` dense matmuls per layer; rows stay grouped by
        graph, so ``batch.split`` recovers the per-graph ``Z^{1:h}``.
        """
        if batch.normalized != self.normalize_propagation:
            raise ConfigurationError(
                f"GraphBatch built with normalize_propagation="
                f"{batch.normalized}, but this stack expects "
                f"{self.normalize_propagation}"
            )
        # Batches prepared with require_input_grad() supply the attribute
        # matrix as a requires_grad leaf so backward() can deliver input
        # gradients (the adversarial-attack path); plain batches keep the
        # constant wrapper.
        z = (
            batch.attributes_tensor
            if batch.attributes_tensor is not None
            else Tensor(batch.attributes)
        )
        outputs: List[Tensor] = []
        for index in range(self.num_layers):
            layer = self.layer(index)
            mixed = z @ layer.weight
            propagated = propagate(batch, mixed)
            z = propagated.tanh() if layer.activation == "tanh" else propagated.relu()
            outputs.append(z)
        return concatenate(outputs, axis=1)
