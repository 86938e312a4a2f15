"""DGCNN model variants for CFG classification (Section III).

Three end-to-end architectures share the graph-convolution stack and
differ in how they reduce the variable-size ``Z^{1:h}`` to a fixed-size
representation:

* :class:`DgcnnSortPoolingConv1d` — SortPooling + the original remaining
  Conv1D layers of Zhang et al. (Section III-A-4).
* :class:`DgcnnSortPoolingWeightedVertices` — SortPooling + the paper's
  WeightedVertices graph-embedding layer (Section III-B).
* :class:`DgcnnAdaptivePooling` — Conv2D + adaptive max pooling + a
  VGG-inspired Conv2D head (Section III-C); the architecture Table II
  selects as best on both datasets.

All variants share one forward contract: they consume a
:class:`~repro.core.batched.GraphBatch` (a list of
:class:`~repro.features.acfg.ACFG` is collated on the fly) and emit
``(batch, num_classes)`` log-probabilities, so the training loop, loss
(Equation 5), and evaluation code are architecture-agnostic —
"regardless of how we change the layer configurations ... the model's
output is always the prediction of the observed input" (Section IV-B).

A forward is ``classify(embed_batch(z_all, boundaries))``, and every
stage runs once per batch.  Graph convolutions run over the
block-diagonal sparse merge of the batch (one sparse matmul per
layer), and each pooling-head stage is one op over all of the batch's
graphs (SortPooling, the fused Conv2D + adaptive max pooling), never a
loop over them.  :meth:`DgcnnBase.embed_from_zconcat` is the one-graph
case of the same code.  The dense per-graph loop survives only as
:meth:`DgcnnBase.forward_reference`, the reference implementation that
the equivalence tests compare against.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.features.acfg import ACFG
from repro.nn import functional as F
from repro.nn import stack
from repro.nn.layers import Conv1d, Conv2d, Dropout, Linear, Module
from repro.nn.tensor import Tensor
from repro.core.adaptive_pooling import AdaptivePoolingHead
from repro.core.batched import GraphBatch
from repro.core.graph_conv import GraphConvolutionStack
from repro.core.sort_pooling import SortPooling
from repro.core.weighted_vertices import WeightedVertices

#: Pooling architecture names accepted by :func:`build_model` (Table II).
POOLING_ADAPTIVE = "adaptive"
POOLING_SORT_CONV1D = "sort_conv1d"
POOLING_SORT_WEIGHTED = "sort_weighted"
POOLING_TYPES = (POOLING_ADAPTIVE, POOLING_SORT_CONV1D, POOLING_SORT_WEIGHTED)


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters of one DGCNN instance (the rows of Table II).

    Attributes
    ----------
    num_attributes:
        Input channels ``c`` (11 for the Table I attribute set).
    num_classes:
        Number of malware families.
    pooling:
        One of ``"adaptive"``, ``"sort_conv1d"``, ``"sort_weighted"``.
    graph_conv_sizes:
        Widths of the graph convolution layers.
    sort_k:
        ``k`` for SortPooling variants (resolved from the training set via
        :func:`repro.core.sort_pooling.resolve_sort_pooling_k`).
    amp_grid:
        Adaptive pooling output grid (adaptive variant only).
    conv2d_channels:
        Filters in the pre-AMP Conv2D (adaptive variant only).
    conv1d_channels:
        Channel pair of the two remaining Conv1D layers (sort_conv1d only).
    conv1d_kernel:
        Kernel size of the second Conv1D layer (sort_conv1d only).
    hidden_size:
        Width of the fully connected layer before the output.
    dropout:
        Dropout rate applied before the output layer.
    activation:
        Graph-convolution nonlinearity ``f``.
    normalize_propagation:
        ``True`` for Equation 1's ``D̂^-1 Â`` propagation (the paper);
        ``False`` for raw ``Â`` (ablation, DESIGN.md §5).
    seed:
        Seed for parameter initialization and dropout.
    """

    num_attributes: int
    num_classes: int
    pooling: str = POOLING_ADAPTIVE
    graph_conv_sizes: Tuple[int, ...] = (32, 32, 32, 32)
    sort_k: int = 10
    amp_grid: Tuple[int, int] = (3, 3)
    conv2d_channels: int = 16
    conv1d_channels: Tuple[int, int] = (16, 32)
    conv1d_kernel: int = 5
    hidden_size: int = 128
    dropout: float = 0.1
    activation: str = "tanh"
    normalize_propagation: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pooling not in POOLING_TYPES:
            raise ConfigurationError(
                f"pooling must be one of {POOLING_TYPES}, got {self.pooling!r}"
            )
        if self.num_classes < 2:
            raise ConfigurationError(
                f"num_classes must be >= 2, got {self.num_classes}"
            )
        if self.num_attributes < 1:
            raise ConfigurationError(
                f"num_attributes must be >= 1, got {self.num_attributes}"
            )


#: What the models' forward pass accepts: a pre-collated batch or raw ACFGs.
ModelInput = Union[GraphBatch, Sequence[ACFG]]


class DgcnnBase(Module):
    """Shared scaffolding: graph conv stack + classifier plumbing.

    The forward contract is batch-first: ``forward`` consumes one
    :class:`~repro.core.batched.GraphBatch` (raw ACFG sequences are
    collated on the fly) and runs the graph convolutions and the
    pooling head once over the merged batch.  :meth:`forward_reference`
    keeps the dense per-graph loop alive purely as the ground truth for
    equivalence tests.
    """

    def __init__(self, config: ModelConfig) -> None:
        super().__init__()
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.graph_convs = GraphConvolutionStack(
            config.num_attributes,
            config.graph_conv_sizes,
            activation=config.activation,
            rng=self._rng,
            normalize_propagation=config.normalize_propagation,
        )

    @property
    def normalize_propagation(self) -> bool:
        """The propagation normalization a collated batch must match."""
        return self.config.normalize_propagation

    def collate(self, acfgs: Sequence[ACFG]) -> GraphBatch:
        """Merge raw ACFGs into a :class:`GraphBatch` this model accepts."""
        return GraphBatch(
            acfgs, normalize_propagation=self.config.normalize_propagation
        )

    def _coerce(self, batch: ModelInput) -> GraphBatch:
        if isinstance(batch, GraphBatch):
            if batch.normalized != self.config.normalize_propagation:
                raise ConfigurationError(
                    f"GraphBatch built with normalize_propagation="
                    f"{batch.normalized}, but the model expects "
                    f"{self.config.normalize_propagation}"
                )
            return batch
        if not batch:
            raise ConfigurationError("forward() on an empty batch")
        return self.collate(batch)

    # -- fixed-size representation (architecture-specific) -------------

    def embed_batch(self, z_all: Tensor, boundaries: Sequence[int]) -> Tensor:
        """Pool every graph's ``Z^{1:h}`` rows to flat embeddings ``(B, D)``.

        Graph ``b`` owns rows ``boundaries[b]:boundaries[b + 1]`` of
        ``z_all``; each pooling-head stage runs once over the batch.
        """
        raise NotImplementedError

    def embed_from_zconcat(self, z_concat: Tensor) -> Tensor:
        """Pool one graph's ``Z^{1:h}`` to its flat fixed-size embedding.

        The one-graph case of :meth:`embed_batch`.
        """
        embeddings = self.embed_batch(z_concat, (0, z_concat.shape[0]))
        return embeddings.reshape(embeddings.shape[1])

    def embed_graph(self, acfg: ACFG) -> Tensor:
        """Fixed-size representation of one graph (flattened to 1-D)."""
        return self.embed_from_zconcat(self.graph_convs(acfg))

    def forward(self, batch: ModelInput) -> Tensor:
        """Log-probabilities for a batch of graphs: ``(B, num_classes)``.

        The graph convolutions run once over the whole batch via the
        block-diagonal sparse propagation operator
        (:mod:`repro.core.batched`), and so does each stage of the
        pooling head (:meth:`embed_batch`); raw ACFG sequences are
        collated first.  Numerically equivalent to
        :meth:`forward_reference` (``tests/core/test_batched.py``).
        """
        graph_batch = self._coerce(batch)
        z_all = self.graph_convs.forward_batch(graph_batch)
        return self.classify(self.embed_batch(z_all, graph_batch.boundaries))

    def forward_reference(self, batch: Sequence[ACFG]) -> Tensor:
        """Per-graph dense reference path (equivalence testing only).

        Kept so the batched production path has a simple, obviously
        correct implementation to be checked against; not used by the
        trainer, cross-validation, grid search, or the CLI.
        """
        if isinstance(batch, GraphBatch):
            raise ConfigurationError(
                "forward_reference() takes raw ACFGs, not a GraphBatch"
            )
        if not batch:
            raise ConfigurationError("forward_reference() on an empty batch")
        embeddings = [self.embed_graph(acfg) for acfg in batch]
        return self.classify(stack(embeddings, axis=0))

    def classify(self, embeddings: Tensor) -> Tensor:
        """Map stacked graph embeddings ``(B, D)`` to log-probabilities."""
        raise NotImplementedError


class _MlpHead(Module):
    """Dense -> ReLU -> Dropout -> Dense -> log-softmax classifier tail."""

    def __init__(
        self,
        in_features: int,
        hidden_size: int,
        num_classes: int,
        dropout: float,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.fc1 = Linear(in_features, hidden_size, rng=rng)
        self.drop = Dropout(dropout, rng=rng)
        self.fc2 = Linear(hidden_size, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        hidden = self.drop(self.fc1(x).relu())
        return F.log_softmax(self.fc2(hidden), axis=-1)


class DgcnnSortPoolingConv1d(DgcnnBase):
    """SortPooling + the original DGCNN remaining layers (Section III-A-4).

    Each graph's sort-pooled ``(k, C)`` tensor is flattened to a length
    ``k*C`` signal; a Conv1D with kernel and stride ``C`` produces one
    descriptor per retained vertex, followed by max pooling, a second
    Conv1D, and a dense head.  The ReLU after the first Conv1D runs after
    the max pool, which holds the same values (max and ReLU commute) on
    half as many.
    """

    def __init__(self, config: ModelConfig) -> None:
        super().__init__(config)
        total_channels = self.graph_convs.total_channels
        ch1, ch2 = config.conv1d_channels
        self.sort_pool = SortPooling(config.sort_k)
        self.conv1 = Conv1d(
            1, ch1, kernel_size=total_channels, stride=total_channels, rng=self._rng
        )
        length_after_conv1 = config.sort_k
        length_after_pool = max(1, (length_after_conv1 - 2) // 2 + 1)
        kernel2 = min(config.conv1d_kernel, length_after_pool)
        self.conv2 = Conv1d(ch1, ch2, kernel_size=kernel2, stride=1, rng=self._rng)
        length_after_conv2 = length_after_pool - kernel2 + 1
        self._flat_size = ch2 * length_after_conv2
        self.head = _MlpHead(
            self._flat_size,
            config.hidden_size,
            config.num_classes,
            config.dropout,
            self._rng,
        )

    def embed_batch(self, z_all: Tensor, boundaries: Sequence[int]) -> Tensor:
        z_sp = self.sort_pool(z_all, boundaries)  # (B, k, C)
        graphs, k, c = z_sp.shape
        signal = z_sp.reshape(graphs, 1, k * c)
        out = self.conv1(signal)                  # (B, ch1, k)
        if out.shape[-1] >= 2:
            out = F.max_pool1d(out, 2, 2)
        out = self.conv2(out.relu()).relu()       # (B, ch2, L)
        return out.reshape(graphs, self._flat_size)

    def classify(self, embeddings: Tensor) -> Tensor:
        return self.head(embeddings)


class DgcnnSortPoolingWeightedVertices(DgcnnBase):
    """SortPooling + WeightedVertices graph embedding (Section III-B)."""

    def __init__(self, config: ModelConfig) -> None:
        super().__init__(config)
        total_channels = self.graph_convs.total_channels
        self.sort_pool = SortPooling(config.sort_k)
        self.weighted = WeightedVertices(config.sort_k, rng=self._rng)
        self.head = _MlpHead(
            total_channels,
            config.hidden_size,
            config.num_classes,
            config.dropout,
            self._rng,
        )

    def embed_batch(self, z_all: Tensor, boundaries: Sequence[int]) -> Tensor:
        z_sp = self.sort_pool(z_all, boundaries)  # (B, k, C)
        return self.weighted(z_sp)                # (B, C)

    def classify(self, embeddings: Tensor) -> Tensor:
        return self.head(embeddings)


class DgcnnAdaptivePooling(DgcnnBase):
    """Conv2D + AMP + VGG-inspired Conv2D head (Section III-C).

    After the per-graph adaptive pooling produces a fixed
    ``(channels, H, W)`` volume, two 3x3 Conv2D layers (channel-doubling,
    in the VGG spirit) refine it before the dense classifier.
    """

    def __init__(self, config: ModelConfig) -> None:
        super().__init__(config)
        channels = config.conv2d_channels
        self.amp_head = AdaptivePoolingHead(
            channels, output_grid=config.amp_grid, rng=self._rng
        )
        self.vgg1 = Conv2d(channels, 2 * channels, 3, stride=1, padding=1, rng=self._rng)
        self.vgg2 = Conv2d(2 * channels, 2 * channels, 3, stride=1, padding=1, rng=self._rng)
        grid_h, grid_w = config.amp_grid
        self._flat_size = 2 * channels * grid_h * grid_w
        self.head = _MlpHead(
            self._flat_size,
            config.hidden_size,
            config.num_classes,
            config.dropout,
            self._rng,
        )

    def embed_batch(self, z_all: Tensor, boundaries: Sequence[int]) -> Tensor:
        pooled = self.amp_head(z_all, boundaries)  # (B, channels, H, W)
        return pooled.reshape(pooled.shape[0], -1)

    def classify(self, embeddings: Tensor) -> Tensor:
        channels = self.amp_head.channels
        grid_h, grid_w = self.config.amp_grid
        volume = embeddings.reshape(embeddings.shape[0], channels, grid_h, grid_w)
        out = self.vgg1(volume).relu()
        out = self.vgg2(out).relu()
        flat = out.reshape(out.shape[0], self._flat_size)
        return self.head(flat)


def build_model(config: ModelConfig) -> DgcnnBase:
    """Instantiate the architecture selected by ``config.pooling``."""
    if config.pooling == POOLING_ADAPTIVE:
        return DgcnnAdaptivePooling(config)
    if config.pooling == POOLING_SORT_CONV1D:
        return DgcnnSortPoolingConv1d(config)
    return DgcnnSortPoolingWeightedVertices(config)
