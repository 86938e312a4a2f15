"""Adaptive max pooling head (Section III-C, the paper's second extension).

Instead of SortPooling, the concatenated graph-convolution output
``Z^{1:h}`` (an ``n × sum(c_t)`` "image" whose height varies per graph) is

1. passed through a Conv2D layer "with an arbitrary number of filters"
   (Table II sweeps 16 or 32 channels) so that features can mix across
   both the vertex and channel dimensions,
2. adaptively max-pooled to a fixed ``H × W`` grid (Figure 6), making the
   representation size graph-independent,

after which a VGG-inspired multi-Conv2D head (see
:class:`repro.core.dgcnn.DgcnnAdaptivePooling`) predicts the family
distribution.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers import Conv2d, Module
from repro.nn.tensor import Tensor, apply_op


def conv2d_adaptive_max_pool(
    z_all: Tensor,
    weight: Tensor,
    bias: Tensor,
    output_grid: Tuple[int, int],
    boundaries: Sequence[int],
) -> Tensor:
    """Conv2D over each graph's ``(n, C)`` image, then adaptive max pooling.

    ``(N, C) -> (B, c, H, W)``: graph ``b`` owns rows
    ``boundaries[b]:boundaries[b + 1]`` of ``z_all`` and is convolved as
    its own one-channel image (``weight`` is ``(c, 1, kh, kw)`` with odd
    kernel sides, zero "same" padding) and pooled to the ``output_grid``
    (Figure 6).  One op-table entry runs the whole batch.  The ReLU the
    paper applies to the conv map commutes with the max, so the caller
    applies it to the pooled grid instead.
    """
    kh, kw = weight.shape[2], weight.shape[3]
    if weight.shape[1] != 1 or kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(
            f"conv2d_adaptive_max_pool needs a (c, 1, odd, odd) weight, got {weight.shape}"
        )
    meta = {"grid": tuple(output_grid), "boundaries": tuple(int(b) for b in boundaries)}
    return apply_op("conv2d_amp", (z_all, weight, bias), meta)


class AdaptivePoolingHead(Module):
    """Conv2D + adaptive max pooling: ``(n, C) -> (channels, H, W)``.

    Parameters
    ----------
    channels:
        Filters in the pre-AMP Conv2D ("2D Convolution Channels" in
        Table II: 16 or 32).
    output_grid:
        The fixed ``(H, W)`` AMP output grid (Figure 6 uses 3x3).
    """

    def __init__(
        self,
        channels: int,
        output_grid: Tuple[int, int] = (3, 3),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if channels < 1:
            raise ConfigurationError(f"channels must be >= 1, got {channels}")
        grid_h, grid_w = output_grid
        if grid_h < 1 or grid_w < 1:
            raise ConfigurationError(f"output grid must be positive, got {output_grid}")
        self.channels = channels
        self.output_grid = (grid_h, grid_w)
        self.conv = Conv2d(1, channels, kernel_size=3, stride=1, padding=1, rng=rng)

    def forward(self, z: Tensor, boundaries: Optional[Sequence[int]] = None) -> Tensor:
        """Pool each graph's ``Z^{1:h}`` rows to a fixed-size feature volume.

        ``(N, C) -> (B, channels, H, W)`` over a batch whose graph ``b``
        owns rows ``boundaries[b]:boundaries[b + 1]``; see
        :func:`conv2d_adaptive_max_pool`.  Without ``boundaries``, ``z``
        is one graph and the result ``(channels, H, W)``.
        """
        if z.ndim != 2:
            raise ShapeError(
                f"AdaptivePoolingHead expects (n, C) input, got {z.shape}"
            )
        single = boundaries is None
        pooled = conv2d_adaptive_max_pool(
            z, self.conv.weight, self.conv.bias, self.output_grid,
            (0, z.shape[0]) if single else boundaries,
        ).relu()
        return pooled.reshape(self.channels, *self.output_grid) if single else pooled
