"""SortPooling layer (Section III-A-3).

Sorts the vertices of ``Z^{1:h}`` by their feature descriptors — primary
key the *last* channel of the last graph-convolution layer (the most
refined Weisfeiler-Lehman "color"), ties broken by progressively earlier
channels — then truncates or zero-pads to exactly ``k`` rows, producing a
fixed-size ``(k, sum(c_t))`` tensor for any input graph.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.layers import Module
from repro.nn.tensor import Tensor, apply_op


def sort_vertex_order(features: np.ndarray) -> np.ndarray:
    """Row order after SortPooling's lexicographic descending sort.

    The primary sort key is the last column, then the second-to-last, and
    so on — ``np.lexsort`` takes keys last-key-primary, so passing columns
    in natural order gives exactly the paper's tie-breaking rule.  The
    sort is descending ("decreasing order" in the paper); negating the
    keys keeps ``lexsort``'s ascending machinery while preserving
    stability.
    """
    if features.ndim != 2:
        raise ConfigurationError(
            f"sort_vertex_order expects a 2-D array, got shape {features.shape}"
        )
    keys = tuple(-features[:, column] for column in range(features.shape[1]))
    return np.lexsort(keys)


def resolve_sort_pooling_k(graph_sizes: Sequence[int], ratio: float, minimum: int = 2) -> int:
    """Choose ``k`` so that roughly ``ratio`` of graphs have ≥ ``k`` vertices.

    This is the rule used by the reference DGCNN implementation the paper
    builds on: ``k`` is the ``ratio``-quantile of the training-set graph
    sizes (so with ratio 0.64, 64% of graphs are truncated rather than
    padded), floored at ``minimum``.
    """
    if not graph_sizes:
        raise ConfigurationError("cannot resolve k from an empty size list")
    if not 0.0 < ratio <= 1.0:
        raise ConfigurationError(f"pooling ratio must be in (0, 1], got {ratio}")
    ordered = sorted(graph_sizes)
    index = min(len(ordered) - 1, max(0, math.ceil(ratio * len(ordered)) - 1))
    return max(minimum, ordered[index])


def sort_pool(z_all: Tensor, k: int, boundaries: Sequence[int]) -> Tensor:
    """``(N, C) -> (B, k, C)``: sort each graph's rows, truncate or zero-pad to ``k``.

    Graph ``b`` owns rows ``boundaries[b]:boundaries[b + 1]`` of ``z_all``
    and is sorted by :func:`sort_vertex_order`.  One op-table entry runs
    the whole batch, so the tape replays it as one kernel that recomputes
    the data-dependent order per batch.  The order is computed from
    forward values and treated as a constant in backprop; gradients flow
    through the row selection.
    """
    z_all = Tensor._coerce(z_all)
    return apply_op(
        "sort_pool", (z_all,), {"k": k, "boundaries": tuple(int(b) for b in boundaries)}
    )


class SortPooling(Module):
    """Truncate/pad sorted vertex descriptors to ``k`` rows."""

    def __init__(self, k: int) -> None:
        super().__init__()
        if k < 1:
            raise ConfigurationError(f"sort pooling k must be >= 1, got {k}")
        self.k = k

    def forward(self, z: Tensor, boundaries: Optional[Sequence[int]] = None) -> Tensor:
        """``(N, C) -> (B, k, C)`` over a batch; see :func:`sort_pool`.

        Without ``boundaries``, ``z`` is one graph and the result ``(k, C)``.
        """
        if boundaries is not None:
            return sort_pool(z, self.k, boundaries)
        return sort_pool(z, self.k, (0, z.shape[0])).reshape(self.k, z.shape[1])
