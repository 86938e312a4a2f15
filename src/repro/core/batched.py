"""Block-diagonal graph batching: the canonical forward-pass unit.

Processing a batch of graphs one by one costs ``B x h`` Python-level
matrix products per forward pass.  Because graph convolution is purely
local, a batch can instead be treated as one large disconnected graph:
stack the attribute matrices, assemble the per-graph CSR propagation
operators into a block-diagonal sparse matrix, and run each layer once
over the whole batch.  Results are *exactly* equal to the per-graph
reference path (verified by ``tests/core/test_batched.py``); only the
constant factors change.

This is the same trick the reference DGCNN implementation (and every
modern GNN library) uses for mini-batching.  A :class:`GraphBatch` is
what the DGCNN variants consume (`repro.core.dgcnn`), what the training
collate layer produces and memoizes (`repro.train.batching`), and what
flows through ``Trainer``/cross-validation/CLI.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse

from repro.exceptions import ConfigurationError
from repro.features.acfg import ACFG
from repro.nn import functional as F
from repro.nn.tensor import Tensor


def _block_diag_csr(
    blocks: Sequence[scipy.sparse.csr_matrix],
) -> scipy.sparse.csr_matrix:
    """Block-diagonal merge of square CSR blocks, directly in CSR form.

    For a block-diagonal layout the merged CSR arrays are plain
    concatenations — data verbatim, column indices shifted by each
    block's row offset, indptr chained by running nnz — so this skips
    ``scipy.sparse.block_diag``'s generic COO round-trip, which costs
    more than the downstream matmul for small-graph batches.
    """
    sizes = np.array([b.shape[0] for b in blocks])
    row_offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(row_offsets[-1])
    data = np.concatenate([b.data for b in blocks])
    indices = np.concatenate([
        b.indices + offset for b, offset in zip(blocks, row_offsets[:-1])
    ])
    nnz_offsets = np.concatenate([[0], np.cumsum([b.nnz for b in blocks])])
    indptr = np.concatenate(
        [[0]] + [
            b.indptr[1:] + nnz_offset
            for b, nnz_offset in zip(blocks, nnz_offsets[:-1])
        ]
    )
    return scipy.sparse.csr_matrix(
        (data, indices, indptr), shape=(total, total)
    )


class GraphBatch:
    """A batch of ACFGs merged into one block-diagonal graph.

    Attributes
    ----------
    propagation:
        Sparse CSR ``(N, N)`` block-diagonal propagation operator, where
        ``N`` is the total vertex count of the batch.  Assembled from the
        per-graph cached CSR operators, so only the ``n + |E|`` true
        non-zeros of each graph are stored; a one-graph batch shares its
        graph's cached operator, which must therefore stay read-only.
    attributes:
        Dense ``(N, c)`` stacked attribute matrix.
    boundaries:
        Length ``B+1`` prefix offsets: graph ``i`` owns rows
        ``boundaries[i]:boundaries[i+1]``.
    normalized:
        Whether the operator is Equation 1's ``D̂^-1 Â`` (``True``) or the
        raw ``Â`` (``False``); models check this against their own
        ``normalize_propagation`` setting.
    labels:
        ``(B,)`` int64 label vector when every graph carries a label,
        else ``None``.
    """

    def __init__(
        self, acfgs: Sequence[ACFG], normalize_propagation: bool = True
    ) -> None:
        if not acfgs:
            raise ConfigurationError("cannot batch zero graphs")
        operators = [acfg.operator(normalize_propagation) for acfg in acfgs]
        # One graph needs no merge: its cached operator is shared as is,
        # and nothing writes into a batch's propagation matrix.
        self.propagation = (
            operators[0] if len(operators) == 1 else _block_diag_csr(operators)
        )
        self.attributes = np.concatenate([a.attributes for a in acfgs], axis=0)
        sizes = [a.num_vertices for a in acfgs]
        self.boundaries = np.concatenate([[0], np.cumsum(sizes)])
        self.num_graphs = len(acfgs)
        self.normalized = normalize_propagation
        if all(a.label is not None for a in acfgs):
            self.labels: Optional[np.ndarray] = np.array(
                [a.label for a in acfgs], dtype=np.int64
            )
        else:
            self.labels = None
        self._propagation_t: Optional[scipy.sparse.csr_matrix] = None
        #: Optional ``requires_grad`` leaf over :attr:`attributes`; set by
        #: :meth:`require_input_grad` for gradient-guided input attacks.
        self.attributes_tensor: Optional[Tensor] = None

    def require_input_grad(self) -> Tensor:
        """Expose the stacked attribute matrix as a ``requires_grad`` leaf.

        The returned tensor wraps :attr:`attributes` (same storage) with
        ``requires_grad=True``; :meth:`GraphConvolutionStack.forward_batch
        <repro.core.graph_conv.GraphConvolutionStack.forward_batch>` uses
        it as the layer-0 input when present, so a subsequent
        ``backward()`` accumulates ``dL/dX`` into ``tensor.grad``.  This
        is the eager-path hook the feature-space adversarial attack
        (:mod:`repro.adv.attack`) is built on; compiled tape replay never
        sees such batches (attack steps always run eagerly).

        Per-graph gradient rows are recovered with :attr:`boundaries`,
        exactly like :meth:`split` slices forward activations.
        """
        if self.attributes_tensor is None:
            self.attributes_tensor = Tensor(self.attributes, requires_grad=True)
        return self.attributes_tensor

    @property
    def total_vertices(self) -> int:
        return int(self.boundaries[-1])

    def propagation_transpose(self) -> scipy.sparse.csr_matrix:
        """Cached CSR transpose of the operator, for the backward pass.

        Computed once per batch and reused by every layer (and, via the
        collate memoization, every epoch that revisits this batch).
        """
        if self._propagation_t is None:
            self._propagation_t = self.propagation.T.tocsr()
        return self._propagation_t

    def split(self, stacked: Tensor) -> List[Tensor]:
        """Slice a ``(N, C)`` batch-level tensor back into per-graph rows."""
        pieces = []
        for index in range(self.num_graphs):
            start = int(self.boundaries[index])
            end = int(self.boundaries[index + 1])
            pieces.append(stacked[start:end])
        return pieces


def propagate(batch: GraphBatch, z: Tensor) -> Tensor:
    """One propagation step over the whole batch: ``P_blockdiag @ z``."""
    return F.sparse_matmul(
        batch.propagation, z, matrix_t=batch.propagation_transpose()
    )
