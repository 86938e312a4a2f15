"""Attributed control flow graph (ACFG).

The ACFG is the unit of input to DGCNN: a directed graph plus a
per-vertex attribute matrix ``X`` of shape ``(n, c)`` (Section II-B).
A CFG has O(n) edges, so the topology is one sorted edge list, never an
n×n matrix.  The sparse operators of Equation (1), ``Â = A + I`` and
``D̂^-1 Â``, are built straight from it and cached.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Dict, Optional, Sequence

import numpy as np
import scipy.sparse

from repro.cfg.graph import ControlFlowGraph
from repro.exceptions import FeatureExtractionError
from repro.features.attributes import DEFAULT_ATTRIBUTES, extract_attribute_matrix


@dataclasses.dataclass
class ACFG:
    """An attributed CFG: ``(A, X)`` plus an optional family label.

    Parameters
    ----------
    edges:
        The directed edges of ``A`` as a ``(2, E)`` integer array of
        ``(source, destination)`` vertex indices.  The constructor sorts
        it by ``(source, destination)`` and drops duplicates, so
        :attr:`edges` is the order ``np.nonzero`` gives on the dense
        matrix.  A vertex may jump to itself.
    attributes:
        Attribute matrix ``X`` of shape ``(n, c)``; ``n`` is the vertex
        count.
    label:
        Family label (class index) for supervised training, or ``None``.
    name:
        Identifier of the originating sample, for error reporting.
    """

    edges: np.ndarray
    attributes: np.ndarray
    label: Optional[int] = None
    name: str = ""
    # Sparse operators keyed by ``normalized``; shared by the copies that
    # :meth:`replace` makes, so whichever builds one builds it for all.
    _operators: Dict[bool, scipy.sparse.csr_matrix] = dataclasses.field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        who = self.name or "ACFG"
        self._set_attributes(self.attributes)
        n = self.num_vertices
        edges = np.asarray(self.edges)
        if (edges.ndim != 2 or edges.shape[0] != 2
                or not np.issubdtype(edges.dtype, np.integer)):
            raise FeatureExtractionError(
                f"{who}: edges must be a (2, E) integer array, got "
                f"{edges.dtype} {edges.shape}"
            )
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise FeatureExtractionError(
                f"{who}: edge index out of range for {n} vertices"
            )
        edges = edges.astype(np.int64, copy=False)
        keys = edges[0] * n + edges[1]
        if (keys[1:] <= keys[:-1]).any():  # unsorted or duplicated
            keys = np.unique(keys)
            edges = np.stack([keys // n, keys % n])
        self.edges = edges

    @property
    def num_vertices(self) -> int:
        return self.attributes.shape[0]

    @property
    def num_attributes(self) -> int:
        """The number of attribute channels ``c``."""
        return self.attributes.shape[1]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[1]

    def out_degrees(self) -> np.ndarray:
        """Number of distinct successors of each vertex."""
        return np.bincount(self.edges[0], minlength=self.num_vertices)

    def replace(
        self,
        attributes: Optional[np.ndarray] = None,
        label: Optional[int] = None,
    ) -> "ACFG":
        """A copy with new attributes and/or label (``None`` keeps one).

        The copy shares :attr:`edges` and the cached sparse operators,
        which depend on the topology alone: scaled copies and attack
        iterates neither check the edges again nor rebuild the operators.
        """
        clone = copy.copy(self)
        if attributes is not None:
            clone._set_attributes(attributes, rows=self.num_vertices)
        if label is not None:
            clone.label = label
        return clone

    def _set_attributes(self, attributes: np.ndarray, rows: Optional[int] = None) -> None:
        """Store ``attributes`` as a finite float64 ``(n, c)`` matrix, ``n >= 1``."""
        self.attributes = np.asarray(attributes, dtype=np.float64)
        shape = self.attributes.shape
        if len(shape) != 2 or shape[0] == 0 or rows not in (None, shape[0]):
            need = f"{rows} rows" if rows else "at least one row"
            raise FeatureExtractionError(
                f"{self.name or 'ACFG'}: attributes must be an (n, c) matrix "
                f"with {need}, got {shape}"
            )
        if not np.isfinite(self.attributes).all():
            raise FeatureExtractionError(
                f"{self.name or 'ACFG'}: attributes contain NaN/inf"
            )

    def operator(self, normalized: bool = True) -> scipy.sparse.csr_matrix:
        """``D̂^-1 Â`` (``normalized``) or ``Â = A + I``, as cached CSR.

        This is the form :class:`~repro.core.batched.GraphBatch` assembles
        into its block-diagonal operator: ``n + |E|`` stored values.  The
        diagonal is merged into the sorted edge keys, so a vertex that
        jumps to itself gets ``Â[i, i] = 2``; ``D̂[i, i]`` is the row sum
        of ``Â``, at least one, so ``D̂`` is invertible.
        """
        operator = self._operators.get(normalized)
        if operator is None:
            n = self.num_vertices
            diagonal = np.arange(n, dtype=np.int64) * (n + 1)
            keys, counts = np.unique(
                np.concatenate([self.edges[0] * n + self.edges[1], diagonal]),
                return_counts=True,
            )
            rows = keys // n
            data = counts.astype(np.float64)
            if normalized:
                data /= np.bincount(rows, weights=data, minlength=n)[rows]
            indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
            operator = scipy.sparse.csr_matrix((data, keys % n, indptr), shape=(n, n))
            self._operators[normalized] = operator
        return operator

    @classmethod
    def from_cfg(
        cls,
        cfg: ControlFlowGraph,
        label: Optional[int] = None,
        layout: Sequence[str] = DEFAULT_ATTRIBUTES,
    ) -> "ACFG":
        """Extract an ACFG from a built CFG, one channel per ``layout`` name.

        Every channel is a column operation over the graph's arrays
        (:func:`~repro.features.attributes.extract_attribute_matrix`);
        ``layout`` defaults to the eleven Table I attributes.

        The extracted matrix is checked against the ACFG semantic
        invariants (:mod:`repro.features.validator`) before it leaves the
        front end, so a broken channel fails here, at the extraction
        boundary, rather than as an unexplained accuracy regression
        downstream.
        """
        from repro.features.validator import validate_attributes

        acfg = cls(
            edges=cfg.edge_index,
            attributes=extract_attribute_matrix(cfg, layout),
            label=label,
            name=cfg.name,
        )
        validate_attributes(
            acfg.attributes, acfg.out_degrees(), name=acfg.name, names=layout
        )
        return acfg
