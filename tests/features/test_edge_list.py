"""The edge list is the ACFG's only topology.

Three contracts pin it:

* the CSR operators built from the edge list equal ``csr_matrix`` of the
  dense formulas of Equation (1) bit for bit — index arrays, their
  dtypes and every stored value — including graphs whose blocks jump to
  themselves (``Â[i, i] = 2``) and edge arrays with duplicates;
* WL fingerprints of large CFG-shaped graphs keep the digests the dense
  uint64 products gave;
* no step of the front end or of collation builds an n×n array: a
  5,000-vertex CFG-shaped graph goes through construction, the
  fingerprint, batching, validation and the record round trip within a
  memory budget far below its dense adjacency matrix (200 MB).
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from repro.cfg.serialization import acfg_from_text, acfg_to_text
from repro.core.batched import GraphBatch
from repro.features.acfg import ACFG
from repro.features.attributes import DEFAULT_ATTRIBUTES
from repro.features.validator import validate_attributes
from repro.similarity import fingerprint_acfg

from tests.conftest import dense_adjacency


def assert_csr_identical(got, expected):
    assert got.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        mine, theirs = getattr(got, name), getattr(expected, name)
        assert mine.dtype == theirs.dtype, name
        assert mine.tobytes() == theirs.tobytes(), name


class TestSparseOperators:
    @pytest.mark.parametrize("self_loops", [False, True])
    @pytest.mark.parametrize("duplicates", [False, True])
    def test_csr_matches_dense_formula_bit_for_bit(self, self_loops, duplicates):
        rng = np.random.default_rng(17 + 2 * self_loops + duplicates)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            adjacency = (rng.random((n, n)) < rng.random()).astype(float)
            if not self_loops:
                np.fill_diagonal(adjacency, 0.0)
            edges = np.stack(np.nonzero(adjacency))
            if duplicates and edges.size:
                edges = np.concatenate([edges, edges[:, ::2]], axis=1)
                edges = edges[:, rng.permutation(edges.shape[1])]
            acfg = ACFG(edges=edges, attributes=np.ones((n, 1)))
            np.testing.assert_array_equal(dense_adjacency(acfg), adjacency)

            augmented = adjacency.copy()
            np.fill_diagonal(augmented, augmented.diagonal() + 1.0)
            propagation = augmented / augmented.sum(axis=1, keepdims=True)
            assert_csr_identical(
                acfg.operator(normalized=False),
                scipy.sparse.csr_matrix(augmented),
            )
            assert_csr_identical(
                acfg.operator(),
                scipy.sparse.csr_matrix(propagation),
            )


def cfg_shaped_graph(n, seed=0):
    """``(edges, attributes)`` of a path plus n/3 random edges; the
    attributes pass the validator."""
    rng = np.random.default_rng(seed)
    sources = np.concatenate([np.arange(n - 1), rng.integers(0, n, n // 3)])
    destinations = np.concatenate([np.arange(1, n), rng.integers(0, n, n // 3)])
    names = DEFAULT_ATTRIBUTES
    attributes = np.zeros((n, len(names)))
    attributes[:, names.index("total_instructions")] = 1.0
    attributes[:, names.index("vertex_instructions")] = 1.0
    acfg = ACFG(edges=np.stack([sources, destinations]), attributes=attributes)
    attributes[:, names.index("offspring")] = acfg.out_degrees()
    return np.stack([sources, destinations]), attributes


class TestLargeGraphFingerprint:
    #: ``fingerprint_acfg`` digests recorded with the dense uint64 matmul
    #: WL rounds (``labels @ A.T`` and ``labels @ A``); the scatter-adds
    #: over the edge list must wrap modulo 2**64 to the same labels.
    DENSE_DIGESTS = {
        500: "33535ac0596e46d9886a34e4bc24e7481e4e24ba7b00570d6a604cd2ff0366fb",
        2000: "e45d42a377c309162e6fa5f0c936f8879c53814dbbdd29e4dd2932351124239f",
    }

    @pytest.mark.parametrize("n", sorted(DENSE_DIGESTS))
    def test_wl_rounds_match_the_dense_product(self, n):
        rng = np.random.default_rng(n)
        sources = np.concatenate([np.arange(n - 1), rng.integers(0, n, n // 3)])
        destinations = np.concatenate([np.arange(1, n), rng.integers(0, n, n // 3)])
        acfg = ACFG(
            edges=np.stack([sources, destinations]),
            attributes=rng.integers(0, 40, (n, 11)).astype(float),
        )
        assert fingerprint_acfg(acfg).digest() == self.DENSE_DIGESTS[n]


class TestMemoryBound:
    #: The dense float64 adjacency of this graph alone is 200 MB.
    VERTICES = 5000
    BUDGET_BYTES = 16 * 1024 * 1024

    def test_large_graph_never_builds_a_dense_matrix(self):
        edges, attributes = cfg_shaped_graph(self.VERTICES)
        tracemalloc.start()
        try:
            acfg = ACFG(edges=edges, attributes=attributes)
            fingerprint_acfg(acfg)
            GraphBatch([acfg])
            GraphBatch([acfg], normalize_propagation=False)
            validate_attributes(acfg.attributes, acfg.out_degrees())
            edges_back, attributes_back, _ = acfg_from_text(
                acfg_to_text(acfg.edges, acfg.attributes)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(edges_back, acfg.edges)
        np.testing.assert_array_equal(attributes_back, acfg.attributes)
        assert peak < self.BUDGET_BYTES, f"peak {peak / 2**20:.1f} MiB"
