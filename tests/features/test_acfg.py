"""Tests for the ACFG abstraction."""

import numpy as np
import pytest

from repro.cfg.builder import build_cfg_from_text
from repro.exceptions import FeatureExtractionError
from repro.features.acfg import ACFG

from tests.conftest import SAMPLE_ASM, acfg_from_dense, dense_adjacency

NO_EDGES = np.zeros((2, 0), dtype=np.int64)


def simple_acfg():
    adjacency = np.array([[0, 1], [0, 0]], dtype=float)
    attributes = np.array([[1.0, 2.0], [3.0, 4.0]])
    return acfg_from_dense(adjacency=adjacency, attributes=attributes, label=0, name="t")


class TestConstruction:
    def test_shapes_validated(self):
        with pytest.raises(FeatureExtractionError, match=r"\(2, E\)"):
            ACFG(edges=np.zeros((3, 1), dtype=np.int64), attributes=np.zeros((2, 2)))
        with pytest.raises(FeatureExtractionError, match=r"\(2, E\)"):
            ACFG(edges=np.array([0, 1]), attributes=np.zeros((2, 2)))
        with pytest.raises(FeatureExtractionError, match="out of range"):
            ACFG(edges=np.array([[0], [2]]), attributes=np.zeros((2, 2)))
        with pytest.raises(FeatureExtractionError, match="out of range"):
            ACFG(edges=np.array([[-1], [0]]), attributes=np.zeros((2, 2)))
        with pytest.raises(FeatureExtractionError):
            ACFG(edges=NO_EDGES, attributes=np.zeros(2))

    def test_empty_graph_rejected(self):
        with pytest.raises(FeatureExtractionError):
            ACFG(edges=NO_EDGES, attributes=np.zeros((0, 2)))

    def test_non_finite_attributes_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(FeatureExtractionError):
            ACFG(edges=NO_EDGES, attributes=bad)

    def test_non_finite_adjacency_rejected(self):
        # Edges are vertex indices: a float array (inf included) is no
        # topology, whatever its values.
        for bad in (np.array([[0.0], [np.inf]]), np.array([[0.0], [1.0]])):
            with pytest.raises(FeatureExtractionError, match="integer"):
                ACFG(edges=bad, attributes=np.ones((2, 2)))

    def test_properties(self):
        acfg = simple_acfg()
        assert acfg.num_vertices == 2
        assert acfg.num_attributes == 2
        assert acfg.num_edges == 1
        np.testing.assert_array_equal(acfg.out_degrees(), [1, 0])

    def test_edges_sorted_and_deduplicated(self):
        acfg = ACFG(
            edges=np.array([[2, 0, 2, 0, 1, 2], [0, 2, 0, 1, 1, 2]], dtype=np.int32),
            attributes=np.ones((3, 1)),
        )
        np.testing.assert_array_equal(acfg.edges, [[0, 0, 1, 2, 2], [1, 2, 1, 0, 2]])
        assert acfg.edges.dtype == np.int64
        np.testing.assert_array_equal(acfg.out_degrees(), [2, 1, 2])

    def test_replace_shares_topology_and_operators(self):
        acfg = simple_acfg()
        scaled = acfg.replace(attributes=acfg.attributes * 2.0)
        relabelled = acfg.replace(label=5)
        assert scaled.edges is acfg.edges and scaled.label == 0
        assert scaled.name == acfg.name
        assert relabelled.attributes is acfg.attributes and relabelled.label == 5
        operator = scaled.operator()
        assert acfg.operator() is operator
        assert relabelled.operator() is operator
        with pytest.raises(FeatureExtractionError):
            acfg.replace(attributes=np.ones((3, 2)))
        with pytest.raises(FeatureExtractionError):
            acfg.replace(attributes=np.full((2, 2), np.nan))

    def test_from_cfg_matches_graph(self):
        cfg = build_cfg_from_text(SAMPLE_ASM, name="sample")
        acfg = ACFG.from_cfg(cfg, label=3)
        assert acfg.num_vertices == cfg.num_vertices
        assert acfg.label == 3
        assert acfg.name == "sample"
        expected = np.zeros((cfg.num_vertices, cfg.num_vertices))
        index = cfg.vertex_index()
        for src, dst in cfg.edges():
            expected[index[src], index[dst]] = 1.0
        np.testing.assert_array_equal(dense_adjacency(acfg), expected)
        np.testing.assert_array_equal(
            acfg.out_degrees(), [cfg.out_degree(b) for b in cfg.blocks()]
        )


class TestPropagationOperator:
    def test_augmented_adjacency_adds_self_loops(self):
        acfg = simple_acfg()
        np.testing.assert_array_equal(
            acfg.operator(normalized=False).toarray(),
            np.array([[1, 1], [0, 1]], dtype=float),
        )

    def test_rows_sum_to_one(self):
        """D̂^-1 Â is a row-stochastic matrix by construction."""
        cfg = build_cfg_from_text(SAMPLE_ASM)
        acfg = ACFG.from_cfg(cfg)
        propagation = acfg.operator().toarray()
        np.testing.assert_allclose(propagation.sum(axis=1), np.ones(acfg.num_vertices))

    def test_matches_explicit_formula(self):
        acfg = simple_acfg()
        augmented = dense_adjacency(acfg) + np.eye(acfg.num_vertices)
        degree_inverse = np.diag(1.0 / augmented.sum(axis=1))
        np.testing.assert_allclose(
            acfg.operator().toarray(), degree_inverse @ augmented
        )

    def test_cached(self):
        acfg = simple_acfg()
        assert acfg.operator() is acfg.operator()
        assert acfg.operator(normalized=False) is acfg.operator(normalized=False)

    def test_isolated_vertex_still_normalizable(self):
        # A graph with no edges at all: self-loops make D̂ invertible.
        acfg = ACFG(edges=NO_EDGES, attributes=np.ones((3, 2)))
        np.testing.assert_allclose(acfg.operator().toarray(), np.eye(3))
