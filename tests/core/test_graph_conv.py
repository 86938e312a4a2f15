"""Tests for graph convolution (Equation 1, Figures 2-3)."""

import numpy as np
import pytest

from repro.core.graph_conv import GraphConvolution, GraphConvolutionStack
from repro.exceptions import ConfigurationError
from repro.nn.tensor import Tensor

from tests.conftest import acfg_from_dense, dense_adjacency


def sample_graph_acfg():
    """A 5-vertex directed graph with 2 attribute channels, in the style
    of the paper's worked example (Figure 2)."""
    adjacency = np.zeros((5, 5))
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 1)]
    for src, dst in edges:
        adjacency[src, dst] = 1.0
    attributes = np.array(
        [[1.0, 2.0], [0.0, 1.0], [3.0, -1.0], [2.0, 2.0], [-1.0, 0.5]]
    )
    return acfg_from_dense(adjacency=adjacency, attributes=attributes, name="g")


class TestEquationOne:
    def test_single_layer_matches_manual_formula(self):
        """Z1 = f(D̂^-1 Â X W) computed with raw numpy must agree."""
        acfg = sample_graph_acfg()
        layer = GraphConvolution(2, 3, activation="relu", rng=np.random.default_rng(0))
        out = layer(acfg.operator().toarray(), Tensor(acfg.attributes))

        augmented = dense_adjacency(acfg) + np.eye(5)
        degree_inverse = np.diag(1.0 / augmented.sum(axis=1))
        expected = degree_inverse @ augmented @ acfg.attributes @ layer.weight.data
        expected = np.maximum(expected, 0.0)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_worked_example_weights(self):
        """With the paper's W1 = [[1,0,1],[0,1,0]] and ReLU, the layer is
        exactly row-normalized neighborhood averaging of (F1, F2, F1)."""
        acfg = sample_graph_acfg()
        layer = GraphConvolution(2, 3, activation="relu")
        layer.weight.data = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        out = layer(acfg.operator().toarray(), Tensor(acfg.attributes)).data
        # Columns 0 and 2 must be identical (both propagate channel F1).
        np.testing.assert_allclose(out[:, 0], out[:, 2])

    def test_isolated_vertex_keeps_own_attributes(self):
        # With no edges, propagation is the identity: Z1 = f(X W).
        acfg = acfg_from_dense(adjacency=np.zeros((3, 3)), attributes=np.eye(3))
        layer = GraphConvolution(3, 3, activation="relu")
        layer.weight.data = np.eye(3)
        out = layer(acfg.operator().toarray(), Tensor(acfg.attributes))
        np.testing.assert_allclose(out.data, np.eye(3))

    def test_tanh_activation(self):
        acfg = sample_graph_acfg()
        layer = GraphConvolution(2, 2, activation="tanh")
        out = layer(acfg.operator().toarray(), Tensor(acfg.attributes))
        assert (np.abs(out.data) <= 1.0).all()

    def test_invalid_activation(self):
        with pytest.raises(ConfigurationError):
            GraphConvolution(2, 2, activation="softplus")


class TestStack:
    def test_concatenated_output_width(self):
        """Z^{1:h} has sum(c_t) columns (Section III-A-3)."""
        acfg = sample_graph_acfg()
        stack = GraphConvolutionStack(2, (32, 32, 32, 32))
        assert stack.total_channels == 128
        out = stack(acfg)
        assert out.shape == (5, 128)

    def test_asymmetric_sizes(self):
        acfg = sample_graph_acfg()
        stack = GraphConvolutionStack(2, (128, 64, 32, 32))
        assert stack(acfg).shape == (5, 256)

    def test_layer_chaining_widths(self):
        stack = GraphConvolutionStack(11, (8, 4, 2))
        assert stack.layer(0).in_channels == 11
        assert stack.layer(1).in_channels == 8
        assert stack.layer(2).in_channels == 4

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ConfigurationError):
            GraphConvolutionStack(2, ())

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ConfigurationError):
            GraphConvolutionStack(2, (8, 0))

    def test_gradients_reach_all_layers(self):
        acfg = sample_graph_acfg()
        stack = GraphConvolutionStack(2, (4, 4))
        out = stack(acfg)
        out.sum().backward()
        for index in range(stack.num_layers):
            assert stack.layer(index).weight.grad is not None
            assert np.abs(stack.layer(index).weight.grad).sum() > 0

    def test_breadth_first_propagation_reach(self):
        """After t layers a vertex's attributes have propagated along
        directed paths of length <= t (BFS fashion, Section III-A-2)."""
        # Chain 0 -> 1 -> 2; only vertex 0 has a nonzero attribute.
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = adjacency[1, 2] = 1.0
        attributes = np.array([[1.0], [0.0], [0.0]])
        acfg = acfg_from_dense(adjacency=adjacency, attributes=attributes)
        propagation = acfg.operator().toarray()

        layer = GraphConvolution(1, 1, activation="relu")
        layer.weight.data = np.array([[1.0]])
        z1 = layer(propagation, Tensor(acfg.attributes))
        # Propagation here is along *incoming* information: row i mixes
        # the vertices i points to, plus itself.  Vertex 2 has no path of
        # length 1 from vertex 0's attribute holder... verify reachability:
        z2 = layer(propagation, z1)
        # Vertex 0's signal reaches vertex 0 at every depth (self-loop).
        assert z1.data[0, 0] > 0
        assert z2.data[0, 0] > 0
