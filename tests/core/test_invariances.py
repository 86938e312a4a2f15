"""Model invariance properties.

SortPooling orders vertices by their *learned feature descriptors*, not
by input order, so the sort-pooling architectures are invariant to the
vertex ordering of the input ACFG (up to ties).  These tests verify that
property — and document that the adaptive-pooling architecture is
order-*sensitive* by design (the AMP grid pools over the vertex
dimension in input order, which for CFGs is address order — a meaningful
signal, not an arbitrary one).
"""

import numpy as np
import pytest

from repro.core.dgcnn import ModelConfig, build_model

from tests.conftest import acfg_from_dense, dense_adjacency


def random_acfg(rng, n=9, c=11):
    adjacency = (rng.random((n, n)) < 0.3).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    attributes = rng.standard_normal((n, c))
    return acfg_from_dense(adjacency=adjacency, attributes=attributes)


def permuted(acfg, permutation):
    return acfg_from_dense(
        adjacency=dense_adjacency(acfg)[np.ix_(permutation, permutation)],
        attributes=acfg.attributes[permutation],
    )


def make_model(pooling, seed=0):
    return build_model(
        ModelConfig(
            num_attributes=11, num_classes=3, pooling=pooling,
            graph_conv_sizes=(8, 8), sort_k=5, amp_grid=(2, 2),
            conv2d_channels=4, conv1d_channels=(4, 8), conv1d_kernel=3,
            hidden_size=16, dropout=0.0, seed=seed,
        )
    )


class TestPermutationInvariance:
    @pytest.mark.parametrize("pooling", ["sort_conv1d", "sort_weighted"])
    def test_sort_pooling_models_are_order_invariant(self, pooling, rng):
        model = make_model(pooling)
        model.eval()
        acfg = random_acfg(rng)
        base = model([acfg]).data
        for seed in range(3):
            permutation = np.random.default_rng(seed).permutation(
                acfg.num_vertices
            )
            shuffled = permuted(acfg, permutation)
            np.testing.assert_allclose(
                model([shuffled]).data, base, atol=1e-9,
                err_msg=f"{pooling} output changed under vertex permutation",
            )

    def test_adaptive_pooling_uses_vertex_order(self, rng):
        """AMP pools the vertex axis in input (address) order: shuffling
        vertices generally changes the output.  This is intentional —
        address order is program layout, a real signal."""
        model = make_model("adaptive")
        model.eval()
        changed = 0
        for seed in range(5):
            acfg = random_acfg(np.random.default_rng(seed), n=12)
            base = model([acfg]).data
            permutation = np.random.default_rng(seed + 100).permutation(12)
            shuffled = permuted(acfg, permutation)
            if not np.allclose(model([shuffled]).data, base, atol=1e-9):
                changed += 1
        assert changed >= 3


class TestStructuralSensitivity:
    @pytest.mark.parametrize(
        "pooling", ["adaptive", "sort_conv1d", "sort_weighted"]
    )
    def test_edges_matter(self, pooling, rng):
        """Same attributes, different structure -> different prediction.

        This is the paper's core claim: structure carries signal that
        attribute aggregation alone would miss."""
        model = make_model(pooling)
        model.eval()
        attributes = rng.standard_normal((8, 11))
        chain = np.zeros((8, 8))
        for i in range(7):
            chain[i, i + 1] = 1.0
        dense = (np.random.default_rng(0).random((8, 8)) < 0.6).astype(float)
        np.fill_diagonal(dense, 0.0)
        out_chain = model([acfg_from_dense(adjacency=chain, attributes=attributes)]).data
        out_dense = model([acfg_from_dense(adjacency=dense, attributes=attributes)]).data
        assert not np.allclose(out_chain, out_dense, atol=1e-9)

    @pytest.mark.parametrize(
        "pooling", ["adaptive", "sort_conv1d", "sort_weighted"]
    )
    def test_attributes_matter(self, pooling, rng):
        model = make_model(pooling)
        model.eval()
        adjacency = (rng.random((8, 8)) < 0.3).astype(float)
        a = acfg_from_dense(adjacency=adjacency, attributes=rng.standard_normal((8, 11)))
        b = acfg_from_dense(adjacency=adjacency, attributes=rng.standard_normal((8, 11)))
        assert not np.allclose(model([a]).data, model([b]).data, atol=1e-9)
