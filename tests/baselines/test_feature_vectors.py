"""Tests for the handcrafted aggregate feature vectors."""

import numpy as np

from repro.baselines.feature_vectors import (
    acfg_feature_names,
    acfg_to_feature_vector,
    dataset_to_matrix,
    standardize,
)

from tests.conftest import acfg_from_dense


def make_acfg(n=4, c=3, label=1, seed=0):
    rng = np.random.default_rng(seed)
    adjacency = (rng.random((n, n)) < 0.4).astype(float)
    return acfg_from_dense(
        adjacency=adjacency,
        attributes=rng.integers(0, 9, (n, c)).astype(float),
        label=label,
    )


class TestFeatureVector:
    def test_names_align_with_vector(self):
        acfg = make_acfg()
        vector = acfg_to_feature_vector(acfg)
        names = acfg_feature_names(acfg.num_attributes)
        assert len(names) == len(vector)

    def test_aggregates_correct(self):
        acfg = make_acfg()
        vector = acfg_to_feature_vector(acfg)
        c = acfg.num_attributes
        np.testing.assert_allclose(vector[:c], acfg.attributes.sum(axis=0))
        np.testing.assert_allclose(vector[c:2*c], acfg.attributes.mean(axis=0))
        np.testing.assert_allclose(vector[2*c:3*c], acfg.attributes.max(axis=0))

    def test_graph_stats(self):
        acfg = make_acfg()
        vector = acfg_to_feature_vector(acfg)
        names = acfg_feature_names(acfg.num_attributes)
        stats = dict(zip(names, vector))
        assert stats["num_vertices"] == acfg.num_vertices
        assert stats["num_edges"] == acfg.num_edges

    def test_dataset_to_matrix(self):
        acfgs = [make_acfg(seed=i, label=i % 2) for i in range(5)]
        features, labels = dataset_to_matrix(acfgs)
        assert features.shape[0] == 5
        np.testing.assert_array_equal(labels, [0, 1, 0, 1, 0])

    def test_unlabelled_maps_to_minus_one(self):
        acfg = make_acfg()
        acfg.label = None
        _, labels = dataset_to_matrix([acfg])
        assert labels[0] == -1


class TestStandardize:
    def test_train_standardized(self, rng):
        train = rng.standard_normal((40, 5)) * 7 + 3
        (scaled,) = standardize(train)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-10)

    def test_other_matrices_use_train_statistics(self, rng):
        train = rng.standard_normal((40, 3))
        test = rng.standard_normal((10, 3)) + 100
        scaled_train, scaled_test = standardize(train, test)
        # Test mean must be far from zero: scaled with *train* stats.
        assert np.abs(scaled_test.mean(axis=0)).min() > 10

    def test_constant_feature_no_nan(self):
        train = np.ones((5, 2))
        (scaled,) = standardize(train)
        assert np.isfinite(scaled).all()
