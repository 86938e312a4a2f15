"""Tests for the attribute scaler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FeatureExtractionError
from repro.features.scaling import AttributeScaler

from tests.conftest import acfg_from_dense


def make_acfg(attributes, label=0):
    n = attributes.shape[0]
    return acfg_from_dense(adjacency=np.zeros((n, n)), attributes=attributes, label=label)


class TestScaler:
    def test_fit_before_transform_required(self):
        with pytest.raises(FeatureExtractionError):
            AttributeScaler().transform([make_acfg(np.ones((2, 3)))])

    def test_fit_on_empty_rejected(self):
        with pytest.raises(FeatureExtractionError):
            AttributeScaler().fit([])

    def test_transformed_train_is_standardized(self):
        rng = np.random.default_rng(0)
        acfgs = [make_acfg(rng.integers(0, 50, (5, 3)).astype(float)) for _ in range(10)]
        scaled = AttributeScaler().fit_transform(acfgs)
        stacked = np.concatenate([a.attributes for a in scaled], axis=0)
        np.testing.assert_allclose(stacked.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(stacked.std(axis=0), 1.0, atol=1e-9)

    def test_constant_channel_scales_to_zero(self):
        acfgs = [make_acfg(np.full((3, 2), 7.0))]
        scaled = AttributeScaler().fit_transform(acfgs)
        np.testing.assert_allclose(scaled[0].attributes, 0.0)

    def test_labels_and_adjacency_preserved(self):
        acfg = make_acfg(np.ones((2, 2)), label=5)
        scaled = AttributeScaler().fit_transform([acfg])[0]
        assert scaled.label == 5
        np.testing.assert_array_equal(scaled.edges, acfg.edges)

    def test_original_not_mutated(self):
        attributes = np.ones((2, 2)) * 3
        acfg = make_acfg(attributes.copy())
        AttributeScaler().fit_transform([acfg])
        np.testing.assert_array_equal(acfg.attributes, attributes)

    def test_without_log(self):
        acfgs = [make_acfg(np.array([[0.0], [10.0]]))]
        scaler = AttributeScaler(use_log=False).fit(acfgs)
        np.testing.assert_allclose(scaler.mean_, [5.0])

    @given(st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_transform_is_finite_for_any_count(self, count):
        """Property: scaled attributes are always finite."""
        train = [make_acfg(np.array([[0.0], [3.0], [9.0]]))]
        scaler = AttributeScaler().fit(train)
        out = scaler.transform([make_acfg(np.array([[float(count)]]))])
        assert np.isfinite(out[0].attributes).all()
