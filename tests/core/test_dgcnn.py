"""Tests for the three DGCNN model variants."""

import numpy as np
import pytest

from repro.core.dgcnn import (
    POOLING_TYPES,
    DgcnnAdaptivePooling,
    DgcnnSortPoolingConv1d,
    DgcnnSortPoolingWeightedVertices,
    ModelConfig,
    build_model,
)
from repro.exceptions import ConfigurationError
from repro.nn.loss import nll_loss
from repro.nn.optim import Adam

from tests.conftest import acfg_from_dense


def random_acfg(rng, n, c=11, label=0):
    adjacency = (rng.random((n, n)) < 0.25).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    return acfg_from_dense(
        adjacency=adjacency,
        attributes=rng.standard_normal((n, c)),
        label=label,
        name=f"g{n}",
    )


def make_config(pooling, **overrides):
    base = dict(
        num_attributes=11,
        num_classes=4,
        pooling=pooling,
        graph_conv_sizes=(8, 8),
        sort_k=5,
        amp_grid=(3, 3),
        conv2d_channels=4,
        conv1d_channels=(4, 8),
        conv1d_kernel=3,
        hidden_size=16,
        dropout=0.1,
        seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestModelConfig:
    def test_invalid_pooling(self):
        with pytest.raises(ConfigurationError):
            make_config("global_mean")

    def test_invalid_classes(self):
        with pytest.raises(ConfigurationError):
            make_config("adaptive", num_classes=1)

    def test_build_model_dispatch(self):
        assert isinstance(build_model(make_config("adaptive")), DgcnnAdaptivePooling)
        assert isinstance(
            build_model(make_config("sort_conv1d")), DgcnnSortPoolingConv1d
        )
        assert isinstance(
            build_model(make_config("sort_weighted")),
            DgcnnSortPoolingWeightedVertices,
        )


class TestForwardPass:
    @pytest.mark.parametrize("pooling", POOLING_TYPES)
    def test_log_probabilities(self, pooling, rng):
        model = build_model(make_config(pooling))
        batch = [random_acfg(rng, n) for n in (3, 7, 12)]
        out = model(batch)
        assert out.shape == (3, 4)
        probs = np.exp(out.data)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("pooling", POOLING_TYPES)
    def test_variable_graph_sizes_one_batch(self, pooling, rng):
        """Graphs much smaller and larger than k / the AMP grid mix freely."""
        model = build_model(make_config(pooling))
        batch = [random_acfg(rng, n) for n in (1, 2, 5, 30)]
        assert model(batch).shape == (4, 4)

    def test_empty_batch_rejected(self, rng):
        model = build_model(make_config("adaptive"))
        with pytest.raises(ConfigurationError):
            model([])

    @pytest.mark.parametrize("pooling", POOLING_TYPES)
    def test_batch_independence(self, pooling, rng):
        """A graph's prediction is the same alone or inside a batch."""
        model = build_model(make_config(pooling))
        model.eval()
        graphs = [random_acfg(rng, n) for n in (4, 9)]
        together = model(graphs).data
        alone = [model([g]).data[0] for g in graphs]
        np.testing.assert_allclose(together, np.stack(alone), atol=1e-10)

    def test_predict_interfaces(self, rng):
        model = build_model(make_config("sort_weighted"))
        batch = [random_acfg(rng, 6), random_acfg(rng, 8)]
        probabilities = model.predict_proba(batch)
        assert probabilities.shape == (2, 4)
        predictions = model.predict(batch)
        np.testing.assert_array_equal(predictions, probabilities.argmax(axis=1))

    def test_predict_restores_training_mode(self, rng):
        model = build_model(make_config("adaptive"))
        model.train(True)
        model.predict([random_acfg(rng, 5)])
        assert model.training


class TestTrainability:
    @pytest.mark.parametrize("pooling", POOLING_TYPES)
    def test_loss_decreases(self, pooling, rng):
        """A few Adam steps on a toy problem must reduce the loss."""
        model = build_model(make_config(pooling))
        # Two separable pseudo-families: dense-heavy vs sparse graphs.
        batch = []
        for i in range(8):
            label = i % 2
            n = 6 + 4 * label
            acfg = random_acfg(rng, n, label=label)
            acfg.attributes[:, 0] += 3.0 * label
            batch.append(acfg)
        labels = np.array([a.label for a in batch])
        optimizer = Adam(model.parameters(), lr=0.01)
        first_loss = None
        for _ in range(15):
            optimizer.zero_grad()
            loss = nll_loss(model(batch), labels)
            if first_loss is None:
                first_loss = loss.item()
            loss.backward()
            optimizer.step()
        assert loss.item() < first_loss

    def test_all_parameters_receive_gradients(self, rng):
        for pooling in POOLING_TYPES:
            model = build_model(make_config(pooling, dropout=0.0))
            batch = [random_acfg(rng, 7, label=1), random_acfg(rng, 9, label=0)]
            labels = np.array([1, 0])
            loss = nll_loss(model(batch), labels)
            loss.backward()
            missing = [
                name
                for name, param in model.named_parameters()
                if param.grad is None
            ]
            assert not missing, f"{pooling}: no grad for {missing}"

    def test_seed_reproducibility(self, rng):
        config = make_config("adaptive", seed=42)
        a = build_model(config)
        b = build_model(config)
        batch = [random_acfg(np.random.default_rng(0), 5)]
        a.eval(), b.eval()
        np.testing.assert_array_equal(a(batch).data, b(batch).data)


class TestSortConv1dSmallK:
    def test_k_smaller_than_kernel_still_works(self, rng):
        """conv1d kernel is clamped when k is tiny."""
        model = build_model(make_config("sort_conv1d", sort_k=2, conv1d_kernel=7))
        out = model([random_acfg(rng, 3)])
        assert out.shape == (1, 4)
