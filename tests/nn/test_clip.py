"""Tests for gradient clipping."""

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.clip import clip_grad_norm
from repro.nn.layers import Parameter

from tests.conftest import acfg_from_dense


def param_with_grad(grad):
    p = Parameter(np.zeros_like(np.asarray(grad, dtype=float)))
    p.grad = np.asarray(grad, dtype=float)
    return p


class TestClipGradNorm:
    def test_below_threshold_unchanged(self):
        p = param_with_grad([3.0, 4.0])  # norm 5
        norm = clip_grad_norm([p], max_norm=10.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(p.grad, [3.0, 4.0])

    def test_above_threshold_scaled(self):
        p = param_with_grad([3.0, 4.0])  # norm 5
        clip_grad_norm([p], max_norm=1.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-6)
        # Direction preserved.
        np.testing.assert_allclose(p.grad / np.linalg.norm(p.grad),
                                   [0.6, 0.8], atol=1e-9)

    def test_global_norm_across_parameters(self):
        a = param_with_grad([3.0])
        b = param_with_grad([4.0])
        norm = clip_grad_norm([a, b], max_norm=2.5)  # global norm 5
        assert norm == pytest.approx(5.0)
        total = math.sqrt(float((a.grad ** 2).sum() + (b.grad ** 2).sum()))
        assert total == pytest.approx(2.5, rel=1e-6)

    def test_none_grads_skipped(self):
        p = Parameter(np.zeros(3))
        assert clip_grad_norm([p], max_norm=1.0) == 0.0  # repro: allow[float-equality] — exact by construction

    def test_invalid_max_norm(self):
        with pytest.raises(ConfigurationError):
            clip_grad_norm([], max_norm=0.0)


class TestTrainerIntegration:
    def test_training_with_clipping_runs(self, rng):
        from repro.core.dgcnn import ModelConfig, build_model
        from repro.train.trainer import Trainer, TrainingConfig

        acfgs = []
        for i in range(8):
            n = 5
            acfgs.append(acfg_from_dense(
                adjacency=(rng.random((n, n)) < 0.3).astype(float),
                attributes=rng.standard_normal((n, 11)),
                label=i % 2,
            ))
        model = build_model(ModelConfig(
            num_attributes=11, num_classes=2, pooling="sort_weighted",
            graph_conv_sizes=(4, 4), sort_k=3, hidden_size=8, seed=0,
        ))
        history = Trainer(
            TrainingConfig(epochs=2, batch_size=4, grad_clip_norm=1.0)
        ).train(model, acfgs)
        assert history.num_epochs == 2
