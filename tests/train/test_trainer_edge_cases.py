"""Additional trainer edge cases and failure injection."""

import numpy as np
import pytest

from repro.core.dgcnn import ModelConfig, build_model
from repro.train.trainer import Trainer, TrainingConfig

from tests.conftest import acfg_from_dense


def tiny_model(num_classes=2, seed=0):
    return build_model(ModelConfig(
        num_attributes=3, num_classes=num_classes, pooling="sort_weighted",
        graph_conv_sizes=(4,), sort_k=2, hidden_size=4, dropout=0.0,
        seed=seed,
    ))


def make_acfgs(rng, count, num_classes=2, c=3):
    acfgs = []
    for i in range(count):
        n = int(rng.integers(2, 5))
        acfgs.append(acfg_from_dense(
            adjacency=(rng.random((n, n)) < 0.4).astype(float),
            attributes=rng.standard_normal((n, c)),
            label=i % num_classes,
        ))
    return acfgs


class TestEdgeCases:
    def test_single_sample_training(self, rng):
        acfgs = make_acfgs(rng, 1)
        acfgs[0].label = 0
        history = Trainer(TrainingConfig(epochs=1, batch_size=1)).train(
            tiny_model(), acfgs
        )
        assert history.num_epochs == 1

    def test_batch_larger_than_dataset(self, rng):
        acfgs = make_acfgs(rng, 3)
        history = Trainer(TrainingConfig(epochs=1, batch_size=100)).train(
            tiny_model(), acfgs
        )
        assert history.num_epochs == 1

    def test_lr_decay_rule_fires_during_training(self, rng):
        """With an absurdly high LR the validation loss oscillates and
        the paper's two-consecutive-increases rule must fire."""
        acfgs = make_acfgs(rng, 12)
        train, val = acfgs[:8], acfgs[8:]
        history = Trainer(TrainingConfig(
            epochs=12, batch_size=4, learning_rate=5.0,
        )).train(tiny_model(), train, val)
        assert history.learning_rates[-1] < 5.0

    def test_single_class_dataset_trains(self, rng):
        # Degenerate but legal: all labels identical.
        acfgs = make_acfgs(rng, 4, num_classes=1)
        for acfg in acfgs:
            acfg.label = 0
        history = Trainer(TrainingConfig(epochs=1, batch_size=2)).train(
            tiny_model(num_classes=2), acfgs
        )
        assert np.isfinite(history.train_losses[0])

    def test_history_learning_rates_recorded(self, rng):
        acfgs = make_acfgs(rng, 4)
        history = Trainer(TrainingConfig(epochs=3, batch_size=2)).train(
            tiny_model(), acfgs
        )
        assert len(history.learning_rates) == 3

    def test_restore_best_false_keeps_final_weights(self, rng):
        acfgs = make_acfgs(rng, 10)
        train, val = acfgs[:7], acfgs[7:]
        model = tiny_model()
        trainer = Trainer(TrainingConfig(epochs=6, batch_size=4,
                                         learning_rate=0.05))
        history = trainer.train(model, train, val, restore_best=False)
        final = Trainer.evaluate_loss(model, val)
        # Final weights are epoch-6 weights, not necessarily the best.
        assert final == pytest.approx(history.validation_losses[-1], rel=1e-6)
