"""Tests for k-fold cross validation."""

import numpy as np
import pytest

from repro.core.dgcnn import ModelConfig, build_model
from repro.datasets.loader import MalwareDataset
from repro.train.cross_validation import cross_validate
from repro.train.trainer import TrainingConfig

from tests.conftest import acfg_from_dense


def make_dataset(rng, n_per_class=10, num_classes=2):
    acfgs = []
    for label in range(num_classes):
        for i in range(n_per_class):
            n = int(rng.integers(3, 8))
            adjacency = (rng.random((n, n)) < 0.3).astype(float)
            np.fill_diagonal(adjacency, 0.0)
            attributes = rng.standard_normal((n, 11)) + 2.0 * label
            acfgs.append(
                acfg_from_dense(adjacency=adjacency, attributes=attributes,
                                label=label, name=f"{label}_{i}")
            )
    return MalwareDataset(
        acfgs=acfgs, family_names=[f"f{c}" for c in range(num_classes)]
    )


def factory(fold):
    return build_model(
        ModelConfig(
            num_attributes=11,
            num_classes=2,
            pooling="sort_weighted",
            graph_conv_sizes=(6, 6),
            sort_k=3,
            hidden_size=8,
            dropout=0.0,
            seed=fold,
        )
    )


class TestCrossValidate:
    def test_three_fold_structure(self, rng):
        dataset = make_dataset(rng, n_per_class=6)
        result = cross_validate(
            factory,
            dataset,
            TrainingConfig(epochs=2, batch_size=6),
            n_splits=3,
        )
        assert len(result.fold_histories) == 3
        assert len(result.fold_reports) == 3
        assert result.epoch_validation_losses.shape == (2,)
        # Averaged report covers every sample exactly once.
        assert result.averaged_report.confusion.sum() == len(dataset)

    def test_score_is_min_epoch_average(self, rng):
        dataset = make_dataset(rng, n_per_class=6)
        result = cross_validate(
            factory,
            dataset,
            TrainingConfig(epochs=3, batch_size=6),
            n_splits=3,
        )
        manual = np.mean(
            [h.validation_losses for h in result.fold_histories], axis=0
        )
        assert result.score == pytest.approx(manual.min())

    def test_learns_separable_data(self, rng):
        dataset = make_dataset(rng, n_per_class=9)
        result = cross_validate(
            factory,
            dataset,
            TrainingConfig(epochs=10, batch_size=6, learning_rate=5e-3),
            n_splits=3,
        )
        assert result.accuracy > 0.8

    def test_scaling_can_be_disabled(self, rng):
        dataset = make_dataset(rng, n_per_class=4)
        result = cross_validate(
            factory,
            dataset,
            TrainingConfig(epochs=1, batch_size=4),
            n_splits=2,
            scale_attributes=False,
        )
        assert len(result.fold_reports) == 2


class TestFoldWorkUnits:
    """The pickle-able fold units behind the parallel sweep engine."""

    def test_fold_specs_are_pickleable(self, rng):
        import pickle

        from repro.train.cross_validation import make_fold_specs

        dataset = make_dataset(rng, n_per_class=6)
        config = ModelConfig(
            num_attributes=11, num_classes=2, pooling="sort_weighted",
            graph_conv_sizes=(6, 6), sort_k=3, hidden_size=8, seed=0,
        )
        specs = make_fold_specs(
            dataset, TrainingConfig(epochs=2, batch_size=6),
            model_config=config, n_splits=3,
        )
        assert len(specs) == 3
        restored = pickle.loads(pickle.dumps(specs))
        assert [s.fold_index for s in restored] == [0, 1, 2]
        assert restored[0].model_config == config
        # Specs partition the dataset per fold.
        for spec in restored:
            merged = sorted(spec.train_indices + spec.val_indices)
            assert merged == list(range(len(dataset)))

    def test_config_path_matches_factory_path_exactly(self, rng):
        """cross_validate_config == cross_validate with the equivalent
        factory closure (the pre-refactor GridSearch idiom)."""
        import dataclasses as dc

        from repro.train.cross_validation import (
            MODEL_SEED_STRIDE,
            cross_validate_config,
        )

        dataset = make_dataset(rng, n_per_class=6)
        config = ModelConfig(
            num_attributes=11, num_classes=2, pooling="sort_weighted",
            graph_conv_sizes=(6, 6), sort_k=3, hidden_size=8,
            dropout=0.0, seed=7,
        )
        training = TrainingConfig(epochs=2, batch_size=6, seed=7)

        def closure_factory(fold):
            return build_model(
                dc.replace(config, seed=config.seed + MODEL_SEED_STRIDE * fold)
            )

        via_factory = cross_validate(
            closure_factory, dataset, training, n_splits=3
        )
        via_config = cross_validate_config(config, dataset, training, n_splits=3)
        assert np.array_equal(
            via_factory.epoch_validation_losses,
            via_config.epoch_validation_losses,
        )
        for a, b in zip(via_factory.fold_histories, via_config.fold_histories):
            assert a.train_losses == b.train_losses
            assert a.validation_losses == b.validation_losses

    def test_run_fold_result_roundtrips_through_json(self, rng):
        """Journaled folds reproduce in-memory results bit for bit."""
        import json

        from repro.train.cross_validation import make_fold_specs, run_fold
        from repro.train.metrics import ClassificationReport
        from repro.train.trainer import TrainingHistory

        dataset = make_dataset(rng, n_per_class=4)
        specs = make_fold_specs(
            dataset, TrainingConfig(epochs=2, batch_size=4), n_splits=2
        )
        result = run_fold(specs[0], dataset, model_factory=factory)
        history = TrainingHistory.from_dict(
            json.loads(json.dumps(result.history.to_dict()))
        )
        assert history == result.history
        report = ClassificationReport.from_dict(
            json.loads(json.dumps(result.report.to_dict()))
        )
        assert report.accuracy == result.report.accuracy
        assert report.log_loss == result.report.log_loss
        assert np.array_equal(report.confusion, result.report.confusion)
