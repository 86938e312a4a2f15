"""Tests for adversarial training (PGD-AT) in the Trainer."""

import numpy as np
import pytest

import repro.train.trainer as trainer_module
from repro.adv.attack import perturb_batch_scaled
from repro.exceptions import TrainingDivergedError, TrainingError
from repro.features.attributes import DEFAULT_ATTRIBUTES
from repro.features.scaling import AttributeScaler
from repro.train.trainer import AdversarialConfig, Trainer, TrainingConfig

from tests.train.test_trainer import small_model, toy_dataset

ADVERSARIAL = AdversarialConfig(steps=2, epsilon=0.5, weight=0.5)


def adversarial_config(**overrides):
    settings = dict(
        epochs=3, batch_size=8, learning_rate=5e-3, seed=0,
        adversarial=ADVERSARIAL,
    )
    settings.update(overrides)
    return TrainingConfig(**settings)


class TestAdversarialConfig:
    def test_validation(self):
        with pytest.raises(TrainingError):
            AdversarialConfig(steps=0)
        with pytest.raises(TrainingError):
            AdversarialConfig(epsilon=0.0)
        with pytest.raises(TrainingError):
            AdversarialConfig(weight=0.0)
        with pytest.raises(TrainingError):
            AdversarialConfig(weight=1.5)

    def test_resolved_step_size(self):
        assert AdversarialConfig(
            steps=5, epsilon=2.0
        ).resolved_step_size == pytest.approx(1.0)
        assert AdversarialConfig(step_size=0.1).resolved_step_size == pytest.approx(0.1)


class TestAdversarialTraining:
    def test_trains_and_forces_eager(self, rng):
        acfgs = AttributeScaler().fit_transform(toy_dataset(rng))
        trainer = Trainer(adversarial_config())
        history = trainer.train(small_model(), acfgs)
        assert history.num_epochs == 3
        assert all(np.isfinite(loss) for loss in history.train_losses)
        # The compiled tape has no input-gradient channel, so the
        # adversarial path must stay on the eager autograd.
        assert trainer.last_compiled is None

    def test_deterministic_under_fixed_seed(self, rng):
        acfgs = AttributeScaler().fit_transform(toy_dataset(rng))
        first = Trainer(adversarial_config()).train(small_model(), acfgs)
        second = Trainer(adversarial_config()).train(small_model(), acfgs)
        assert first.train_losses == second.train_losses

    def test_adversarial_mix_changes_training(self, rng):
        acfgs = AttributeScaler().fit_transform(toy_dataset(rng))
        clean = Trainer(
            adversarial_config(adversarial=None)
        ).train(small_model(), acfgs)
        defended = Trainer(adversarial_config()).train(small_model(), acfgs)
        assert clean.train_losses != defended.train_losses

    def test_divergent_inner_attack_halts(self, rng, monkeypatch):
        acfgs = AttributeScaler().fit_transform(toy_dataset(rng))
        monkeypatch.setattr(
            trainer_module,
            "perturb_batch_scaled",
            lambda *args, **kwargs: ([], float("nan")),
        )
        with pytest.raises(TrainingDivergedError, match="inner-attack"):
            Trainer(adversarial_config()).train(small_model(), acfgs)

    def test_divergent_inner_attack_recorded_when_not_halting(
        self, rng, monkeypatch
    ):
        acfgs = AttributeScaler().fit_transform(toy_dataset(rng))
        monkeypatch.setattr(
            trainer_module,
            "perturb_batch_scaled",
            lambda *args, **kwargs: ([], float("nan")),
        )
        history = Trainer(
            adversarial_config(halt_on_divergence=False)
        ).train(small_model(), acfgs)
        assert history.diverged
        assert history.diverged_epoch == 0


class TestPerturbBatchScaled:
    def test_ball_and_frozen_channels(self, rng):
        acfgs = AttributeScaler().fit_transform(toy_dataset(rng))[:6]
        labels = np.array([g.label for g in acfgs], dtype=np.int64)
        model = small_model()
        attacked, loss = perturb_batch_scaled(
            model, acfgs, labels, epsilon=0.5, steps=2, step_size=0.4,
            rng=np.random.default_rng(0),
        )
        assert np.isfinite(loss)
        offspring = DEFAULT_ATTRIBUTES.index("offspring")
        for clean, adv in zip(acfgs, attacked):
            delta = np.abs(adv.attributes - clean.attributes)
            assert delta.max() <= 0.5 + 1e-9
            # offspring is structural and must never move.
            assert delta[:, offspring].max() == 0.0  # repro: allow[float-equality] — frozen channel must be bit-identical
            np.testing.assert_array_equal(adv.edges, clean.edges)

    def test_no_rng_starts_from_clean_sample(self, rng):
        acfgs = AttributeScaler().fit_transform(toy_dataset(rng))[:4]
        labels = np.array([g.label for g in acfgs], dtype=np.int64)
        model = small_model()
        first, _ = perturb_batch_scaled(
            model, acfgs, labels, epsilon=0.5, steps=1, step_size=0.25
        )
        second, _ = perturb_batch_scaled(
            model, acfgs, labels, epsilon=0.5, steps=1, step_size=0.25
        )
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.attributes, b.attributes)
