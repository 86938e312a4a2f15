"""Tests for the gradient-guided feature-space ACFG attack."""

import numpy as np
import pytest

from repro.adv import AttackConfig, FeatureSpaceAttack, input_gradients
from repro.exceptions import ConfigurationError
from repro.features.validator import is_semantically_valid

ATTACK = AttackConfig(epsilon=1.0, steps=4, seed=7)


@pytest.fixture(scope="module")
def outcome(tiny_magic, tiny_mskcfg):
    attack = FeatureSpaceAttack(tiny_magic.model, tiny_magic.scaler, ATTACK)
    return attack.attack(tiny_mskcfg.acfgs)


class TestAttackConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AttackConfig(epsilon=0.0)
        with pytest.raises(ConfigurationError):
            AttackConfig(steps=0)
        with pytest.raises(ConfigurationError):
            AttackConfig(step_size=-0.1)

    def test_default_step_size_reaches_the_ball(self):
        config = AttackConfig(epsilon=2.0, steps=5)
        assert config.resolved_step_size == pytest.approx(1.0)
        assert AttackConfig(step_size=0.25).resolved_step_size == pytest.approx(0.25)


class TestInputGradients:
    def test_gradient_shape_and_model_state_restored(self, tiny_magic, tiny_mskcfg):
        scaled = tiny_magic.scaler.transform(tiny_mskcfg.acfgs[:4])
        labels = np.array([g.label for g in scaled], dtype=np.int64)
        tiny_magic.model.train(True)
        gradients, boundaries, loss, probs = input_gradients(
            tiny_magic.model, scaled, labels
        )
        assert tiny_magic.model.training  # restored
        tiny_magic.model.train(False)
        total_vertices = sum(g.num_vertices for g in scaled)
        assert gradients.shape == (total_vertices, 11)
        assert boundaries[-1] == total_vertices
        assert np.isfinite(loss)
        assert probs.shape == (4, tiny_mskcfg.num_classes)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestFeatureSpaceAttack:
    def test_requires_fitted_scaler(self, tiny_magic):
        from repro.features.scaling import AttributeScaler

        with pytest.raises(ConfigurationError):
            FeatureSpaceAttack(tiny_magic.model, AttributeScaler())

    def test_rejects_empty_and_unlabelled(self, tiny_magic, tiny_mskcfg):
        attack = FeatureSpaceAttack(tiny_magic.model, tiny_magic.scaler, ATTACK)
        with pytest.raises(ConfigurationError):
            attack.attack([])
        stripped = tiny_mskcfg.acfgs[0]
        unlabelled = type(stripped)(
            edges=stripped.edges,
            attributes=stripped.attributes,
            label=None,
            name=stripped.name,
        )
        with pytest.raises(ConfigurationError):
            attack.attack([unlabelled])

    def test_all_adversarial_samples_semantically_valid(self, outcome):
        for graph in outcome.adversarial_acfgs:
            assert is_semantically_valid(graph.attributes, graph.out_degrees())

    def test_outcome_aligned_with_input(self, outcome, tiny_mskcfg):
        assert len(outcome.records) == len(tiny_mskcfg.acfgs)
        assert len(outcome.adversarial_acfgs) == len(tiny_mskcfg.acfgs)
        assert outcome.clean_probabilities.shape == (
            len(tiny_mskcfg.acfgs), tiny_mskcfg.num_classes,
        )
        for record, acfg in zip(outcome.records, tiny_mskcfg.acfgs):
            assert record.name == acfg.name
            assert record.label == acfg.label

    def test_attack_reduces_accuracy(self, outcome, tiny_mskcfg):
        labels = np.array([g.label for g in tiny_mskcfg.acfgs])
        clean = (outcome.clean_probabilities.argmax(axis=1) == labels).mean()
        adv = (outcome.adversarial_probabilities.argmax(axis=1) == labels).mean()
        assert adv < clean
        assert 0.0 <= outcome.success_rate <= 1.0
        assert outcome.success_rate > 0.0

    def test_mutable_perturbation_stays_inside_the_ball(
        self, outcome, tiny_magic, tiny_mskcfg
    ):
        """Every channel except total/vertex respects epsilon exactly.

        ``total_instructions``/``vertex_instructions`` may overshoot
        when the projector raises them to cover the category sum, so
        they only get a slack bound.
        """
        from repro.features.attributes import attribute_names

        names = attribute_names()
        strict = [
            i for i, name in enumerate(names)
            if name not in ("total_instructions", "vertex_instructions")
        ]
        clean_scaled = tiny_magic.scaler.transform(tiny_mskcfg.acfgs)
        adv_scaled = tiny_magic.scaler.transform(outcome.adversarial_acfgs)
        for clean, adv in zip(clean_scaled, adv_scaled):
            delta = np.abs(adv.attributes - clean.attributes)
            assert delta[:, strict].max() <= ATTACK.epsilon + 1e-6
            assert delta.max() <= 2.0 * ATTACK.epsilon + 1e-6

    def test_adjacency_and_labels_untouched(self, outcome, tiny_mskcfg):
        for adv, clean in zip(outcome.adversarial_acfgs, tiny_mskcfg.acfgs):
            np.testing.assert_array_equal(adv.edges, clean.edges)
            assert adv.label == clean.label

    def test_deterministic_under_fixed_seed(self, outcome, tiny_magic, tiny_mskcfg):
        repeat = FeatureSpaceAttack(
            tiny_magic.model, tiny_magic.scaler, ATTACK
        ).attack(tiny_mskcfg.acfgs)
        np.testing.assert_array_equal(
            outcome.adversarial_probabilities, repeat.adversarial_probabilities
        )
        for first, second in zip(
            outcome.adversarial_acfgs, repeat.adversarial_acfgs
        ):
            np.testing.assert_array_equal(first.attributes, second.attributes)
        assert [r.flipped for r in outcome.records] == [
            r.flipped for r in repeat.records
        ]

    def test_seed_changes_the_attack(self, outcome, tiny_magic, tiny_mskcfg):
        other = FeatureSpaceAttack(
            tiny_magic.model,
            tiny_magic.scaler,
            AttackConfig(epsilon=1.0, steps=4, seed=8),
        ).attack(tiny_mskcfg.acfgs)
        assert any(
            not np.array_equal(first.attributes, second.attributes)
            for first, second in zip(
                outcome.adversarial_acfgs, other.adversarial_acfgs
            )
        )
