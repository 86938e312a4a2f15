"""Predictions replay the model's cached float64 tape; eager stays rare.

``Trainer.predict_proba`` without a ``compiled`` argument replays the
tape cached for the model (:func:`repro.nn.tape.inference_tape`): one
capture, then replays for every graph size, bit-exact with eager.
Training runs eagerly only where the tape cannot serve — adversarial
training, which needs input gradients, and a model the tape refuses —
and its validation pass still replays the inference tape.
"""

import warnings

import numpy as np
import pytest

import repro.nn.tape as tape_module
from repro.core.dgcnn import POOLING_TYPES, ModelConfig
from repro.core.magic import Magic
from repro.nn.tape import inference_tape
from repro.train.batching import collate_graphs
from repro.train.trainer import AdversarialConfig, Trainer, TrainingConfig

from tests.nn.test_tape import UntapeableModel
from tests.train.test_trainer import small_model, toy_dataset


@pytest.fixture
def captures(monkeypatch):
    """Every tape capture in the process while the test runs."""
    counted = []
    original = tape_module.compile_output

    def counting(*args, **kwargs):
        counted.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(tape_module, "compile_output", counting)
    return counted


class TestDefaultPredictionTape:
    @pytest.mark.parametrize("pooling", POOLING_TYPES)
    def test_magic_predict_proba_replays_bit_exact(self, pooling):
        rng = np.random.default_rng(83)
        graphs = toy_dataset(rng, n_per_class=4)
        magic = Magic(
            ModelConfig(num_attributes=11, num_classes=2, pooling=pooling,
                        graph_conv_sizes=(8, 8), sort_k=4, amp_grid=(2, 2),
                        conv2d_channels=4, conv1d_channels=(4, 8),
                        conv1d_kernel=3, hidden_size=8, dropout=0.0),
            ["benign", "malware"],
        )
        magic.scaler.fit(graphs)
        for graph in graphs:  # single graphs of 4..8 vertices
            out = magic.predict_proba([graph])
            scaled = magic.scaler.transform([graph])
            expected = np.exp(magic.model(collate_graphs(scaled)).data)
            assert np.array_equal(out, expected)  # repro: allow[float-equality] — bit-exactness is the contract under test
        stats = inference_tape(magic.model).stats()
        assert stats["captures"] == 1
        assert stats["replays"] == len(graphs) - 1

    def test_compiled_training_then_prediction_captures(self, captures):
        # The positive control for the eager tests below: the counter
        # sees the training tape's two modes and the prediction tape.
        rng = np.random.default_rng(89)
        data = toy_dataset(rng)
        model = small_model()
        Trainer(TrainingConfig(epochs=1, batch_size=8)).train(
            model, data[:12], data[12:])
        assert len(captures) == 2
        Trainer.predict_proba(model, data[:3])
        assert len(captures) == 3


class TestEagerStaysEager:
    """Eager runs only where the tape cannot serve: PGD-AT training and
    a model the tape refuses.  Validation still replays the model's
    inference tape."""

    def test_adversarial_training(self, captures):
        rng = np.random.default_rng(101)
        data = toy_dataset(rng)
        model = small_model()
        trainer = Trainer(TrainingConfig(
            epochs=2, batch_size=8, learning_rate=5e-3,
            adversarial=AdversarialConfig(steps=2, epsilon=0.5),
        ))
        trainer.train(model, data[:12], data[12:])
        assert trainer.last_compiled is None
        # Training captured nothing: the one capture is the validation
        # pass's, which replays on the second epoch.
        assert len(captures) == 1
        stats = inference_tape(model).stats()
        assert stats["captures"] == 1 and stats["replays"] == 1

    def test_refused_model_trains_eagerly(self):
        rng = np.random.default_rng(103)
        data = toy_dataset(rng)
        model = UntapeableModel()
        trainer = Trainer(TrainingConfig(epochs=3, batch_size=8))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            history = trainer.train(model, data[:12], data[12:])
        fallbacks = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(fallbacks) == 1
        assert "falls back to the eager path" in str(fallbacks[0].message)
        assert trainer.last_compiled is None
        assert history.num_epochs == 3
        assert len(history.validation_losses) == 3
        assert all(np.isfinite(loss) for loss in history.train_losses)
        assert inference_tape(model).refused is not None
