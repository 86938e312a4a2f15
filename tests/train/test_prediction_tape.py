"""Predictions replay the model's cached float64 tape; eager stays eager.

``Trainer.predict_proba`` without a ``compiled`` argument replays the
tape cached for the model (:func:`repro.nn.tape.inference_tape`): one
capture, then replays for every graph size, bit-exact with eager.  The
eager paths — ``TrainingConfig(compiled=False)``, adversarial training,
``repro.cli train/serve --no-compiled`` and ``InferenceEngine(
compiled=False)`` — capture nothing, validation included.
"""

import numpy as np
import pytest

import repro.nn.tape as tape_module
from repro.cli import _serving_engine, build_parser, main
from repro.core.dgcnn import POOLING_TYPES, ModelConfig
from repro.core.magic import Magic
from repro.datasets import generate_mskcfg_listings
from repro.nn.tape import inference_tape
from repro.serve import InferenceEngine
from repro.train.batching import collate_graphs
from repro.train.trainer import AdversarialConfig, Trainer, TrainingConfig

from tests.train.test_trainer import small_model, toy_dataset


def count_captures(patch):
    """Count every tape capture in the process while ``patch`` holds."""
    counted = []
    original = tape_module.compile_output

    def counting(*args, **kwargs):
        counted.append(1)
        return original(*args, **kwargs)

    patch.setattr(tape_module, "compile_output", counting)
    return counted


@pytest.fixture
def captures(monkeypatch):
    return count_captures(monkeypatch)


@pytest.fixture(scope="module")
def cli_model(tmp_path_factory):
    """A model trained by ``repro.cli train --no-compiled``, published
    to a registry: its directory, its registry, the captures training
    made, and one listing to classify."""
    root = tmp_path_factory.mktemp("eager-cli")
    listing = root / "sample.asm"
    listing.write_text(next(iter(generate_mskcfg_listings(total=18, seed=3)))[1])
    model_dir, registry = str(root / "model"), str(root / "registry")
    with pytest.MonkeyPatch.context() as patch:
        counted = count_captures(patch)
        code = main([
            "train", "--dataset", "mskcfg", "--total", "36", "--epochs", "1",
            "--pooling", "sort_weighted", "--model-dir", model_dir,
            "--registry", registry, "--model-name", "eager", "--no-compiled",
        ])
    assert code == 0
    return model_dir, registry, len(counted), str(listing)


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
    def test_training_config_compiled_false(self, captures):
        rng = np.random.default_rng(97)
        data = toy_dataset(rng)
        model = small_model()
        trainer = Trainer(TrainingConfig(epochs=2, batch_size=8, compiled=False))
        trainer.train(model, data[:12], data[12:])
        assert trainer.last_compiled is None
        assert captures == []

    def test_adversarial_training(self, captures):
        rng = np.random.default_rng(101)
        data = toy_dataset(rng)
        trainer = Trainer(TrainingConfig(
            epochs=2, batch_size=8, learning_rate=5e-3,
            adversarial=AdversarialConfig(steps=2, epsilon=0.5),
        ))
        trainer.train(small_model(), data[:12], data[12:])
        assert captures == []

    def test_cli_train_no_compiled(self, cli_model):
        _, _, train_captures, _ = cli_model
        assert train_captures == 0

    def test_cli_classify_and_serve_no_compiled(self, cli_model, captures):
        model_dir, registry, _, listing = cli_model
        source = ["--registry", registry, "--model", "eager", "--no-compiled"]
        assert main(["classify", *source, listing]) == 0
        args = build_parser().parse_args(["serve", *source])
        engine = _serving_engine(args)
        with open(listing, encoding="utf-8") as handle:
            assert engine.classify_text(handle.read(), "sample").ok
        assert engine.compile_stats() is None
        assert captures == []
        # The same model predicts through its cached tape by default.
        assert main(["predict", "--model-dir", model_dir, listing]) == 0
        assert len(captures) == 1

    def test_inference_engine_compiled_false(self, cli_model, captures):
        _, registry, _, listing = cli_model
        engine = InferenceEngine.from_registry(registry, "eager",
                                               compiled=False, cache_size=0)
        with open(listing, encoding="utf-8") as handle:
            text = handle.read()
        for _ in range(2):
            assert engine.classify_text(text, "sample").ok
        assert engine.compile_stats() is None
        assert captures == []
