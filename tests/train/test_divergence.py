"""Tests for the training-divergence guards (NaN/Inf loss or gradients).

A diverged run inside a sweep must become a structured failure — never a
NaN score silently ranked against finite ones, and never a retry (the
divergence is a deterministic property of setting x fold x seed).
"""

import numpy as np
import pytest

import repro.train.sweep as sweep_module
from repro.core.dgcnn import ModelConfig, build_model
from repro.datasets import generate_mskcfg_dataset
from repro.exceptions import TrainingDivergedError
from repro.nn.layers import Module, Parameter
from repro.nn.tensor import Tensor
from repro.train.hyperparameter import GridSearch, HyperparameterSetting
from repro.train.sweep import SweepExecutor
from repro.train.trainer import Trainer, TrainingConfig, TrainingHistory

from tests.conftest import acfg_from_dense

# ScriptedModel's custom op is refused by the tape, so each run trains
# eagerly after the trainer's one fallback warning.
pytestmark = pytest.mark.filterwarnings(
    "ignore:compiled execution unavailable:RuntimeWarning"
)


class ScriptedModel(Module):
    """Emits uniform log-probs; poisons one scheduled forward call.

    ``mode="nan-loss"`` returns NaN log-probs on call ``trip_call`` (the
    loss check must fire before ``backward``); ``mode="nan-grad"``
    returns finite log-probs whose backward writes a NaN gradient into
    the parameter (the gradient check must fire after ``backward``).

    Call 0 is the tape's refused capture of the first batch; the eager
    training step of epoch ``e``, batch ``b`` is call ``1 + 2 * e + b``
    at two batches an epoch.
    """

    def __init__(self, mode=None, trip_call=-1):
        super().__init__()
        self.weight = Parameter(np.zeros(1))
        self.mode = mode
        self.trip_call = trip_call
        self.calls = 0

    def forward(self, batch):
        call = self.calls
        self.calls += 1
        data = np.full((batch.num_graphs, 2), np.log(0.5))
        grad = np.zeros(1)
        if call == self.trip_call:
            if self.mode == "nan-loss":
                data = np.full((batch.num_graphs, 2), np.nan)
            else:
                grad = np.full(1, np.nan)
        return Tensor._make(data, (self.weight,), lambda g: [grad])


def tiny_acfgs(count=8):
    adjacency = np.zeros((2, 2))
    adjacency[0, 1] = 1.0
    attributes = np.ones((2, 11))
    return [
        acfg_from_dense(adjacency=adjacency, attributes=attributes, label=i % 2)
        for i in range(count)
    ]


def config(**overrides):
    kwargs = dict(epochs=3, batch_size=4, seed=0)
    kwargs.update(overrides)
    return TrainingConfig(**kwargs)


class TestHaltOnDivergence:
    def test_nan_loss_raises_with_location(self):
        # 8 samples / batch_size 4 = 2 batches per epoch; forward call 4
        # is epoch 1, batch 1.
        model = ScriptedModel(mode="nan-loss", trip_call=4)
        with pytest.raises(TrainingDivergedError) as excinfo:
            Trainer(config()).train(model, tiny_acfgs())
        assert excinfo.value.epoch == 1
        assert excinfo.value.batch == 1
        assert "loss" in str(excinfo.value)

    def test_nan_gradient_raises(self):
        model = ScriptedModel(mode="nan-grad", trip_call=1)
        with pytest.raises(TrainingDivergedError) as excinfo:
            Trainer(config()).train(model, tiny_acfgs())
        assert excinfo.value.epoch == 0
        assert excinfo.value.batch == 0
        assert "gradients" in str(excinfo.value)

    def test_poisoned_real_model_raises(self):
        # Integration: NaN parameters in an actual DGCNN surface as a
        # structured divergence, not as a NaN ranked score.
        model = build_model(
            ModelConfig(
                num_attributes=11, num_classes=2, pooling="sort_weighted",
                graph_conv_sizes=(6, 6), sort_k=2, hidden_size=6,
                dropout=0.0, seed=0,
            )
        )
        model.parameters()[0].data[...] = np.nan
        with pytest.raises(TrainingDivergedError):
            Trainer(config(epochs=1)).train(model, tiny_acfgs())

    def test_clean_run_not_flagged(self):
        history = Trainer(config()).train(ScriptedModel(), tiny_acfgs())
        assert not history.diverged
        assert history.num_epochs == 3


class TestSoftStop:
    def test_history_marks_divergence_and_truncates(self):
        model = ScriptedModel(mode="nan-loss", trip_call=3)
        history = Trainer(
            config(halt_on_divergence=False)
        ).train(model, tiny_acfgs())
        assert history.diverged
        assert history.diverged_epoch == 1
        assert history.diverged_batch == 0
        # Epoch 0 completed; the partial diverged epoch is dropped.
        assert history.num_epochs == 1

    def test_partial_epoch_never_recorded(self):
        model = ScriptedModel(mode="nan-grad", trip_call=1)
        history = Trainer(
            config(halt_on_divergence=False)
        ).train(model, tiny_acfgs())
        assert history.num_epochs == 0
        assert history.diverged_epoch == 0

    def test_history_round_trips_through_journal_dict(self):
        model = ScriptedModel(mode="nan-loss", trip_call=3)
        history = Trainer(
            config(halt_on_divergence=False)
        ).train(model, tiny_acfgs())
        clone = TrainingHistory.from_dict(history.to_dict())
        assert clone.diverged
        assert clone.diverged_epoch == history.diverged_epoch

    def test_legacy_journal_payload_still_loads(self):
        # Pre-divergence sweep journals lack the new fields.
        payload = TrainingHistory().to_dict()
        payload.pop("diverged_epoch")
        payload.pop("diverged_batch")
        history = TrainingHistory.from_dict(payload)
        assert not history.diverged


class TestSweepRecordsDivergence:
    def test_diverged_fold_fails_once_without_retry(self, monkeypatch):
        def diverging_run_fold(spec, dataset, model_factory=None):
            raise TrainingDivergedError(
                "training loss is not finite", epoch=0, batch=1, loss=float("nan")
            )

        monkeypatch.setattr(sweep_module, "run_fold", diverging_run_fold)
        dataset = generate_mskcfg_dataset(total=30, seed=7, minimum_per_family=4)
        search = GridSearch(dataset, epochs=2, n_splits=2, hidden_size=8, seed=0)
        settings = [
            HyperparameterSetting(
                pooling="sort_weighted", pooling_ratio=0.2,
                graph_conv_sizes=(6, 6), dropout=0.0, batch_size=8,
            )
        ]
        report = SweepExecutor(search, n_jobs=1, max_retries=2).run(settings)
        assert len(report.failures) == search.n_splits
        for failure in report.failures:
            assert failure.attempts == 1  # deterministic: never retried
            assert "TrainingDivergedError" in failure.error
