"""Five-fold cross validation (Section V-B).

"In each fold of the cross validation, four subsets (80%) of the data are
used for training a brand new model initialized randomly, and the rest
subset ... is used to evaluate the resultant model."  The per-epoch
validation losses are averaged across folds and the minimum over epochs
is the model's *score*, which hyper-parameter search compares.

Every fold runs the batch-first execution path: ``Trainer`` collates
minibatches into block-diagonal :class:`~repro.core.batched.GraphBatch`
operators (memoized across epochs for the fixed validation chunks), so
the 5-fold x many-epoch forward cost that dominates grid search runs at
one sparse matmul per layer per batch.

The unit of work is one *fold*: :class:`FoldSpec` captures everything a
fold needs (train/val indices, per-fold seed derivation, scaler policy,
and — for config-driven sweeps — the model configuration) in a
pickle-able value, :func:`run_fold` executes it, and
:func:`assemble_cv_result` folds the results back into a
:class:`CrossValidationResult`.  The serial :func:`cross_validate` loop
and :class:`~repro.train.sweep.SweepExecutor` (inline or on worker
processes) are both thin drivers over these three pieces, which is what
makes the parallel sweep bit-for-bit equivalent to the serial one.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from repro.datasets.loader import MalwareDataset
from repro.exceptions import TrainingError
from repro.features.scaling import AttributeScaler
from repro.nn.layers import Module
from repro.train.metrics import ClassificationReport, average_reports
from repro.train.trainer import Trainer, TrainingConfig, TrainingHistory

if TYPE_CHECKING:  # runtime import stays inside run_fold: repro.core
    from repro.core.dgcnn import ModelConfig  # imports repro.train

#: A factory producing a freshly initialized model for each fold.
ModelFactory = Callable[[int], Module]

#: Per-fold model-seed stride: fold ``i`` trains a model seeded
#: ``config.seed + MODEL_SEED_STRIDE * i`` (the grid-search convention).
MODEL_SEED_STRIDE = 1000


@dataclasses.dataclass(frozen=True)
class FoldSpec:
    """One fold of one CV run, as a pickle-able work unit.

    ``training_config`` holds the *base* (fold-0) configuration; the
    per-fold seed derivation (``seed + fold_index`` for the trainer,
    ``seed + MODEL_SEED_STRIDE * fold_index`` for the model) happens
    inside :func:`run_fold`, so a spec shipped to a worker process
    reproduces exactly what the serial loop would have done in place.

    ``model_config`` drives the config-based path used by grid search;
    callers with an arbitrary (non-pickle-able) model factory leave it
    ``None`` and pass the factory to :func:`run_fold` directly — that
    path cannot cross a process boundary.
    """

    fold_index: int
    train_indices: Tuple[int, ...]
    val_indices: Tuple[int, ...]
    training_config: TrainingConfig
    model_config: Optional["ModelConfig"] = None
    scale_attributes: bool = True


@dataclasses.dataclass
class FoldResult:
    """What one fold contributes to a :class:`CrossValidationResult`."""

    fold_index: int
    history: TrainingHistory
    report: ClassificationReport


@dataclasses.dataclass
class CrossValidationResult:
    """Everything the paper's evaluation extracts from a CV run."""

    fold_histories: List[TrainingHistory]
    fold_reports: List[ClassificationReport]
    averaged_report: ClassificationReport
    epoch_validation_losses: np.ndarray

    @property
    def score(self) -> float:
        """Minimum fold-averaged validation loss (the Table II criterion)."""
        return float(self.epoch_validation_losses.min())

    @property
    def accuracy(self) -> float:
        return self.averaged_report.accuracy

    @property
    def log_loss(self) -> float:
        return self.averaged_report.log_loss


def make_fold_specs(
    dataset: MalwareDataset,
    training_config: TrainingConfig,
    model_config: Optional["ModelConfig"] = None,
    n_splits: int = 5,
    scale_attributes: bool = True,
    seed: int = 0,
) -> List[FoldSpec]:
    """Materialize the stratified k-fold split into fold work units."""
    return [
        FoldSpec(
            fold_index=fold_index,
            train_indices=tuple(train_idx),
            val_indices=tuple(val_idx),
            training_config=training_config,
            model_config=model_config,
            scale_attributes=scale_attributes,
        )
        for fold_index, (train_idx, val_idx) in enumerate(
            dataset.stratified_kfold(n_splits=n_splits, seed=seed)
        )
    ]


def run_fold(
    spec: FoldSpec,
    dataset: MalwareDataset,
    model_factory: Optional[ModelFactory] = None,
) -> FoldResult:
    """Train and evaluate one fold; importable, so pool workers can run it.

    The attribute scaler is fitted on the fold's *training* split only,
    so "the training process never sees the testing samples".
    """
    if model_factory is None:
        if spec.model_config is None:
            raise TrainingError(
                "FoldSpec carries no model_config and no model_factory "
                "was supplied"
            )

        def model_factory(fold: int, base=spec.model_config) -> Module:
            from repro.core.dgcnn import build_model

            return build_model(
                dataclasses.replace(
                    base, seed=base.seed + MODEL_SEED_STRIDE * fold
                )
            )

    train_acfgs = [dataset.acfgs[i] for i in spec.train_indices]
    val_acfgs = [dataset.acfgs[i] for i in spec.val_indices]
    if spec.scale_attributes:
        scaler = AttributeScaler()
        train_acfgs = scaler.fit_transform(train_acfgs)
        val_acfgs = scaler.transform(val_acfgs)

    model = model_factory(spec.fold_index)
    trainer = Trainer(
        dataclasses.replace(
            spec.training_config,
            seed=spec.training_config.seed + spec.fold_index,
        )
    )
    history = trainer.train(model, train_acfgs, val_acfgs)
    # Reuse the training run's collator and tape: the fixed validation
    # chunks it memoized and replayed for the per-epoch validation pass
    # serve this final evaluation too.
    report = Trainer.evaluate(
        model,
        val_acfgs,
        family_names=dataset.family_names,
        collator=trainer.last_collator,
        compiled=trainer.last_compiled,
    )
    return FoldResult(fold_index=spec.fold_index, history=history, report=report)


def assemble_cv_result(fold_results: List[FoldResult]) -> CrossValidationResult:
    """Fold-ordered reassembly of per-fold results into the CV summary.

    Accepts results in any completion order (the parallel sweep finishes
    folds out of order) and sorts by fold index, so the assembled result
    is identical to the serial loop's.
    """
    if not fold_results:
        raise TrainingError("cross validation produced no folds")
    ordered = sorted(fold_results, key=lambda r: r.fold_index)
    histories = [r.history for r in ordered]
    reports = [r.report for r in ordered]
    lengths = {h.num_epochs for h in histories}
    if len(lengths) != 1:
        raise TrainingError(f"folds trained for differing epoch counts: {lengths}")
    per_epoch = np.mean(
        [history.validation_losses for history in histories], axis=0
    )
    return CrossValidationResult(
        fold_histories=histories,
        fold_reports=reports,
        averaged_report=average_reports(reports),
        epoch_validation_losses=per_epoch,
    )


def cross_validate(
    model_factory: ModelFactory,
    dataset: MalwareDataset,
    training_config: TrainingConfig,
    n_splits: int = 5,
    scale_attributes: bool = True,
    seed: int = 0,
) -> CrossValidationResult:
    """Run stratified k-fold CV; returns per-fold and averaged results.

    Serial driver over :func:`run_fold`; accepts any model factory,
    including closures that cannot be pickled.  Config-driven sweeps use
    :func:`cross_validate_config` (or the parallel ``SweepExecutor``)
    instead.
    """
    specs = make_fold_specs(
        dataset,
        training_config,
        n_splits=n_splits,
        scale_attributes=scale_attributes,
        seed=seed,
    )
    return assemble_cv_result(
        [run_fold(spec, dataset, model_factory=model_factory) for spec in specs]
    )


def cross_validate_config(
    model_config: "ModelConfig",
    dataset: MalwareDataset,
    training_config: TrainingConfig,
    n_splits: int = 5,
    scale_attributes: bool = True,
    seed: int = 0,
) -> CrossValidationResult:
    """Config-driven CV: fold ``i`` trains a model built from
    ``model_config`` reseeded by :data:`MODEL_SEED_STRIDE`.

    This is the fully pickle-able variant of :func:`cross_validate` —
    the same fold specs can be executed in-process or shipped to pool
    workers with identical results.
    """
    specs = make_fold_specs(
        dataset,
        training_config,
        model_config=model_config,
        n_splits=n_splits,
        scale_attributes=scale_attributes,
        seed=seed,
    )
    return assemble_cv_result([run_fold(spec, dataset) for spec in specs])
