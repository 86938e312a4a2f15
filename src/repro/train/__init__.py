"""Training harness: loop, CV, grid search, metrics (Section V-B)."""

from repro.train.analysis import (
    ConfusionPair,
    format_confusions,
    hardest_families,
    top_confusions,
)
from repro.train.batching import (
    BatchCollator,
    collate_graphs,
    iterate_minibatches,
)
from repro.train.cross_validation import (
    CrossValidationResult,
    FoldResult,
    FoldSpec,
    assemble_cv_result,
    cross_validate,
    cross_validate_config,
    make_fold_specs,
    run_fold,
)
from repro.train.hyperparameter import (
    GridSearch,
    GridSearchEntry,
    GridSearchResult,
    HyperparameterSetting,
    amp_grid_from_ratio,
    dataset_invariants,
    reduced_table2_grid,
    setting_to_model_config,
    table2_grid,
)
from repro.train.sweep import (
    SweepExecutor,
    SweepFailure,
    SweepReport,
    setting_key,
)
from repro.train.metrics import (
    ClassificationReport,
    ClassScores,
    average_reports,
    confusion_matrix,
    evaluate_predictions,
    log_loss,
    precision_recall_f1,
)
from repro.train.trainer import Trainer, TrainingConfig, TrainingHistory

__all__ = [
    "BatchCollator",
    "ClassScores",
    "ClassificationReport",
    "ConfusionPair",
    "format_confusions",
    "hardest_families",
    "top_confusions",
    "CrossValidationResult",
    "FoldResult",
    "FoldSpec",
    "GridSearch",
    "GridSearchEntry",
    "GridSearchResult",
    "HyperparameterSetting",
    "SweepExecutor",
    "SweepFailure",
    "SweepReport",
    "Trainer",
    "TrainingConfig",
    "TrainingHistory",
    "amp_grid_from_ratio",
    "assemble_cv_result",
    "average_reports",
    "collate_graphs",
    "confusion_matrix",
    "cross_validate",
    "cross_validate_config",
    "dataset_invariants",
    "evaluate_predictions",
    "iterate_minibatches",
    "log_loss",
    "make_fold_specs",
    "precision_recall_f1",
    "reduced_table2_grid",
    "run_fold",
    "setting_key",
    "setting_to_model_config",
    "table2_grid",
]
