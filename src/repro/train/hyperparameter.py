"""Exhaustive hyper-parameter search (Section V-B, Table II).

The paper sweeps 208 settings: 64 adaptive-pooling models, 96
sort-pooling + Conv1D models, and 48 sort-pooling + WeightedVertices
models, five-fold cross-validating each and ranking by minimum
fold-averaged validation loss.  :func:`table2_grid` reconstructs that
grid structurally (same axes, same applicability footnotes);
:class:`GridSearch` evaluates any grid (typically a reduced one — the
full grid on a CPU-only substrate is a multi-day run) with the same
selection criterion.

Forward-pass throughput dominates the 208-setting x 5-fold sweep, so
every evaluated setting trains on the batched sparse execution path
(``GraphBatch`` collation inside ``Trainer``); there is no per-graph
fallback to configure.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.dgcnn import (
    POOLING_ADAPTIVE,
    POOLING_SORT_CONV1D,
    POOLING_SORT_WEIGHTED,
    ModelConfig,
)
from repro.core.sort_pooling import resolve_sort_pooling_k
from repro.datasets.loader import MalwareDataset
from repro.exceptions import ConfigurationError
from repro.train.cross_validation import CrossValidationResult
from repro.train.trainer import TrainingConfig


@dataclasses.dataclass(frozen=True)
class HyperparameterSetting:
    """One grid point: the tunable axes of Table II."""

    pooling: str
    pooling_ratio: float
    graph_conv_sizes: Tuple[int, ...]
    conv2d_channels: Optional[int] = None      # adaptive pooling only
    conv1d_channels: Optional[Tuple[int, int]] = None  # sort+conv1d only
    conv1d_kernel: Optional[int] = None        # sort+conv1d only
    dropout: float = 0.1
    batch_size: int = 10
    weight_decay: float = 1e-4

    def describe(self) -> str:
        parts = [
            f"pool={self.pooling}",
            f"ratio={self.pooling_ratio}",
            f"gconv={self.graph_conv_sizes}",
        ]
        if self.conv2d_channels is not None:
            parts.append(f"ch2d={self.conv2d_channels}")
        if self.conv1d_channels is not None:
            parts.append(f"ch1d={self.conv1d_channels}")
        if self.conv1d_kernel is not None:
            parts.append(f"k1d={self.conv1d_kernel}")
        parts.extend(
            [
                f"dropout={self.dropout}",
                f"batch={self.batch_size}",
                f"l2={self.weight_decay}",
            ]
        )
        return " ".join(parts)


#: Table II value ranges.
POOLING_RATIOS = (0.2, 0.64)
GRAPH_CONV_SIZES_SORT = ((32, 32, 32, 1), (32, 32, 32, 32), (128, 64, 32, 32))
GRAPH_CONV_SIZES_ADAPTIVE = ((32, 32, 32, 32), (128, 64, 32, 32))
CONV2D_CHANNELS = (16, 32)
CONV1D_CHANNEL_PAIRS = ((16, 32),)
CONV1D_KERNEL_SIZES = (5, 7)
DROPOUT_RATES = (0.1, 0.5)
BATCH_SIZES = (10, 40)
WEIGHT_DECAYS = (1e-4, 5e-4)


def table2_grid() -> List[HyperparameterSetting]:
    """The full Table II grid, honouring the applicability footnotes.

    The ``(32, 32, 32, 1)`` graph-convolution shape exists "only for sort
    pooling" (footnote 1); 2-D convolution channels apply only to
    adaptive pooling (footnote 3); the Conv1D channel pair and kernel
    size apply only to sort pooling with the Conv1D remaining layer
    (footnotes 4-5).
    """
    settings: List[HyperparameterSetting] = []
    shared = list(itertools.product(DROPOUT_RATES, BATCH_SIZES, WEIGHT_DECAYS))

    for ratio, sizes, channels in itertools.product(
        POOLING_RATIOS, GRAPH_CONV_SIZES_ADAPTIVE, CONV2D_CHANNELS
    ):
        for dropout, batch, decay in shared:
            settings.append(
                HyperparameterSetting(
                    pooling=POOLING_ADAPTIVE,
                    pooling_ratio=ratio,
                    graph_conv_sizes=sizes,
                    conv2d_channels=channels,
                    dropout=dropout,
                    batch_size=batch,
                    weight_decay=decay,
                )
            )

    for ratio, sizes, pair, kernel in itertools.product(
        POOLING_RATIOS, GRAPH_CONV_SIZES_SORT, CONV1D_CHANNEL_PAIRS, CONV1D_KERNEL_SIZES
    ):
        for dropout, batch, decay in shared:
            settings.append(
                HyperparameterSetting(
                    pooling=POOLING_SORT_CONV1D,
                    pooling_ratio=ratio,
                    graph_conv_sizes=sizes,
                    conv1d_channels=pair,
                    conv1d_kernel=kernel,
                    dropout=dropout,
                    batch_size=batch,
                    weight_decay=decay,
                )
            )

    for ratio, sizes in itertools.product(POOLING_RATIOS, GRAPH_CONV_SIZES_SORT):
        for dropout, batch, decay in shared:
            settings.append(
                HyperparameterSetting(
                    pooling=POOLING_SORT_WEIGHTED,
                    pooling_ratio=ratio,
                    graph_conv_sizes=sizes,
                    dropout=dropout,
                    batch_size=batch,
                    weight_decay=decay,
                )
            )
    return settings


def reduced_table2_grid(limit: Optional[int] = None) -> List[HyperparameterSetting]:
    """A structurally representative slice of Table II.

    One grid point per (pooling, pooling-ratio) cell — six settings, two
    per architecture — covering every pooling type and both ratios while
    staying sweepable on a laptop.  ``limit`` truncates further (smoke
    tests and benchmarks use 2-4 settings).
    """
    seen = set()
    settings: List[HyperparameterSetting] = []
    for setting in table2_grid():
        key = (setting.pooling, setting.pooling_ratio)
        if key in seen:
            continue
        seen.add(key)
        settings.append(setting)
    if limit is not None:
        settings = settings[:limit]
    return settings


def dataset_invariants(dataset: MalwareDataset) -> Tuple[int, List[int]]:
    """Validated ``(num_attributes, graph_sizes)``, hoisted once per sweep.

    Every grid point needs the attribute width (model input channels)
    and the graph-size distribution (SortPooling ``k`` resolution); both
    are dataset-level invariants, so sweeps compute them here once
    instead of per setting.  Raises :class:`ConfigurationError` — rather
    than an ``IndexError`` deep inside the first setting — when the
    dataset has no ACFGs (e.g. a corpus container emptied after
    construction).
    """
    if not dataset.acfgs:
        raise ConfigurationError(
            "dataset contains no ACFGs: cannot derive model dimensions "
            "for a hyper-parameter sweep over an empty corpus"
        )
    return dataset.acfgs[0].num_attributes, dataset.graph_sizes()


def amp_grid_from_ratio(ratio: float) -> Tuple[int, int]:
    """Map a Table II pooling ratio to an AMP output grid.

    The paper reuses one "Pooling Ratio" axis for both architectures.
    For SortPooling it selects ``k`` (a size quantile); for AMP we
    interpret it as scaling the output grid: ``ratio * 10`` rounded,
    floored at 2 — ratio 0.2 gives a 2x2 grid, ratio 0.64 a 6x6 grid
    (Figure 6 illustrates 3x3).  EXPERIMENTS.md records this
    interpretation.
    """
    side = max(2, int(round(ratio * 10)))
    return (side, side)


def setting_to_model_config(
    setting: HyperparameterSetting,
    num_attributes: int,
    num_classes: int,
    graph_sizes: Sequence[int],
    hidden_size: int = 128,
    seed: int = 0,
) -> ModelConfig:
    """Resolve a grid point into a concrete :class:`ModelConfig`.

    The SortPooling ``k`` is resolved from the training-set graph-size
    distribution; the AMP grid from :func:`amp_grid_from_ratio`.
    """
    kwargs: Dict = dict(
        num_attributes=num_attributes,
        num_classes=num_classes,
        pooling=setting.pooling,
        graph_conv_sizes=setting.graph_conv_sizes,
        dropout=setting.dropout,
        hidden_size=hidden_size,
        seed=seed,
    )
    if setting.pooling == POOLING_ADAPTIVE:
        kwargs["amp_grid"] = amp_grid_from_ratio(setting.pooling_ratio)
        kwargs["conv2d_channels"] = setting.conv2d_channels or 16
        kwargs["sort_k"] = 2  # unused by the adaptive architecture
    else:
        kwargs["sort_k"] = resolve_sort_pooling_k(
            list(graph_sizes), setting.pooling_ratio
        )
        if setting.pooling == POOLING_SORT_CONV1D:
            kwargs["conv1d_channels"] = setting.conv1d_channels or (16, 32)
            kwargs["conv1d_kernel"] = setting.conv1d_kernel or 5
    return ModelConfig(**kwargs)


@dataclasses.dataclass
class GridSearchEntry:
    setting: HyperparameterSetting
    result: CrossValidationResult

    @property
    def score(self) -> float:
        return self.result.score


@dataclasses.dataclass
class GridSearchResult:
    """Ranked sweep outcome.

    ``failures`` mirrors ``ExtractionReport.failures`` from the ACFG
    pipeline: settings whose folds kept failing through their retries
    are reported here (as :class:`~repro.train.sweep.SweepFailure`
    records) instead of aborting the sweep; they carry no entry.
    """

    entries: List[GridSearchEntry]
    failures: List = dataclasses.field(default_factory=list)

    @property
    def best(self) -> GridSearchEntry:
        return min(self.entries, key=lambda entry: entry.score)

    def ranking(self) -> List[GridSearchEntry]:
        return sorted(self.entries, key=lambda entry: entry.score)


class GridSearch:
    """Exhaustively evaluate settings with k-fold CV and rank by score."""

    def __init__(
        self,
        dataset: MalwareDataset,
        epochs: int = 100,
        n_splits: int = 5,
        learning_rate: float = 1e-3,
        seed: int = 0,
        hidden_size: int = 128,
        progress: Optional[Callable[[int, int, HyperparameterSetting, float], None]] = None,
    ) -> None:
        if len(dataset) < n_splits:
            raise ConfigurationError(
                f"dataset of {len(dataset)} samples cannot be {n_splits}-folded"
            )
        self.dataset = dataset
        self.epochs = epochs
        self.n_splits = n_splits
        self.learning_rate = learning_rate
        self.seed = seed
        self.hidden_size = hidden_size
        self.progress = progress

    def configs_for(
        self,
        setting: HyperparameterSetting,
        num_attributes: int,
        graph_sizes: Sequence[int],
    ) -> Tuple[ModelConfig, TrainingConfig]:
        """Resolve one grid point into its model and training configs.

        The one resolution :class:`~repro.train.sweep.SweepExecutor`
        plans every fold from.
        """
        model_config = setting_to_model_config(
            setting,
            num_attributes=num_attributes,
            num_classes=self.dataset.num_classes,
            graph_sizes=graph_sizes,
            hidden_size=self.hidden_size,
            seed=self.seed,
        )
        training_config = TrainingConfig(
            epochs=self.epochs,
            batch_size=setting.batch_size,
            learning_rate=self.learning_rate,
            weight_decay=setting.weight_decay,
            seed=self.seed,
        )
        return model_config, training_config

    def run(
        self,
        settings: Iterable[HyperparameterSetting],
        n_jobs: int = 1,
        journal: Optional[str] = None,
        resume: bool = False,
    ) -> GridSearchResult:
        """Evaluate ``settings`` through :class:`~repro.train.sweep.SweepExecutor`.

        ``n_jobs > 1`` fans the (setting x fold) product out over
        supervised worker processes; a ``journal`` path checkpoints
        completed folds so ``resume=True`` skips them on a re-run.  The
        result, failures included, is the same at every ``n_jobs``.
        """
        from repro.train.sweep import SweepExecutor  # avoid import cycle

        executor = SweepExecutor(
            self, n_jobs=n_jobs, journal_path=journal, resume=resume
        )
        return executor.run(settings).grid_result
