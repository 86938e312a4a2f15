"""Hyper-parameter sweep engine (Section V-B at scale).

The paper's model selection exhaustively cross-validates 208 settings
five-fold — 1040 independent training runs whose serial execution the
grid-search docstring calls "a multi-day run" on CPU.  Every (setting,
fold) pair is an embarrassingly parallel work unit:

* :class:`SweepExecutor` resolves a
  :class:`~repro.train.hyperparameter.GridSearch` configuration into
  pickle-able :class:`~repro.train.cross_validation.FoldSpec` units and
  runs them on the offline runner,
  :class:`~repro.workers.pool.ProcessWorkerPool` — inline for
  ``n_jobs=1``, otherwise on ``n_jobs`` supervised worker processes —
  through :func:`fold_service`.  It reassembles
  ``CrossValidationResult``/``GridSearchResult`` from the completed
  folds in fold order.  Seeds derive per fold exactly as in
  :func:`~repro.train.cross_validation.cross_validate_config`, so the
  result is bit-for-bit the same at every ``n_jobs``.
* A :class:`~repro.fileio.Journal` checkpoints every completed fold
  (setting content-hash + fold index + full history/report), so an
  interrupted multi-day sweep resumes without redoing finished work.
  Its header pins the run's settings and an order-aware digest of the
  corpus, so a journal never resumes onto another dataset.
* A fold that fails — its worker crashing included — gets
  ``max_retries`` more attempts, each a new round through the runner,
  and is then recorded as a :class:`SweepFailure` — mirroring
  ``ExtractionReport.failures`` from the ACFG pipeline — without
  aborting the rest of the sweep.  Training divergence is a
  deterministic property of (setting, fold, seed), so it is never
  retried.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.datasets.loader import MalwareDataset
from repro.exceptions import ConfigurationError, TrainingDivergedError
from repro.fileio import open_journal
from repro.train.cross_validation import (
    CrossValidationResult,
    FoldResult,
    FoldSpec,
    assemble_cv_result,
    make_fold_specs,
    run_fold,
)
from repro.train.hyperparameter import (
    GridSearch,
    GridSearchEntry,
    GridSearchResult,
    HyperparameterSetting,
    dataset_invariants,
)
from repro.train.metrics import ClassificationReport
from repro.train.trainer import TrainingHistory
from repro.workers.pool import ProcessWorkerPool

#: The fold handler's factory, resolved by name in each worker.
FOLD_ENTRYPOINT = "repro.train.sweep:fold_service"

#: Failure kind of a fold whose training diverged (never retried).
DIVERGED = "diverged"


def setting_key(setting: HyperparameterSetting) -> str:
    """Stable content hash of one grid point.

    Keys journal entries, so a resumed sweep recognizes finished folds
    across processes and grid reorderings (the key depends only on the
    setting's values, not its position in the sweep).
    """
    canonical = json.dumps(dataclasses.asdict(setting), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def dataset_digest(dataset: MalwareDataset) -> str:
    """Order-aware hash of every ACFG's edges, attributes and label.

    Two corpora can share their size, names and labels and still differ
    in every graph; the sweep journal's header carries this digest so a
    resume never splices folds trained on one corpus into another's
    ranking.
    """
    digest = hashlib.sha256()
    for acfg in dataset.acfgs:
        for array in (acfg.edges, acfg.attributes):
            digest.update(f"{array.dtype.str}{array.shape}".encode("ascii"))
            digest.update(np.ascontiguousarray(array).tobytes())
        digest.update(f"label={acfg.label};".encode("ascii"))
    return digest.hexdigest()[:16]


@dataclasses.dataclass
class SweepFailure:
    """A (setting, fold) that kept failing through its retries."""

    setting_key: str
    setting: HyperparameterSetting
    fold_index: int
    error: str
    attempts: int


@dataclasses.dataclass
class SweepReport:
    """Everything a sweep run produced, beyond the ranking itself."""

    grid_result: GridSearchResult
    failures: List[SweepFailure]
    total_folds: int
    executed_folds: int
    resumed_folds: int
    wall_seconds: float


def fold_service(
    dataset: MalwareDataset,
) -> Callable[[Tuple[int, FoldSpec]], Tuple]:
    """Entrypoint factory of the fold handler, run in every sweep mode.

    The handler takes one ``(index, FoldSpec)`` unit and never raises:
    it returns ``("ok", FoldResult)`` or ``("fail", kind, detail)``, with
    :data:`DIVERGED` as the kind of a :class:`TrainingDivergedError`.
    A failing fold so costs one work unit, and the parent applies its
    retry-then-report policy.
    """

    def handle(unit: Tuple[int, FoldSpec]) -> Tuple:
        try:
            return ("ok", run_fold(unit[1], dataset))
        except TrainingDivergedError as exc:
            return ("fail", DIVERGED, f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # repro: allow[broad-except] — fault isolation boundary
            return ("fail", "unexpected", f"{type(exc).__name__}: {exc}")

    return handle


def _fold_record(key: str, result: FoldResult) -> Dict:
    return {
        "kind": "fold",
        "setting": key,
        "fold": result.fold_index,
        "history": result.history.to_dict(),
        "report": result.report.to_dict(),
    }


def _fold_from_record(record: Dict) -> FoldResult:
    return FoldResult(
        fold_index=record["fold"],
        history=TrainingHistory.from_dict(record["history"]),
        report=ClassificationReport.from_dict(record["report"]),
    )


class SweepExecutor:
    """Run a grid search's (setting x fold) product on the offline runner.

    Built on a :class:`GridSearch` so model/training configurations are
    resolved by the one :meth:`GridSearch.configs_for`.  ``n_jobs=1``
    runs the units in-process; more fan them over supervised worker
    processes.  Results are reassembled in fold order, so the outcome is
    independent of completion order and of ``n_jobs``.  ``search.progress``
    fires once per setting, when that setting's last fold lands.
    """

    def __init__(
        self,
        search: GridSearch,
        n_jobs: int = 1,
        journal_path: Optional[str] = None,
        resume: bool = False,
        max_retries: int = 1,
    ) -> None:
        if n_jobs < 1:
            raise ConfigurationError(f"n_jobs must be >= 1, got {n_jobs}")
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.search = search
        self.n_jobs = n_jobs
        self.journal_path = journal_path
        self.resume = resume
        self.max_retries = max_retries

    # -- plumbing -----------------------------------------------------

    def _fingerprint(self) -> Dict:
        search = self.search
        return {
            "n_splits": search.n_splits,
            "epochs": search.epochs,
            "learning_rate": search.learning_rate,
            "hidden_size": search.hidden_size,
            "seed": search.seed,
            "dataset_size": len(search.dataset),
            "num_classes": search.dataset.num_classes,
            "dataset_digest": dataset_digest(search.dataset),
        }

    def _plan(
        self, settings: List[HyperparameterSetting]
    ) -> List[Tuple[int, str, FoldSpec]]:
        """Every (setting, fold) work unit, in deterministic order."""
        search = self.search
        num_attributes, graph_sizes = dataset_invariants(search.dataset)
        tasks: List[Tuple[int, str, FoldSpec]] = []
        for setting_index, setting in enumerate(settings):
            model_config, training_config = search.configs_for(
                setting, num_attributes, graph_sizes
            )
            key = setting_key(setting)
            for spec in make_fold_specs(
                search.dataset,
                training_config,
                model_config=model_config,
                n_splits=search.n_splits,
                seed=search.seed,
            ):
                tasks.append((setting_index, key, spec))
        return tasks

    # -- execution ----------------------------------------------------

    def run(self, settings: Iterable[HyperparameterSetting]) -> SweepReport:
        settings = list(settings)
        started = time.perf_counter()
        search = self.search
        tasks = self._plan(settings)
        # Only a journal's header needs the fingerprint and its digest.
        fingerprint = self._fingerprint() if self.journal_path else {}
        journal, records = open_journal(
            self.journal_path, fingerprint, self.resume
        )
        # Failure records are re-attempted, not resumed.
        completed = {
            (record["setting"], record["fold"]): _fold_from_record(record)
            for record in records if record.get("kind") == "fold"
        }

        landed: Dict[int, List[FoldResult]] = {}
        results: Dict[int, CrossValidationResult] = {}
        failures: Dict[int, SweepFailure] = {}
        attempts: Dict[int, int] = {}
        retry: List[Tuple[int, FoldSpec]] = []
        executed = 0

        def land(task_index: int, result: FoldResult) -> None:
            """Bank one fold; a setting's last fold scores the setting."""
            setting_index = tasks[task_index][0]
            folds = landed.setdefault(setting_index, [])
            folds.append(result)
            if len(folds) == search.n_splits:
                result_cv = assemble_cv_result(folds)
                results[setting_index] = result_cv
                if search.progress is not None:
                    search.progress(len(results), len(settings),
                                    settings[setting_index], result_cv.score)

        def on_ok(task_index: int, result: FoldResult) -> None:
            nonlocal executed
            executed += 1
            if journal is not None:
                journal.append(_fold_record(tasks[task_index][1], result))
            land(task_index, result)

        def on_fail(task_index: int, kind: str, detail: str) -> None:
            setting_index, key, spec = tasks[task_index]
            attempts[task_index] = attempts.get(task_index, 0) + 1
            if kind != DIVERGED and attempts[task_index] <= self.max_retries:
                retry.append((task_index, spec))
                return
            failures[task_index] = SweepFailure(
                setting_key=key,
                setting=settings[setting_index],
                fold_index=spec.fold_index,
                error=detail,
                attempts=attempts[task_index],
            )
            if journal is not None:
                journal.append({
                    "kind": "failure", "setting": key,
                    "fold": spec.fold_index, "error": detail,
                    "attempts": attempts[task_index],
                })

        units: List[Tuple[int, FoldSpec]] = []
        for task_index, (_, key, spec) in enumerate(tasks):
            if (key, spec.fold_index) in completed:
                land(task_index, completed[(key, spec.fold_index)])
            else:
                units.append((task_index, spec))
        resumed_folds = len(tasks) - len(units)
        pool = ProcessWorkerPool(
            FOLD_ENTRYPOINT, {"dataset": search.dataset}, self.n_jobs
        )
        try:
            while units:
                pool.run(units, on_ok, on_fail)
                units = list(retry)
                retry.clear()
        finally:
            if journal is not None:
                journal.close()

        ordered_failures = [failures[i] for i in sorted(failures)]
        return SweepReport(
            grid_result=GridSearchResult(
                entries=[GridSearchEntry(setting=settings[index], result=result)
                         for index, result in sorted(results.items())],
                failures=list(ordered_failures),
            ),
            failures=ordered_failures,
            total_folds=len(settings) * search.n_splits,
            executed_folds=executed,
            resumed_folds=resumed_folds,
            wall_seconds=time.perf_counter() - started,
        )
