"""Exception hierarchy for the repro (MAGIC) library.

Every error raised on purpose by this library derives from
:class:`MagicError`, so callers can catch one base class at the pipeline
boundary and still discriminate finer-grained failures when needed.
"""

from __future__ import annotations


class MagicError(Exception):
    """Base class for all errors raised by the repro library."""


class AsmParseError(MagicError):
    """Raised when an assembly listing cannot be parsed into a program."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class CfgConstructionError(MagicError):
    """Raised when a control flow graph cannot be built from a program."""


class FeatureExtractionError(MagicError):
    """Raised when block attributes cannot be extracted from a CFG."""


class OversizeGraphError(FeatureExtractionError):
    """Raised when a sample's graph exceeds the pipeline's size guard.

    Pathological samples (packer stubs unrolled into megabyte CFGs) can
    stall attribute extraction for hours; the extraction service treats
    this as a structured per-sample failure, not a batch abort.
    """

    def __init__(self, name: str, num_vertices: int, limit: int) -> None:
        self.num_vertices = num_vertices
        self.limit = limit
        super().__init__(
            f"{name or 'sample'}: graph has {num_vertices} vertices, "
            f"exceeding the max_vertices guard of {limit}"
        )


class SerializationError(MagicError):
    """Raised when a CFG or ACFG fails to round-trip through serialization."""


class ShapeError(MagicError):
    """Raised by the neural-network engine on tensor shape mismatches."""


class GradientError(MagicError):
    """Raised when a backward pass is requested on an invalid graph."""


class ConfigurationError(MagicError):
    """Raised when a model or trainer is configured inconsistently."""


class CompilationError(MagicError):
    """Raised when a recorded graph cannot be compiled into a tape.

    Callers treat this as a signal to fall back to the eager path (the
    model still works, just without the replay speedup) — e.g. a custom
    module built from untagged ``Tensor._make`` calls, or a float32
    request against a training-mode graph.
    """


class DatasetError(MagicError):
    """Raised when a dataset cannot be generated, loaded, or split."""


class TrainingError(MagicError):
    """Raised when model training cannot proceed (e.g. empty fold)."""


class WorkerError(MagicError):
    """Raised by the supervised worker-process machinery (`repro.workers`).

    Covers protocol misuse of the shared pipe transport (sending to a
    stopped worker, double-starting a worker) — *not* per-unit failures,
    which stay structured data (:class:`FailureKind` tuples) so one bad
    sample never aborts a batch or a serving fleet.
    """


class WorkerStartupError(WorkerError):
    """Raised when a long-lived request worker fails to initialize.

    A request worker must announce readiness (after loading its model
    replica) before it may be routed traffic; failure to do so within
    the start deadline — or an explicit init-error report from the child
    — raises this in the parent instead of silently serving nothing.
    """

    def __init__(self, worker: str, detail: str) -> None:
        self.worker = worker
        self.detail = detail
        super().__init__(f"worker {worker!r} failed to start: {detail}")


class ServeError(MagicError):
    """Raised by the online classification service (`repro.serve`)."""


class FleetError(ServeError):
    """Raised on fleet dispatcher misuse or misconfiguration.

    Per-request trouble (a crashed replica, a timed-out batch) never
    raises this — it becomes a structured failure on the affected
    request after the retry budget is spent, while the fleet respawns
    the worker and keeps serving.
    """


class RolloutError(ServeError):
    """Raised on rollout state-machine violations.

    Starting a rollout while one is active, promoting when no candidate
    is shadowing, or targeting a version that is not published all land
    here; canary *outcomes* (promotion, rollback) are states, not
    errors.
    """


class RegistryError(ServeError):
    """Raised when a model archive fails integrity or schema checks.

    Covers tampered weights (sha256 mismatch against the archive
    manifest), family-table mismatches between the manifest and the
    model metadata, and unsupported archive format versions.
    """


class TrainingDivergedError(TrainingError):
    """Raised when training produces a non-finite loss or gradient.

    Carries the epoch/batch where divergence was detected so sweeps can
    record it as a structured failure instead of poisoning a grid with
    NaN scores.  ``TrainingConfig.halt_on_divergence=False`` downgrades
    this to an early stop recorded on the ``TrainingHistory``.
    """

    def __init__(self, message: str, epoch: int, batch: int,
                 loss: float | None = None) -> None:
        self.epoch = epoch
        self.batch = batch
        self.loss = loss
        super().__init__(
            f"{message} (epoch {epoch}, batch {batch}"
            + (f", loss {loss!r})" if loss is not None else ")")
        )


class SimilarityError(MagicError):
    """Raised on similarity-subsystem misuse (`repro.similarity`).

    Covers configuration errors (invalid threshold, band/permutation
    mismatch, negative WL iterations) and comparisons between
    fingerprints computed with different parameters.  A *miss* in the
    near-duplicate index is never an error — it just means the sample
    pays the full pipeline.
    """
