"""Fault-tolerant batch ACFG extraction service.

The paper extracts 10,868 ACFGs in ~17 hours using Python
multi-threading (Section V-A) and explicitly tolerates packed samples
that defeat disassembly.  This module reproduces that front half of the
MAGIC workflow as a *service* that survives the failure modes a
production corpus actually produces:

* per-sample failures are classified into a structured taxonomy
  (:class:`FailureKind`) instead of aborting the batch;
* units run on :class:`~repro.workers.pool.ProcessWorkerPool`: inline
  for one worker without a deadline, otherwise on supervised worker
  processes, which give per-sample wall-clock timeouts — a hung or
  crashing sample is killed or lost and the batch continues;
* a graph-size guard fails pathological samples before their
  attributes are built;
* a JSONL journal (:class:`repro.fileio.Journal`: one line per
  finished sample, torn-line tolerant) makes multi-hour runs
  SIGKILL-and-resumable;
* failed inputs can be preserved in a quarantine directory for triage;
* a deterministic fault plan (:mod:`repro.testing.faults`) can poison
  chosen sample indices so every recovery path is testable.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cfg.builder import build_cfg_from_file, build_cfg_from_text
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.serialization import acfg_from_text, acfg_to_text, cfg_to_dict
from repro.exceptions import (
    ConfigurationError,
    MagicError,
    OversizeGraphError,
)
from repro.features.acfg import ACFG
from repro.fileio import open_journal
from repro.workers.pool import ProcessWorkerPool
from repro.testing.faults import FaultPlan


class FailureKind(str, Enum):
    """Structured taxonomy of per-sample extraction failures."""

    #: Expected, domain-level failure: the sample defeats parsing / CFG
    #: construction / attribute extraction (packed binaries, empty
    #: listings).  The paper's baseline failure mode.
    PARSE = "parse"
    #: The sample exceeded the per-sample wall-clock limit and its
    #: worker process was killed.
    TIMEOUT = "timeout"
    #: The sample's graph tripped the ``max_vertices`` size guard.
    OVERSIZE = "oversize"
    #: The worker process died without reporting (segfault, OOM kill).
    CRASH = "crash"
    #: Anything else: a bug in a worker, a parser edge case raising a
    #: non-domain exception, or corrupt worker output.
    UNEXPECTED = "unexpected"


@dataclass(frozen=True)
class ExtractionFailure:
    """One sample that did not produce an ACFG, with triage context."""

    name: str
    kind: FailureKind
    detail: str = ""
    index: int = -1

    def describe(self) -> str:
        return f"{self.name} [{self.kind.value}] {self.detail}"


@dataclass
class ExtractionReport:
    """Outcome of a batch extraction run."""

    acfgs: List[ACFG]
    failures: List[ExtractionFailure] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: Samples replayed from a resume journal rather than re-extracted.
    resumed_samples: int = 0

    @property
    def num_succeeded(self) -> int:
        return len(self.acfgs)

    @property
    def num_failed(self) -> int:
        return len(self.failures)

    @property
    def seconds_per_sample(self) -> float:
        total = self.num_succeeded + self.num_failed
        if total == 0:
            return 0.0
        return self.elapsed_seconds / total

    def failures_by_kind(self) -> Dict[FailureKind, List[ExtractionFailure]]:
        grouped: Dict[FailureKind, List[ExtractionFailure]] = {}
        for failure in self.failures:
            grouped.setdefault(failure.kind, []).append(failure)
        return grouped


# ----------------------------------------------------------------------
# worker registry
#
# Workers are referenced by *name* so no worker process is ever sent a
# callable (closures would break, and spawn-based platforms could not
# import them).  Each worker owns its journal payload codec and its
# quarantine writer, keeping the service generic over what a "sample" is.


@dataclass(frozen=True)
class WorkerContext:
    """Picklable per-run settings shipped into every worker."""

    max_vertices: Optional[int] = None
    fault_plan: Optional[FaultPlan] = None


@dataclass(frozen=True)
class WorkerSpec:
    """One registered extraction worker and its serialization hooks."""

    fn: Callable[[Tuple, WorkerContext], Any]
    encode: Callable[[Any], Dict]
    decode: Callable[[Dict], Any]
    validate: Callable[[Any], bool]
    quarantine: Callable[[Tuple, str], None]


def _guard_size(name: str, num_vertices: int, ctx: WorkerContext) -> None:
    if ctx.max_vertices is not None and num_vertices > ctx.max_vertices:
        raise OversizeGraphError(name, num_vertices, ctx.max_vertices)


def _worker_text(item: Tuple, ctx: WorkerContext) -> ACFG:
    name, text, label = item
    cfg = build_cfg_from_text(text, name=name)
    _guard_size(name, cfg.num_vertices, ctx)
    return ACFG.from_cfg(cfg, label=label)


def _worker_cfg(item: Tuple, ctx: WorkerContext) -> ACFG:
    name, cfg, label = item
    _guard_size(name, cfg.num_vertices, ctx)
    return ACFG.from_cfg(cfg, label=label)


def _worker_cfg_json(item: Tuple, ctx: WorkerContext) -> Dict:
    """CLI ``extract`` unit: listing file -> cached CFG JSON on disk.

    The worker writes its own output file (workers own distinct
    destinations, so this is race-free) via a temp-file rename, so a
    kill mid-write never leaves a torn JSON behind; the returned summary
    is what lands in the journal.
    """
    from repro.cfg.serialization import save_cfg

    name, payload, _ = item
    path, destination = payload["path"], payload["destination"]
    cfg = build_cfg_from_file(path, name=name)
    _guard_size(name, cfg.num_vertices, ctx)
    staging = destination + ".tmp"
    save_cfg(cfg, staging)
    os.replace(staging, destination)  # repro: allow[atomic-write] — worker-owned temp-file swap
    return {
        "destination": destination,
        "num_vertices": cfg.num_vertices,
        "num_edges": cfg.num_edges,
    }


def _encode_acfg(acfg: ACFG) -> Dict:
    return {
        "record": acfg_to_text(acfg.edges, acfg.attributes),
        "label": acfg.label,
        "name": acfg.name,
    }


def _decode_acfg(payload: Dict) -> ACFG:
    edges, attributes, _ = acfg_from_text(payload["record"])
    return ACFG(
        edges=edges,
        attributes=attributes,
        label=payload["label"],
        name=payload["name"],
    )


def _quarantine_text(item: Tuple, destination_base: str) -> None:
    with open(destination_base + ".asm", "w", encoding="utf-8") as handle:
        handle.write(item[1])


def _quarantine_cfg(item: Tuple, destination_base: str) -> None:
    with open(destination_base + ".json", "w", encoding="utf-8") as handle:
        json.dump(cfg_to_dict(item[1]), handle)


def _quarantine_file(item: Tuple, destination_base: str) -> None:
    source = item[1]["path"]
    extension = os.path.splitext(source)[1] or ".asm"
    shutil.copyfile(source, destination_base + extension)


_WORKERS: Dict[str, WorkerSpec] = {
    "text": WorkerSpec(
        fn=_worker_text,
        encode=_encode_acfg,
        decode=_decode_acfg,
        validate=lambda result: isinstance(result, ACFG),
        quarantine=_quarantine_text,
    ),
    "cfg": WorkerSpec(
        fn=_worker_cfg,
        encode=_encode_acfg,
        decode=_decode_acfg,
        validate=lambda result: isinstance(result, ACFG),
        quarantine=_quarantine_cfg,
    ),
    "cfg-json": WorkerSpec(
        fn=_worker_cfg_json,
        encode=lambda summary: summary,
        decode=lambda payload: payload,
        validate=lambda result: isinstance(result, dict)
        and "destination" in result,
        quarantine=_quarantine_file,
    ),
}


def resolve_worker(name: str) -> WorkerSpec:
    try:
        return _WORKERS[name]
    except KeyError:
        raise ConfigurationError(f"unknown extraction worker {name!r}")


def execute_unit(
    worker_fn: Callable[[Tuple, WorkerContext], Any],
    item: Tuple,
    index: int,
    ctx: WorkerContext,
) -> Tuple:
    """Run one unit through the fault plan and failure classifier.

    Never raises: returns ``("ok", result)`` or
    ``("fail", kind_value, detail)``.  This is the single fault-isolation
    boundary shared by the inline and process execution modes, so every
    mode classifies identically.
    """
    try:
        if ctx.fault_plan is not None:
            injected = ctx.fault_plan.apply(index)
            if injected is not None:
                return ("ok", injected)  # corrupt output; validation rejects
        return ("ok", worker_fn(item, ctx))
    except OversizeGraphError as exc:
        return ("fail", FailureKind.OVERSIZE.value, str(exc))
    except MagicError as exc:
        # Expected, domain-level failures (packed samples, unparseable
        # listings) keep their message for the report.
        return ("fail", FailureKind.PARSE.value, str(exc))
    except Exception as exc:  # repro: allow[broad-except] — fault isolation boundary
        return (
            "fail",
            FailureKind.UNEXPECTED.value,
            f"{type(exc).__name__}: {exc}",
        )


def extraction_service(
    worker_name: str, worker_ctx: WorkerContext
) -> Callable[[Tuple[int, Tuple]], Tuple]:
    """Entrypoint factory of the extraction unit handler.

    The offline runner calls it in the driver to run units inline, or
    inside each worker process.  Referenced by name
    (``"repro.features.pipeline:extraction_service"``) so nothing
    callable crosses the pipe.  The returned handler takes one
    ``(index, item)`` unit and returns :func:`execute_unit`'s outcome
    tuple unchanged; the index keys the fault plan.
    """
    worker_fn = resolve_worker(worker_name).fn

    def handle(unit: Tuple[int, Tuple]) -> Tuple:
        index, item = unit
        return execute_unit(worker_fn, item, index, worker_ctx)

    return handle


#: The extraction unit handler's factory, resolved by name in each worker.
EXTRACTION_ENTRYPOINT = "repro.features.pipeline:extraction_service"


def samples_fingerprint(names: Sequence[str]) -> str:
    """Order-aware content hash of the input sample names.

    Sample *names* (not payloads) keep header writes cheap on large
    corpora while still catching the dangerous resume mistakes: a
    different corpus, a reordered corpus, or a truncated one.
    """
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode("utf-8", errors="replace"))
        digest.update(b"\x00")
    digest.update(str(len(names)).encode("ascii"))
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# the pipeline


@dataclass
class UnitReport:
    """Generic outcome for non-ACFG workers (the CLI's CFG-JSON path)."""

    results: List[Tuple[int, str, Any]]
    failures: List[ExtractionFailure]
    elapsed_seconds: float = 0.0
    resumed_samples: int = 0


class AcfgPipeline:
    """Parallel, fault-tolerant ACFG extraction.

    Parameters
    ----------
    max_workers:
        Worker count.  ``1`` without a ``timeout`` runs inline, which is
        the right choice for small corpora and deterministic tests;
        anything else runs on supervised worker processes, which also
        survive hard worker crashes.
    timeout:
        Per-sample wall-clock limit in seconds; a sample still running
        at its deadline has its worker process killed.
    max_vertices:
        Graph-size guard: samples whose CFG exceeds this vertex count
        fail with :attr:`FailureKind.OVERSIZE` instead of stalling
        attribute extraction.
    journal_path:
        JSONL journal recording every finished sample; with ``resume``,
        samples already journaled are replayed instead of re-extracted.
    resume:
        Resume from ``journal_path`` (requires it to be set).
    quarantine_dir:
        Directory that receives a copy of every failing input, named
        ``<index>_<kind>_<name>``, for offline triage.
    fault_plan:
        Deterministic fault injection (testing only); see
        :mod:`repro.testing.faults`.
    """

    def __init__(
        self,
        max_workers: int = 1,
        *,
        timeout: Optional[float] = None,
        max_vertices: Optional[int] = None,
        journal_path: Optional[str] = None,
        resume: bool = False,
        quarantine_dir: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if max_workers < 1:
            raise MagicError(f"max_workers must be >= 1, got {max_workers}")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(
                f"timeout must be positive, got {timeout}"
            )
        if max_vertices is not None and max_vertices < 1:
            raise ConfigurationError(
                f"max_vertices must be >= 1, got {max_vertices}"
            )
        if resume and journal_path is None:
            raise ConfigurationError("resume=True requires journal_path")
        self.max_workers = max_workers
        self.timeout = timeout
        self.max_vertices = max_vertices
        self.journal_path = journal_path
        self.resume = resume
        self.quarantine_dir = quarantine_dir
        self.fault_plan = fault_plan

    # -- public entry points ------------------------------------------

    def extract_from_texts(
        self,
        samples: Sequence[Tuple[str, str, Optional[int]]],
    ) -> ExtractionReport:
        """Extract ACFGs from ``(name, asm_text, label)`` triples.

        Failures are collected per-sample rather than aborting the batch.
        Result order follows input order for successes and failures alike.
        """
        return self._to_extraction_report(self.run_units(samples, "text"))

    def extract_from_cfgs(
        self,
        samples: Sequence[Tuple[ControlFlowGraph, Optional[int]]],
    ) -> ExtractionReport:
        """Extract ACFGs from pre-built CFGs (the YANCFG ingestion path)."""
        items = [(cfg.name, cfg, label) for cfg, label in samples]
        return self._to_extraction_report(self.run_units(items, "cfg"))

    def run_units(
        self,
        items: Sequence[Tuple[str, Any, Any]],
        worker: str,
    ) -> UnitReport:
        """Run ``(name, payload, label)`` units through a named worker.

        The generic service entry point: the CLI's CFG-JSON extraction
        uses it directly; the ACFG entry points wrap it.
        """
        started = time.perf_counter()
        spec = resolve_worker(worker)
        ctx = WorkerContext(
            max_vertices=self.max_vertices, fault_plan=self.fault_plan
        )
        fingerprint = {
            "worker": worker,
            "num_samples": len(items),
            "samples": samples_fingerprint([item[0] for item in items]),
            "timeout": self.timeout,
            "max_vertices": self.max_vertices,
        }
        journal, records = open_journal(
            self.journal_path, fingerprint, self.resume
        )
        # Both outcomes are replayed on resume: extraction failures are
        # deterministic properties of the input, so redoing them would
        # only re-pay the timeout.  Keyed by input index: names may
        # collide, and the fingerprint pins the input sequence itself.
        completed = {
            record["index"]: record for record in records
            if record.get("kind") in ("sample", "failure")
            and isinstance(record.get("index"), int)
        }

        results: Dict[int, Any] = {}
        failures: Dict[int, ExtractionFailure] = {}
        for index, record in completed.items():
            if record["kind"] == "sample":
                try:
                    results[index] = spec.decode(record["payload"])
                except Exception as exc:  # repro: allow[broad-except] — corrupt journal
                    raise ConfigurationError(
                        f"journal entry for sample {index} "
                        f"({record.get('name', '?')}) is corrupt: {exc}"
                    )
            else:
                failures[index] = ExtractionFailure(
                    name=record["name"],
                    kind=FailureKind(record["failure_kind"]),
                    detail=record["detail"],
                    index=index,
                )
        resumed = len(completed)

        def on_fail(index: int, kind_value: str, detail: str) -> None:
            failure = ExtractionFailure(
                name=items[index][0],
                kind=FailureKind(kind_value),
                detail=detail,
                index=index,
            )
            failures[index] = failure
            if journal is not None:
                journal.append(
                    {"kind": "failure", "index": index, "name": failure.name,
                     "failure_kind": failure.kind.value, "detail": detail}
                )
            self._quarantine(spec, items[index], failure)

        def on_ok(index: int, result: Any) -> None:
            if not spec.validate(result):
                on_fail(
                    index,
                    FailureKind.UNEXPECTED.value,
                    f"worker emitted corrupt output ({type(result).__name__})",
                )
                return
            results[index] = result
            if journal is not None:
                journal.append(
                    {"kind": "sample", "index": index,
                     "name": items[index][0], "payload": spec.encode(result)}
                )

        pending = [
            (index, item)
            for index, item in enumerate(items)
            if index not in results and index not in failures
        ]
        try:
            ProcessWorkerPool(
                EXTRACTION_ENTRYPOINT,
                {"worker_name": worker, "worker_ctx": ctx},
                self.max_workers,
                timeout=self.timeout,
            ).run(pending, on_ok, on_fail)
        finally:
            if journal is not None:
                journal.close()

        return UnitReport(
            results=[(index, items[index][0], results[index])
                     for index in sorted(results)],
            failures=[failures[index] for index in sorted(failures)],
            elapsed_seconds=time.perf_counter() - started,
            resumed_samples=resumed,
        )

    # -- internals ----------------------------------------------------

    def _quarantine(
        self, spec: WorkerSpec, item: Tuple, failure: ExtractionFailure
    ) -> None:
        if self.quarantine_dir is None:
            return
        os.makedirs(self.quarantine_dir, exist_ok=True)
        safe_name = re.sub(r"[^\w.-]+", "_", failure.name) or "sample"
        destination_base = os.path.join(
            self.quarantine_dir,
            f"{failure.index:06d}_{failure.kind.value}_{safe_name}",
        )
        try:
            spec.quarantine(item, destination_base)
        except Exception:  # repro: allow[broad-except] — quarantine is best-effort
            pass

    @staticmethod
    def _to_extraction_report(report: UnitReport) -> ExtractionReport:
        return ExtractionReport(
            acfgs=[acfg for _, _, acfg in report.results],
            failures=report.failures,
            elapsed_seconds=report.elapsed_seconds,
            resumed_samples=report.resumed_samples,
        )
