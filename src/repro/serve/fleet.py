"""The serving dispatcher: fan ``/classify`` over model replicas.

Every ``repro.cli serve`` runs through one :class:`FleetDispatcher`.
With ``--workers N`` its replicas are N long-lived worker processes
(:class:`~repro.workers.request.RequestWorker`), each of which loads its
own model replica from the registry at startup and answers batched
classification messages over its pipe.  With ``--workers 0``
(:meth:`FleetDispatcher.in_process`) the one replica is a thread of the
server process (:class:`~repro.workers.request.InProcessWorker`) serving
an engine that is already loaded; it speaks the same pipe protocol, so
routing, batching, draining and metrics are the same code.  A thread is
GIL-bound, so only processes use more than one core.

Routing and batching
--------------------
Requests queue in the parent; a single dispatch thread multiplexes all
worker pipes (plus a self-pipe waker) with ``multiprocessing.connection
.wait``.  Each worker holds at most **one** outstanding batch, so
batching is continuous rather than windowed: whenever a worker is idle
and the queue is non-empty, it immediately receives up to
``max_batch_size`` requests (split fairly across idle workers), and
requests arriving while every worker is busy pile up and leave as the
next batch: requests coalesce under load, and a lone request never
waits for company.  Ties between idle workers break toward the
least-served replica.

A resubmitted listing need not reach a replica.  ``submit`` hashes
the text on the caller's thread (:func:`~repro.serve.engine.content_key`)
and looks it up in one answer tier kept in the server process, a
:class:`~repro.serve.engine.BoundedLRU` bounded by ``cache_size`` (the
engine's, in-process): a hit is returned at once with ``cached=True``
and the request's own name, without queueing, waking the dispatch
thread or crossing a pipe.  The tier stores only what a primary replica
answered — its predictions, ``similar`` answers and engine failures
(``parse`` / ``oversize`` / ``unexpected``), never a ``crash`` /
``timeout`` the dispatcher decided, a batch whose handler raised, or a
shadow's or retiring replica's answer — and promotion clears it, so no
answer of the old version is served from it afterwards.  Each
replica's engine keeps its own exact tier behind this one.

Failure semantics
-----------------
Supervision is :class:`~repro.workers.request.RequestWorker`'s, the
same rules the extraction pool runs on: a worker that closes its pipe
(crash) or blows the per-batch wall-clock deadline is SIGKILLed, and
the fleet respawns it and retries its in-flight requests once on
another replica.  A request that fails twice gets a
structured :class:`ClassificationResult` carrying a ``crash`` /
``timeout`` :class:`FailureKind` — exactly the taxonomy batch
extraction reports, so operators triage serve-time and extract-time
faults with one vocabulary.  A worker whose *respawn* dies, reports an
init error, or is not ready within ``start_timeout`` is marked failed
and taken out of rotation (never respawned again); when every
primary replica is failed, ``submit`` raises
:class:`~repro.exceptions.ServeError` (HTTP 503) instead of queueing
into the void.  A thread cannot be killed, so the in-process replica
has no batch deadline; its requests still time out at ``submit``'s
``timeout``.

Rollout
-------
The dispatcher also hosts the zero-downtime rollout protocol: candidate
workers run beside the primaries under the ``shadow`` role, a fraction
of successful live traffic is mirrored to them (results never returned
to clients), and the accumulated canary report promotes or rolls back
atomically under the fleet lock.  Only answers a primary computed are
mirrored: a hit in the answer tier takes microseconds, and mirroring it
would skew the canary's shadow/primary latency ratio.  See
:mod:`repro.serve.rollout`.  Rollout needs registry replicas, so the
in-process dispatcher refuses it.
"""

from __future__ import annotations

import math
import operator
import os
import threading
import time
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.exceptions import FleetError, RolloutError, ServeError, WorkerStartupError
from repro.features.pipeline import ExtractionFailure, FailureKind
from repro.serve.engine import (
    DEFAULT_CACHE_SIZE,
    BoundedLRU,
    ClassificationResult,
    InferenceEngine,
    content_key,
)
from repro.serve.metrics import Observations, ServeMetrics
from repro.serve.registry import read_manifest, resolve_version
from repro.serve.rollout import SHADOWING, RolloutConfig, RolloutController
from repro.workers.request import (
    _TICK_SECONDS,
    REPLIED,
    STARTED,
    STARTUP_FAILED,
    TIMED_OUT,
    InProcessWorker,
    RequestWorker,
    WorkerEvent,
    WorkerReply,
)

#: Default cap on requests per replica batch.
DEFAULT_MAX_BATCH_SIZE = 32

#: Default wall-clock limit for one worker batch (extraction + forward).
DEFAULT_BATCH_TIMEOUT = 60.0

#: Default deadline for a replica to load its model and announce ready.
DEFAULT_START_TIMEOUT = 120.0

#: Replica states (roles are "primary" / "shadow" / "retiring").
STARTING = "starting"
READY_STATE = "ready"
FAILED = "failed"


class _InferenceHandler:
    """Worker-side request handler: one engine replica, batched calls.

    Replies with the batch's results and the observations the engine
    recorded while producing them, so each one is counted exactly once,
    in the dispatcher's metrics.
    """

    def __init__(self, engine: InferenceEngine) -> None:
        self.engine = engine

    def __call__(
        self, payload: List
    ) -> Tuple[List[ClassificationResult], Observations]:
        results = self.engine.classify_texts([tuple(pair) for pair in payload])
        return results, self.engine.drain_metrics()


def inference_service(
    root: str,
    name: str,
    version: str,
    max_vertices: Optional[int] = None,
    cache_size: int = DEFAULT_CACHE_SIZE,
    similar_threshold: Optional[float] = None,
    fingerprint_iterations: Optional[int] = None,
    fault_plan=None,
    infer_dtype: str = "float64",
):
    """Entrypoint factory run *inside* each fleet worker process.

    Referenced by name (``"repro.serve.fleet:inference_service"``) so
    nothing callable crosses the pipe; the returned handler answers one
    ``[(name, text), ...]`` batch per message.  Loading goes through the
    registry, so every replica independently verifies the archive's
    integrity before serving.  The engine's tape lives inside this
    process, so a respawned worker simply re-captures on its first
    batch.
    """
    kwargs = {}
    if fingerprint_iterations is not None:
        kwargs["fingerprint_iterations"] = fingerprint_iterations
    engine = InferenceEngine.from_registry(
        root,
        name,
        version=version,
        cache_size=cache_size,
        similar_threshold=similar_threshold,
        max_vertices=max_vertices,
        fault_plan=fault_plan,
        infer_dtype=infer_dtype,
        **kwargs,
    )
    return _InferenceHandler(engine)


ENTRYPOINT = "repro.serve.fleet:inference_service"

#: Factory of the in-process replica, called with ``engine=``.
IN_PROCESS_ENTRYPOINT = "repro.serve.fleet:_InferenceHandler"


class _FleetRequest:
    """One queued classification request (live or shadow mirror copy)."""

    __slots__ = ("name", "text", "key", "event", "result", "error",
                 "attempts", "sent_at", "primary_family", "primary_latency")

    def __init__(self, name: str, text: str,
                 event: Optional[threading.Event],
                 key: Optional[str] = None) -> None:
        self.name = name
        self.text = text
        #: The answer tier's key (``None`` when the tier is off).
        self.key = key
        #: ``None`` marks a shadow mirror copy: no client is waiting.
        self.event = event
        self.result: Optional[ClassificationResult] = None
        self.error: Optional[Exception] = None
        self.attempts = 0
        self.sent_at = 0.0
        # Set on mirror copies only: the live answer they shadow.
        self.primary_family: Optional[str] = None
        self.primary_latency = 0.0

    @property
    def is_shadow(self) -> bool:
        return self.event is None


class _Replica:
    """One fleet slot: a request worker plus routing state and stats."""

    __slots__ = ("worker", "role", "version", "batch", "served", "batches",
                 "retries", "detail")

    def __init__(self, worker: RequestWorker, role: str,
                 version: str) -> None:
        self.worker = worker
        self.role = role
        self.version = version
        self.batch: Optional[List[_FleetRequest]] = None
        self.served = 0
        self.batches = 0
        self.retries = 0
        self.detail: Optional[str] = None  # why state == "failed"

    @property
    def busy(self) -> bool:
        return self.batch is not None

    @property
    def state(self) -> str:
        if self.detail is not None:
            return FAILED
        return READY_STATE if self.worker.ready else STARTING

    def snapshot(self) -> Dict[str, Any]:
        return {
            "pid": self.worker.pid,
            "role": self.role,
            "state": self.state,
            "version": self.version,
            "busy": self.busy,
            "served": self.served,
            "batches": self.batches,
            "respawns": self.worker.respawns,
            "retries": self.retries,
            "detail": self.detail,
        }


class FleetDispatcher:
    """Routes classification traffic over model replicas.

    The backend the HTTP layer serves (``submit`` / ``metrics_snapshot``
    / ``describe_model`` / ``pending_count`` / lifecycle), plus the
    rollout control surface.  This constructor runs N replica processes
    over a registry archive; :meth:`in_process` runs one replica thread
    over an engine already loaded.

    Parameters
    ----------
    root, name, version:
        Registry coordinates of the served model; ``version=None`` pins
        to the latest finalized archive at construction time, so every
        replica — including respawns — loads the same version.  Omitted
        with ``engine``.
    num_workers:
        Primary replica process count (must be >= 1; ``--workers 0`` is
        :meth:`in_process`).
    max_batch_size:
        Cap on requests per worker batch.
    batch_timeout:
        Wall-clock limit for one worker batch; a worker over it is
        SIGKILLed and respawned (``None`` disables).
    start_timeout:
        Deadline for a replica to load its model and announce ready.
    max_vertices, cache_size, fault_plan:
        Forwarded into each worker's :class:`InferenceEngine`
        (``fault_plan`` exists for tests: deterministic hangs/crashes).
        ``cache_size`` also bounds the dispatcher's answer tier (``0``
        turns it off); in-process, the engine's ``cache_size`` does.
    similar_threshold, fingerprint_iterations:
        Per-replica similarity cache tier configuration, forwarded into
        each worker's :class:`InferenceEngine` (``similar_threshold
        = None`` keeps the tier off).  Each replica keeps its own
        fingerprint index; fixed hashing seeds keep their fingerprints
        mutually comparable.
    infer_dtype:
        Forwarded into each worker's :class:`InferenceEngine`; the tape
        is per-process, so respawned replicas re-capture on their first
        batch.
    engine:
        Serve this loaded engine on one replica thread instead (see
        :meth:`in_process`, which sets the matching knobs); the engine
        options above then do not apply.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        name: Optional[str] = None,
        version: Optional[str] = None,
        num_workers: int = 2,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        batch_timeout: Optional[float] = DEFAULT_BATCH_TIMEOUT,
        start_timeout: float = DEFAULT_START_TIMEOUT,
        max_vertices: Optional[int] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        similar_threshold: Optional[float] = None,
        fingerprint_iterations: Optional[int] = None,
        fault_plan=None,
        metrics: Optional[ServeMetrics] = None,
        infer_dtype: str = "float64",
        *,
        engine: Optional[InferenceEngine] = None,
    ) -> None:
        if engine is not None:
            if root is not None or num_workers != 1 or batch_timeout is not None:
                raise FleetError(
                    "an engine is served by one replica thread with no "
                    "batch deadline; use FleetDispatcher.in_process(engine)"
                )
        elif root is None or name is None:
            raise FleetError(
                "pass the registry root and model name, or use "
                "FleetDispatcher.in_process(engine)"
            )
        if num_workers < 1:
            raise FleetError(f"num_workers must be >= 1, got {num_workers}")
        if max_batch_size < 1:
            raise FleetError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        self._engine = engine
        if engine is not None:
            cache_size = engine.cache_size
            info = engine.model_info
            self.root: Optional[str] = None
            self.name = info.name if info is not None else "in-process"
            self.version: Optional[str] = (
                info.version if info is not None else None
            )
            self.family_names: List[str] = list(engine.family_names)
        else:
            assert root is not None and name is not None
            self.root = os.path.abspath(root)
            self.name = name
            self.version = resolve_version(self.root, name, version)
            manifest = read_manifest(self.root, name, self.version)
            self.family_names = list(manifest["family_names"])
        self.num_workers = num_workers
        self.max_batch_size = max_batch_size
        self.batch_timeout = batch_timeout
        self.start_timeout = start_timeout
        self.max_vertices = max_vertices
        self.cache_size = cache_size
        self.similar_threshold = similar_threshold
        self.fingerprint_iterations = fingerprint_iterations
        self.fault_plan = fault_plan
        self.infer_dtype = infer_dtype
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self._lock = threading.Lock()
        self._queue: Deque[_FleetRequest] = deque()
        #: Answers primary replicas gave, by content key.
        self._answers = BoundedLRU(cache_size)
        self._shadow_queue: Deque[_FleetRequest] = deque()
        self._replicas: List[_Replica] = []
        self._rollout: Optional[RolloutController] = None
        self._request_counter = 0
        self._spawn_counter = 0
        self._running = False
        self._accepting = False
        self._loop_faults = 0
        self._loop_fault_detail: Optional[str] = None
        self._thread: Optional[threading.Thread] = None
        self._waker_r = -1
        self._waker_w = -1

    @classmethod
    def in_process(
        cls,
        engine: InferenceEngine,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        metrics: Optional[ServeMetrics] = None,
    ) -> "FleetDispatcher":
        """One primary replica on a thread of this process, over ``engine``.

        The ``--workers 0`` service: the engine may come from a registry
        or from ``--model-dir``, and it names the model and its
        families.  The replica has no batch deadline (a thread cannot be
        killed), and rollout is refused.
        """
        return cls(num_workers=1, max_batch_size=max_batch_size,
                   batch_timeout=None, metrics=metrics, engine=engine)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "FleetDispatcher":
        """Spawn the replicas, wait for readiness, start dispatching."""
        with self._lock:
            if self._running:
                raise FleetError("fleet dispatcher is already running")
            self._running = True
            self._accepting = True
        self._waker_r, self._waker_w = os.pipe()
        os.set_blocking(self._waker_w, False)
        spawned: List[_Replica] = []
        try:
            for _ in range(self.num_workers):
                spawned.append(self._spawn_replica("primary", self.version))
        except WorkerStartupError:
            for replica in spawned:
                replica.worker.stop(kill=True)
            self._close_waker()
            with self._lock:
                self._running = False
                self._accepting = False
            raise
        with self._lock:
            self._replicas.extend(spawned)
        self._thread = threading.Thread(
            target=self._loop, name="fleet-dispatch", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Ordered shutdown: stop accepting, drain, stop workers."""
        with self._lock:
            if not self._running:
                return
            self._accepting = False
        self._wake()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                drained = (
                    not self._queue
                    and not self._shadow_queue
                    and not any(replica.busy for replica in self._replicas)
                )
            if drained:
                break
            time.sleep(_TICK_SECONDS)
        with self._lock:
            self._running = False
            # Only on drain timeout: whatever is still queued or inside a
            # busy replica's batch.  The replicas are stopped after the
            # dispatch thread ends, so nobody would read their replies.
            leftovers = list(self._queue)
            self._queue.clear()
            self._shadow_queue.clear()
            busy = [replica for replica in self._replicas if replica.busy]
            for replica in busy:
                assert replica.batch is not None
                leftovers.extend(replica.batch)
                replica.batch = None
        for request in leftovers:
            request.error = ServeError(
                "fleet stopped before the request finished"
            )
            if request.event is not None:
                request.event.set()
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        with self._lock:
            replicas = list(self._replicas)
            self._replicas.clear()
        for replica in replicas:
            replica.worker.stop(kill=replica in busy)
        self._close_waker()

    def __enter__(self) -> "FleetDispatcher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._running

    def _close_waker(self) -> None:
        for fd in (self._waker_r, self._waker_w):
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:  # pragma: no cover - already closed
                    pass
        self._waker_r = self._waker_w = -1

    def _wake(self) -> None:
        if self._waker_w < 0:
            return
        try:
            os.write(self._waker_w, b"x")
        except (BlockingIOError, OSError):
            pass  # already signalled (pipe full) or shutting down

    def _spawn_replica(self, role: str, version: Optional[str]) -> _Replica:
        """Spawn one worker and block until it announces ready."""
        self._spawn_counter += 1
        init_kwargs: Dict[str, Any]
        if self._engine is not None:
            worker_class, entrypoint = InProcessWorker, IN_PROCESS_ENTRYPOINT
            init_kwargs = {"engine": self._engine}
        else:
            worker_class, entrypoint = RequestWorker, ENTRYPOINT
            init_kwargs = {
                "root": self.root,
                "name": self.name,
                "version": version,
                "max_vertices": self.max_vertices,
                "cache_size": self.cache_size,
                "similar_threshold": self.similar_threshold,
                "fingerprint_iterations": self.fingerprint_iterations,
                "fault_plan": self.fault_plan,
                "infer_dtype": self.infer_dtype,
            }
        worker = worker_class(
            name=f"{self.name}@{version}#{self._spawn_counter}",
            entrypoint=entrypoint,
            init_kwargs=init_kwargs,
            start_timeout=self.start_timeout,
        )
        worker.start(wait_ready=self.start_timeout)
        return _Replica(worker, role=role, version=version)

    # -- request side --------------------------------------------------

    def submit(
        self, text: str, name: str = "", timeout: Optional[float] = 30.0
    ) -> ClassificationResult:
        """Classify ``text``; blocks until a replica answers.

        A listing a primary replica already answered is answered from
        the answer tier at once, ``cached`` and under ``name``.

        Raises :class:`~repro.exceptions.ServeError` when the fleet is
        not accepting work, has no live replicas, is stopped with the
        request unfinished, or the request times out.
        """
        key = content_key(text) if self._answers.bound > 0 else None
        with self._lock:
            if not self._running or not self._accepting:
                raise ServeError(
                    "fleet dispatcher is not accepting requests"
                )
            if not any(replica.role == "primary" and replica.state != FAILED
                       for replica in self._replicas):
                raise ServeError(
                    "every fleet worker has failed; restart the service"
                )
            stored = self._answers.get(key)
            if stored is None:
                request = _FleetRequest(name=name, text=text,
                                        event=threading.Event(), key=key)
                self._queue.append(request)
        if stored is not None:
            self.metrics.observe_cache_tier("exact")
            self.metrics.observe_request(
                stored.ok, stored.failure.kind.value if stored.failure else None
            )
            return stored.as_cached(name)
        self._wake()
        if not request.event.wait(timeout):
            with self._lock:
                try:
                    self._queue.remove(request)
                except ValueError:
                    pass  # already dispatched; the late result is discarded
            raise ServeError(
                f"classification of {name or 'sample'!r} timed out after "
                f"{timeout}s in the fleet queue"
            )
        if request.error is not None:
            raise request.error
        assert request.result is not None
        return request.result

    @property
    def pending_count(self) -> int:
        """Live requests queued or in flight (shadow copies excluded)."""
        with self._lock:
            in_flight = sum(
                len(replica.batch)
                for replica in self._replicas
                if replica.batch is not None and replica.role != "shadow"
            )
            return len(self._queue) + in_flight

    # -- observability -------------------------------------------------

    def fleet_snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return self._fleet_snapshot_locked()

    def _fleet_snapshot_locked(self) -> Dict[str, Any]:
        return {
            "model": self.describe_model(),
            "queue_depth": len(self._queue),
            "shadow_queue_depth": len(self._shadow_queue),
            "workers": [replica.snapshot() for replica in self._replicas],
            "answer_tier": self._answers.info(),
            "loop_faults": self._loop_faults,
            "loop_fault_detail": self._loop_fault_detail,
            "rollout": (self._rollout.status()
                        if self._rollout is not None else None),
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        return {**self.metrics.snapshot(), "fleet": self.fleet_snapshot()}

    def describe_model(self) -> str:
        if self._engine is not None:
            info = self._engine.model_info
            return info.describe() if info is not None else "in-process"
        return f"{self.name}@{self.version}"

    def batching_info(self) -> Dict[str, Any]:
        return {"max_batch_size": self.max_batch_size}

    # -- rollout control -----------------------------------------------

    def _require_registry_replicas(self) -> None:
        if self._engine is not None:
            raise RolloutError(
                "rollout requires fleet mode; restart the service with "
                "--workers N (N >= 1)"
            )

    def start_rollout(self, config: RolloutConfig) -> Dict[str, Any]:
        """Spawn candidate workers and begin shadowing live traffic."""
        self._require_registry_replicas()
        config.validate()
        with self._lock:
            if not self._running:
                raise RolloutError("fleet dispatcher is not running")
            if self._rollout is not None and self._rollout.active:
                raise RolloutError(
                    f"a rollout to {self._rollout.config.version} is already "
                    "active; promote or roll it back first"
                )
            if config.version == self.version:
                raise RolloutError(
                    f"candidate version {config.version} is already serving"
                )
            primary_count = sum(
                1 for replica in self._replicas if replica.role == "primary"
            )
        # Validates the candidate exists and is finalized, and yields its
        # family table for the canary parity check.
        manifest = read_manifest(self.root, self.name, config.version)
        count = config.num_workers or max(primary_count, 1)
        spawned: List[_Replica] = []
        try:
            for _ in range(count):
                spawned.append(self._spawn_replica("shadow", config.version))
        except WorkerStartupError:
            for replica in spawned:
                replica.worker.stop(kill=True)
            raise
        controller = RolloutController(
            config, candidate_families=list(manifest["family_names"])
        )
        with self._lock:
            if self._rollout is not None and self._rollout.active:
                doomed = spawned  # lost the race to a concurrent start
            else:
                self._replicas.extend(spawned)
                self._rollout = controller
                doomed = []
        for replica in doomed:
            replica.worker.stop(kill=False)
        if doomed:
            raise RolloutError("another rollout started concurrently")
        self._wake()
        return controller.status()

    def rollout_status(self) -> Optional[Dict[str, Any]]:
        self._require_registry_replicas()
        with self._lock:
            return None if self._rollout is None else self._rollout.status()

    def promote(self) -> Dict[str, Any]:
        """Operator-driven promotion of the shadowing candidate."""
        self._require_registry_replicas()
        with self._lock:
            if self._rollout is None or not self._rollout.active:
                raise RolloutError("no active rollout to promote")
            self._promote_locked()
            status = self._rollout.status()
        self._wake()
        return status

    def rollback(self) -> Dict[str, Any]:
        """Operator-driven rollback; the old version never stopped."""
        self._require_registry_replicas()
        with self._lock:
            if self._rollout is None or not self._rollout.active:
                raise RolloutError("no active rollout to roll back")
            self._rollback_locked()
            status = self._rollout.status()
        self._wake()
        return status

    def _promote_locked(self) -> None:
        """Swap the candidate in atomically: shadows become primaries."""
        assert self._rollout is not None
        for replica in self._replicas:
            if replica.role == "primary":
                replica.role = "retiring"
            elif replica.role == "shadow":
                replica.role = "primary"
        self._shadow_queue.clear()  # repro: allow[lock-discipline] — _locked helper, caller holds self._lock
        # Answers of the old version, those still in flight on the
        # retiring replicas included, are never served again.
        self._answers.clear()
        self.version = self._rollout.config.version
        self.family_names = list(self._rollout.candidate_families)
        self._rollout.mark_promoted()

    def _rollback_locked(self) -> None:
        """Retire the candidate; the primary set is untouched."""
        assert self._rollout is not None
        for replica in self._replicas:
            if replica.role == "shadow":
                replica.role = "retiring"
        self._shadow_queue.clear()  # repro: allow[lock-discipline] — _locked helper, caller holds self._lock
        self._rollout.mark_rolled_back()

    # -- dispatch loop -------------------------------------------------

    def _loop(self) -> None:
        while True:
            try:
                if not self._tick():
                    break
            except Exception as exc:  # repro: allow[broad-except] — the dispatch thread must outlive internal faults; they are counted, not fatal
                with self._lock:
                    self._loop_faults += 1
                    self._loop_fault_detail = f"{type(exc).__name__}: {exc}"

    def _tick(self) -> bool:
        """One dispatch-loop iteration; ``False`` ends the loop."""
        with self._lock:
            if not self._running:
                return False
            retired = self._take_retired_locked()
            self._dispatch_locked()  # repro: allow[lock-order] — batch sends under the lock keep queue/replica state consistent; pipe buffers absorb them
            now = time.monotonic()
            for replica in list(self._replicas):
                self._settle_locked(replica, replica.worker.expire(now))  # repro: allow[lock-order] — kill and respawn under the lock use timed joins; bounded by design
            conns = {
                replica.worker.conn: replica
                for replica in self._replicas
                if replica.worker.conn is not None
            }
        for replica in retired:
            replica.worker.stop(kill=False)
        try:
            ready = mp_connection.wait(
                list(conns) + [self._waker_r], timeout=_TICK_SECONDS
            )
        except OSError:  # pragma: no cover - fd torn down mid-wait
            return True
        for obj in ready:
            if obj == self._waker_r:
                try:
                    os.read(self._waker_r, 4096)
                except OSError:  # pragma: no cover
                    pass
                continue
            replica = conns[obj]
            event = replica.worker.read()
            with self._lock:
                self._settle_locked(replica, event)  # repro: allow[lock-order] — retry/respawn under the lock uses timed joins; bounded by design
        return True

    def _take_retired_locked(self) -> List[_Replica]:
        """Detach idle retiring replicas (stopped outside the lock)."""
        retired = [
            replica for replica in self._replicas
            if replica.role == "retiring" and not replica.busy
        ]
        for replica in retired:
            self._replicas.remove(replica)  # repro: allow[lock-discipline] — _locked helper, caller holds self._lock
        return retired

    def _dispatch_locked(self) -> None:
        self._dispatch_queue_locked(self._queue, "primary")
        if self._rollout is not None and self._rollout.active:
            self._dispatch_queue_locked(self._shadow_queue, "shadow")

    def _dispatch_queue_locked(self, queue: Deque[_FleetRequest],
                               role: str) -> None:
        while queue:
            idle = [
                replica for replica in self._replicas
                if replica.role == role
                and replica.state == READY_STATE
                and not replica.busy
            ]
            if not idle:
                return
            # Spread the backlog fairly over the idle workers; ties go to
            # the replica that has served the least.
            share = math.ceil(len(queue) / len(idle))
            size = min(len(queue), self.max_batch_size, max(1, share))
            replica = min(idle, key=operator.attrgetter("served"))
            batch = [queue.popleft() for _ in range(size)]
            self._send_batch_locked(replica, batch, queue)

    def _send_batch_locked(self, replica: _Replica,
                           batch: List[_FleetRequest],
                           queue: Deque[_FleetRequest]) -> None:
        self._request_counter += 1
        batch_id = self._request_counter
        payload = [(request.name, request.text) for request in batch]
        try:
            replica.worker.send(batch_id, payload, timeout=self.batch_timeout)
        except (BrokenPipeError, OSError):
            # Died between batches: the batch goes back uncharged and
            # the replica respawns.
            for request in reversed(batch):
                queue.appendleft(request)
            self._respawn_locked(replica)
            return
        now = time.perf_counter()
        for request in batch:
            request.sent_at = now
            request.attempts += 1
        replica.batch = batch

    def _settle_locked(self, replica: _Replica,
                       event: Optional[WorkerEvent]) -> None:
        """Apply one supervision event from ``replica``'s worker."""
        if event is None or event.kind == STARTED:
            return
        if event.kind == REPLIED:
            assert event.reply is not None
            self._deliver_locked(replica, event.reply)
        elif event.kind == STARTUP_FAILED:
            replica.detail = event.detail
            self._fail_pending_if_dead_locked()
        else:
            batch, replica.batch = replica.batch, None
            if batch:
                detail = (
                    f"fleet worker killed after exceeding the "
                    f"{self.batch_timeout}s batch deadline"
                    if event.kind == TIMED_OUT else event.detail
                )
                self._retry_or_fail_locked(
                    replica, batch, FailureKind(event.kind), detail
                )
            self._respawn_locked(replica)

    def _deliver_locked(self, replica: _Replica, reply: WorkerReply) -> None:
        batch, replica.batch = replica.batch, None
        assert batch is not None  # a reply answers the batch in flight
        replica.batches += 1
        replica.served += len(batch)
        now = time.perf_counter()
        if not reply.ok:
            # The handler itself raised (engine bug): every request in
            # the batch gets a structured unexpected-failure result.
            for request in batch:
                self._finish_failed_locked(
                    request, FailureKind.UNEXPECTED, str(reply.value)
                )
            return
        self.metrics.observe_batch(len(batch))
        results, observations = reply.value
        if replica.role != "shadow":
            # A shadow's observations are the candidate's, like its results.
            self.metrics.merge(observations)
        # A retiring replica answers for the version promotion replaced.
        store = replica.role == "primary"
        for request, result in zip(batch, results):
            latency = now - request.sent_at
            if request.is_shadow:
                self._record_shadow_locked(request, result, latency)
            else:
                if store:
                    self._answers.put(request.key, result)
                request.result = result
                if request.event is not None:
                    request.event.set()
                self._maybe_mirror_locked(request, result, latency)
        self._conclude_rollout_locked()

    def _record_shadow_locked(self, request: _FleetRequest,
                              result: ClassificationResult,
                              latency: float) -> None:
        if self._rollout is None or not self._rollout.active:
            return
        self._rollout.record_shadow_result(
            primary_family=request.primary_family,
            shadow_family=result.family,
            shadow_ok=result.ok,
            primary_latency=request.primary_latency,
            shadow_latency=latency,
        )

    def _maybe_mirror_locked(self, request: _FleetRequest,
                             result: ClassificationResult,
                             latency: float) -> None:
        rollout = self._rollout
        if rollout is None or rollout.state != SHADOWING or not result.ok:
            return
        if not rollout.should_mirror():
            return
        rollout.record_mirrored()
        mirror = _FleetRequest(name=request.name, text=request.text,
                               event=None)
        mirror.primary_family = result.family
        mirror.primary_latency = latency
        self._shadow_queue.append(mirror)  # repro: allow[lock-discipline] — _locked helper, caller holds self._lock

    def _conclude_rollout_locked(self) -> None:
        rollout = self._rollout
        if rollout is None or rollout.state != SHADOWING:
            return
        verdict = rollout.evaluate()
        if verdict is None or not rollout.config.auto:
            return
        if verdict == "promote":
            self._promote_locked()
        else:
            self._rollback_locked()

    # -- failure policy ------------------------------------------------

    def _retry_or_fail_locked(self, replica: _Replica,
                              batch: List[_FleetRequest],
                              kind: FailureKind, detail: str) -> None:
        queue = (self._shadow_queue
                 if replica.role == "shadow" else self._queue)
        for request in reversed(batch):
            if request.is_shadow:
                # Mirror copies are never retried: the canary charges the
                # candidate for losing them.
                if self._rollout is not None and self._rollout.active:
                    self._rollout.record_shadow_loss()
                continue
            if request.attempts < 2:
                replica.retries += 1
                queue.appendleft(request)
            else:
                self._finish_failed_locked(request, kind, detail)

    def _finish_failed_locked(self, request: _FleetRequest,
                              kind: FailureKind, detail: str) -> None:
        if request.is_shadow:
            if self._rollout is not None and self._rollout.active:
                self._rollout.record_shadow_loss()
            return
        request.result = ClassificationResult(
            name=request.name,
            failure=ExtractionFailure(
                name=request.name, kind=kind, detail=detail, index=0
            ),
        )
        self.metrics.observe_request(False, kind.value)
        if request.event is not None:
            request.event.set()

    def _respawn_locked(self, replica: _Replica) -> None:
        if replica.role == "retiring" or not self._running:
            if replica in self._replicas:
                self._replicas.remove(replica)  # repro: allow[lock-discipline] — _locked helper, caller holds self._lock
            replica.worker.stop(kill=True)
            return
        replica.worker.respawn()

    def _fail_pending_if_dead_locked(self) -> None:
        """Every primary failed: answer queued requests with 503s."""
        if any(replica.role == "primary" and replica.state != FAILED
               for replica in self._replicas):
            return
        while self._queue:
            request = self._queue.popleft()  # repro: allow[lock-discipline] — _locked helper, caller holds self._lock
            request.error = ServeError(
                "every fleet worker has failed; restart the service"
            )
            if request.event is not None:
                request.event.set()
