"""Batch-mode extraction pool: a policy loop over request workers.

:class:`ProcessWorkerPool` fans a finite batch of extraction units over
:class:`~repro.workers.request.RequestWorker` children that run
:func:`repro.features.pipeline.extraction_service`.  Supervision — the
per-sample deadline and its SIGKILL, crash detection on pipe EOF, the
stale-reply drop, respawn — is the request worker's; the pool only
decides what each outcome costs:

* a reply carries ``execute_unit``'s outcome tuple to the callbacks;
* a unit whose worker blew its deadline is reported as a ``timeout``,
  one whose worker died as a ``crash`` with the observed exit code, and
  a fresh worker takes the slot while units remain;
* a worker that cannot start raises
  :class:`~repro.exceptions.WorkerStartupError`: no unit can run on it.

The parent applies outcomes through callbacks, so the policy layer
(journaling, quarantine, report assembly) lives entirely in
:mod:`repro.features.pipeline`.
"""

from __future__ import annotations

import time
from collections import deque
from multiprocessing import connection as mp_connection
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from repro.exceptions import WorkerStartupError
from repro.workers.request import (
    _TICK_SECONDS,
    REPLIED,
    STARTED,
    STARTUP_FAILED,
    TIMED_OUT,
    RequestWorker,
    WorkerEvent,
)

if TYPE_CHECKING:
    from repro.workers.request import PipeConn

#: The extraction worker factory each child runs (resolved by name).
ENTRYPOINT = "repro.features.pipeline:extraction_service"


class ProcessWorkerPool:
    """Fan extraction units over killable, respawnable worker processes.

    Parameters
    ----------
    worker_name:
        Registry key resolved inside each worker (the callable itself is
        never pickled, so the pool works under both fork and spawn).
    worker_ctx:
        Picklable :class:`~repro.features.pipeline.WorkerContext` shipped
        to every worker (size guard, fault plan).
    max_workers:
        Number of concurrent worker processes.
    timeout:
        Optional per-sample wall-clock limit in seconds; a unit still
        running at its deadline is killed and reported as a timeout.
    """

    def __init__(
        self,
        worker_name: str,
        worker_ctx: Any,
        max_workers: int,
        timeout: Optional[float] = None,
    ) -> None:
        self.worker_name = worker_name
        self.worker_ctx = worker_ctx
        self.max_workers = max_workers
        self.timeout = timeout

    def run(
        self,
        units: Sequence[Tuple[int, Any]],
        on_ok: Callable[[int, Any], None],
        on_fail: Callable[[int, str, str], None],
    ) -> None:
        """Execute every ``(index, item)`` unit, reporting via callbacks.

        Callbacks run in the parent (this) thread, in completion order;
        the caller re-establishes input order from the indices.
        """
        pending: Deque[Tuple[int, Any]] = deque(units)
        if not pending:
            return
        workers: List[RequestWorker] = [
            RequestWorker(
                f"extract-{self.worker_name}#{slot}",
                ENTRYPOINT,
                {"worker_name": self.worker_name,
                 "worker_ctx": self.worker_ctx},
            )
            for slot in range(min(self.max_workers, len(pending)))
        ]
        try:
            for worker in workers:
                worker.start(wait_ready=None)
            while pending or any(worker.busy for worker in workers):
                for worker in workers:
                    if worker.idle and pending:
                        self._send(worker, pending)
                conns = {
                    worker.conn: worker for worker in workers
                    if worker.conn is not None
                }
                for conn in mp_connection.wait(list(conns),
                                               timeout=_TICK_SECONDS):
                    worker = conns[cast("PipeConn", conn)]
                    self._settle(worker, worker.read(), pending,
                                 on_ok, on_fail)
                now = time.monotonic()
                for worker in workers:
                    self._settle(worker, worker.expire(now), pending,
                                 on_ok, on_fail)
        finally:
            for worker in workers:
                worker.stop()

    def _send(self, worker: RequestWorker,
              pending: Deque[Tuple[int, Any]]) -> None:
        index, item = pending.popleft()
        try:
            worker.send(index, (index, item), timeout=self.timeout)
        except (BrokenPipeError, OSError):
            # Worker died between units; its replacement gets the unit.
            pending.appendleft((index, item))
            worker.respawn()

    def _settle(
        self,
        worker: RequestWorker,
        event: Optional[WorkerEvent],
        pending: Deque[Tuple[int, Any]],
        on_ok: Callable[[int, Any], None],
        on_fail: Callable[[int, str, str], None],
    ) -> None:
        """Charge one supervision event to its unit."""
        if event is None or event.kind == STARTED:
            return
        if event.kind == REPLIED:
            assert event.reply is not None
            outcome = (event.reply.value if event.reply.ok
                       else ("fail", "unexpected", event.reply.value))
            if outcome[0] == "ok":
                on_ok(event.request_id, outcome[1])
            else:
                on_fail(event.request_id, outcome[1], outcome[2])
            return
        if event.kind == STARTUP_FAILED:
            raise WorkerStartupError(worker.name, event.detail)
        if event.request_id is not None:
            detail = (
                f"killed after exceeding the {self.timeout}s per-sample "
                "wall-clock limit"
                if event.kind == TIMED_OUT else event.detail
            )
            on_fail(event.request_id, event.kind, detail)
        if pending:
            worker.respawn()
