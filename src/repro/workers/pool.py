"""Batch-mode runner for offline work units: one loop over request workers.

:class:`ProcessWorkerPool` runs a finite batch of ``(index, item)``
units through the handler a named entrypoint factory returns — ACFG
extraction (:func:`repro.features.pipeline.extraction_service`) and the
hyper-parameter sweep (:func:`repro.train.sweep.fold_service`) both run
on it.  A handler never raises: it returns ``("ok", result)`` or
``("fail", kind, detail)``.

With one worker and no deadline the units run inline, through a handler
the factory builds in this process.  Otherwise they run on supervised
:class:`~repro.workers.request.RequestWorker` children.  Supervision —
the per-unit deadline and its SIGKILL, crash detection on pipe EOF, the
stale-reply drop, the orphan watchdog, respawn — is the request
worker's; the pool only decides what each outcome costs:

* a reply carries the handler's outcome tuple to the callbacks;
* a unit whose worker blew its deadline is reported as a ``timeout``,
  one whose worker died as a ``crash`` with the observed exit code, and
  a fresh worker takes the slot while units remain;
* a worker that cannot start raises
  :class:`~repro.exceptions.WorkerStartupError`: no unit can run on it.

The parent applies outcomes through callbacks, so the policy layers
(journaling, quarantine and report assembly for extraction; retries and
failure records for the sweep) live with their callers.
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
    Dict,
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
    resolve_entrypoint,
)

if TYPE_CHECKING:
    from repro.workers.request import PipeConn

OnOk = Callable[[int, Any], None]
OnFail = Callable[[int, str, str], None]


def _report(outcome: Tuple[Any, ...], index: int, on_ok: OnOk,
            on_fail: OnFail) -> None:
    """Hand one handler outcome tuple to its callback."""
    if outcome[0] == "ok":
        on_ok(index, outcome[1])
    else:
        on_fail(index, outcome[1], outcome[2])


class ProcessWorkerPool:
    """Run work units inline or on killable, respawnable worker processes.

    Parameters
    ----------
    entrypoint:
        ``"module.path:function"`` factory resolved inside each worker
        (the callable itself is never pickled, so the pool works under
        both fork and spawn); called with ``init_kwargs``, it returns the
        unit handler.
    init_kwargs:
        Keyword arguments of the factory.  Forked workers inherit them,
        and the inline path passes them by reference.
    max_workers:
        Number of concurrent worker processes; ``1`` without a
        ``timeout`` runs the units inline.
    timeout:
        Optional per-unit wall-clock limit in seconds; a unit still
        running at its deadline is killed and reported as a timeout.
    """

    def __init__(
        self,
        entrypoint: str,
        init_kwargs: Dict[str, Any],
        max_workers: int,
        timeout: Optional[float] = None,
    ) -> None:
        self.entrypoint = entrypoint
        self.init_kwargs = init_kwargs
        self.max_workers = max_workers
        self.timeout = timeout

    def run(
        self,
        units: Sequence[Tuple[int, Any]],
        on_ok: OnOk,
        on_fail: OnFail,
    ) -> None:
        """Execute every ``(index, item)`` unit, reporting via callbacks.

        Callbacks run in the parent (this) thread, in completion order;
        the caller re-establishes input order from the indices.
        """
        pending: Deque[Tuple[int, Any]] = deque(units)
        if not pending:
            return
        if self.max_workers == 1 and self.timeout is None:
            handler = resolve_entrypoint(self.entrypoint)(**self.init_kwargs)
            for unit in pending:
                _report(handler(unit), unit[0], on_ok, on_fail)
            return
        label = self.entrypoint.rpartition(":")[2]
        workers: List[RequestWorker] = [
            RequestWorker(f"{label}#{slot}", self.entrypoint, self.init_kwargs)
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
        unit = pending.popleft()
        try:
            worker.send(unit[0], unit, timeout=self.timeout)
        except (BrokenPipeError, OSError):
            # Worker died between units; its replacement gets the unit.
            pending.appendleft(unit)
            worker.respawn()

    def _settle(
        self,
        worker: RequestWorker,
        event: Optional[WorkerEvent],
        pending: Deque[Tuple[int, Any]],
        on_ok: OnOk,
        on_fail: OnFail,
    ) -> None:
        """Charge one supervision event to its unit."""
        if event is None or event.kind == STARTED:
            return
        if event.kind == REPLIED:
            assert event.reply is not None
            outcome = (event.reply.value if event.reply.ok
                       else ("fail", "unexpected", event.reply.value))
            _report(outcome, event.request_id, on_ok, on_fail)
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
