"""Batch-mode supervised process pool.

This module implements the small supervised pool the extraction service
requires:

* one pipe-connected worker process per slot, each running units pulled
  from the parent (work units are pickled across the pipe, results come
  back the same way);
* a per-sample wall-clock deadline enforced by the parent — a worker
  that blows its deadline is SIGKILLed, the sample is reported as a
  structured timeout, and a fresh worker takes the slot;
* crash detection — a worker that dies without reporting (segfault,
  ``os._exit``, OOM kill) costs exactly its in-flight sample, reported
  with the observed exit code.

The parent applies outcomes through callbacks, so the policy layer
(journaling, quarantine, report assembly) lives entirely in
:mod:`repro.features.pipeline`.  The process-lifecycle helpers
(:func:`pool_context`, :func:`terminate_process`) are shared with the
long-lived request mode in :mod:`repro.workers.request`.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from multiprocessing import connection as mp_connection
from multiprocessing.context import BaseContext
from multiprocessing.process import BaseProcess
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

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    #: Parent/child pipe end; payloads are heterogeneous tuples.
    PipeConn = Connection[Any, Any]

#: Seconds between deadline sweeps while waiting on worker pipes.
_TICK_SECONDS = 0.05

#: Grace period for joining a worker that closed its pipe or was killed.
_JOIN_SECONDS = 5.0


def pool_context() -> BaseContext:
    """The multiprocessing context every supervised worker spawns under.

    ``fork`` when the platform offers it (workers inherit the parent's
    imports, so a respawn costs milliseconds, which matters when a
    serving fleet replaces a crashed replica under traffic); the
    platform default otherwise.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def terminate_process(
    process: BaseProcess, conn: "PipeConn", kill: bool
) -> Optional[int]:
    """Stop a worker process and close its pipe; returns its exit code."""
    try:
        if kill and process.is_alive():
            process.kill()
        process.join(timeout=_JOIN_SECONDS)
        if process.is_alive():  # pragma: no cover - last resort
            process.kill()
            process.join(timeout=_JOIN_SECONDS)
        return process.exitcode
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def _worker_main(conn: "PipeConn", worker_name: str, worker_ctx: Any) -> None:
    """Worker process body: recv unit, execute, send outcome, repeat.

    Outcomes are produced by :func:`repro.features.pipeline.execute_unit`,
    which never raises — every exception is already classified into the
    failure taxonomy inside the worker, so the only unreported deaths are
    real crashes (which the parent detects via the closed pipe).
    """
    from repro.features import pipeline  # deferred: parent imports us

    worker_fn = pipeline.resolve_worker(worker_name).fn  # repro: allow[fault-contract] — a misconfigured worker name is fatal; the parent reports the closed pipe as a crash
    while True:
        try:
            message = conn.recv()  # repro: allow[fault-contract] — non-EOF recv failure means a torn protocol; dying lets the parent classify the crash
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message is None:
            break
        index, item = message
        outcome = pipeline.execute_unit(worker_fn, item, index, worker_ctx)
        try:
            conn.send((index,) + outcome)
        except Exception as exc:  # repro: allow[broad-except] — unpicklable result; report, don't die
            conn.send(  # repro: allow[fault-contract] — last-resort report; a broken pipe here is a crash the parent detects
                (index, "fail", "unexpected",
                 f"worker result not transferable: {type(exc).__name__}: {exc}")
            )


class _Slot:
    """One worker process plus its pipe and in-flight unit, if any."""

    __slots__ = ("process", "conn", "index", "item", "deadline")

    def __init__(self, process: BaseProcess, conn: "PipeConn") -> None:
        self.process = process
        self.conn = conn
        self.index: Optional[int] = None
        self.item: Any = None
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.index is not None

    def clear(self) -> None:
        self.index = None
        self.item = None
        self.deadline = None


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
        self._mp = pool_context()

    # -- lifecycle ----------------------------------------------------

    def _spawn(self) -> _Slot:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=_worker_main,
            args=(child_conn, self.worker_name, self.worker_ctx),
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps only its end
        return _Slot(process, parent_conn)

    @staticmethod
    def _terminate(slot: _Slot, kill: bool) -> Optional[int]:
        """Stop a slot's process; returns its exit code when known."""
        return terminate_process(slot.process, slot.conn, kill)

    # -- execution ----------------------------------------------------

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
        slots: List[_Slot] = [
            self._spawn() for _ in range(min(self.max_workers, len(pending)))
        ]
        try:
            while pending or any(slot.busy for slot in slots):
                self._dispatch(slots, pending, on_fail)
                self._collect(slots, pending, on_fail, on_ok)
                self._enforce_deadlines(slots, pending, on_fail)
        finally:
            for slot in slots:
                if slot.process.is_alive():
                    try:
                        slot.conn.send(None)
                    except (BrokenPipeError, OSError):
                        pass
                self._terminate(slot, kill=False)

    def _dispatch(
        self,
        slots: List[_Slot],
        pending: "Deque[Tuple[int, Any]]",
        on_fail: Callable[[int, str, str], None],
    ) -> None:
        for position, slot in enumerate(slots):
            if slot.busy or not pending:
                continue
            index, item = pending.popleft()
            slot.index, slot.item = index, item
            if self.timeout is not None:
                slot.deadline = time.monotonic() + self.timeout
            try:
                slot.conn.send((index, item))
            except (BrokenPipeError, OSError):
                # Worker died between units; its replacement gets the unit.
                pending.appendleft((index, item))
                slot.clear()
                self._terminate(slot, kill=True)
                slots[position] = self._spawn()

    def _collect(
        self,
        slots: List[_Slot],
        pending: "Deque[Tuple[int, Any]]",
        on_fail: Callable[[int, str, str], None],
        on_ok: Callable[[int, Any], None],
    ) -> None:
        busy: "Dict[PipeConn, _Slot]" = {
            slot.conn: slot for slot in slots if slot.busy
        }
        if not busy:
            return
        for conn in mp_connection.wait(list(busy), timeout=_TICK_SECONDS):
            slot = busy[cast("PipeConn", conn)]
            try:
                message = slot.conn.recv()
            except (EOFError, OSError):
                self._replace_crashed(slots, slot, pending, on_fail)
                continue
            index, status, *payload = message
            if status == "ok":
                on_ok(index, payload[0])
            else:
                on_fail(index, payload[0], payload[1])
            slot.clear()

    def _enforce_deadlines(
        self,
        slots: List[_Slot],
        pending: "Deque[Tuple[int, Any]]",
        on_fail: Callable[[int, str, str], None],
    ) -> None:
        if self.timeout is None:
            return
        now = time.monotonic()
        for position, slot in enumerate(slots):
            index = slot.index
            if index is None or slot.deadline is None or now < slot.deadline:
                continue
            slot.clear()
            self._terminate(slot, kill=True)
            on_fail(
                index,
                "timeout",
                f"killed after exceeding the {self.timeout}s "
                "per-sample wall-clock limit",
            )
            if pending or any(s.busy for s in slots):
                slots[position] = self._spawn()

    def _replace_crashed(
        self,
        slots: List[_Slot],
        slot: _Slot,
        pending: "Deque[Tuple[int, Any]]",
        on_fail: Callable[[int, str, str], None],
    ) -> None:
        """A worker died without reporting: charge its in-flight unit."""
        index = slot.index
        assert index is not None  # only busy slots are collected
        slot.clear()
        exitcode = self._terminate(slot, kill=True)
        on_fail(
            index,
            "crash",
            f"worker process died without reporting (exit code {exitcode})",
        )
        position = slots.index(slot)
        if pending or any(s.busy for s in slots):
            slots[position] = self._spawn()
