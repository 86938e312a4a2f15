"""Supervised request workers: the one supervisor in ``repro.workers``.

A :class:`RequestWorker` is a persistent child process: it initializes
once (loading a model replica, resolving an extraction worker), tells
the parent it is ready, then answers ``(request_id, payload)`` messages
until stopped.  Every supervision rule lives here — the in-flight
request and its deadline (readiness included), SIGKILL on a missed
deadline (:meth:`RequestWorker.expire`), the reply / ready / died sort
of each pipe message and the stale-reply drop (:meth:`RequestWorker.read`),
respawn — so the extraction pool
(:class:`~repro.workers.pool.ProcessWorkerPool`) and the serving fleet
(:class:`~repro.serve.fleet.FleetDispatcher`) are policy loops over a
set of these that only decide what each outcome costs.

Wire protocol (parent's view):

* child → parent, once: ``("__ready__", "ok", None)`` after successful
  init, or ``("__init_error__", "fail", detail)`` if the factory raised;
* parent → child: ``(request_id, payload)``; ``None`` asks the child to
  exit cleanly;
* child → parent: ``(request_id, "ok", result)`` or
  ``(request_id, "fail", detail)`` — handler exceptions are reported,
  never fatal, so one poisonous request cannot take a worker down.

Worker code is resolved by *name* inside the child: the parent ships a
``"module.path:function"`` entrypoint string plus picklable keyword
arguments, and the child imports and calls the factory itself.  No
callable ever crosses the pipe (the pool-safety invariant), so request
workers behave identically under fork and spawn start methods.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing.process import BaseProcess
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.exceptions import WorkerError, WorkerStartupError

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    #: Parent/child pipe end; payloads are heterogeneous tuples.
    PipeConn = Connection[Any, Any]

#: Seconds between deadline sweeps while waiting on worker pipes.
_TICK_SECONDS = 0.05

#: Grace period for joining a worker that closed its pipe or was killed.
_JOIN_SECONDS = 5.0

#: Seconds an idle child waits on its pipe between checks for its parent.
_ORPHAN_CHECK_SECONDS = 1.0

#: request_id of the readiness announcement (never a real request id).
READY = "__ready__"

#: request_id of an initialization-failure report.
INIT_ERROR = "__init_error__"

#: Default seconds a worker gets to initialize before it counts as failed.
DEFAULT_START_TIMEOUT = 60.0

#: Event kinds.  A worker dies in one of three ways; the last two are
#: also :class:`~repro.features.pipeline.FailureKind` values.
REPLIED = "reply"
STARTED = "ready"
STARTUP_FAILED = "startup"
CRASHED = "crash"
TIMED_OUT = "timeout"


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


def resolve_entrypoint(entrypoint: str) -> Callable[..., Any]:
    """Import and return the factory named by ``"module.path:function"``.

    Runs inside the child (and in tests); the returned factory is called
    with the worker's init kwargs and must return the request handler —
    a callable taking one payload and returning a picklable result.
    """
    module_name, _, attr = entrypoint.partition(":")
    if not module_name or not attr:
        raise WorkerError(
            f"entrypoint {entrypoint!r} is not of the form 'module:function'"
        )
    module = importlib.import_module(module_name)
    try:
        factory = getattr(module, attr)
    except AttributeError:
        raise WorkerError(
            f"entrypoint {entrypoint!r}: module {module_name!r} has no "
            f"attribute {attr!r}"
        ) from None
    if not callable(factory):
        raise WorkerError(f"entrypoint {entrypoint!r} is not callable")
    return factory


@dataclass(frozen=True)
class WorkerReply:
    """One parsed child → parent message."""

    request_id: Any
    ok: bool
    value: Any

    @classmethod
    def from_message(cls, message: Tuple[Any, ...]) -> "WorkerReply":
        request_id, status, value = message
        return cls(request_id=request_id, ok=(status == "ok"), value=value)


@dataclass(frozen=True)
class WorkerEvent:
    """One supervision outcome: a reply, readiness, or a death.

    ``request_id`` is the request a reply answers or a crash/timeout
    took down (``None`` when the worker died idle or before ready);
    ``detail`` says how a worker died.
    """

    kind: str
    request_id: Any = None
    reply: Optional[WorkerReply] = None
    detail: str = ""


def _request_worker_main(
    conn: "PipeConn", entrypoint: str, init_kwargs: Dict[str, Any]
) -> None:
    """Child process body: init once, announce, then serve requests.

    A forked child inherits copies of the parent's ends of its own pipe
    and of every earlier sibling's, so a parent killed outright never
    shows up as EOF here; an idle child therefore also exits once it has
    been reparented.
    """
    parent = os.getppid()  # repro: allow[fault-contract] — getppid cannot fail
    try:
        handler = resolve_entrypoint(entrypoint)(**init_kwargs)
    except BaseException as exc:  # repro: allow[broad-except] — init failure must reach the parent
        try:
            conn.send((INIT_ERROR, "fail", f"{type(exc).__name__}: {exc}"))  # repro: allow[fault-contract] — the INIT_ERROR report itself; OSError guarded, anything else is unreportable
        except OSError:
            pass
        return
    try:
        conn.send((READY, "ok", None))  # repro: allow[fault-contract] — constant payload; only OSError can occur and it is caught
    except OSError:  # parent died between spawn and ready; exit quietly
        return
    while True:
        try:
            if not conn.poll(_ORPHAN_CHECK_SECONDS):
                if os.getppid() != parent:  # repro: allow[fault-contract] — getppid cannot fail
                    break
                continue
            message = conn.recv()  # repro: allow[fault-contract] — non-EOF recv failure means a torn protocol; dying lets the parent classify the crash
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message is None:
            break
        request_id, payload = message
        try:
            result = handler(payload)
            reply = (request_id, "ok", result)
        except Exception as exc:  # repro: allow[broad-except] — handler faults are per-request data
            reply = (request_id, "fail", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except Exception as exc:  # repro: allow[broad-except] — unpicklable result; report, don't die
            conn.send(  # repro: allow[fault-contract] — last-resort report; a broken pipe here is a crash the parent detects
                (request_id, "fail",
                 f"worker result not transferable: {type(exc).__name__}: {exc}")
            )


class RequestWorker:
    """Parent-side handle on one supervised worker process.

    Exposes the raw pipe via :attr:`conn` so a dispatcher can multiplex
    many workers with ``multiprocessing.connection.wait``, then hands
    each readable pipe to :meth:`read` and sweeps deadlines with
    :meth:`expire`.  What a death costs (retry, report, respawn or not)
    is the dispatcher's policy.

    ``start_timeout`` is the readiness deadline of every start that does
    not block (:meth:`start` with ``wait_ready=None``, and respawns).
    """

    def __init__(
        self,
        name: str,
        entrypoint: str,
        init_kwargs: Optional[Dict[str, Any]] = None,
        start_timeout: float = DEFAULT_START_TIMEOUT,
    ) -> None:
        self.name = name
        self.entrypoint = entrypoint
        self.init_kwargs = dict(init_kwargs or {})
        self.start_timeout = start_timeout
        self.respawns = 0
        # fork where available: children inherit the parent's imports,
        # so a respawn under traffic costs milliseconds.
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        self._process: Optional[BaseProcess] = None
        self._conn: Optional["PipeConn"] = None
        self._ready = False
        # The one in-flight request (READY during the handshake).
        self._inflight: Any = None
        self._timeout: Optional[float] = None
        self._deadline: Optional[float] = None

    # -- introspection ------------------------------------------------

    @property
    def conn(self) -> Optional["PipeConn"]:
        """The parent end of the pipe (``None`` while stopped)."""
        return self._conn

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    @property
    def ready(self) -> bool:
        """True once the child announced successful initialization."""
        return self._ready

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    @property
    def busy(self) -> bool:
        """True while a request (not the readiness handshake) is in flight."""
        return self._ready and self._inflight is not None

    @property
    def idle(self) -> bool:
        """Ready, with nothing in flight: it may be sent a request."""
        return self._ready and self._inflight is None

    # -- lifecycle ----------------------------------------------------

    def start(self, wait_ready: Optional[float] = DEFAULT_START_TIMEOUT) -> None:
        """Spawn the child; optionally block until it announces ready.

        With ``wait_ready=None`` the call returns immediately, with the
        readiness handshake in flight under :attr:`start_timeout`; the
        caller collects it through :meth:`read` and :meth:`expire`.  A
        blocking start whose child reports an init error, dies, or misses
        the deadline raises :class:`WorkerStartupError`.
        """
        if self._process is not None:
            raise WorkerError(f"worker {self.name!r} is already started")
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=_request_worker_main,
            args=(child_conn, self.entrypoint, self.init_kwargs),
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps only its end
        self._process = process
        self._conn = parent_conn
        self._ready = False
        self._track(READY, self.start_timeout if wait_ready is None
                    else wait_ready)
        event = None
        while wait_ready is not None and event is None:
            event = self.expire(time.monotonic())
            if event is None and parent_conn.poll(_TICK_SECONDS):
                event = self.read()
        if event is not None and event.kind != STARTED:
            raise WorkerStartupError(self.name, event.detail)

    def send(self, request_id: Any, payload: Any,
             timeout: Optional[float] = None) -> None:
        """Ship one request; it stays in flight until its reply or death.

        ``timeout`` is its wall-clock deadline in seconds (``None``: no
        deadline).  Raises if the worker is down.
        """
        if self._conn is None:
            raise WorkerError(f"worker {self.name!r} is not started")
        self._conn.send((request_id, payload))
        self._track(request_id, timeout)

    def read(self) -> Optional[WorkerEvent]:
        """Receive one message off the readable pipe and sort it.

        Returns a :data:`REPLIED` event for the reply to the in-flight
        request, :data:`STARTED` for the readiness announcement, or a
        death — :data:`STARTUP_FAILED` before ready, :data:`CRASHED`
        after — which leaves the handle stopped.  Returns ``None`` for
        a stale reply, which is dropped.
        """
        if self._conn is None:
            raise WorkerError(f"worker {self.name!r} is not started")
        try:
            message = self._conn.recv()
        except (EOFError, OSError):
            started = self._ready
            lost, exitcode = self._kill()
            if not started:
                return WorkerEvent(
                    STARTUP_FAILED,
                    detail=f"process died during init (exit code {exitcode})",
                )
            return WorkerEvent(
                CRASHED, lost,
                detail=f"worker process died without reporting "
                       f"(exit code {exitcode})",
            )
        request_id = message[0]
        if request_id == INIT_ERROR:
            self._kill()
            return WorkerEvent(STARTUP_FAILED, detail=str(message[2]))
        if request_id == READY:
            self._ready = True
            self._track(None, None)
            return WorkerEvent(STARTED)
        if not self._ready or request_id != self._inflight:
            return None  # stale: its request was superseded or killed
        self._track(None, None)
        return WorkerEvent(
            REPLIED, request_id, reply=WorkerReply.from_message(message)
        )

    def expire(self, now: float) -> Optional[WorkerEvent]:
        """SIGKILL the child if its in-flight request missed its deadline.

        A missed readiness deadline is a :data:`STARTUP_FAILED` death, a
        missed request deadline a :data:`TIMED_OUT` one.
        """
        if self._deadline is None or now < self._deadline:
            return None
        timeout = self._timeout
        if not self._ready:
            self._kill()
            return WorkerEvent(
                STARTUP_FAILED, detail=f"not ready within {timeout}s"
            )
        lost, _ = self._kill()
        return WorkerEvent(
            TIMED_OUT, lost,
            detail=f"killed after exceeding its {timeout}s deadline",
        )

    def stop(self, kill: bool = False) -> Optional[int]:
        """Stop the child (politely unless ``kill``); returns exit code."""
        process, conn = self._process, self._conn
        if process is None or conn is None:
            return None
        if not kill and process.is_alive():
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        exitcode = terminate_process(process, conn, kill=kill)
        self._process = None
        self._conn = None
        self._ready = False
        self._track(None, None)
        return exitcode

    def respawn(self, kill: bool = True,
                wait_ready: Optional[float] = None) -> None:
        """Replace the child in place, bumping the respawn counter."""
        self.stop(kill=kill)
        self.respawns += 1
        self.start(wait_ready=wait_ready)

    # -- internals ----------------------------------------------------

    def _track(self, request_id: Any, timeout: Optional[float]) -> None:
        self._inflight = request_id
        self._timeout = timeout
        self._deadline = (None if timeout is None
                          else time.monotonic() + timeout)

    def _kill(self) -> Tuple[Any, Optional[int]]:
        """SIGKILL the child; returns what was in flight and the exit code."""
        lost = self._inflight if self._ready else None
        return lost, self.stop(kill=True)
