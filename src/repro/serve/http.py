"""Stdlib-only threaded HTTP front end for the classification service.

Endpoints, all JSON:

* ``POST /classify`` — body ``{"name": "...", "asm": "<listing text>"}``;
  replies ``200`` with family/label/probabilities, or ``422`` with the
  structured extraction failure (``{"error": {"kind", "detail"}}``) when
  the *sample* is bad, or ``400`` when the *request* is bad, or ``503``
  when the *service* is (queue timeout, draining, dead fleet).
* ``GET /healthz``  — liveness plus the served model's identity.
* ``GET /metrics``  — the :class:`~repro.serve.metrics.ServeMetrics`
  snapshot plus a ``"fleet"`` section with per-replica state (busy,
  served, respawns, queue depth).
* ``POST /rollout/start`` / ``GET /rollout/status`` /
  ``POST /rollout/promote`` / ``POST /rollout/rollback`` — the
  zero-downtime rollout control surface (replica processes only;
  ``409`` for the in-process replica).

The server is front-end only: its **backend** is a
:class:`~repro.serve.fleet.FleetDispatcher`, whether it runs one
in-process replica (``--workers 0``) or N replica processes, so every
handler path is the same in both modes.

Operational contracts pinned here:

* ``allow_reuse_address`` is ``True`` on the server class, so rapid
  restart and rollout cycles rebind the port without waiting out
  ``TIME_WAIT`` sockets.
* Shutdown is ordered: stop accepting connections, drain in-flight
  batches (handler threads are non-daemon and joined), then close the
  socket — a request accepted before shutdown still completes with its
  real status.
* Leaving the ``with`` block before ``serve_forever`` runs stops the
  backend and closes the socket without hanging, and a later
  ``serve_forever`` returns at once.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import RolloutError, ServeError
from repro.features.pipeline import FailureKind
from repro.serve.engine import ClassificationResult
from repro.serve.fleet import FleetDispatcher

#: Largest accepted request body; a listing bigger than this is not a
#: classification request, it is a denial of service.
MAX_BODY_BYTES = 32 * 1024 * 1024


class ClassificationServer(ThreadingHTTPServer):
    """HTTP server over a :class:`FleetDispatcher` backend."""

    # Restart/rollout cycles must rebind immediately; without this a
    # lingering TIME_WAIT socket from the previous incarnation fails the
    # bind and turns every redeploy into a coin flip.
    allow_reuse_address = True

    # Handler threads are non-daemon and joined by server_close(), so an
    # ordered shutdown lets in-flight requests finish with real answers
    # instead of dying mid-write with the process.
    daemon_threads = False
    block_on_close = True

    def __init__(
        self,
        address: Tuple[str, int],
        backend: FleetDispatcher,
        request_timeout: float = 60.0,
        quiet: bool = True,
        include_margin: bool = False,
    ) -> None:
        super().__init__(address, _Handler)
        self.backend = backend
        self.request_timeout = request_timeout
        self.quiet = quiet
        #: Opt-in: add the top-2 score margin to /classify responses.
        self.include_margin = include_margin
        self.started_at = time.monotonic()
        # Either the loop starts and __exit__ shuts it down, or it never runs.
        self._loop_lock = threading.Lock()
        self._loop_started = False
        self._closing = False

    @property
    def port(self) -> int:
        return self.server_address[1]

    def __enter__(self) -> "ClassificationServer":
        self.backend.start()
        return self

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        with self._loop_lock:
            if self._closing:
                return
            self._loop_started = True
        super().serve_forever(poll_interval)

    def __exit__(self, *exc_info) -> None:
        # Ordered drain: (1) stop accepting new connections, (2) let the
        # backend finish every queued batch (handler threads parked in
        # submit() get their results and write their responses), (3)
        # join handler threads and close the socket -- also when a
        # second Ctrl-C interrupts the drain.  shutdown() waits for the
        # loop, so it would hang forever had the loop never started.
        with self._loop_lock:
            self._closing = True
            loop_started = self._loop_started
        try:
            if loop_started:
                self.shutdown()
        finally:
            try:
                self.backend.stop()
            finally:
                self.server_close()

    def serve(self) -> None:
        """Run until interrupted (the CLI entry point)."""
        with self:
            self.serve_forever()


def build_server(
    dispatcher: FleetDispatcher,
    host: str = "127.0.0.1",
    port: int = 0,
    request_timeout: float = 60.0,
    quiet: bool = True,
    include_margin: bool = False,
) -> ClassificationServer:
    """A server (not yet started) over ``dispatcher``; ``port=0`` = any free."""
    return ClassificationServer(
        (host, port),
        dispatcher,
        request_timeout=request_timeout,
        quiet=quiet,
        include_margin=include_margin,
    )


class _Handler(BaseHTTPRequestHandler):
    server: ClassificationServer

    #: Socket inactivity limit so a stalled client cannot pin a
    #: (non-daemon) handler thread past shutdown.
    timeout = 30.0

    # -- routing -------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        try:
            if self.path == "/healthz":
                self._send(200, self._health_payload())
            elif self.path == "/metrics":
                self._send(200, self.server.backend.metrics_snapshot())
            elif self.path == "/rollout/status":
                self._rollout_status()
            else:
                self._send(404, {"error": f"unknown path {self.path!r}"})
        except Exception as exc:  # repro: allow[broad-except] — handler threads answer 500, they do not die
            self._send_fault(exc)  # repro: allow[fault-contract] — last-resort 500; only socket failures remain and those end the connection anyway

    def do_POST(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        try:
            if self.path == "/classify":
                self._classify()
            elif self.path == "/rollout/start":
                self._rollout_start()
            elif self.path == "/rollout/promote":
                self._rollout_action("promote")
            elif self.path == "/rollout/rollback":
                self._rollout_action("rollback")
            else:
                self._send(404, {"error": f"unknown path {self.path!r}"})
        except Exception as exc:  # repro: allow[broad-except] — handler threads answer 500, they do not die
            self._send_fault(exc)  # repro: allow[fault-contract] — last-resort 500; only socket failures remain and those end the connection anyway

    def _send_fault(self, exc: Exception) -> None:
        """Map an unexpected handler fault to a structured 500."""
        try:
            self._send(
                500,
                {
                    "error": "unexpected server error: "
                             f"{type(exc).__name__}: {exc}",
                    "kind": FailureKind.CRASH.value,
                },
            )
        except OSError:  # pragma: no cover - client gone mid-reply
            pass

    # -- /classify -----------------------------------------------------

    def _classify(self) -> None:
        started = time.perf_counter()
        body, error = self._read_json()
        if error is not None:
            self._send(400, {"error": error})
            return
        text = body.get("asm")
        if not isinstance(text, str) or not text.strip():
            self._send(
                400,
                {"error": "request body must carry a non-empty 'asm' "
                          "field with the listing text"},
            )
            return
        name = body.get("name", "")
        if not isinstance(name, str):
            self._send(400, {"error": "'name' must be a string"})
            return
        try:
            result = self.server.backend.submit(
                text, name=name, timeout=self.server.request_timeout
            )
        except ServeError as exc:
            # Queue timeout or a stopping backend: the service (not the
            # sample) is the problem, so 503 rather than 422.
            self._send(503, {"error": str(exc)})
            return
        self.server.backend.metrics.observe_stage(
            "request", time.perf_counter() - started
        )
        status, payload = _result_payload(
            result, include_margin=self.server.include_margin
        )
        self._send(status, payload)

    # -- /rollout/* ----------------------------------------------------

    def _rollout_status(self) -> None:
        try:
            status = self.server.backend.rollout_status()
        except RolloutError as exc:
            self._send(409, {"error": str(exc)})
            return
        if status is None:
            self._send(404, {"error": "no rollout has been started"})
        else:
            self._send(200, status)

    def _rollout_start(self) -> None:
        body, error = self._read_json()
        if error is not None:
            self._send(400, {"error": error})
            return
        version = body.get("version")
        if not isinstance(version, str) or not version:
            self._send(400, {"error": "request body must carry the "
                                      "candidate 'version' string"})
            return
        from repro.serve.rollout import RolloutConfig

        kwargs: Dict[str, Any] = {"version": version}
        for field, caster in (
            ("num_workers", int),
            ("shadow_fraction", float),
            ("min_samples", int),
            ("min_parity", float),
            ("max_latency_ratio", float),
            ("auto", bool),
        ):
            if field in body:
                try:
                    kwargs[field] = caster(body[field])
                except (TypeError, ValueError):
                    self._send(400, {"error": f"invalid {field!r} value"})
                    return
        try:
            config = RolloutConfig(**kwargs)
            status = self.server.backend.start_rollout(config)
        except (RolloutError, ServeError) as exc:
            self._send(409, {"error": str(exc)})
            return
        self._send(200, status)

    def _rollout_action(self, action: str) -> None:
        try:
            status = getattr(self.server.backend, action)()
        except (RolloutError, ServeError) as exc:
            self._send(409, {"error": str(exc)})
            return
        self._send(200, status)

    # -- helpers -------------------------------------------------------

    def _health_payload(self) -> dict:
        backend = self.server.backend
        payload = {
            "status": "ok",
            "model": backend.describe_model(),
            "families": list(backend.family_names),
            "uptime_seconds": round(
                time.monotonic() - self.server.started_at, 3
            ),
            "batching": backend.batching_info(),
            "workers": len(backend.fleet_snapshot()["workers"]),
        }
        return payload

    def _read_json(self) -> Tuple[Optional[dict], Optional[str]]:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            return None, "missing or invalid Content-Length"
        if length <= 0:
            return None, "empty request body"
        if length > MAX_BODY_BYTES:
            return None, f"request body exceeds {MAX_BODY_BYTES} bytes"
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return None, f"request body is not valid JSON: {exc}"
        if not isinstance(body, dict):
            return None, "request body must be a JSON object"
        return body, None

    def _send(self, status: int, payload: dict) -> None:
        encoded = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)


def _result_payload(
    result: ClassificationResult, include_margin: bool = False
) -> Tuple[int, dict]:
    if result.failure is not None:
        return 422, {
            "name": result.name,
            "cached": result.cached,
            "error": {
                "kind": result.failure.kind.value,
                "detail": result.failure.detail,
            },
        }
    assert result.probabilities is not None
    payload = {
        "name": result.name,
        "family": result.family,
        "label": result.label,
        "confidence": result.confidence,
        "cached": result.cached,
        # Always present so clients needn't guess whether the server
        # runs the similarity tier; "similarity" rides along on hits.
        "similar": result.similar,
        "probabilities": [float(p) for p in result.probabilities],
    }
    if result.similar and result.similarity is not None:
        payload["similarity"] = result.similarity
    if include_margin:
        payload["margin"] = result.margin
    return 200, payload
