"""Supervised worker processes: the shared fault-model for parallel work.

``concurrent.futures`` pools cannot express the fault model this project
needs: a thread cannot be cancelled at all, and a process-pool executor
cannot kill *one* hung worker without tearing down the whole pool, nor
survive one worker's crash.
This package owns the one supervisor both halves of the system run on,
:class:`~repro.workers.request.RequestWorker`, which holds every
supervision rule (deadline and SIGKILL, crash and startup-failure
detection, stale replies, respawn).  The batch-mode
:class:`~repro.workers.pool.ProcessWorkerPool` (the one runner of
offline work units: extraction and the sweep) and the serving fleet
(:mod:`repro.serve.fleet`) are policy loops over it;
:class:`~repro.workers.request.InProcessWorker` runs the same worker
body on a thread, for the single-process service.
Worker code is resolved by *name* inside the child, so no callable ever
crosses a pipe — the pool-safety invariant that keeps fork and spawn
platforms equivalent.
"""

from repro.workers.pool import ProcessWorkerPool
from repro.workers.request import (
    InProcessWorker,
    RequestWorker,
    WorkerEvent,
    WorkerReply,
    resolve_entrypoint,
)

__all__ = [
    "InProcessWorker",
    "ProcessWorkerPool",
    "RequestWorker",
    "WorkerEvent",
    "WorkerReply",
    "resolve_entrypoint",
]
