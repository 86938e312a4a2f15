"""Online classification service: the deployment layer of MAGIC.

The paper frames per-sample testing time as the deployment-relevant
metric (Section V-E); this package turns the trained pieces into the
service that metric describes:

* :mod:`repro.serve.registry` — versioned, sha256-verified model
  archives carrying the family table and the fitted scaling parameters.
* :mod:`repro.serve.engine` — the text -> CFG -> ACFG -> batched-DGCNN
  prediction path with per-request fault isolation and a content-hash
  LRU prediction cache.
* :mod:`repro.serve.fleet` — the one dispatcher every service runs
  on: continuous batching that coalesces queued requests into shared
  ``GraphBatch`` forwards, over one in-process replica thread
  (``--workers 0``) or N long-lived replica processes (least-loaded
  routing, SIGKILL+respawn supervision), behind one exact answer tier
  that answers resubmitted listings in the server process.
* :mod:`repro.serve.rollout` — zero-downtime rollout: shadow a
  candidate registry version on mirrored traffic, judge the canary
  report, promote or roll back atomically.
* :mod:`repro.serve.http` — stdlib threaded HTTP front end
  (``/classify``, ``/healthz``, ``/metrics``, ``/rollout/*``) over
  the dispatcher.
* :mod:`repro.serve.metrics` — thread-safe counters, latency
  percentiles, and the batch size histogram behind ``/metrics``.
"""

from repro.serve.engine import ClassificationResult, InferenceEngine
from repro.serve.fleet import FleetDispatcher
from repro.serve.http import ClassificationServer, build_server
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import (
    ArchiveInfo,
    LoadedModel,
    list_models,
    list_versions,
    load,
    load_archive,
    publish,
    read_manifest,
    resolve_version,
)
from repro.serve.rollout import CanaryReport, RolloutConfig, RolloutController

__all__ = [
    "ArchiveInfo",
    "CanaryReport",
    "ClassificationResult",
    "ClassificationServer",
    "FleetDispatcher",
    "InferenceEngine",
    "LoadedModel",
    "RolloutConfig",
    "RolloutController",
    "ServeMetrics",
    "build_server",
    "list_models",
    "list_versions",
    "load",
    "load_archive",
    "publish",
    "read_manifest",
    "resolve_version",
]
