"""Thread-safe serving metrics: counters, histograms, latency percentiles.

Each observation is recorded once, where it happens: a replica's
inference engine records request outcomes, cache tiers and the
``extract`` / ``forward`` / ``fingerprint`` stages into its own
:class:`ServeMetrics` and ships them with each batch's results
(:meth:`ServeMetrics.drain`), with the growth of its tape and
collate-memo counters; the dispatcher merges them into the
service-wide instance, where it also records batch sizes, the
failures it decides itself (crash, timeout) and the requests its answer
tier answers (an ``exact`` hit and an outcome each), and the HTTP front end
records the ``request`` stage.  ``snapshot()`` returns a plain-JSON
view — what ``/metrics`` serves — so operators can watch coalescing
behaviour (the batch-size histogram) and the per-stage latency
distribution without attaching a profiler.

Latency percentiles are computed over a bounded ring of recent
observations per stage: a long-running server keeps O(1) memory and the
percentiles track current behaviour rather than the all-time mix.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from typing import Any, Deque, Dict, Optional

import numpy as np

from repro.exceptions import ServeError

#: Default per-stage latency window (observations kept for percentiles).
DEFAULT_LATENCY_WINDOW = 2048

#: Percentiles reported per stage, in ``pNN`` key form.
PERCENTILES = (50, 90, 99)

#: Prediction-cache tiers: exact sha256 hit, similarity-tier hit, miss.
CACHE_TIERS = ("exact", "similar", "miss")

#: Bin width of the similarity histogram (estimated Jaccard of
#: similar-tier hits, floored to the bin's lower edge).
SIMILARITY_BIN = 0.05


class Observations:
    """Everything counted since a reset; picklable, so it can cross a pipe.

    A replica's engine records into its own :class:`ServeMetrics` and
    hands the batch's observations back with the results
    (:meth:`ServeMetrics.drain`); the dispatcher folds them into the
    service-wide one (:meth:`ServeMetrics.merge`).
    """

    def __init__(self, latency_window: int) -> None:
        self.latency_window = latency_window
        self.requests: Counter[str] = Counter()  # "ok" / "failed"
        self.failures_by_kind: Counter[str] = Counter()
        self.cache_tiers: Counter[str] = Counter()  # keyed by CACHE_TIERS
        self.similarity_bins: Counter[str] = Counter()
        self.batch_sizes: Counter[int] = Counter()
        self.stage_seconds: Dict[str, Deque[float]] = {}
        self.stage_counts: Counter[str] = Counter()
        # tape_captures, tape_replays, collate_hits, collate_misses
        self.counters: Counter[str] = Counter()

    def ring(self, stage: str) -> Deque[float]:
        ring = self.stage_seconds.get(stage)
        if ring is None:
            ring = deque(maxlen=self.latency_window)
            self.stage_seconds[stage] = ring
        return ring

    def merge(self, other: "Observations") -> None:
        self.requests.update(other.requests)
        self.failures_by_kind.update(other.failures_by_kind)
        self.cache_tiers.update(other.cache_tiers)
        self.similarity_bins.update(other.similarity_bins)
        self.batch_sizes.update(other.batch_sizes)
        for stage, ring in other.stage_seconds.items():
            self.ring(stage).extend(ring)
        self.stage_counts.update(other.stage_counts)
        self.counters.update(other.counters)


class ServeMetrics:
    """Aggregates serving observations from engine, dispatcher, and HTTP."""

    def __init__(self, latency_window: int = DEFAULT_LATENCY_WINDOW) -> None:
        if latency_window < 1:
            raise ServeError(
                f"latency_window must be >= 1, got {latency_window}"
            )
        self._lock = threading.Lock()
        self._latency_window = latency_window
        self._seen = Observations(latency_window)

    # -- recording ----------------------------------------------------

    def observe_request(self, ok: bool, kind: Optional[str] = None) -> None:
        """One classification request finished (success or failure)."""
        with self._lock:
            self._seen.requests["ok" if ok else "failed"] += 1
            if not ok and kind:
                self._seen.failures_by_kind[kind] += 1

    def observe_cache_tier(
        self, tier: str, similarity: Optional[float] = None
    ) -> None:
        """One prediction-cache lookup resolved at ``tier``.

        ``similarity`` (the estimated Jaccard of the match) is recorded
        into the similarity histogram for ``"similar"``-tier hits.
        """
        if tier not in CACHE_TIERS:
            raise ServeError(
                f"cache tier must be one of {CACHE_TIERS}, got {tier!r}"
            )
        with self._lock:
            self._seen.cache_tiers[tier] += 1
            if tier == "similar" and similarity is not None:
                edge = int(similarity / SIMILARITY_BIN) * SIMILARITY_BIN
                self._seen.similarity_bins[f"{edge:.2f}"] += 1

    def observe_batch(self, size: int) -> None:
        """One batch went through a replica."""
        with self._lock:
            self._seen.batch_sizes[int(size)] += 1

    def observe_stage(self, stage: str, seconds: float) -> None:
        """One timed pass through a pipeline stage (extract/forward/...)."""
        with self._lock:
            self._seen.ring(stage).append(float(seconds))
            self._seen.stage_counts[stage] += 1

    def observe_counters(self, increments: Dict[str, int]) -> None:
        """The engine's tape and collate-memo counters grew by ``increments``."""
        with self._lock:
            self._seen.counters.update(increments)

    def drain(self) -> Observations:
        """Hand over everything observed so far and start from zero."""
        with self._lock:
            seen, self._seen = self._seen, Observations(self._latency_window)
        return seen

    def merge(self, observations: Observations) -> None:
        """Add another recorder's drained observations to this one."""
        with self._lock:
            self._seen.merge(observations)

    # -- reading ------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready view of everything observed so far."""
        with self._lock:
            seen = self._seen
            ok, failed = seen.requests["ok"], seen.requests["failed"]
            exact = seen.cache_tiers["exact"]
            similar = seen.cache_tiers["similar"]
            misses = seen.cache_tiers["miss"]
            cache_hits = exact + similar
            cache_total = cache_hits + misses
            batches = sum(seen.batch_sizes.values())
            batched_requests = sum(
                size * count for size, count in seen.batch_sizes.items()
            )
            latency_ms = {
                stage: self._percentiles_ms(ring, seen.stage_counts[stage])
                for stage, ring in sorted(seen.stage_seconds.items())
            }
            counters = seen.counters
            return {
                "requests": {
                    "total": ok + failed,
                    "ok": ok,
                    "failed": failed,
                    "failures_by_kind": dict(sorted(
                        seen.failures_by_kind.items()
                    )),
                },
                "cache": {
                    # "hits" (both tiers combined) and "hit_rate" predate
                    # the tiered cache and stay for dashboard compat.
                    "hits": cache_hits,
                    "exact_hits": exact,
                    "similar_hits": similar,
                    "misses": misses,
                    "hit_rate": (
                        cache_hits / cache_total if cache_total else 0.0
                    ),
                    "similarity_histogram": {
                        edge: count for edge, count in sorted(
                            seen.similarity_bins.items()
                        )
                    },
                },
                "batches": {
                    "count": batches,
                    "mean_size": (
                        batched_requests / batches if batches else 0.0
                    ),
                    # JSON object keys are strings; sizes sort numerically
                    # before stringifying so the histogram reads in order.
                    "size_histogram": {
                        str(size): count for size, count in sorted(
                            seen.batch_sizes.items()
                        )
                    },
                },
                "latency_ms": latency_ms,
                "tape": {
                    "captures": counters["tape_captures"],
                    "replays": counters["tape_replays"],
                },
                "collate": {
                    "hits": counters["collate_hits"],
                    "misses": counters["collate_misses"],
                },
            }

    @staticmethod
    def _percentiles_ms(ring: Deque[float], count: int) -> Dict[str, Any]:
        values = np.asarray(ring, dtype=np.float64) * 1000.0
        stats: Dict[str, Any] = {"count": count}
        for percentile in PERCENTILES:
            stats[f"p{percentile}"] = round(
                float(np.percentile(values, percentile)), 3
            )
        return stats
