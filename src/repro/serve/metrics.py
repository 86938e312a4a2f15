"""Thread-safe serving metrics: counters, histograms, latency percentiles.

One :class:`ServeMetrics` instance is shared by the inference engine
(cache hits, per-stage latencies), the micro-batcher (batch-size
histogram), and the HTTP front end (request outcomes).  ``snapshot()``
returns a plain-JSON view — what ``/metrics`` serves — so operators can
watch coalescing behaviour (the batch-size histogram) and the per-stage
latency distribution without attaching a profiler.

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


class ServeMetrics:
    """Aggregates serving observations from engine, batcher, and HTTP."""

    def __init__(self, latency_window: int = DEFAULT_LATENCY_WINDOW) -> None:
        if latency_window < 1:
            raise ServeError(
                f"latency_window must be >= 1, got {latency_window}"
            )
        self._lock = threading.Lock()
        self._latency_window = latency_window
        self._requests_ok = 0
        self._requests_failed = 0
        self._failures_by_kind: Counter[str] = Counter()
        self._cache_exact_hits = 0
        self._cache_similar_hits = 0
        self._cache_misses = 0
        self._similarity_bins: Counter[str] = Counter()
        self._batch_sizes: Counter[int] = Counter()
        self._stage_seconds: Dict[str, Deque[float]] = {}
        self._stage_counts: Counter[str] = Counter()

    # -- recording ----------------------------------------------------

    def observe_request(self, ok: bool, kind: Optional[str] = None) -> None:
        """One classification request finished (success or failure)."""
        with self._lock:
            if ok:
                self._requests_ok += 1
            else:
                self._requests_failed += 1
                if kind:
                    self._failures_by_kind[kind] += 1

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
            if tier == "exact":
                self._cache_exact_hits += 1
            elif tier == "similar":
                self._cache_similar_hits += 1
                if similarity is not None:
                    edge = int(similarity / SIMILARITY_BIN) * SIMILARITY_BIN
                    self._similarity_bins[f"{edge:.2f}"] += 1
            else:
                self._cache_misses += 1

    def observe_batch(self, size: int) -> None:
        """One micro-batch went through the model."""
        with self._lock:
            self._batch_sizes[int(size)] += 1

    def observe_stage(self, stage: str, seconds: float) -> None:
        """One timed pass through a pipeline stage (extract/forward/...)."""
        with self._lock:
            ring = self._stage_seconds.get(stage)
            if ring is None:
                ring = deque(maxlen=self._latency_window)
                self._stage_seconds[stage] = ring
            ring.append(float(seconds))
            self._stage_counts[stage] += 1

    # -- reading ------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready view of everything observed so far."""
        with self._lock:
            total = self._requests_ok + self._requests_failed
            cache_hits = self._cache_exact_hits + self._cache_similar_hits
            cache_total = cache_hits + self._cache_misses
            batches = sum(self._batch_sizes.values())
            batched_requests = sum(
                size * count for size, count in self._batch_sizes.items()
            )
            latency_ms = {
                stage: self._percentiles_ms(ring, self._stage_counts[stage])
                for stage, ring in sorted(self._stage_seconds.items())
            }
            return {
                "requests": {
                    "total": total,
                    "ok": self._requests_ok,
                    "failed": self._requests_failed,
                    "failures_by_kind": dict(sorted(
                        self._failures_by_kind.items()
                    )),
                },
                "cache": {
                    # "hits" (both tiers combined) and "hit_rate" predate
                    # the tiered cache and stay for dashboard compat.
                    "hits": cache_hits,
                    "exact_hits": self._cache_exact_hits,
                    "similar_hits": self._cache_similar_hits,
                    "misses": self._cache_misses,
                    "hit_rate": (
                        cache_hits / cache_total if cache_total else 0.0
                    ),
                    "similarity_histogram": {
                        edge: count for edge, count in sorted(
                            self._similarity_bins.items()
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
                            self._batch_sizes.items()
                        )
                    },
                },
                "latency_ms": latency_ms,
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
