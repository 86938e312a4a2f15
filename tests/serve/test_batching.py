"""Batching at ``--workers 0``: the dispatcher over one in-process replica.

Coalescing, equivalence with a direct engine batch, fault isolation and
lifecycle of :meth:`FleetDispatcher.in_process` — the single-process
service every ``repro.cli serve`` without ``--workers N`` runs.
"""

import threading
import time

import numpy as np
import pytest

from repro.exceptions import ServeError
from repro.features.pipeline import FailureKind
from repro.serve import FleetDispatcher, InferenceEngine

from tests.serve.conftest import MODEL_NAME


@pytest.fixture()
def engine(registry_root):
    return InferenceEngine.from_registry(
        registry_root, MODEL_NAME, cache_size=0
    )


def submit_concurrently(dispatcher, samples):
    """Fire one submitting thread per sample; returns results in order."""
    results = [None] * len(samples)
    threads = []

    def worker(index, name, text):
        results[index] = dispatcher.submit(text, name=name)

    for index, (name, text) in enumerate(samples):
        thread = threading.Thread(target=worker, args=(index, name, text))
        threads.append(thread)
        thread.start()
    for thread in threads:
        thread.join()
    return results


def batch_histogram(dispatcher):
    return dispatcher.metrics.snapshot()["batches"]["size_histogram"]


class TestCoalescing:
    def test_concurrent_requests_share_a_forward(
        self, engine, listing_samples
    ):
        samples = listing_samples[:6]
        with FleetDispatcher.in_process(engine, max_batch_size=6) as dispatcher:
            results = submit_concurrently(dispatcher, samples)
            histogram = batch_histogram(dispatcher)
        assert all(result.ok for result in results)
        # Every request was served...
        assert sum(
            int(size) * count for size, count in histogram.items()
        ) == len(samples)
        # ...and the requests that queued behind the first batch left
        # together as one.
        assert max(int(size) for size in histogram) >= 2

    def test_results_match_direct_engine_batch(
        self, registry_root, listing_samples
    ):
        samples = listing_samples[:5]
        direct_engine = InferenceEngine.from_registry(
            registry_root, MODEL_NAME, cache_size=0
        )
        direct = direct_engine.classify_texts(samples)

        served_engine = InferenceEngine.from_registry(
            registry_root, MODEL_NAME, cache_size=0
        )
        with FleetDispatcher.in_process(
            served_engine, max_batch_size=5
        ) as dispatcher:
            served = submit_concurrently(dispatcher, samples)

        assert [r.label for r in served] == [r.label for r in direct]
        assert [r.family for r in served] == [r.family for r in direct]

    def test_pending_count_tracks_unanswered_requests(
        self, engine, listing_samples
    ):
        with FleetDispatcher.in_process(engine) as dispatcher:
            assert dispatcher.pending_count == 0
            assert dispatcher.submit(listing_samples[0][1], name="one").ok
            assert dispatcher.pending_count == 0

    def test_max_batch_size_caps_coalescing(self, engine, listing_samples):
        samples = listing_samples[:6]
        with FleetDispatcher.in_process(engine, max_batch_size=2) as dispatcher:
            results = submit_concurrently(dispatcher, samples)
            histogram = batch_histogram(dispatcher)
        assert all(result.ok for result in results)
        assert max(int(size) for size in histogram) <= 2


class TestFaultIsolation:
    def test_bad_sample_fails_alone_in_a_shared_batch(
        self, engine, listing_samples
    ):
        samples = [listing_samples[0], ("broken", "  "), listing_samples[1]]
        with FleetDispatcher.in_process(engine, max_batch_size=3) as dispatcher:
            results = submit_concurrently(dispatcher, samples)
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert results[1].failure.kind is FailureKind.PARSE
        probabilities = np.stack(
            [results[0].probabilities, results[2].probabilities]
        )
        assert np.isfinite(probabilities).all()

    def test_engine_crash_fails_the_batch_not_the_service(
        self, engine, listing_samples, monkeypatch
    ):
        calls = {"count": 0}
        real = engine.classify_texts

        def flaky(samples):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("engine exploded")
            return real(samples)

        monkeypatch.setattr(engine, "classify_texts", flaky)
        with FleetDispatcher.in_process(engine, max_batch_size=1) as dispatcher:
            first = dispatcher.submit(listing_samples[0][1], name="victim")
            second = dispatcher.submit(listing_samples[1][1], name="survivor")
        assert not first.ok
        assert first.failure.kind is FailureKind.UNEXPECTED
        assert "engine exploded" in first.failure.detail
        assert second.ok


class TestLifecycle:
    def test_submit_before_start_raises(self, engine):
        dispatcher = FleetDispatcher.in_process(engine)
        with pytest.raises(ServeError, match="not accepting"):
            dispatcher.submit("text", name="early")

    def test_submit_after_stop_raises(self, engine):
        dispatcher = FleetDispatcher.in_process(engine).start()
        dispatcher.stop()
        with pytest.raises(ServeError, match="not accepting"):
            dispatcher.submit("text", name="late")

    def test_double_start_rejected(self, engine):
        dispatcher = FleetDispatcher.in_process(engine).start()
        try:
            with pytest.raises(ServeError, match="already running"):
                dispatcher.start()
        finally:
            dispatcher.stop()

    def test_stop_is_idempotent(self, engine):
        dispatcher = FleetDispatcher.in_process(engine).start()
        dispatcher.stop()
        dispatcher.stop()

    def test_invalid_knobs_rejected(self, engine):
        with pytest.raises(ServeError, match="max_batch_size"):
            FleetDispatcher.in_process(engine, max_batch_size=0)

    def test_queue_timeout_raises(self, engine, listing_samples,
                                  monkeypatch):
        def stall(samples):
            time.sleep(1.0)
            raise AssertionError("should not be reached in this test")

        monkeypatch.setattr(engine, "classify_texts", stall)
        with FleetDispatcher.in_process(engine) as dispatcher:
            with pytest.raises(ServeError, match="timed out"):
                dispatcher.submit(
                    listing_samples[0][1], name="slow", timeout=0.05
                )
