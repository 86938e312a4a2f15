"""Tests for the multi-process serving fleet (`repro.serve.fleet`)."""

import contextlib
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.cfg import build_cfg_from_text
from repro.exceptions import FleetError, ServeError, WorkerStartupError
from repro.serve import FleetDispatcher, InferenceEngine, build_server
from repro.serve.engine import DEFAULT_CACHE_SIZE
from repro.testing.faults import FaultPlan

from tests.serve.conftest import MODEL_NAME
from tests.serve.test_http import request
from tests.serve.test_similarity_tier import _sample_pair


@pytest.fixture(scope="module")
def fleet(registry_root):
    """One 2-worker fleet shared by the read-only routing tests."""
    dispatcher = FleetDispatcher(
        registry_root, MODEL_NAME, num_workers=2,
        batch_timeout=60.0, cache_size=0,
    )
    with dispatcher:
        yield dispatcher


def dying_service(**init_kwargs):
    """Replica factory whose init dies (swapped in to break respawns)."""
    os._exit(3)


def hanging_service(**init_kwargs):
    """Replica factory whose init never announces ready."""
    time.sleep(3600)


def _hammer(dispatcher, samples, count, results, errors):
    for i in range(count):
        name, text = samples[i % len(samples)]
        try:
            results.append(dispatcher.submit(text, name=name, timeout=60.0))
        except ServeError as exc:  # collected, not raised: thread context
            errors.append(exc)


class TestRouting:
    def test_concurrent_traffic_spreads_over_workers(
        self, fleet, listing_samples
    ):
        results, errors = [], []
        threads = [
            threading.Thread(
                target=_hammer,
                args=(fleet, listing_samples, 2, results, errors),
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 16 and all(r.ok for r in results)
        workers = fleet.fleet_snapshot()["workers"]
        assert len(workers) == 2
        assert sum(w["served"] for w in workers) >= 16
        assert all(w["served"] > 0 for w in workers)

    def test_bit_for_bit_parity_with_single_process_engine(
        self, fleet, registry_root, listing_samples
    ):
        engine = InferenceEngine.from_registry(
            registry_root, MODEL_NAME, cache_size=0
        )
        for name, text in listing_samples:
            # Sequential submits make singleton batches on both paths, so
            # the forwards are shape-identical and must agree to the bit.
            expected = engine.classify_text(text, name=name)
            result = fleet.submit(text, name=name, timeout=60.0)
            assert result.ok and expected.ok
            assert result.family == expected.family
            assert result.label == expected.label
            np.testing.assert_array_equal(
                result.probabilities, expected.probabilities
            )

    def test_bad_listing_fails_alone_with_structured_kind(self, fleet):
        result = fleet.submit("", name="empty")
        assert not result.ok
        assert result.failure.kind.value == "parse"

    def test_metrics_snapshot_carries_fleet_section(self, fleet):
        snapshot = fleet.metrics_snapshot()
        assert "requests" in snapshot  # the ServeMetrics half
        section = snapshot["fleet"]
        assert section["model"] == f"{MODEL_NAME}@v1"
        assert {w["state"] for w in section["workers"]} <= {
            "starting", "ready", "failed"
        }
        for worker in section["workers"]:
            assert set(worker) >= {
                "pid", "role", "state", "busy", "served", "batches",
                "respawns", "retries",
            }

    def test_health_surface(self, fleet):
        assert fleet.describe_model() == f"{MODEL_NAME}@v1"
        assert fleet.batching_info()["max_batch_size"] == fleet.max_batch_size
        assert fleet.pending_count == 0


class TestSupervision:
    def test_killed_worker_respawns_and_requests_survive(
        self, registry_root, listing_samples
    ):
        dispatcher = FleetDispatcher(
            registry_root, MODEL_NAME, num_workers=2,
            batch_timeout=60.0, cache_size=0,
        )
        with dispatcher:
            results, errors = [], []
            threads = [
                threading.Thread(
                    target=_hammer,
                    args=(dispatcher, listing_samples, 6, results, errors),
                )
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            victim = dispatcher.fleet_snapshot()["workers"][0]["pid"]
            os.kill(victim, signal.SIGKILL)
            for thread in threads:
                thread.join()
            assert not errors
            assert len(results) == 24
            # The kill cost nobody an answer: at worst a retry, and the
            # in-flight batch is retried once on a live replica.
            assert all(r.ok for r in results)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                workers = dispatcher.fleet_snapshot()["workers"]
                if sum(w["respawns"] for w in workers) >= 1:
                    break
                time.sleep(0.05)
            assert sum(w["respawns"] for w in workers) >= 1
            assert all(w["state"] != "failed" for w in workers)

    def test_compiled_replay_survives_respawn(
        self, registry_root, listing_samples
    ):
        """A respawned replica re-captures its tape and keeps answering
        bit-identically (the compiled cache is per-process state, so a
        SIGKILL must cost nothing but one re-capture per batch shape)."""
        dispatcher = FleetDispatcher(
            registry_root, MODEL_NAME, num_workers=1,
            batch_timeout=60.0, cache_size=0,  # compiled=True is the default
        )
        name, text = listing_samples[0]
        with dispatcher:
            # Two sequential singleton submits: capture, then replay.
            before = [
                dispatcher.submit(text, name=name, timeout=60.0)
                for _ in range(2)
            ]
            victim = dispatcher.fleet_snapshot()["workers"][0]["pid"]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                workers = dispatcher.fleet_snapshot()["workers"]
                if (workers[0]["respawns"] >= 1
                        and workers[0]["state"] == "ready"):
                    break
                time.sleep(0.05)
            after = [
                dispatcher.submit(text, name=name, timeout=60.0)
                for _ in range(2)
            ]
        assert dispatcher.fleet_snapshot  # dispatcher exited cleanly
        for result in before + after:
            assert result.ok
        for result in after:
            assert result.family == before[0].family
            np.testing.assert_array_equal(
                result.probabilities, before[0].probabilities
            )

    def test_float32_without_compiled_fails_fast_in_parent(
        self, registry_root
    ):
        with pytest.raises(FleetError, match="compiled tape only"):
            FleetDispatcher(
                registry_root, MODEL_NAME, num_workers=1,
                compiled=False, infer_dtype="float32",
            )

    def test_hung_worker_is_killed_at_the_batch_deadline(
        self, registry_root, listing_samples
    ):
        plan = FaultPlan.build(hang_on=[0], hang_seconds=3600.0)
        dispatcher = FleetDispatcher(
            registry_root, MODEL_NAME, num_workers=1,
            batch_timeout=1.0, cache_size=0, fault_plan=plan,
        )
        name, text = listing_samples[0]
        with dispatcher:
            result = dispatcher.submit(text, name=name, timeout=30.0)
            assert not result.ok
            assert result.failure.kind.value == "timeout"
            assert "batch deadline" in result.failure.detail
            workers = dispatcher.fleet_snapshot()["workers"]
            # Killed at the deadline on the first try and on the retry.
            assert workers[0]["respawns"] >= 2

    def test_a_listing_that_blew_the_deadline_twice_goes_to_a_replica_again(
        self, registry_root, listing_samples
    ):
        plan = FaultPlan.build(hang_on=[0], hang_seconds=3600.0)
        dispatcher = FleetDispatcher(
            registry_root, MODEL_NAME, num_workers=1,
            batch_timeout=1.0, fault_plan=plan,
        )
        name, text = listing_samples[0]
        with dispatcher:
            first = dispatcher.submit(text, name=name, timeout=30.0)
            respawns = dispatcher.fleet_snapshot()["workers"][0]["respawns"]
            again = dispatcher.submit(text, name=name, timeout=30.0)
            snapshot = dispatcher.fleet_snapshot()
        assert first.failure.kind.value == "timeout"
        # The dispatcher's own verdict is not an answer to remember: the
        # resubmit was killed at the deadline twice more.
        assert again.failure.kind.value == "timeout" and not again.cached
        assert snapshot["workers"][0]["respawns"] >= respawns + 2
        assert snapshot["answer_tier"]["entries"] == 0

    def test_startup_failure_is_loud(self, registry_root):
        dispatcher = FleetDispatcher(
            registry_root, MODEL_NAME, num_workers=1,
            cache_size=-1,  # rejected by the engine inside the child
        )
        with pytest.raises(WorkerStartupError, match="cache_size"):
            dispatcher.start()
        assert not dispatcher.running


class TestFailedRespawn:
    @pytest.mark.parametrize("entrypoint, detail", [
        ("tests.serve.test_fleet:dying_service",
         "process died during init (exit code 3)"),
        ("tests.serve.test_fleet:hanging_service", "not ready within 5.0s"),
    ])
    def test_replica_fails_instead_of_looping_and_503s(
        self, registry_root, listing_samples, entrypoint, detail
    ):
        dispatcher = FleetDispatcher(
            registry_root, MODEL_NAME, num_workers=1,
            cache_size=0, start_timeout=5.0,
        )
        name, text = listing_samples[0]
        with dispatcher:
            replica = dispatcher._replicas[0]
            replica.worker.entrypoint = entrypoint
            os.kill(replica.worker.pid, signal.SIGKILL)
            errors = []

            def queued_submit():
                try:
                    dispatcher.submit(text, name=name, timeout=60.0)
                except ServeError as exc:
                    errors.append(exc)

            waiter = threading.Thread(target=queued_submit)
            waiter.start()
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                (worker,) = dispatcher.fleet_snapshot()["workers"]
                if worker["state"] == "failed":
                    break
                time.sleep(0.05)
            assert worker["state"] == "failed"
            assert worker["detail"] == detail
            assert 1 <= worker["respawns"] <= 2
            # The queued request got the 503 instead of its 60 s timeout.
            waiter.join(timeout=10.0)
            assert not waiter.is_alive()
            (error,) = errors
            assert "every fleet worker has failed" in str(error)
            with pytest.raises(ServeError, match="every fleet worker"):
                dispatcher.submit(text, name=name, timeout=5.0)
            time.sleep(0.5)
            (worker,) = dispatcher.fleet_snapshot()["workers"]
            assert worker["state"] == "failed"
            assert worker["respawns"] <= 2  # not respawned again


class TestLifecycle:
    def test_zero_workers_is_rejected(self, registry_root):
        with pytest.raises(FleetError, match="num_workers"):
            FleetDispatcher(registry_root, MODEL_NAME, num_workers=0)

    def test_submit_before_start_raises(self, registry_root):
        dispatcher = FleetDispatcher(registry_root, MODEL_NAME, num_workers=1)
        with pytest.raises(ServeError, match="not accepting"):
            dispatcher.submit("irrelevant", name="x")

    def test_stop_drains_queued_requests(self, registry_root,
                                         listing_samples):
        dispatcher = FleetDispatcher(
            registry_root, MODEL_NAME, num_workers=1, cache_size=0,
        )
        with dispatcher:
            results, errors = [], []
            threads = [
                threading.Thread(
                    target=_hammer,
                    args=(dispatcher, listing_samples, 2, results, errors),
                )
                for _ in range(3)
            ]
            for thread in threads:
                thread.start()
        # __exit__ ran stop(): accepting ended, but queued work finished.
        for thread in threads:
            thread.join()
        accepted = len(results) + len(errors)
        assert accepted == 6
        assert all(r.ok for r in results)
        # Any error must be the not-accepting refusal, never a dropped
        # in-flight request.
        assert all("not accepting" in str(e) for e in errors)

    def test_double_start_rejected(self, fleet):
        with pytest.raises(FleetError, match="already running"):
            fleet.start()

    @pytest.mark.parametrize("workers", [0, 1])
    def test_stop_fails_requests_stranded_in_a_busy_replica(
        self, registry_root, listing_samples, workers
    ):
        """A drain that times out answers the busy batch with a 503 too."""
        plan = FaultPlan.build(hang_on=[0], hang_seconds=3600.0)
        if workers:
            dispatcher = FleetDispatcher(
                registry_root, MODEL_NAME, num_workers=workers,
                batch_timeout=None, cache_size=0, fault_plan=plan,
            )
        else:
            dispatcher = FleetDispatcher.in_process(
                InferenceEngine.from_registry(
                    registry_root, MODEL_NAME, cache_size=0, fault_plan=plan
                )
            )
        name, text = listing_samples[0]
        errors = []

        def submit():
            try:
                dispatcher.submit(text, name=name, timeout=30.0)
            except ServeError as exc:
                errors.append(exc)

        dispatcher.start()
        waiter = threading.Thread(target=submit)
        waiter.start()
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            if dispatcher.fleet_snapshot()["workers"][0]["busy"]:
                break
            time.sleep(0.01)
        dispatcher.stop(timeout=0.5)
        waiter.join(timeout=5.0)
        assert not waiter.is_alive(), "submitter stranded until its timeout"
        (error,) = errors
        assert "stopped before the request finished" in str(error)


@contextlib.contextmanager
def serving(dispatcher):
    server = build_server(dispatcher)
    with server:
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
    thread.join(timeout=5)


class TestMetricsParity:
    """``/metrics`` has one shape whatever the replicas are, and counts once."""

    @staticmethod
    def _metrics(dispatcher, sample):
        name, text = sample
        bodies = [
            {"name": name, "asm": text},  # miss
            {"name": name, "asm": text},  # exact repeat
            {"name": "junk", "asm": "not a listing at all"},  # malformed
        ]
        statuses, served = [], []
        with serving(dispatcher) as server:
            for body in bodies:
                statuses.append(
                    request(server, "POST", "/classify", payload=body)[0]
                )
                served.append([worker["served"] for worker in
                               dispatcher.fleet_snapshot()["workers"]])
            _, metrics = request(server, "GET", "/metrics")
        assert statuses == [200, 200, 422]
        # The dispatcher answers the repeat: no replica serves it.
        assert served[1] == served[0]
        assert sum(served[-1]) == 2
        return metrics

    def test_same_keys_and_single_counting_at_zero_and_two_workers(
        self, registry_root, listing_samples
    ):
        in_process = self._metrics(
            FleetDispatcher.in_process(
                InferenceEngine.from_registry(
                    registry_root, MODEL_NAME, similar_threshold=0.5
                )
            ),
            listing_samples[0],
        )
        fleet = self._metrics(
            FleetDispatcher(registry_root, MODEL_NAME, num_workers=2,
                            similar_threshold=0.5),
            listing_samples[0],
        )
        for section in ("requests", "cache", "batches", "latency_ms",
                        "tape", "collate", "fleet"):
            assert set(in_process[section]) == set(fleet[section]), section
        assert set(fleet["tape"]) == {"captures", "replays"}
        assert set(fleet["collate"]) == {"hits", "misses"}
        assert {"extract", "forward", "fingerprint", "request"} <= set(
            fleet["latency_ms"]
        )
        for metrics in (in_process, fleet):
            assert metrics["requests"]["total"] == 3
            assert metrics["requests"]["failures_by_kind"] == {"parse": 1}
            cache = metrics["cache"]
            assert (cache["exact_hits"] + cache["similar_hits"]
                    + cache["misses"]) == 3
            assert metrics["latency_ms"]["extract"]["count"] == 2
            # One answer tier in front of the replicas holds the
            # repeat's answer, whatever the replicas are.
            assert metrics["cache"]["exact_hits"] == 1
            # The listing's answer and the parse failure.
            assert metrics["fleet"]["answer_tier"] == {
                "entries": 2, "bound": DEFAULT_CACHE_SIZE,
            }

    def test_distinct_sizes_capture_once_then_replay(
        self, registry_root, listing_samples
    ):
        # One recorded program serves every batch shape: k misses of k
        # different sizes are one capture and k - 1 replays.
        engine = InferenceEngine.from_registry(registry_root, MODEL_NAME)
        samples, sizes = [], set()
        for name, text in listing_samples:
            vertices = build_cfg_from_text(text, name=name).num_vertices
            if vertices not in sizes:
                sizes.add(vertices)
                samples.append((name, text))
        k = len(samples)
        assert k >= 3
        with serving(FleetDispatcher.in_process(engine)) as server:
            for name, text in samples:
                status, _ = request(server, "POST", "/classify",
                                    payload={"name": name, "asm": text})
                assert status == 200
            _, metrics = request(server, "GET", "/metrics")
        assert metrics["tape"] == {"captures": 1, "replays": k - 1}
        assert metrics["collate"]["misses"] == k


class TestAnswerTier:
    """The dispatcher answers a listing a primary replica already answered."""

    @staticmethod
    def _dispatcher(registry_root, workers, **engine_kwargs):
        if workers:
            return FleetDispatcher(registry_root, MODEL_NAME,
                                   num_workers=workers, **engine_kwargs)
        return FleetDispatcher.in_process(
            InferenceEngine.from_registry(registry_root, MODEL_NAME,
                                          **engine_kwargs)
        )

    @pytest.mark.parametrize("workers", [0, 2])
    def test_hits_repeat_the_replica_answer_under_the_new_name(
        self, registry_root, listing_samples, workers
    ):
        name, text = listing_samples[0]
        junk = "not a listing at all"
        with self._dispatcher(registry_root, workers) as dispatcher:
            first = dispatcher.submit(text, name=name, timeout=60.0)
            bad = dispatcher.submit(junk, name="junk", timeout=60.0)
            served = [worker["served"] for worker in
                      dispatcher.fleet_snapshot()["workers"]]
            again = dispatcher.submit(text, name="again", timeout=60.0)
            bad_again = dispatcher.submit(junk, name="junk-again",
                                          timeout=60.0)
            assert [worker["served"] for worker in
                    dispatcher.fleet_snapshot()["workers"]] == served
        assert first.ok and not first.cached
        assert again.cached and again.name == "again"
        assert ((again.family, again.label, again.similar, again.similarity)
                == (first.family, first.label, first.similar,
                    first.similarity))
        assert again.probabilities.tobytes() == first.probabilities.tobytes()
        assert not bad.cached and bad.failure.kind.value == "parse"
        assert bad_again.cached and bad_again.name == "junk-again"
        assert bad_again.failure.name == "junk-again"
        assert ((bad_again.failure.kind, bad_again.failure.detail)
                == (bad.failure.kind, bad.failure.detail))

    def test_a_similar_answer_keeps_its_flags(self, registry_root):
        base_text, variant_text = _sample_pair()
        with self._dispatcher(registry_root, 0,
                              similar_threshold=0.45) as dispatcher:
            dispatcher.submit(base_text, name="base")
            first = dispatcher.submit(variant_text, name="variant")
            again = dispatcher.submit(variant_text, name="variant-again")
        assert first.similar and again.similar and again.cached
        assert again.similarity == first.similarity
        assert again.probabilities.tobytes() == first.probabilities.tobytes()

    def test_cache_size_zero_turns_the_tier_off(self, registry_root,
                                                listing_samples):
        name, text = listing_samples[0]
        with self._dispatcher(registry_root, 0, cache_size=0) as dispatcher:
            dispatcher.submit(text, name=name)
            again = dispatcher.submit(text, name=name)
            snapshot = dispatcher.fleet_snapshot()
        assert not again.cached
        assert snapshot["answer_tier"] == {"entries": 0, "bound": 0}
        assert snapshot["workers"][0]["served"] == 2

    def test_a_handler_raise_is_not_stored(self, registry_root,
                                           listing_samples, monkeypatch):
        name, text = listing_samples[0]
        engine = InferenceEngine.from_registry(registry_root, MODEL_NAME)

        def broken(samples):
            raise RuntimeError("engine bug")

        with FleetDispatcher.in_process(engine) as dispatcher:
            monkeypatch.setattr(engine, "classify_texts", broken)
            failed = dispatcher.submit(text, name=name)
            monkeypatch.undo()
            healed = dispatcher.submit(text, name=name)
        assert failed.failure.kind.value == "unexpected"
        assert "engine bug" in failed.failure.detail
        assert healed.ok and not healed.cached
