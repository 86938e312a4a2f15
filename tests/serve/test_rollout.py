"""Tests for zero-downtime rollout (`repro.serve.rollout` + fleet)."""

import copy
import threading
import time

import pytest

from repro.exceptions import RegistryError, RolloutError, ServeError
from repro.serve import FleetDispatcher, RolloutConfig, publish
from repro.serve.rollout import (
    DECIDED,
    PROMOTED,
    ROLLED_BACK,
    SHADOWING,
    CanaryReport,
    RolloutController,
    ShadowSampler,
)
from repro.testing.faults import FaultPlan

from tests.serve.conftest import MODEL_NAME


class TestShadowSampler:
    def test_quarter_fraction_mirrors_every_fourth(self):
        sampler = ShadowSampler(0.25)
        picks = [sampler.select() for _ in range(12)]
        assert picks == [False, False, False, True] * 3

    def test_full_fraction_mirrors_everything(self):
        sampler = ShadowSampler(1.0)
        assert all(sampler.select() for _ in range(5))

    def test_deterministic_replay(self):
        one, two = ShadowSampler(0.3), ShadowSampler(0.3)
        first = [one.select() for _ in range(100)]
        second = [two.select() for _ in range(100)]
        assert first == second
        assert sum(first) == 30


class TestRolloutConfig:
    @pytest.mark.parametrize("kwargs,match", [
        ({"shadow_fraction": 0.0}, "shadow_fraction"),
        ({"shadow_fraction": 1.5}, "shadow_fraction"),
        ({"min_samples": 0}, "min_samples"),
        ({"min_parity": 1.5}, "min_parity"),
        ({"max_latency_ratio": 0.0}, "max_latency_ratio"),
        ({"num_workers": 0}, "num_workers"),
    ])
    def test_validation(self, kwargs, match):
        with pytest.raises(RolloutError, match=match):
            RolloutConfig(version="v2", **kwargs).validate()


class TestCanaryReport:
    def test_parity_counts_failures_against_the_candidate(self):
        report = CanaryReport()
        assert report.parity is None
        report.completed, report.matches = 10, 9
        assert report.parity == pytest.approx(0.9)

    def test_latency_ratio_is_p50_over_p50(self):
        report = CanaryReport()
        report.primary_latencies.extend([0.010, 0.010, 0.010])
        report.shadow_latencies.extend([0.020, 0.020, 0.020])
        assert report.latency_ratio == pytest.approx(2.0)


class TestControllerStateMachine:
    def _controller(self, **kwargs) -> RolloutController:
        defaults = dict(version="v2", min_samples=4, shadow_fraction=1.0)
        defaults.update(kwargs)
        return RolloutController(RolloutConfig(**defaults),
                                 candidate_families=["a", "b"])

    def test_promote_verdict_on_full_parity(self):
        controller = self._controller()
        for _ in range(4):
            controller.record_shadow_result("a", "a", True, 0.01, 0.01)
            verdict = controller.evaluate()
        assert verdict == "promote"
        assert controller.state == DECIDED
        controller.mark_promoted()
        assert controller.state == PROMOTED and not controller.active

    def test_rollback_verdict_on_parity_miss(self):
        controller = self._controller(min_parity=0.99)
        for _ in range(4):
            controller.record_shadow_result("a", "b", True, 0.01, 0.01)
            verdict = controller.evaluate()
        assert verdict == "rollback"
        assert "parity" in controller.reason

    def test_rollback_verdict_on_latency_miss(self):
        controller = self._controller(max_latency_ratio=2.0)
        for _ in range(4):
            controller.record_shadow_result("a", "a", True, 0.01, 0.10)
            verdict = controller.evaluate()
        assert verdict == "rollback"
        assert "latency" in controller.reason

    def test_shadow_losses_count_against_the_candidate(self):
        controller = self._controller(min_parity=0.99)
        for _ in range(3):
            controller.record_shadow_result("a", "a", True, 0.01, 0.01)
        controller.record_shadow_loss()
        assert controller.evaluate() == "rollback"

    def test_verdict_is_delivered_once(self):
        controller = self._controller()
        for _ in range(4):
            controller.record_shadow_result("a", "a", True, 0.01, 0.01)
        assert controller.evaluate() == "promote"
        assert controller.evaluate() is None


# ----------------------------------------------------------------------
# End-to-end: fleet + registry


@pytest.fixture(scope="module")
def rollout_registry(tmp_path_factory, tiny_magic):
    """v1 and v2 share weights (full parity); v3 relabels every family."""
    root = str(tmp_path_factory.mktemp("rollout-registry"))
    publish(tiny_magic, root, MODEL_NAME)  # v1
    publish(tiny_magic, root, MODEL_NAME)  # v2, byte-identical behaviour
    relabeled = copy.deepcopy(tiny_magic)
    # Rotate the family table by one: same weights, but every label now
    # names a different family, so shadow parity is exactly 0.
    names = relabeled.family_names
    relabeled.family_names = names[1:] + names[:1]
    publish(relabeled, root, MODEL_NAME)   # v3, guaranteed parity miss
    return root


def _drive_until(dispatcher, samples, predicate, limit=200):
    """Send traffic until ``predicate()`` or the attempt budget runs out."""
    for i in range(limit):
        name, text = samples[i % len(samples)]
        dispatcher.submit(text, name=f"{name}-{i}", timeout=60.0)
        if predicate():
            return True
        time.sleep(0.02)
    deadline = time.monotonic() + 30.0  # let in-flight shadows land
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


class TestFleetRollout:
    def test_zero_downtime_promotion(self, rollout_registry, listing_samples):
        dispatcher = FleetDispatcher(
            rollout_registry, MODEL_NAME, version="v1",
            num_workers=1, cache_size=0,
        )
        with dispatcher:
            status = dispatcher.start_rollout(RolloutConfig(
                version="v2", shadow_fraction=1.0, min_samples=4,
                max_latency_ratio=1000.0,
            ))
            assert status["state"] == SHADOWING

            # Continuous client traffic across the promotion: every
            # request must come back successful — no drops, no 503s.
            stop_flag = threading.Event()
            outcomes = []

            def client():
                i = 0
                while not stop_flag.is_set():
                    name, text = listing_samples[i % len(listing_samples)]
                    try:
                        result = dispatcher.submit(
                            text, name=name, timeout=60.0
                        )
                        outcomes.append(result.ok)
                    except ServeError:
                        outcomes.append(False)
                    i += 1

            clients = [threading.Thread(target=client) for _ in range(2)]
            for thread in clients:
                thread.start()
            try:
                promoted = _drive_until(
                    dispatcher, listing_samples,
                    lambda: dispatcher.rollout_status()["state"] != SHADOWING,
                )
            finally:
                stop_flag.set()
                for thread in clients:
                    thread.join()
            assert promoted
            final = dispatcher.rollout_status()
            assert final["state"] == PROMOTED
            assert final["report"]["completed"] >= 4
            assert dispatcher.version == "v2"
            assert outcomes and all(outcomes)
            # The fleet keeps serving on the new version.
            name, text = listing_samples[0]
            assert dispatcher.submit(text, name=name, timeout=60.0).ok
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                workers = dispatcher.fleet_snapshot()["workers"]
                if all(w["role"] == "primary" for w in workers):
                    break
                time.sleep(0.05)
            assert all(w["version"] == "v2" for w in workers)

    def test_forced_canary_failure_rolls_back(self, rollout_registry,
                                              listing_samples):
        dispatcher = FleetDispatcher(
            rollout_registry, MODEL_NAME, version="v1",
            num_workers=1, cache_size=0,
        )
        with dispatcher:
            dispatcher.start_rollout(RolloutConfig(
                version="v3", shadow_fraction=1.0, min_samples=4,
                min_parity=0.99, max_latency_ratio=1000.0,
            ))
            rolled_back = _drive_until(
                dispatcher, listing_samples,
                lambda: dispatcher.rollout_status()["state"] != SHADOWING,
            )
            assert rolled_back
            final = dispatcher.rollout_status()
            assert final["state"] == ROLLED_BACK
            assert "parity" in final["reason"]
            # v1 never stopped serving.
            assert dispatcher.version == "v1"
            name, text = listing_samples[0]
            assert dispatcher.submit(text, name=name, timeout=60.0).ok
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                workers = dispatcher.fleet_snapshot()["workers"]
                if all(w["role"] == "primary" for w in workers):
                    break
                time.sleep(0.05)
            assert all(w["version"] == "v1" for w in workers)

    def test_manual_mode_parks_the_verdict(self, rollout_registry,
                                           listing_samples):
        dispatcher = FleetDispatcher(
            rollout_registry, MODEL_NAME, version="v1",
            num_workers=1, cache_size=0,
        )
        with dispatcher:
            dispatcher.start_rollout(RolloutConfig(
                version="v2", shadow_fraction=1.0, min_samples=2,
                max_latency_ratio=1000.0, auto=False,
            ))
            decided = _drive_until(
                dispatcher, listing_samples,
                lambda: dispatcher.rollout_status()["state"] != SHADOWING,
            )
            assert decided
            status = dispatcher.rollout_status()
            assert status["state"] == DECIDED
            assert status["verdict"] == "promote"
            assert dispatcher.version == "v1"  # nothing moved yet
            promoted = dispatcher.promote()
            assert promoted["state"] == PROMOTED
            assert dispatcher.version == "v2"

    def test_rollout_misuse_raises(self, rollout_registry, listing_samples):
        dispatcher = FleetDispatcher(
            rollout_registry, MODEL_NAME, version="v1",
            num_workers=1, cache_size=0,
        )
        with dispatcher:
            with pytest.raises(RolloutError, match="no active rollout"):
                dispatcher.promote()
            with pytest.raises(RolloutError, match="already serving"):
                dispatcher.start_rollout(RolloutConfig(version="v1"))
            with pytest.raises(RegistryError):
                dispatcher.start_rollout(RolloutConfig(version="v99"))
            dispatcher.start_rollout(RolloutConfig(
                version="v2", shadow_fraction=1.0, min_samples=10_000,
                max_latency_ratio=1000.0,
            ))
            with pytest.raises(RolloutError, match="already"):
                dispatcher.start_rollout(RolloutConfig(version="v3"))
            rolled_back = dispatcher.rollback()
            assert rolled_back["state"] == ROLLED_BACK
            assert dispatcher.version == "v1"


def _shadowing(dispatcher, version):
    """Start a rollout to ``version`` that never decides on its own."""
    dispatcher.start_rollout(RolloutConfig(
        version=version, shadow_fraction=1.0, min_samples=10_000,
        max_latency_ratio=1000.0,
    ))


class TestAnswerTierAcrossRollout:
    """The dispatcher's answer tier serves only the primary version."""

    def test_after_promotion_a_resubmit_gets_the_new_answer(
        self, rollout_registry, listing_samples
    ):
        dispatcher = FleetDispatcher(
            rollout_registry, MODEL_NAME, version="v1", num_workers=1,
        )
        name, text = listing_samples[0]
        with dispatcher:
            old = dispatcher.submit(text, name=name, timeout=60.0)
            assert dispatcher.submit(text, name=name, timeout=60.0).cached
            _shadowing(dispatcher, "v3")
            dispatcher.promote()
            assert dispatcher.fleet_snapshot()["answer_tier"]["entries"] == 0
            new = dispatcher.submit(text, name=name, timeout=60.0)
            again = dispatcher.submit(text, name=name, timeout=60.0)
        # v3 has v1's weights under a rotated family table.
        assert not new.cached and new.label == old.label
        assert new.family != old.family
        assert again.cached and again.family == new.family

    def test_an_answer_a_retiring_replica_delivers_is_not_stored(
        self, rollout_registry, listing_samples
    ):
        # Every batch's first request hangs 2 s, then fails.
        plan = FaultPlan.build(hang_on=[0], hang_seconds=2.0)
        dispatcher = FleetDispatcher(
            rollout_registry, MODEL_NAME, version="v1", num_workers=1,
            fault_plan=plan,
        )
        name, text = listing_samples[0]
        late = []
        with dispatcher:
            _shadowing(dispatcher, "v2")
            waiter = threading.Thread(target=lambda: late.append(
                dispatcher.submit(text, name=name, timeout=60.0)
            ))
            waiter.start()
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline and not any(
                worker["busy"] and worker["role"] == "primary"
                for worker in dispatcher.fleet_snapshot()["workers"]
            ):
                time.sleep(0.01)
            dispatcher.promote()  # the v1 replica retires mid-batch
            waiter.join(timeout=30.0)
            stored = dispatcher.fleet_snapshot()["answer_tier"]["entries"]
            again = dispatcher.submit(text, name=name, timeout=60.0)
            snapshot = dispatcher.fleet_snapshot()
        (answer,) = late
        assert answer.failure.kind.value == "unexpected"
        assert "hang" in answer.failure.detail
        assert stored == 0
        # The resubmit went to the v2 primary, which is stored.
        assert not again.cached
        assert snapshot["answer_tier"]["entries"] == 1

    def test_tier_hits_are_not_mirrored(self, rollout_registry,
                                        listing_samples):
        dispatcher = FleetDispatcher(
            rollout_registry, MODEL_NAME, version="v1", num_workers=1,
        )
        name, text = listing_samples[0]
        with dispatcher:
            _shadowing(dispatcher, "v2")
            dispatcher.submit(text, name=name, timeout=60.0)
            mirrored = dispatcher.rollout_status()["report"]["mirrored"]
            hits = [dispatcher.submit(text, name=f"{name}-{i}", timeout=60.0)
                    for i in range(5)]
            status = dispatcher.rollout_status()
        assert mirrored == 1
        assert all(hit.cached for hit in hits)
        assert status["report"]["mirrored"] == mirrored
