"""InferenceEngine tests: preprocessing parity, cache, fault isolation."""

import random
import sys
import threading

import numpy as np
import pytest

from repro.exceptions import ServeError
from repro.features.pipeline import FailureKind
from repro.serve import InferenceEngine, load
from repro.serve.engine import BoundedLRU
from repro.testing.faults import FaultPlan

from tests.serve.conftest import MODEL_NAME


@pytest.fixture()
def engine(registry_root):
    return InferenceEngine.from_registry(registry_root, MODEL_NAME)


class TestClassification:
    def test_results_align_with_input_order(self, engine, listing_samples):
        results = engine.classify_texts(listing_samples[:4])
        assert [r.name for r in results] == [
            name for name, _ in listing_samples[:4]
        ]
        for result in results:
            assert result.ok
            assert result.family in engine.family_names
            assert result.label == int(result.probabilities.argmax())
            assert result.probabilities.shape == (len(engine.family_names),)

    def test_serve_time_preprocessing_matches_training(
        self, engine, tiny_magic, listing_samples
    ):
        """Regression (satellite): a model trained on standardized
        attributes must see identically standardized attributes when
        served from an archive — engine output equals the train-time
        system's prediction on the same text, bit for bit."""
        name, text = listing_samples[0]
        served = engine.classify_text(text, name=name)
        family, probabilities = tiny_magic.classify_asm(text, name=name)
        assert served.family == family
        np.testing.assert_array_equal(served.probabilities, probabilities)

    def test_scaled_attributes_equal_training_transform(
        self, engine, tiny_magic, listing_samples
    ):
        acfg = tiny_magic.acfg_from_asm(listing_samples[0][1])
        np.testing.assert_array_equal(
            engine.magic.scaler.transform([acfg])[0].attributes,
            tiny_magic.scaler.transform([acfg])[0].attributes,
        )

    def test_unfitted_model_rejected(self, tiny_magic):
        from repro.core import Magic

        unfitted = Magic(tiny_magic.model_config, tiny_magic.family_names)
        with pytest.raises(ServeError, match="unfitted"):
            InferenceEngine(unfitted)


class TestPredictionCache:
    def test_repeat_text_is_served_from_cache(self, engine, listing_samples):
        name, text = listing_samples[0]
        first = engine.classify_text(text, name=name)
        forwards = engine.metrics.snapshot()["latency_ms"]["forward"]["count"]
        second = engine.classify_text(text, name="same-bytes-other-name")
        assert not first.cached and second.cached
        assert second.name == "same-bytes-other-name"
        assert second.family == first.family
        np.testing.assert_array_equal(
            second.probabilities, first.probabilities
        )
        snapshot = engine.metrics.snapshot()
        # The cached request never reached the model.
        assert snapshot["latency_ms"]["forward"]["count"] == forwards
        assert snapshot["cache"]["hits"] == 1

    def test_failures_are_cached_too(self, engine):
        first = engine.classify_text("", name="empty-1")
        second = engine.classify_text("", name="empty-2")
        assert not first.ok and not second.ok
        assert not first.cached and second.cached
        assert second.failure.kind is FailureKind.PARSE
        assert second.failure.name == "empty-2"

    def test_duplicates_within_one_batch_share_one_prediction(
        self, engine, listing_samples
    ):
        name, text = listing_samples[0]
        results = engine.classify_texts(
            [(name, text), ("twin", text), listing_samples[1]]
        )
        assert all(r.ok for r in results)
        assert not results[0].cached and results[1].cached
        assert results[1].name == "twin"
        np.testing.assert_array_equal(
            results[1].probabilities, results[0].probabilities
        )
        snapshot = engine.metrics.snapshot()
        # Only two extractions ran: the duplicate never reached the worker.
        assert snapshot["latency_ms"]["extract"]["count"] == 2
        assert snapshot["cache"]["hits"] == 1

    def test_lru_eviction(self, registry_root, listing_samples):
        engine = InferenceEngine.from_registry(
            registry_root, MODEL_NAME, cache_size=2
        )
        for name, text in listing_samples[:3]:
            engine.classify_text(text, name=name)
        assert engine.cache_info()["entries"] == 2
        # The oldest entry was evicted: re-classifying it misses.
        result = engine.classify_text(
            listing_samples[0][1], name=listing_samples[0][0]
        )
        assert not result.cached

    def test_cache_disabled(self, registry_root, listing_samples):
        engine = InferenceEngine.from_registry(
            registry_root, MODEL_NAME, cache_size=0
        )
        name, text = listing_samples[0]
        engine.classify_text(text, name=name)
        assert not engine.classify_text(text, name=name).cached
        assert engine.cache_info() == {"entries": 0, "bound": 0}


class TestBoundedLRU:
    def test_a_get_saves_the_key_from_eviction(self):
        lru = BoundedLRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1
        lru.put("c", 3)
        assert (lru.get("a"), lru.get("b"), lru.get("c")) == (1, None, 3)
        assert lru.info() == {"entries": 2, "bound": 2}

    def test_shared_by_threads_it_keeps_its_bound_and_values(self):
        lru = BoundedLRU(16)
        faults = []

        def hammer(seed):
            rng = random.Random(seed)
            try:
                for _ in range(3000):
                    key = rng.randrange(64)
                    value = lru.get(key)
                    if value not in (None, key * 7):
                        faults.append((key, value))
                    lru.put(key, key * 7)
            except Exception as exc:  # repro: allow[broad-except] — a thread's fault is the finding
                faults.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not faults
        assert lru.info() == {"entries": 16, "bound": 16}


class TestFaultIsolation:
    def test_malformed_sample_does_not_poison_neighbors(
        self, engine, listing_samples
    ):
        samples = [
            listing_samples[0],
            ("broken", ""),
            listing_samples[1],
        ]
        results = engine.classify_texts(samples)
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert results[1].failure.kind is FailureKind.PARSE
        assert results[1].failure.index == 1
        # The survivors match a clean batch without the bad neighbor.
        clean = engine.classify_texts(
            [listing_samples[2], listing_samples[3]]
        )
        assert all(r.ok for r in clean)

    def test_oversize_guard(self, registry_root, listing_samples):
        engine = InferenceEngine.from_registry(
            registry_root, MODEL_NAME, max_vertices=1
        )
        result = engine.classify_text(listing_samples[0][1], name="big")
        assert not result.ok
        assert result.failure.kind is FailureKind.OVERSIZE

    def test_fault_plan_poisoned_index_fails_alone(
        self, registry_root, listing_samples
    ):
        """The PR-3 fault harness drives the serving path too: a worker
        bug on one request surfaces as [unexpected] on that request
        only."""
        engine = InferenceEngine.from_registry(
            registry_root,
            MODEL_NAME,
            fault_plan=FaultPlan.build(raise_on=[1]),
            cache_size=0,
        )
        results = engine.classify_texts(listing_samples[:3])
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert results[1].failure.kind is FailureKind.UNEXPECTED
        assert "injected fault" in results[1].failure.detail

    def test_fault_plan_corrupt_output_rejected(
        self, registry_root, listing_samples
    ):
        engine = InferenceEngine.from_registry(
            registry_root,
            MODEL_NAME,
            fault_plan=FaultPlan.build(corrupt_on=[0]),
            cache_size=0,
        )
        results = engine.classify_texts(listing_samples[:2])
        assert not results[0].ok
        assert results[0].failure.kind is FailureKind.UNEXPECTED
        assert "corrupt output" in results[0].failure.detail
        assert results[1].ok

    def test_failure_kinds_counted_in_metrics(self, engine):
        engine.classify_text("", name="bad")
        snapshot = engine.metrics.snapshot()
        assert snapshot["requests"]["failed"] == 1
        assert snapshot["requests"]["failures_by_kind"] == {"parse": 1}


class TestArchiveSources:
    def test_from_registry_records_identity(self, registry_root):
        engine = InferenceEngine.from_registry(registry_root, MODEL_NAME)
        assert engine.model_info.describe() == f"{MODEL_NAME}@v1"

    def test_from_legacy_archive_warns(self, tmp_path, tiny_magic):
        legacy = str(tmp_path / "legacy")
        tiny_magic.save(legacy)
        with pytest.warns(UserWarning, match="legacy model archive"):
            engine = InferenceEngine.from_archive(legacy)
        assert not engine.model_info.verified

    def test_loaded_engine_equals_original_system(
        self, registry_root, tiny_magic, listing_samples
    ):
        loaded = load(registry_root, MODEL_NAME)
        engine = InferenceEngine(loaded.magic, model_info=loaded.info)
        texts = listing_samples[:5]
        served = engine.classify_texts(texts)
        acfgs = [tiny_magic.acfg_from_asm(t, name=n) for n, t in texts]
        direct = tiny_magic.predict_proba(acfgs)
        for result, row in zip(served, direct):
            assert result.label == int(row.argmax())
            np.testing.assert_array_equal(result.probabilities, row)


class TestCompiledServing:
    def test_compiled_output_equals_eager_engine(
        self, registry_root, listing_samples
    ):
        # cache_size=0 so the second pass exercises a tape replay (and
        # the scaled-ACFG + collator memos) instead of the result cache.
        compiled = InferenceEngine.from_registry(
            registry_root, MODEL_NAME, cache_size=0
        )
        eager = InferenceEngine.from_registry(
            registry_root, MODEL_NAME, cache_size=0, compiled=False
        )
        for _ in range(2):
            for expected, actual in zip(
                eager.classify_texts(listing_samples[:4]),
                compiled.classify_texts(listing_samples[:4]),
            ):
                assert actual.family == expected.family
                np.testing.assert_array_equal(
                    actual.probabilities, expected.probabilities
                )
        stats = compiled.compile_stats()
        assert stats["captures"] >= 1 and stats["replays"] >= 1
        assert eager.compile_stats() is None

    def test_repeat_collations_hit_shared_memo(
        self, registry_root, listing_samples
    ):
        engine = InferenceEngine.from_registry(
            registry_root, MODEL_NAME, cache_size=0
        )
        engine.classify_texts(listing_samples[:3])
        before = engine.collator_stats()
        assert before["misses"] >= 1
        # Same texts -> same cached scaled ACFG objects -> identity-keyed
        # collator memo hit; no new merged operators are built.
        engine.classify_texts(listing_samples[:3])
        after = engine.collator_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_float32_dtype_close_to_float64(
        self, registry_root, listing_samples
    ):
        reference = InferenceEngine.from_registry(
            registry_root, MODEL_NAME, compiled=False
        )
        fast = InferenceEngine.from_registry(
            registry_root, MODEL_NAME, infer_dtype="float32"
        )
        for expected, actual in zip(
            reference.classify_texts(listing_samples[:4]),
            fast.classify_texts(listing_samples[:4]),
        ):
            # Probabilities leave the boundary as float64 either way.
            assert actual.probabilities.dtype == np.float64
            np.testing.assert_allclose(
                actual.probabilities, expected.probabilities, atol=1e-4
            )
            assert actual.family == expected.family

    def test_invalid_dtype_combinations_rejected(self, registry_root):
        with pytest.raises(ServeError, match="infer_dtype"):
            InferenceEngine.from_registry(
                registry_root, MODEL_NAME, infer_dtype="float16"
            )
        with pytest.raises(ServeError, match="compiled tape only"):
            InferenceEngine.from_registry(
                registry_root, MODEL_NAME,
                compiled=False, infer_dtype="float32",
            )
