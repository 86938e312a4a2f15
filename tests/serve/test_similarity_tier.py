"""The similarity cache tier inside the serving path.

Covers the tier decision table (exact hit / similar hit / miss), the
``similar`` flagging contract (a near-duplicate response is never
presented as exact), the failure rule (cached failures are never served
from the similarity tier), per-tier metrics, and the HTTP payload.
"""

import pytest

from repro.datasets.mskcfg import MSKCFG_PROFILES, generate_mskcfg_sample
from repro.datasets.synthetic_asm import ObfuscationKnobs
from repro.serve import InferenceEngine
from repro.serve.fleet import FleetDispatcher, inference_service

from tests.serve.conftest import MODEL_NAME
from tests.serve.test_http import request, running_server

#: Out-of-training-corpus sample index (conftest trains on 27 samples).
BASE_INDEX = 40


def _sample_pair(family="Ramnit", index=BASE_INDEX):
    """(base listing, junk-code variant listing) of one sample."""
    _, base_text, _ = generate_mskcfg_sample(family, index, seed=0)
    knobs = ObfuscationKnobs(
        junk_probability=min(
            0.95, MSKCFG_PROFILES[family].junk_probability + 0.25
        )
    )
    _, variant_text, _ = generate_mskcfg_sample(
        family, index, seed=0, knobs=knobs
    )
    return base_text, variant_text


@pytest.fixture()
def engine(registry_root):
    return InferenceEngine.from_registry(
        registry_root, MODEL_NAME, similar_threshold=0.45
    )


class TestTierSemantics:
    def test_decision_table(self, engine):
        base_text, variant_text = _sample_pair()

        fresh = engine.classify_text(base_text, "fresh")
        assert not fresh.cached and not fresh.similar
        assert fresh.similarity is None

        exact = engine.classify_text(base_text, "exact-repeat")
        assert exact.cached and not exact.similar

        similar = engine.classify_text(variant_text, "variant")
        assert similar.cached and similar.similar
        assert similar.similarity is not None
        assert similar.similarity >= 0.45
        # The near-duplicate serves the *keeper's* prediction verbatim
        # (bit for bit — no recomputation happened).
        assert similar.label == fresh.label
        assert similar.probabilities.tobytes() == fresh.probabilities.tobytes()

    def test_exact_repeat_of_a_variant_keeps_the_similar_flag(self, engine):
        base_text, variant_text = _sample_pair()
        engine.classify_text(base_text, "base")
        first = engine.classify_text(variant_text, "variant")
        repeat = engine.classify_text(variant_text, "variant-again")
        assert first.similar and repeat.similar
        assert repeat.similarity == first.similarity

    def test_distinct_sample_misses_the_tier(self, engine):
        base_text, _ = _sample_pair("Ramnit")
        other_text, _ = _sample_pair("Lollipop", BASE_INDEX + 1)
        engine.classify_text(base_text, "base")
        other = engine.classify_text(other_text, "distinct")
        assert not other.cached and not other.similar

    def test_describe_marks_similar_responses(self, engine):
        base_text, variant_text = _sample_pair()
        engine.classify_text(base_text, "base")
        result = engine.classify_text(variant_text, "variant")
        assert "(similar " in result.describe()

    def test_failures_are_never_served_from_the_similarity_tier(
        self, engine
    ):
        first = engine.classify_text("no instructions here ###", "bad-a")
        second = engine.classify_text("no instructions here ###!", "bad-b")
        assert not first.ok and not second.ok
        assert not first.similar and not second.similar
        # Both went through their own extraction: two misses, no hits.
        cache = engine.metrics.snapshot()["cache"]
        assert cache["similar_hits"] == 0
        assert cache["misses"] == 2

    def test_tier_off_by_default(self, registry_root):
        plain = InferenceEngine.from_registry(registry_root, MODEL_NAME)
        base_text, variant_text = _sample_pair()
        plain.classify_text(base_text, "base")
        variant = plain.classify_text(variant_text, "variant")
        assert not variant.similar and not variant.cached
        assert "similarity" not in plain.cache_info()

    def test_cache_size_zero_disables_the_tier(self, registry_root):
        engine = InferenceEngine.from_registry(
            registry_root, MODEL_NAME, cache_size=0, similar_threshold=0.45
        )
        base_text, variant_text = _sample_pair()
        engine.classify_text(base_text, "base")
        variant = engine.classify_text(variant_text, "variant")
        assert not variant.similar and not variant.cached
        assert engine.cache_info() == {"entries": 0, "bound": 0}


class TestTierMetrics:
    def test_per_tier_counters_and_histogram(self, engine):
        base_text, variant_text = _sample_pair()
        engine.classify_text(base_text, "base")      # miss
        engine.classify_text(base_text, "repeat")    # exact hit
        engine.classify_text(variant_text, "variant")  # similar hit
        cache = engine.metrics.snapshot()["cache"]
        assert cache["exact_hits"] == 1
        assert cache["similar_hits"] == 1
        assert cache["misses"] == 1
        # Compat: combined hits and hit-rate keep their old meaning.
        assert cache["hits"] == 2
        assert cache["hit_rate"] == pytest.approx(2 / 3)
        assert sum(cache["similarity_histogram"].values()) == 1
        (edge,) = cache["similarity_histogram"]
        assert float(edge) >= 0.45

    def test_fingerprint_stage_latency_is_recorded(self, engine):
        base_text, _ = _sample_pair()
        engine.classify_text(base_text, "base")
        assert "fingerprint" in engine.metrics.snapshot()["latency_ms"]

    def test_cache_info_reports_the_index(self, engine):
        base_text, variant_text = _sample_pair()
        engine.classify_text(base_text, "base")
        engine.classify_text(variant_text, "variant")
        info = engine.cache_info()["similarity"]
        assert info["entries"] == 1
        assert info["threshold"] == pytest.approx(0.45)
        assert info["hits"] == 1


class TestHttpPayload:
    def test_similar_flag_and_similarity_in_classify_responses(
        self, engine
    ):
        base_text, variant_text = _sample_pair()
        with running_server(engine) as server:
            _, fresh = request(
                server, "POST", "/classify",
                payload={"name": "base", "asm": base_text},
            )
            _, similar = request(
                server, "POST", "/classify",
                payload={"name": "variant", "asm": variant_text},
            )
            _, metrics = request(server, "GET", "/metrics")
        assert fresh["similar"] is False
        assert "similarity" not in fresh
        assert similar["similar"] is True
        assert similar["cached"] is True
        assert similar["similarity"] >= 0.45
        assert similar["label"] == fresh["label"]
        assert metrics["cache"]["similar_hits"] == 1


class TestFleetPlumbing:
    def test_dispatcher_forwards_tier_config_to_replicas(
        self, registry_root
    ):
        dispatcher = FleetDispatcher(
            registry_root,
            MODEL_NAME,
            similar_threshold=0.45,
            fingerprint_iterations=2,
        )
        assert dispatcher.similar_threshold == pytest.approx(0.45)
        assert dispatcher.fingerprint_iterations == 2

    def test_inference_service_builds_a_tiered_engine(self, registry_root):
        handler = inference_service(
            registry_root,
            MODEL_NAME,
            version="v1",
            similar_threshold=0.45,
            fingerprint_iterations=2,
        )
        base_text, variant_text = _sample_pair()
        (fresh,), _ = handler([("base", base_text)])
        (similar,), _ = handler([("variant", variant_text)])
        assert not fresh.similar
        assert similar.similar
        assert similar.similarity >= 0.45
        info = handler.engine.cache_info()["similarity"]
        assert info["iterations"] == 2
