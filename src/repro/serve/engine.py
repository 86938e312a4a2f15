"""Online inference engine: disassembly text -> family, fault-isolated.

The engine runs the full MAGIC prediction path — parse the listing,
build the CFG, extract the ACFG, apply the *training-time* attribute
scaling, and run one batched DGCNN forward over the whole request batch
(the PR-1 ``GraphBatch`` contract, via ``Magic.predict_proba``).

Two production concerns shape it:

* **Per-request fault isolation.**  Every sample goes through the same
  :func:`~repro.features.pipeline.execute_unit` boundary as batch
  extraction, so a malformed listing becomes a structured
  :class:`~repro.features.pipeline.ExtractionFailure` (``parse`` /
  ``oversize`` / ``unexpected``) on *its own* result — it never poisons
  the other requests coalesced into the same batch.
* **A two-tier prediction cache.**  Malware corpora are heavy with
  exact duplicates (repacked submissions, re-scanned files); a
  sha256-of-text key (:func:`content_key`) serves repeats without
  re-running disassembly or the model.  Failures are cached too — they
  are deterministic properties of the input, the same philosophy as the
  extraction journal's replay-not-retry rule.  Under a
  :class:`~repro.serve.fleet.FleetDispatcher` this exact tier is a
  second level: the dispatcher keeps one tier of its own in the server
  process, in front of every replica, and a repeat reaches an engine
  only when that tier has lost it (evicted, or cleared at promotion) or
  it repeats a request still in flight.  Both tiers are one
  :class:`BoundedLRU` of :class:`ClassificationResult` entries, served
  again through :meth:`ClassificationResult.as_cached`.  Behind the
  exact tier, an opt-in
  **similarity tier** (``similar_threshold``) indexes the
  topology-aware fingerprints of :mod:`repro.similarity`: a request
  that misses the exact cache but whose CFG fingerprint is
  near-duplicate to a previously classified sample is served that
  sample's prediction, explicitly flagged ``similar`` with the
  estimated Jaccard.  Only successful predictions enter the similarity
  index — a cached *failure* is an exact property of one input and is
  never generalized to near-duplicates.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.magic import Magic
from repro.exceptions import ServeError
from repro.features.acfg import ACFG
from repro.features.pipeline import (
    ExtractionFailure,
    FailureKind,
    WorkerContext,
    execute_unit,
    resolve_worker,
)
from repro.nn.tape import CompiledModel
from repro.serve.metrics import Observations, ServeMetrics
from repro.serve.registry import ArchiveInfo, load, load_archive
from repro.similarity import (
    DEFAULT_WL_ITERATIONS,
    SimilarityIndex,
    SimilarityMatch,
    fingerprint_acfg,
)
from repro.testing.faults import FaultPlan
from repro.train.batching import BatchCollator
from repro.train.trainer import Trainer

#: Default bound on the content-hash prediction cache.
DEFAULT_CACHE_SIZE = 1024

#: Dtypes the serving path accepts for ``infer_dtype``.
_INFER_DTYPES = ("float64", "float32")


@dataclasses.dataclass
class ClassificationResult:
    """Outcome of one classification request.

    Exactly one of (``family``, ``failure``) is set: a request either
    produces a prediction or a structured extraction failure.
    """

    name: str
    family: Optional[str] = None
    label: Optional[int] = None
    probabilities: Optional[np.ndarray] = None
    #: Served from the prediction cache instead of a fresh forward.
    cached: bool = False
    #: Served a *near-duplicate*'s prediction (similarity tier); the
    #: flag sticks to exact repeats of the same variant, so a response
    #: assembled from a similar match is never presented as exact.
    similar: bool = False
    #: Estimated Jaccard of the fingerprint match (set when ``similar``).
    similarity: Optional[float] = None
    failure: Optional[ExtractionFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def confidence(self) -> float:
        if self.probabilities is None:
            return 0.0
        return float(self.probabilities.max())

    @property
    def margin(self) -> float:
        """Top-1 minus top-2 probability: the score margin of the call.

        A small margin means the prediction sits near a decision
        boundary — exactly the samples the adversarial attacks
        (:mod:`repro.adv`) flip first, so monitoring margins is the
        cheap online proxy for attack surface.  ``0.0`` when there is no
        prediction or fewer than two classes.
        """
        if self.probabilities is None or self.probabilities.size < 2:
            return 0.0
        top2 = np.sort(self.probabilities)[-2:]
        return float(top2[1] - top2[0])

    def as_cached(self, name: str, index: int = 0) -> "ClassificationResult":
        """This stored answer served again, to request ``name``.

        The label, probabilities and ``similar`` flags stay as stored; a
        stored failure comes back under the new name and batch position.
        """
        failure = self.failure
        if failure is not None:
            failure = dataclasses.replace(failure, name=name, index=index)
        return dataclasses.replace(self, name=name, cached=True,
                                   failure=failure)

    def describe(self) -> str:
        if self.failure is not None:
            return (f"{self.name}: FAILED [{self.failure.kind.value}] "
                    f"{self.failure.detail}")
        if self.similar and self.similarity is not None:
            suffix = f" (similar {self.similarity:.3f})"
        elif self.cached:
            suffix = " (cached)"
        else:
            suffix = ""
        return (f"{self.name}: {self.family} "
                f"(confidence {self.confidence:.3f}){suffix}")


def content_key(text: str) -> str:
    """The exact tiers' key for a listing: the sha256 of its text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class BoundedLRU:
    """A thread-safe map that keeps its ``bound`` most recently used keys.

    A bound below one keeps nothing: every ``get`` misses and ``put``
    is a no-op.
    """

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any:
        """The value stored under ``key`` (now the most recent), or ``None``."""
        if self.bound < 1:
            return None
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` as the most recent entry, evicting the oldest."""
        if self.bound < 1:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.bound:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def info(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._entries), "bound": self.bound}


class InferenceEngine:
    """Classifies disassembly listings with a loaded :class:`Magic` system.

    Parameters
    ----------
    magic:
        A fitted system (trained in-process or loaded from an archive).
    model_info:
        Archive identity for ``/healthz`` and logs; optional for
        in-process models.
    metrics:
        Shared :class:`ServeMetrics` sink; a private one is created when
        omitted.
    cache_size:
        Bound on the content-hash prediction cache (``0`` disables all
        result caching, the similarity tier included).
    similar_threshold:
        Estimated-Jaccard threshold for the similarity cache tier;
        ``None`` (the default) keeps the tier off.  When set, a request
        missing the exact cache is fingerprinted and may be served a
        near-duplicate's prediction, flagged ``similar``.
    fingerprint_iterations:
        WL relabeling rounds for the similarity fingerprints (more
        rounds = stricter topology matching).
    max_vertices:
        Per-request graph-size guard, same semantics as the extraction
        pipeline's (oversize requests fail with ``[oversize]``).
    fault_plan:
        Deterministic fault injection for tests; indices refer to
        positions within one ``classify_texts`` batch.
    compiled:
        Route GraphBatch-capable models through the engine's own
        :mod:`repro.nn.tape` tape (one capture, then lean replays for
        batches of every shape); ``False`` keeps every forward eager.
        Float64 replay is bit-exact with the eager path; a model the
        tape cannot record silently falls back to eager.
    infer_dtype:
        ``"float64"`` (default, bit-exact) or ``"float32"`` (compiled
        replay only; probabilities are cast back to float64 at the
        serving boundary).
    collator:
        A shared memoizing :class:`BatchCollator`; a private one is
        created when omitted.  Combined with the content-keyed
        scaled-ACFG cache, repeat collations of identical graph sets
        reuse their merged block-diagonal operators.
    """

    def __init__(
        self,
        magic: Magic,
        *,
        model_info: Optional[ArchiveInfo] = None,
        metrics: Optional[ServeMetrics] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        similar_threshold: Optional[float] = None,
        fingerprint_iterations: int = DEFAULT_WL_ITERATIONS,
        max_vertices: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        compiled: bool = True,
        infer_dtype: str = "float64",
        collator: Optional[BatchCollator] = None,
    ) -> None:
        if not magic.scaler.is_fitted:
            raise ServeError(
                "cannot serve an unfitted model: train it or load a "
                "published archive first"
            )
        if cache_size < 0:
            raise ServeError(f"cache_size must be >= 0, got {cache_size}")
        if fingerprint_iterations < 0:
            raise ServeError(
                "fingerprint_iterations must be >= 0, got "
                f"{fingerprint_iterations}"
            )
        if infer_dtype not in _INFER_DTYPES:
            raise ServeError(
                f"infer_dtype must be one of {_INFER_DTYPES}, got {infer_dtype!r}"
            )
        if infer_dtype != "float64" and not compiled:
            raise ServeError(
                "float32 inference is implemented by the compiled tape only; "
                "drop --no-compiled or use float64"
            )
        self.magic = magic
        self.model_info = model_info
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.cache_size = cache_size
        self.max_vertices = max_vertices
        self.fault_plan = fault_plan
        self.infer_dtype = infer_dtype
        self._spec = resolve_worker("text")
        self._cache = BoundedLRU(cache_size)
        # Second cache tier: near-duplicate fingerprint lookup.  Bounded
        # by cache_size like the exact tier, and off entirely when
        # result caching is disabled (cache_size=0): an engine asked not
        # to cache must not serve *any* remembered prediction.
        self._fingerprint_iterations = fingerprint_iterations
        self._similarity: Optional[SimilarityIndex] = None
        if similar_threshold is not None and cache_size > 0:
            self._similarity = SimilarityIndex(
                threshold=similar_threshold,
                iterations=fingerprint_iterations,
                max_entries=cache_size,
            )
        # GraphBatch-capable models get the shared collate memo and
        # (opt-out) the compiled tape; raw-ACFG models keep the eager
        # Magic.predict_proba path untouched.
        self._collator: Optional[BatchCollator] = None
        self._compiled: Optional[CompiledModel] = None
        if getattr(magic.model, "accepts_graph_batch", False):
            self._collator = collator if collator is not None else BatchCollator(
                normalize_propagation=getattr(
                    magic.model, "normalize_propagation", True
                )
            )
            if compiled:
                self._compiled = CompiledModel(magic.model, dtype=infer_dtype)
        # Content-keyed cache of *scaled* ACFGs: scaling is per-sample
        # deterministic, so repeats present the same objects to the
        # collator and its identity-keyed memo hits.  Kept independent
        # of the prediction cache so cache_size=0 (no result caching)
        # still reuses merged operators.
        self._scaled = BoundedLRU(DEFAULT_CACHE_SIZE)
        #: Tape and collate-memo totals as of the last drain_metrics().
        self._reported: Dict[str, int] = {}

    # -- constructors over the registry -------------------------------

    @classmethod
    def from_registry(
        cls,
        root: str,
        name: str,
        version: Optional[str] = None,
        **kwargs,
    ) -> "InferenceEngine":
        """Engine over a registry archive (``version=None`` = latest)."""
        loaded = load(root, name, version)
        return cls(loaded.magic, model_info=loaded.info, **kwargs)

    @classmethod
    def from_archive(cls, path: str, **kwargs) -> "InferenceEngine":
        """Engine over one archive directory (legacy dirs load with a
        warning)."""
        loaded = load_archive(path)
        return cls(loaded.magic, model_info=loaded.info, **kwargs)

    # -- classification ------------------------------------------------

    @property
    def family_names(self) -> List[str]:
        return self.magic.family_names

    def classify_text(self, text: str, name: str = "") -> ClassificationResult:
        """Classify one listing (a batch of one)."""
        return self.classify_texts([(name, text)])[0]

    def classify_texts(
        self, samples: Sequence[Tuple[str, str]]
    ) -> List[ClassificationResult]:
        """Classify ``(name, asm_text)`` samples in one batched forward.

        Results align with the input order.  Extraction runs per sample
        behind the shared fault-isolation boundary; all surviving ACFGs
        then go through a single scaled ``GraphBatch`` forward pass.
        """
        results: List[Optional[ClassificationResult]] = [None] * len(samples)
        pending: List[Tuple[int, str, ACFG]] = []  # (index, cache key, acfg)
        in_flight: set = set()  # keys with an extraction pending this batch
        followers: Dict[str, List[Tuple[int, str]]] = {}
        signatures: Dict[str, np.ndarray] = {}  # key -> minhash signature

        for index, (name, text) in enumerate(samples):
            key = content_key(text)
            entry = self._cache.get(key)
            if entry is not None:
                self.metrics.observe_cache_tier("exact")
                results[index] = entry.as_cached(name, index)
                self._count(results[index])
                continue
            if key in in_flight:
                # Exact duplicate of an earlier sample in this batch:
                # serve it from that sample's forthcoming prediction
                # instead of extracting and forwarding it again.
                self.metrics.observe_cache_tier("exact")
                followers.setdefault(key, []).append((index, name))
                continue
            started = time.perf_counter()
            outcome = execute_unit(
                self._spec.fn,
                (name, text, None),
                index,
                WorkerContext(
                    max_vertices=self.max_vertices,
                    fault_plan=self.fault_plan,
                ),
            )
            self.metrics.observe_stage(
                "extract", time.perf_counter() - started
            )
            status, *payload = outcome
            if status == "ok" and not self._spec.validate(payload[0]):
                status, payload = "fail", [
                    FailureKind.UNEXPECTED.value,
                    "worker emitted corrupt output "
                    f"({type(payload[0]).__name__})",
                ]
            if status == "ok":
                match, signature = self._similar_lookup(payload[0])
                if match is not None:
                    # Similarity-tier hit: serve the near-duplicate's
                    # prediction, flagged.  The flagged entry also goes
                    # into the exact cache so repeats of this exact
                    # variant keep the flag.
                    entry = dataclasses.replace(
                        match.payload, similar=True,
                        similarity=match.similarity,
                    )
                    self._cache.put(key, entry)
                    self.metrics.observe_cache_tier(
                        "similar", match.similarity
                    )
                    results[index] = entry.as_cached(name, index)
                    self._count(results[index])
                    continue
                self.metrics.observe_cache_tier("miss")
                if signature is not None:
                    signatures[key] = signature
                in_flight.add(key)
                pending.append((index, key, payload[0]))
            else:
                self.metrics.observe_cache_tier("miss")
                results[index] = ClassificationResult(
                    name=name,
                    failure=ExtractionFailure(
                        name=name,
                        kind=FailureKind(payload[0]),
                        detail=payload[1],
                        index=index,
                    ),
                )
                self._cache.put(key, results[index])
                self._count(results[index])

        if pending:
            started = time.perf_counter()
            probabilities = self._predict_proba(
                [(key, acfg) for _, key, acfg in pending]
            )
            self.metrics.observe_stage(
                "forward", time.perf_counter() - started
            )
            for (index, key, _), row in zip(pending, probabilities):
                label = int(row.argmax())
                name = samples[index][0]
                results[index] = ClassificationResult(
                    name=name,
                    family=self.family_names[label],
                    label=label,
                    probabilities=row,
                )
                # The stored entry keeps its own copy of the row, apart
                # from the array handed to this request.
                entry = dataclasses.replace(
                    results[index], probabilities=row.copy()
                )
                self._cache.put(key, entry)
                if self._similarity is not None and key in signatures:
                    # Only fresh successful predictions feed the
                    # similarity tier; failures never generalize.
                    self._similarity.insert(key, signatures[key], entry)
                self._count(results[index])
                for dup_index, dup_name in followers.pop(key, ()):
                    results[dup_index] = entry.as_cached(dup_name, dup_index)
                    self._count(results[dup_index])

        return results  # type: ignore[return-value] — every slot is filled

    # -- internals -----------------------------------------------------

    def _similar_lookup(
        self, acfg: ACFG
    ) -> Tuple[Optional[SimilarityMatch], Optional[np.ndarray]]:
        """Similarity-tier probe for one freshly extracted ACFG.

        Returns ``(match, signature)``: the best near-duplicate clearing
        the threshold (or ``None``) and the minhash signature to index
        this sample under after its own forward completes.  Both are
        ``None`` when the tier is off or the graph is empty (an empty
        fingerprint cannot be signed — and matching on it would equate
        every degenerate listing).
        """
        if self._similarity is None or acfg.num_vertices == 0:
            return None, None
        started = time.perf_counter()
        fingerprint = fingerprint_acfg(
            acfg, iterations=self._fingerprint_iterations
        )
        signature = self._similarity.signature(fingerprint)
        match = self._similarity.query(signature)
        self.metrics.observe_stage(
            "fingerprint", time.perf_counter() - started
        )
        return match, signature

    def _predict_proba(
        self, keyed_acfgs: Sequence[Tuple[str, ACFG]]
    ) -> np.ndarray:
        """Per-family probabilities for ``(content_key, acfg)`` pairs.

        GraphBatch models run ``Trainer.predict_proba`` — the chunk loop
        of ``Magic.predict_proba`` — over the shared collator and the
        engine's own tape (or eagerly, with ``compiled=False``), so the
        float64 output is bitwise identical to the plain path.  A model
        the tape refuses stays eager for the engine's lifetime: the tape
        remembers the refusal.
        Anything else defers to ``Magic.predict_proba`` unchanged.
        """
        if self._collator is None:
            return self.magic.predict_proba([acfg for _, acfg in keyed_acfgs])
        return Trainer.predict_proba(
            self.magic.model,
            self._scaled_acfgs(keyed_acfgs),
            collator=self._collator,
            compiled=self._compiled if self._compiled is not None else False,
        )

    def _scaled_acfgs(
        self, keyed_acfgs: Sequence[Tuple[str, ACFG]]
    ) -> List[ACFG]:
        """Scaled ACFGs, reused by content key across requests.

        ``AttributeScaler.transform`` is per-sample (fixed ``mean_`` /
        ``std_``), so caching individual scaled graphs is bitwise
        identical to scaling the whole batch — and keeps object ids
        stable so the collator memo can hit on repeat graph sets.
        """
        out: List[Optional[ACFG]] = []
        missing: List[Tuple[int, str, ACFG]] = []
        for key, acfg in keyed_acfgs:
            hit = self._scaled.get(key)
            if hit is None:
                missing.append((len(out), key, acfg))
            out.append(hit)
        if missing:
            fresh = self.magic.scaler.transform([acfg for _, _, acfg in missing])
            for (position, key, _), scaled in zip(missing, fresh):
                out[position] = scaled
                self._scaled.put(key, scaled)
        return out  # type: ignore[return-value] — every slot is filled

    def drain_metrics(self) -> Observations:
        """Hand over everything observed since the last drain.

        The tape and collate-memo counters are cumulative; their growth
        since the last drain rides along, so the dispatcher adds each
        replica's counts to ``/metrics`` exactly once.  Runs once per
        batch, cache hits included, so it reads the counters directly.
        """
        totals: Dict[str, int] = {}
        if self._compiled is not None:
            totals["tape_captures"] = self._compiled.captures
            totals["tape_replays"] = self._compiled.replays
        if self._collator is not None:
            totals["collate_hits"] = self._collator.hits
            totals["collate_misses"] = self._collator.misses
        growth = {name: count - self._reported.get(name, 0) for name, count in totals.items()}
        if any(growth.values()):
            self.metrics.observe_counters(growth)
        self._reported = totals
        return self.metrics.drain()

    def compile_stats(self) -> Optional[Dict]:
        """Tape counters (``None`` when compiled execution is off)."""
        if self._compiled is None:
            return None
        return self._compiled.stats()

    def collator_stats(self) -> Optional[Dict[str, int]]:
        """Shared collate-memo counters (``None`` for raw-ACFG models)."""
        if self._collator is None:
            return None
        return {
            "hits": self._collator.hits,
            "misses": self._collator.misses,
            "entries": len(self._collator),
        }

    def _count(self, result: ClassificationResult) -> None:
        kind = result.failure.kind.value if result.failure else None
        self.metrics.observe_request(result.ok, kind)

    def cache_info(self) -> Dict:
        info: Dict = self._cache.info()
        if self._similarity is not None:
            info["similarity"] = self._similarity.info()
        return info
