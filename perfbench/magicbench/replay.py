"""Traced in-process replay of a serve workload's request stream.

The replay sends the seeded stream through real ``InferenceEngine``
objects, one per emulated replica, in batches of the size the timed run
observed and with the timed run's cache settings.  Wrappers installed on
the program's entry points for the length of the replay record one span
per call; the engine makes the calls in its own order:

    execute_unit -> AsmParser.parse -> CfgBuilder.build -> ACFG.from_cfg
    -> fingerprint_acfg + SimilarityIndex.signature -> SimilarityIndex.query
    -> [per batch] AttributeScaler.transform -> BatchCollator.collate
    -> CompiledModel.infer -> SimilarityIndex.insert

Fleet mode is emulated with round-robin routing over the replicas, which
is what least-loaded routing does under a steady closed loop.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

import repro.serve.engine as engine
from repro.asm.parser import AsmParser
from repro.cfg.builder import CfgBuilder
from repro.core import Magic
from repro.features.acfg import ACFG
from repro.features.scaling import AttributeScaler
from repro.nn.tape import CompiledModel
from repro.similarity import SimilarityIndex
from repro.train.batching import BatchCollator

from magicbench.stats import median
from magicbench.trace import Tracer, instrumented, spanned, tape_spanned

#: Spans that only group other spans.
CONTAINERS = ("batch", "extract")


class ServeReplay:
    def __init__(self, magic: Magic, replicas: int, cache_size: int,
                 threshold: Optional[float], batch_size: int) -> None:
        self.engines = [
            engine.InferenceEngine(magic, cache_size=cache_size,
                                   similar_threshold=threshold)
            for _ in range(max(1, replicas))]
        self.batch_size = max(1, batch_size)
        self.tracer = Tracer()
        self.vertices: List[int] = []
        #: Scaled ACFGs the engines forwarded (the stage table's inputs).
        self.graphs: List[ACFG] = []
        self.requests = 0
        # Stream positions of the batch in flight, by index in the batch
        # and by content key, and the position extracted last.
        self._positions: Sequence[int] = ()
        self._keys: Dict[str, int] = {}
        self._focus: Optional[int] = None

    def run(self, texts: Sequence[str], names: Sequence[str],
            order: Sequence[int]) -> None:
        """Send ``texts[order[i]]`` for every stream position i."""
        self.requests += len(order)
        queues: List[List[int]] = [[] for _ in self.engines]
        with instrumented(self._wrappers()):
            for position in range(len(order)):
                replica = position % len(self.engines)
                queues[replica].append(position)
                if len(queues[replica]) >= self.batch_size:
                    self._batch(replica, queues[replica], texts, names, order)
                    queues[replica] = []
            for replica, positions in enumerate(queues):
                if positions:
                    self._batch(replica, positions, texts, names, order)

    def _batch(self, replica: int, positions: List[int], texts, names,
               order) -> None:
        samples = [(names[order[p]], texts[order[p]]) for p in positions]
        self._positions = positions
        self._keys = {}
        for position, (_, text) in zip(positions, samples):
            key = hashlib.sha256(text.encode("utf-8")).hexdigest()
            self._keys.setdefault(key, position)
        with self.tracer.span("batch", list(positions)):
            self.engines[replica].classify_texts(samples)

    def _wrappers(self):
        tracer = self.tracer

        def focus(*_args):
            return self._focus

        def extract(original):
            # The engine's per-sample fault boundary; its index argument
            # says which request of the batch is being extracted.
            def call(worker, item, index, context):
                self._focus = self._positions[index]
                with tracer.span("extract", self._focus):
                    return original(worker, item, index, context)
            return call

        return (
            (engine, "execute_unit", extract),
            (AsmParser, "parse", spanned(tracer, "asm.parse")),
            (CfgBuilder, "build", spanned(
                tracer, "cfg.build",
                after=lambda cfg: self.vertices.append(cfg.num_vertices))),
            (ACFG, "from_cfg", spanned(tracer, "features.acfg")),
            (engine, "fingerprint_acfg",
             spanned(tracer, "similarity.fingerprint", request=focus)),
            (SimilarityIndex, "signature",
             spanned(tracer, "similarity.signature", request=focus)),
            (SimilarityIndex, "query",
             spanned(tracer, "similarity.query", request=focus)),
            (SimilarityIndex, "insert", spanned(
                tracer, "similarity.insert",
                request=lambda _index, key, *_rest: self._keys[key])),
            (AttributeScaler, "transform",
             spanned(tracer, "features.scale", after=self.graphs.extend)),
            (BatchCollator, "collate", spanned(tracer, "collate")),
            (CompiledModel, "infer", tape_spanned(tracer)),
        )

    def counters(self) -> Dict[str, int]:
        """Tier, tape and collate-memo counters summed over the replicas,
        read from each engine's metrics, ``compile_stats`` and
        ``collator_stats``."""
        totals = dict.fromkeys(
            ("tier_exact", "tier_similar", "tier_miss", "tape_captures",
             "tape_replays", "collate_hits", "collate_misses"), 0)
        for replica in self.engines:
            cache = replica.metrics.snapshot()["cache"]
            tape = replica.compile_stats() or {}
            collate = replica.collator_stats() or {}
            totals["tier_exact"] += cache["exact_hits"]
            totals["tier_similar"] += cache["similar_hits"]
            totals["tier_miss"] += cache["misses"]
            totals["tape_captures"] += tape.get("captures", 0)
            totals["tape_replays"] += tape.get("replays", 0)
            totals["collate_hits"] += collate.get("hits", 0)
            totals["collate_misses"] += collate.get("misses", 0)
        return totals

    def coverage(self, request_p50: float) -> float:
        """Median per-request time the layer spans cover, over ``request_p50``.

        A request is charged its own spans plus an equal share of the
        batch-level spans (scale, collate, tape) of its batch; an exact
        cache hit has no layer span and is charged nothing.
        """
        per_request = dict.fromkeys(range(self.requests), 0.0)
        for name, start, end, _, request in self.tracer.spans:
            if name in CONTAINERS:
                continue
            members = request if isinstance(request, list) else [request]
            for position in members:
                per_request[position] += (end - start) * 1000.0 / len(members)
        if not per_request or request_p50 <= 0:
            return 0.0
        return median(list(per_request.values())) / request_p50

    def engine_share(self) -> float:
        """Share of the engines' ``classify_texts`` time the layer spans
        cover (the rest is the engine's own code: exact-cache lookups,
        bookkeeping, result assembly)."""
        covered = total = 0.0
        for name, start, end, _, _ in self.tracer.spans:
            if name == "batch":
                total += end - start
            elif name not in CONTAINERS:
                covered += end - start
        return covered / total if total else 0.0
