"""The two serve workloads: ``serve-unique`` and ``serve-resubmit``.

A run trains and publishes the served model, builds the seeded request
stream and its reference answers, then runs :data:`ROUNDS` rounds.  Each
round spawns a fresh ``repro.cli serve`` (one set-up sample), sends it
the whole stream with closed-loop clients, reads ``/metrics`` and the
server's peak memory, and stops it; then it times :data:`SETUP_SPAWNS`
more spawns until ``/healthz`` answers and trains the served model's
architecture for one more epoch (training-rate samples).  Every round sends the same
stream to a server with cold caches, so every run does the same work
however fast the program is: a faster server finishes sooner instead of
reaching further into a stream whose mix changes along its length.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Dict, List, Optional

from repro.serve import load, publish
from repro.serve.engine import DEFAULT_CACHE_SIZE

from magicbench import client, inputs, oracle, prepare, stages
from magicbench.replay import ServeReplay
from magicbench.report import Metric, Result, add_layer, add_span_medians
from magicbench.server import ServerProcess
from magicbench.stats import median, ratio, summarize

ROUNDS = 3
#: Spawn-to-/healthz timings after each round, on top of the round's own.
SETUP_SPAWNS = 1
THRESHOLD = 0.5


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    workers: int
    cache_size: Optional[int]
    #: Stream requests per second of ``--seconds``: a round sends
    #: ``rate * seconds / ROUNDS`` requests, which a 2-CPU box serves in
    #: about ``seconds / ROUNDS``.
    rate: float

    def server_args(self) -> List[str]:
        args = ["--workers", str(self.workers),
                "--similar-threshold", str(THRESHOLD)]
        if self.cache_size is not None:
            args += ["--cache-size", str(self.cache_size)]
        return args


CONFIGS: Dict[str, ServeConfig] = {
    # Single process; every listing distinct, so both cache tiers miss.
    # At 20 seconds, three rounds of 340 give a p99 with 10 samples beyond.
    "serve-unique": ServeConfig(workers=0, cache_size=None, rate=51.0),
    # Fleet of two replicas; the cache bound sits below the stream's
    # distinct-listing count, so LRU eviction happens.
    "serve-resubmit": ServeConfig(workers=2, cache_size=128, rate=240.0),
}


def clients() -> int:
    """Client threads: no more than the box has CPUs, at most two."""
    return max(1, min(2, os.cpu_count() or 1))


def run(workload: str, root: str, workdir: str, seed: int, seconds: float,
        trace: bool, scale: float, cache_dir: str, code_digest: str) -> Result:
    config = CONFIGS[workload]
    result = Result(workload, seed)
    registry = os.path.join(workdir, "registry")
    length = max(20, int(config.rate * seconds / ROUNDS * scale))
    stream = inputs.stream_for(workload, seed, length)
    with prepare.InputCache(cache_dir, code_digest) as cache:
        fixture = prepare.fixture_split(cache)
        texts, outcomes = cache.get(stream.specs)
    served, steps = prepare.train_fixture(*fixture, prepare.FIXTURE_EPOCHS)
    publish(served, registry, prepare.MODEL_NAME)
    magic = load(registry, prepare.MODEL_NAME).magic
    references = prepare.reference_answers(magic, outcomes)
    for spec, reference in zip(stream.specs, references):
        expected_failure = spec.kind == "malformed"
        if expected_failure != isinstance(reference, str):
            raise RuntimeError(f"reference for {spec.name} is {reference!r}; "
                               "the generator's expectation does not hold")
    result.info["shape"] = inputs.describe_shape(
        stream, texts, prepare.vertex_counts(outcomes))
    bodies = [client.encode(spec.name, text)
              for spec, text in zip(stream.specs, texts)]
    order = [request.listing for request in stream.requests]

    rounds = []
    setups: List[float] = []
    for number in range(ROUNDS):
        with _server(root, registry, config, workdir, f"round-{number}") as server:
            setups.append(server.start())
            started = time.perf_counter()
            replies = client.run_closed_loop(server.port, bodies, order,
                                             clients())
            elapsed = time.perf_counter() - started
            snapshot = server.metrics()
            rss = server.peak_rss_mb()
        rounds.append(_judge_round(result, number, replies, order, references,
                                   elapsed, setups[-1], snapshot, rss))
        # Set-up alone, spread over the run so its median sees the same
        # stretch of machine speed as the rounds.
        for spare in range(SETUP_SPAWNS):
            with _server(root, registry, config, workdir,
                         f"spawn-{number}-{spare}") as server:
                setups.append(server.start())
        steps += prepare.train_fixture(*fixture, epochs=1)[1]

    latencies = [ms for r in rounds for ms in r["latencies"]]
    summary = summarize(latencies)
    result.info["phases"] = [r["phase"] for r in rounds]
    metrics = result.metrics
    metrics["latency_p50_ms"] = Metric(summary["p50"], "ms", summary["count"])
    metrics["latency_p99_ms"] = Metric(
        summary["p99"], "ms", summary["count"],
        note="" if summary["p99_supported"] else
        f"fewer than 1000 samples; highest supported tail is "
        f"p{summary['tail_percentile']:g}={summary['tail']:.3f}ms")
    metrics["throughput_rps"] = Metric(
        median([r["throughput"] for r in rounds]), "req/s", ROUNDS,
        note="median over rounds of correct answers per timed second")
    metrics["train_graphs_per_s"] = Metric(
        prepare.TABLE2_BATCH / median(steps), "graphs/s", len(steps),
        note="training the served model: batch size / median step interval")
    metrics["setup_s"] = Metric(median(setups), "s", len(setups),
                                note="spawn until /healthz answers 200")
    metrics["peak_rss_mb"] = Metric(
        median([r["rss"] for r in rounds]), "MB", ROUNDS,
        note="sum of VmHWM over the server and its children")
    if trace:
        _trace(result, workload, config, magic, texts, stream, rounds, workdir)
    return result


def _server(root: str, registry: str, config: ServeConfig, workdir: str,
            label: str) -> ServerProcess:
    return ServerProcess(root, registry, prepare.MODEL_NAME,
                         config.server_args(),
                         os.path.join(workdir, f"server-{label}.log"))


def _judge_round(result: Result, number: int, replies, order, references,
                 elapsed: float, setup: float, snapshot: Dict,
                 rss: float) -> Dict:
    correct = 0
    exact_hits: List[float] = []
    for reply in replies:
        reason = oracle.judge(references[order[reply.position]], reply.status,
                              reply.payload, reply.error, THRESHOLD)
        result.attempted += 1
        if reason is None:
            correct += 1
        else:
            result.fail(f"round {number} request {reply.position}: {reason}")
        payload = reply.payload or {}
        if payload.get("cached") and not payload.get("similar"):
            exact_hits.append(reply.latency_ms)
    return {
        "latencies": [reply.latency_ms for reply in replies],
        "throughput": correct / elapsed,
        "rss": rss,
        "snapshot": snapshot,
        "exact_hit_latencies": exact_hits,
        "sent": len(replies),
        "phase": {"round": number, "sent": len(replies),
                  "succeeded": correct, "failed": len(replies) - correct,
                  "seconds": round(elapsed, 3), "setup_s": round(setup, 4)},
    }


def _trace(result: Result, workload: str, config: ServeConfig, magic,
           texts, stream, rounds, workdir: str) -> None:
    snapshots = [r["snapshot"] for r in rounds]
    # -- counts from the untraced rounds --------------------------------
    attempted = sum(r["sent"] for r in rounds)
    exact = sum(len(r["exact_hit_latencies"]) for r in rounds)
    share = ratio(exact, attempted)
    add_layer(result, "serve.exact_hit_ratio", share["value"], "ratio", attempted)
    similar = sum(s["cache"]["similar_hits"] for s in snapshots)
    misses = sum(s["cache"]["misses"] for s in snapshots)
    hit = ratio(similar, similar + misses)
    add_layer(result, "similarity.hit_ratio", hit["value"], "ratio", hit["base"],
           note="similar-tier answers / exact-tier misses, from /metrics")
    batch_sizes = [s["batches"]["mean_size"] for s in snapshots]
    add_layer(result, "serve.batch_mean_size", median(batch_sizes), "count",
           sum(s["batches"]["count"] for s in snapshots))
    request_p50 = median([s["latency_ms"]["request"]["p50"] for s in snapshots])
    add_layer(result, "serve.server_request_p50_ms", request_p50, "ms",
           sum(s["latency_ms"]["request"]["count"] for s in snapshots))
    client_p50 = result.metrics["latency_p50_ms"].value
    add_layer(result, "serve.transport_ms", client_p50 - request_p50, "ms",
           result.metrics["latency_p50_ms"].base,
           note="client p50 minus server request-stage p50")
    if config.workers:
        hits = [ms for r in rounds for ms in r["exact_hit_latencies"]]
        if hits:
            add_layer(result, "fleet.hit_latency_p50_ms", median(hits), "ms",
                   len(hits))
        workers = [w for s in snapshots for w in s["fleet"]["workers"]]
        served = [w["served"] for w in workers]
        batches = sum(w["batches"] for w in workers)
        add_layer(result, "fleet.mean_batch_size",
               sum(served) / batches if batches else 0.0, "count", batches)
        per_round = [[w["served"] for w in s["fleet"]["workers"]]
                     for s in snapshots]
        skew = median([max(r) / (sum(r) / len(r)) for r in per_round if sum(r)])
        add_layer(result, "fleet.replica_skew", skew, "ratio", len(workers),
               note="max served / mean served per round, median")
        add_layer(result, "fleet.respawns", sum(w["respawns"] for w in workers),
               "count", len(workers))
        add_layer(result, "fleet.retries", sum(w["retries"] for w in workers),
               "count", len(workers))

    # -- spans from the in-process replay -------------------------------
    order = [request.listing for request in stream.requests]
    names = [spec.name for spec in stream.specs]
    replay = ServeReplay(
        magic, replicas=config.workers,
        cache_size=config.cache_size or DEFAULT_CACHE_SIZE,
        threshold=THRESHOLD, batch_size=round(median(batch_sizes)))
    started = time.perf_counter()
    replay.run(texts, names, order)
    replay_seconds = time.perf_counter() - started
    add_span_medians(result, replay.tracer)
    add_layer(result, "cfg.vertices", median(replay.vertices) if replay.vertices
           else 0.0, "count", len(replay.vertices))
    counters = replay.counters()
    memo = ratio(counters["collate_hits"],
                 counters["collate_hits"] + counters["collate_misses"])
    add_layer(result, "collate.memo_hit_ratio", memo["value"], "ratio", memo["base"])
    tape = ratio(counters["tape_replays"],
                 counters["tape_replays"] + counters["tape_captures"])
    add_layer(result, "tape.replay_ratio", tape["value"], "ratio", tape["base"])

    table = stages.stage_table(replay.graphs)
    for name, value in stages.stage_metrics(table).items():
        add_layer(result, name, value, "ms", table[name.split(".")[1]]["calls"])
    coverage = replay.coverage(request_p50)
    notes = [f"hottest DGCNN stage of {variant}: {row['hottest']}"
             for variant, row in table.items()]
    notes.append(f"replayed {len(order)} requests in {replay_seconds:.2f}s "
                 f"over {max(1, config.workers)} emulated replica(s); "
                 f"tiers {counters}")
    notes.append(f"coverage: layer spans account for {coverage:.1%} of the "
                 f"server's request-stage p50 ({request_p50:.3f} ms) and "
                 f"{replay.engine_share():.1%} of the engines' classify time "
                 "in the replay")
    result.info["trace_notes"] = notes
    replay.tracer.write(os.path.join(workdir, f"trace-{workload}.jsonl"),
                        meta={"workload": workload, "seed": result.seed})

