"""Serving layer: batched throughput vs one-request-at-a-time.

Engineering benchmark behind the online classification service
(``repro.serve``).  The batched forward path (PR 1) makes a 32-graph
``GraphBatch`` barely more expensive than a single graph, but an online
service receives requests one at a time; the dispatcher coalesces the
requests that queue up behind a running batch so they share the next
forward pass.  This bench pushes the same corpus through the
``--workers 0`` service (``FleetDispatcher.in_process``) twice —
sequential submits capped at one request per batch, and concurrent
submits — *verifies both paths produce identical labels*, and persists
the measurement to ``output/BENCH_serve.json``.

The win comes from amortizing per-forward overhead across the batch, so
it grows with concurrency; the artifact records ``cpu_count`` and the
honest ``batched_faster`` verdict for the machine that ran it.

Run standalone::

    PYTHONPATH=src:. python benchmarks/bench_serve_throughput.py \
        --corpus 48 --concurrency 8

or via pytest (reduced scale): ``pytest benchmarks/bench_serve_throughput.py``.
"""

from __future__ import annotations

import argparse
import os
import threading
import time
from typing import List, Tuple

import dataclasses

from repro.core import Magic, ModelConfig
from repro.datasets import generate_mskcfg_dataset
from repro.datasets.mskcfg import MSKCFG_PROFILES
from repro.datasets.synthetic_asm import generate_family_listing
from repro.serve import FleetDispatcher, InferenceEngine, publish
from repro.train import TrainingConfig

from benchmarks.bench_common import save_result


def _smoke_corpus(corpus: int, seed: int) -> List[Tuple[str, str]]:
    """Small listings cycling through the nine family profiles.

    The bench isolates *service* overhead (per-forward fixed cost that
    coalescing amortizes), so the corpus uses shrunken profiles: with
    full-size mskcfg listings, CFG extraction — identical on both paths —
    swamps the measurement.
    """
    profiles = [
        dataclasses.replace(
            profile,
            num_functions=(1, 2),
            blocks_per_function=(2, 4),
            block_length=(2, 4),
            dispatch_probability=0.0,
        )
        for profile in MSKCFG_PROFILES.values()
    ]
    samples = []
    for index in range(corpus):
        profile = profiles[index % len(profiles)]
        samples.append((
            f"{profile.name}_{index:05d}",
            generate_family_listing(profile, seed + index),
        ))
    return samples


def _train_engine_pair(tmp_root: str, seed: int) -> Tuple[InferenceEngine, InferenceEngine]:
    """One published archive, two independent engines (no shared state)."""
    dataset = generate_mskcfg_dataset(total=36, seed=seed, minimum_per_family=4)
    magic = Magic(
        ModelConfig(
            num_attributes=dataset.acfgs[0].num_attributes,
            num_classes=dataset.num_classes,
            pooling="sort_weighted",
            graph_conv_sizes=(32, 32),
            sort_k=10,
            hidden_size=32,
            dropout=0.0,
            seed=seed,
        ),
        dataset.family_names,
    )
    magic.fit(dataset.acfgs,
              training_config=TrainingConfig(epochs=2, batch_size=8, seed=seed))
    publish(magic, tmp_root, "bench")
    # Caches off: every request must pay extraction + forward, so the
    # timing difference is purely the coalescing.
    return (
        InferenceEngine.from_registry(tmp_root, "bench", cache_size=0),
        InferenceEngine.from_registry(tmp_root, "bench", cache_size=0),
    )


def _submit_concurrently(
    dispatcher: FleetDispatcher, samples: List[Tuple[str, str]],
    concurrency: int,
) -> List:
    """``concurrency`` submitter threads drain a shared work list."""
    results = [None] * len(samples)
    cursor = {"next": 0}
    lock = threading.Lock()

    def worker():
        while True:
            with lock:
                index = cursor["next"]
                if index >= len(samples):
                    return
                cursor["next"] = index + 1
            name, text = samples[index]
            results[index] = dispatcher.submit(text, name=name, timeout=120.0)

    threads = [threading.Thread(target=worker) for _ in range(concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def run_bench(
    corpus: int = 48,
    concurrency: int = 8,
    max_batch_size: int = 8,
    repeats: int = 3,
    seed: int = 3,
) -> dict:
    import tempfile

    samples = _smoke_corpus(corpus, seed + 1)

    with tempfile.TemporaryDirectory(prefix="bench-registry-") as tmp_root:
        single_engine, batched_engine = _train_engine_pair(tmp_root, seed)

        # Baseline: the service with coalescing disabled — sequential
        # submits, every forward carries exactly one graph.  Best of
        # ``repeats`` runs, so scheduler noise cannot flip the verdict.
        singles_seconds = float("inf")
        with FleetDispatcher.in_process(
            single_engine, max_batch_size=1
        ) as dispatcher:
            for _ in range(repeats):
                started = time.perf_counter()
                singles = [
                    dispatcher.submit(text, name=name, timeout=120.0)
                    for name, text in samples
                ]
                singles_seconds = min(
                    singles_seconds, time.perf_counter() - started
                )

        # Batched: concurrent submitters queue behind the running batch.
        batched_seconds = float("inf")
        with FleetDispatcher.in_process(
            batched_engine, max_batch_size=max_batch_size
        ) as dispatcher:
            for _ in range(repeats):
                started = time.perf_counter()
                batched = _submit_concurrently(dispatcher, samples,
                                               concurrency)
                batched_seconds = min(
                    batched_seconds, time.perf_counter() - started
                )
        histogram = dispatcher.metrics.snapshot()["batches"]["size_histogram"]

    # Equivalence before timing claims: identical labels either way.
    assert all(r is not None and r.ok for r in singles)
    assert all(r is not None and r.ok for r in batched)
    assert [r.label for r in singles] == [r.label for r in batched]

    payload = {
        "corpus_size": len(samples),
        "concurrency": concurrency,
        "max_batch_size": max_batch_size,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "singles_seconds": round(singles_seconds, 3),
        "batched_seconds": round(batched_seconds, 3),
        "singles_rps": round(len(samples) / singles_seconds, 2),
        "batched_rps": round(len(samples) / batched_seconds, 2),
        "speedup": round(singles_seconds / batched_seconds, 3),
        "batched_faster": batched_seconds < singles_seconds,
        "labels_equal": True,
        "batch_size_histogram": histogram,
    }
    path = save_result("BENCH_serve", payload)
    print(f"single-request {singles_seconds:7.2f}s "
          f"({payload['singles_rps']} req/s)")
    print(f"batched        {batched_seconds:7.2f}s "
          f"({payload['batched_rps']} req/s, concurrency={concurrency})")
    print(f"speedup {payload['speedup']}x — labels identical; "
          f"batch sizes {histogram}")
    print(f"written to {path}")
    return payload


def test_micro_batching_matches_single_requests():
    """CI smoke: coalesced serving is label-equivalent; timings recorded."""
    payload = run_bench(corpus=24, concurrency=6, max_batch_size=6)
    assert payload["labels_equal"]
    # Coalescing actually happened (the histogram has a multi-request batch).
    assert max(int(size) for size in payload["batch_size_histogram"]) >= 2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", type=int, default=48)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--max-batch-size", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    run_bench(
        corpus=args.corpus,
        concurrency=args.concurrency,
        max_batch_size=args.max_batch_size,
        repeats=args.repeats,
        seed=args.seed,
    )


if __name__ == "__main__":
    main()
