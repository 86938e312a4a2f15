"""Compiled tape execution: forward/backward replay vs the eager engine.

Engineering benchmark behind ``repro.nn.tape``.  The eager ``Tensor``
engine rebuilds the op graph and allocates fresh output/gradient arrays
on every call, even though serving batches and training epochs replay
the exact same topology; the tape captures one eager pass and replays it
with preallocated arena buffers, fused SpMM+ReLU / Linear+ReLU kernels,
and (opt-in) float32 arithmetic.  This bench measures three claims and
persists them to ``output/BENCH_forward.json``:

1. **bit_exact** — float64 replay reproduces the eager forward to the
   bit on all three DGCNN variants (the precondition for every timing
   claim below; a fast wrong answer is worthless);
2. **speedup_f32** — single-graph inference through the compiled
   float32 tape vs the eager float64 path (the serve-path hot loop);
3. **train_speedup** — whole training runs through ``Trainer`` with
   ``compiled=True`` vs ``compiled=False`` on a uniform-size corpus
   (capture on the first epoch, replay on the rest), with identical
   per-epoch losses as the equivalence check.

All timings are min-of-repeats (the standard way to strip scheduler
noise from a single-process measurement), so the asserts hold on the
1-CPU CI box.

Run standalone::

    PYTHONPATH=src:. python benchmarks/bench_forward.py --vertices 100

or via pytest (same scale): ``pytest benchmarks/bench_forward.py``.
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

from repro.core.batched import GraphBatch
from repro.core.dgcnn import POOLING_TYPES, ModelConfig, build_model
from repro.features.acfg import ACFG
from repro.nn.tape import CompiledModel
from repro.train.trainer import Trainer, TrainingConfig

from benchmarks.bench_common import save_result


def _random_acfg(rng, n: int, label: int = 0, density: float = 0.15) -> ACFG:
    adjacency = (rng.random((n, n)) < density).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    return ACFG(
        edges=np.stack(np.nonzero(adjacency)),
        attributes=rng.standard_normal((n, 11)),
        label=label,
    )


def _serve_config(pooling: str = "adaptive") -> ModelConfig:
    """The Table II best-model architecture (adjusted per pooling)."""
    return ModelConfig(
        num_attributes=11,
        num_classes=9,
        pooling=pooling,
        graph_conv_sizes=(32, 32, 32, 32),
        amp_grid=(3, 3),
        conv2d_channels=16,
        sort_k=32,
        conv1d_channels=(16, 32),
        conv1d_kernel=5,
        hidden_size=64,
        dropout=0.1,
        seed=0,
    )


def _best_of(fn, repeats: int, iterations: int) -> float:
    """Min-of-repeats mean per-call latency in seconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(iterations):
            fn()
        best = min(best, (time.perf_counter() - started) / iterations)
    return best


def check_bit_exactness() -> bool:
    """Float64 replay == eager forward, to the bit, on every variant."""
    rng = np.random.default_rng(7)
    for pooling in POOLING_TYPES:
        model = build_model(_serve_config(pooling)).eval()
        compiled = CompiledModel(model)
        batches = [
            GraphBatch([_random_acfg(rng, n) for n in (8, 14, 11)])
            for _ in range(2)
        ]
        for batch in batches:  # first captures, second replays
            if not np.array_equal(compiled.infer(batch), model(batch).data):
                return False
    return True


def bench_inference(vertices: int, repeats: int, iterations: int) -> dict:
    """Single-graph latency: eager f64 vs compiled f64 vs compiled f32."""
    model = build_model(_serve_config("adaptive")).eval()
    rng = np.random.default_rng(0)
    batch = GraphBatch([_random_acfg(rng, vertices)])
    compiled_f64 = CompiledModel(model)
    compiled_f32 = CompiledModel(model, dtype="float32")
    # Warm both tapes (capture is excluded: steady-state is the claim).
    assert np.array_equal(compiled_f64.infer(batch), model(batch).data)
    compiled_f32.infer(batch)

    eager_seconds = _best_of(lambda: model(batch), repeats, iterations)
    f64_seconds = _best_of(lambda: compiled_f64.infer(batch), repeats,
                           iterations)
    f32_seconds = _best_of(lambda: compiled_f32.infer(batch), repeats,
                           iterations)
    return {
        "vertices": vertices,
        "eager_f64_ms": round(eager_seconds * 1e3, 4),
        "compiled_f64_ms": round(f64_seconds * 1e3, 4),
        "compiled_f32_ms": round(f32_seconds * 1e3, 4),
        "speedup_f64": round(eager_seconds / f64_seconds, 3),
        "speedup_f32": round(eager_seconds / f32_seconds, 3),
        "fused_ops": compiled_f64.stats()["fused_ops"],
    }


def bench_training(corpus: int, epochs: int, repeats: int) -> dict:
    """Whole training runs, eager vs compiled, identical losses required.

    The first batch captures; every later one replays (uniform graph
    sizes leave two batch shapes, full batch and remainder).
    """
    rng = np.random.default_rng(4)
    data = [_random_acfg(rng, 12, label=i % 4, density=0.2)
            for i in range(corpus)]

    def run(compiled: bool):
        best = float("inf")
        for _ in range(repeats):
            model = build_model(ModelConfig(
                num_attributes=11, num_classes=4, pooling="adaptive",
                graph_conv_sizes=(32, 32, 32, 32), amp_grid=(3, 3),
                conv2d_channels=16, hidden_size=64, dropout=0.1, seed=0,
            ))
            trainer = Trainer(TrainingConfig(
                epochs=epochs, batch_size=10, compiled=compiled, seed=2
            ))
            started = time.perf_counter()
            history = trainer.train(model, data)
            best = min(best, time.perf_counter() - started)
        return best, history

    eager_seconds, eager_history = run(False)
    compiled_seconds, compiled_history = run(True)
    return {
        "corpus_size": corpus,
        "epochs": epochs,
        "eager_seconds": round(eager_seconds, 3),
        "compiled_seconds": round(compiled_seconds, 3),
        "train_speedup": round(eager_seconds / compiled_seconds, 3),
        "losses_equal":
            eager_history.train_losses == compiled_history.train_losses,
    }


def run_bench(
    vertices: int = 100,
    repeats: int = 5,
    iterations: int = 20,
    corpus: int = 80,
    epochs: int = 5,
) -> dict:
    bit_exact = check_bit_exactness()
    inference = bench_inference(vertices, repeats, iterations)
    training = bench_training(corpus, epochs, repeats=2)
    payload = {
        "cpu_count": os.cpu_count(),
        "bit_exact": bit_exact,
        "inference": inference,
        "training": training,
    }
    path = save_result("BENCH_forward", payload)
    print(f"bit-exact on {', '.join(POOLING_TYPES)}: {bit_exact}")
    print(f"single graph ({vertices} vertices): "
          f"eager {inference['eager_f64_ms']:.3f} ms, "
          f"compiled f64 {inference['compiled_f64_ms']:.3f} ms "
          f"({inference['speedup_f64']}x), "
          f"compiled f32 {inference['compiled_f32_ms']:.3f} ms "
          f"({inference['speedup_f32']}x, {inference['fused_ops']} fused ops)")
    print(f"training ({corpus} graphs x {epochs} epochs): "
          f"eager {training['eager_seconds']}s, "
          f"compiled {training['compiled_seconds']}s "
          f"({training['train_speedup']}x, losses equal: "
          f"{training['losses_equal']})")
    print(f"written to {path}")
    return payload


def test_compiled_execution_speedup():
    """CI gate: correctness is absolute, speedups have agreed floors.

    The ISSUE-7 acceptance bar: float64 replay bit-exact everywhere,
    >=2x single-graph compiled-float32 inference vs eager float64, and
    a >1.0x whole-run training speedup.  Min-of-repeats keeps these
    stable on the single-CPU CI runner.
    """
    payload = run_bench()
    assert payload["bit_exact"]
    assert payload["training"]["losses_equal"]
    assert payload["inference"]["fused_ops"] > 0
    assert payload["inference"]["speedup_f32"] >= 2.0, payload["inference"]
    assert payload["training"]["train_speedup"] > 1.0, payload["training"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=100)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--iterations", type=int, default=20)
    parser.add_argument("--corpus", type=int, default=80)
    parser.add_argument("--epochs", type=int, default=5)
    args = parser.parse_args()
    run_bench(
        vertices=args.vertices,
        repeats=args.repeats,
        iterations=args.iterations,
        corpus=args.corpus,
        epochs=args.epochs,
    )


if __name__ == "__main__":
    main()
