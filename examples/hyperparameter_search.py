#!/usr/bin/env python
"""Hyper-parameter search in the style of Section V-B (Table II).

The paper exhaustively cross-validates 208 settings.  This example runs a
structurally identical but reduced sweep — one representative setting per
architecture/pooling-ratio cell — and prints the ranking by the paper's
criterion (minimum fold-averaged validation loss).

Every (setting, fold) pair is an independent work unit, so the sweep
parallelizes over supervised worker processes (``--n-jobs``) and checkpoints each
completed fold to a JSON-lines journal (``--journal``); an interrupted
run re-invoked with ``--resume`` skips the journaled folds and still
produces exactly the uninterrupted ranking.

Run:  python examples/hyperparameter_search.py [--epochs 8] [--folds 3]
          [--n-jobs 4] [--journal sweep.jsonl] [--resume]
"""

import argparse

from repro.datasets import generate_mskcfg_dataset
from repro.train import GridSearch, reduced_table2_grid, table2_grid


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--total", type=int, default=100)
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--folds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-jobs", type=int, default=1,
                        help="worker processes for the (setting x fold) pool")
    parser.add_argument("--journal",
                        help="JSON-lines checkpoint of completed folds")
    parser.add_argument("--resume", action="store_true",
                        help="skip folds already recorded in --journal")
    args = parser.parse_args()

    full = table2_grid()
    settings = reduced_table2_grid()
    print(f"Full Table II grid: {len(full)} settings "
          f"(64 adaptive + 96 sort+Conv1D + 48 sort+WeightedVertices)")
    print(f"Reduced sweep: {len(settings)} settings x "
          f"{args.folds}-fold CV x {args.epochs} epochs "
          f"(n_jobs={args.n_jobs})\n")

    dataset = generate_mskcfg_dataset(
        total=args.total, seed=args.seed, minimum_per_family=args.folds + 2
    )

    def progress(position, count, setting, score):
        print(f"[{position}/{count}] score={score:.4f}  {setting.describe()}")

    search = GridSearch(
        dataset,
        epochs=args.epochs,
        n_splits=args.folds,
        hidden_size=32,
        seed=args.seed,
        progress=progress,
    )
    result = search.run(
        settings, n_jobs=args.n_jobs, journal=args.journal, resume=args.resume
    )

    print("\nRanking (minimum fold-averaged validation loss):")
    for rank, entry in enumerate(result.ranking(), start=1):
        print(f"  {rank}. score={entry.score:.4f}  "
              f"accuracy={entry.result.accuracy:.3f}  "
              f"{entry.setting.describe()}")
    for failure in result.failures:
        print(f"  FAILED {failure.setting.describe()} fold "
              f"{failure.fold_index}: {failure.error}")
    best = result.best
    print(f"\nBest model: {best.setting.describe()}")
    print("(The paper's Table II likewise selects adaptive pooling on both"
          " datasets.)")


if __name__ == "__main__":
    main()
