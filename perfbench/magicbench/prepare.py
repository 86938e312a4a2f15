"""Turn specs into listings, ACFGs and reference answers.

Materializing and extracting a full-size listing costs tens of
milliseconds, so both run in a small pool of worker processes (one per
CPU, at most two).  Extraction goes through the same fault-isolation
boundary the serving engine uses (``execute_unit`` with the ``text``
worker), so a malformed listing yields the same failure kind here as on
the server.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import time
import zlib
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core import Magic, ModelConfig
from repro.datasets.loader import MalwareDataset
from repro.datasets.mskcfg import MSKCFG_FAMILIES
from repro.features.acfg import ACFG
from repro.features.pipeline import WorkerContext, execute_unit, resolve_worker
from repro.nn.optim import Adam
from repro.train import TrainingConfig

from magicbench.inputs import (FIXTURE_SEED, ListingSpec, corpus_specs,
                               label_of, materialize)
from magicbench.trace import patched

#: Outcome of one extraction: ("ok", ACFG) or ("fail", kind, detail).
Outcome = Tuple

MAX_POOL_WORKERS = 2


@contextmanager
def worker_pool() -> Iterator[multiprocessing.pool.Pool]:
    """A pool whose workers are all gone when the block is left.

    It forks: a spawn-context pool would also start multiprocessing's
    resource tracker, which outlives the pool and is reaped only after
    this process has exited.
    """
    processes = max(1, min(MAX_POOL_WORKERS, os.cpu_count() or 1))
    pool = multiprocessing.get_context("fork").Pool(processes=processes)
    try:
        yield pool
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()


def prepare_one(item: Tuple[ListingSpec, Optional[int]]) -> Tuple[str, Outcome]:
    """Listing text plus its extraction outcome (runs in a worker)."""
    spec, label = item
    text = materialize(spec)
    outcome = execute_unit(
        resolve_worker("text").fn, (spec.name, text, label), 0, WorkerContext()
    )
    return text, outcome


def prepare_all(
    pool, specs: Sequence[ListingSpec], labelled: bool = False
) -> Tuple[List[str], List[Outcome]]:
    items = [(spec, label_of(spec) if labelled else None) for spec in specs]
    results = pool.map(prepare_one, items, chunksize=4)
    return [text for text, _ in results], [outcome for _, outcome in results]


def source_digest(*roots: str) -> str:
    """Digest of every ``.py`` file under ``roots`` (path and content)."""
    digest = hashlib.sha256()
    for root in roots:
        for directory, subdirs, files in os.walk(root):
            subdirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


class InputCache:
    """Prepared listings on disk, keyed by their specs and the code.

    Generating and extracting a listing is a pure function of its spec
    and of the sources, so a run that meets a seed again reloads the
    result instead of recomputing it.  The key covers the spec list and
    a digest of the program and benchmark sources; the files are written
    and read only by this benchmark, inside its checkout.  The worker
    pool starts only on a miss.
    """

    def __init__(self, directory: str, code_digest: str) -> None:
        self.directory = directory
        self.code_digest = code_digest
        self._pool = None
        self._pool_context = None

    def get(self, specs: Sequence[ListingSpec],
            labelled: bool = False) -> Tuple[List[str], List[Outcome]]:
        key = hashlib.sha256(repr((self.code_digest, labelled, list(specs)))
                             .encode()).hexdigest()[:24]
        path = os.path.join(self.directory, f"{key}.pickle.z")
        if os.path.exists(path):
            with open(path, "rb") as handle:
                return pickle.loads(zlib.decompress(handle.read()))
        if self._pool is None:
            self._pool_context = worker_pool()
            self._pool = self._pool_context.__enter__()
        prepared = prepare_all(self._pool, specs, labelled=labelled)
        os.makedirs(self.directory, exist_ok=True)
        staged = f"{path}.{os.getpid()}.tmp"
        # Dense adjacency matrices make the pickle large and very
        # compressible (about 20x at the fastest level).
        with open(staged, "wb") as handle:
            handle.write(zlib.compress(
                pickle.dumps(prepared, protocol=pickle.HIGHEST_PROTOCOL), 1))
        os.replace(staged, path)
        return prepared

    def close(self, *exc_info) -> None:
        """Join the pool; on an exception, terminate its workers first."""
        if self._pool_context is not None:
            context, self._pool, self._pool_context = self._pool_context, None, None
            context.__exit__(*(exc_info or (None, None, None)))

    def __enter__(self) -> "InputCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(*exc_info)


def acfgs_of(outcomes: Sequence[Outcome]) -> List[ACFG]:
    failed = [outcome for outcome in outcomes if outcome[0] != "ok"]
    if failed:
        raise RuntimeError(f"{len(failed)} corpus samples failed extraction: "
                           f"{failed[0][1:]}")
    return [outcome[1] for outcome in outcomes]


def table2_config(pooling: str, seed: int = 0) -> ModelConfig:
    """The Table II architecture, as ``repro.cli train`` builds it."""
    return ModelConfig(
        num_attributes=11,
        num_classes=len(MSKCFG_FAMILIES),
        pooling=pooling,
        graph_conv_sizes=(32, 32, 32, 32),
        amp_grid=(3, 3),
        conv2d_channels=16,
        sort_k=10,
        hidden_size=64,
        dropout=0.1,
        seed=seed,
    )


#: Training batch size of the Table II setting.
TABLE2_BATCH = 10


def table2_training(epochs: int, seed: int = 0) -> TrainingConfig:
    return TrainingConfig(epochs=epochs, batch_size=TABLE2_BATCH,
                          learning_rate=3e-3, seed=seed)


#: The served model: the Table II best architecture (adaptive pooling)
#: trained briefly on a fixed corpus.  Served labels are checked against
#: this model's own in-process predictions, so its accuracy does not
#: matter; a few epochs give it decisive (tie-free) scores.
FIXTURE_POOLING = "adaptive"
FIXTURE_TOTAL = 54
FIXTURE_EPOCHS = 4
MODEL_NAME = "bench"


def fixture_split(cache: InputCache):
    """Train and validation sets of the served model's fixed corpus."""
    specs = corpus_specs(FIXTURE_SEED, FIXTURE_TOTAL)
    _, outcomes = cache.get(specs, labelled=True)
    dataset = MalwareDataset(acfgs=acfgs_of(outcomes),
                             family_names=list(MSKCFG_FAMILIES))
    return dataset.stratified_split(0.2, seed=FIXTURE_SEED)


def train_fixture(train, validation, epochs: int) -> Tuple[Magic, List[float]]:
    """Train the served model; also return the seconds between its
    consecutive optimizer steps.

    A step covers collate, forward, backward and update of one batch; a
    median over the intervals leaves out the first step's one-off costs
    and the validation passes between epochs.
    """
    magic = Magic(table2_config(FIXTURE_POOLING), list(MSKCFG_FAMILIES))
    stamps: List[float] = []

    def stamped(original):
        def step(self):
            original(self)
            stamps.append(time.perf_counter())
        return step

    stamps.append(time.perf_counter())
    with patched(Adam, "step", stamped):
        magic.fit(train.acfgs, validation.acfgs, table2_training(epochs))
    return magic, [b - a for a, b in zip(stamps, stamps[1:])]


def reference_answers(magic: Magic, outcomes: Sequence[Outcome]) -> List[object]:
    """Per listing: the in-process label, or the failure kind string.

    Labels come from ``Magic.predict`` over every well-formed listing at
    once; a listing that fails extraction is expected to fail the same
    way on the server.
    """
    answers: List[object] = [outcome[1] if outcome[0] == "fail" else None
                             for outcome in outcomes]
    positions = [i for i, outcome in enumerate(outcomes) if outcome[0] == "ok"]
    if positions:
        labels = magic.predict([outcomes[i][1] for i in positions])
        for position, label in zip(positions, labels):
            answers[position] = int(label)
    return answers


def vertex_counts(outcomes: Sequence[Outcome]) -> List[int]:
    return [int(outcome[1].num_vertices) for outcome in outcomes
            if outcome[0] == "ok"]

