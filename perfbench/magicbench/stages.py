"""Eager per-stage timing of the three DGCNN variants.

A DGCNN forward is three stages: the graph convolutions over the merged
batch (``graph_convs.forward_batch``), the per-graph pooling head
(``embed_from_zconcat`` on each graph's rows) and the classifier
(``classify`` on the stacked embeddings).  Each stage's forward is
timed on its own; its backward is timed by feeding the stage a detached
copy of its input as a fresh leaf and back-propagating a fixed output
gradient from the stage's output, so no other stage's backward runs.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

import numpy as np

from repro.core.dgcnn import build_model
from repro.features.acfg import ACFG
from repro.nn.tensor import Tensor, stack
from repro.train.batching import collate_graphs

from magicbench.prepare import table2_config
from magicbench.stats import median

VARIANTS = ("adaptive", "sort_conv1d", "sort_weighted")
STAGES = ("graph_conv", "pool_head", "mlp")

#: Graphs per timed batch (the Table II training batch size).
BATCH_SIZE = 10


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return (time.perf_counter() - started) * 1000.0


def _seed_like(array: np.ndarray) -> np.ndarray:
    return np.full(array.shape, 1.0 / max(array.size, 1))


def stage_table(graphs: Sequence[ACFG], batches: int = 4,
                repeats: int = 3) -> Dict[str, Dict[str, object]]:
    """``{variant: {"<stage>.fwd_ms": median, ..., "hottest": stage}}``.

    ``graphs`` must already be scaled.  The first ``batches`` batches of
    :data:`BATCH_SIZE` graphs are each timed ``repeats`` times; every
    figure is a median over those calls, and ``calls`` is its base.
    """
    chunks = [list(graphs[i:i + BATCH_SIZE])
              for i in range(0, len(graphs), BATCH_SIZE)][:batches]
    table: Dict[str, Dict[str, object]] = {}
    for variant in VARIANTS:
        model = build_model(table2_config(variant))
        model.train(True)
        samples: Dict[str, List[float]] = {
            f"{stage}.{pass_}_ms": []
            for stage in STAGES for pass_ in ("fwd", "bwd")
        }
        for chunk in chunks:
            batch = collate_graphs(chunk, model.normalize_propagation)
            for _ in range(repeats):
                _time_stages(model, batch, samples)
        row: Dict[str, object] = {name: median(values)
                                  for name, values in samples.items()}
        row["calls"] = len(samples["graph_conv.fwd_ms"])
        row["hottest"] = max(
            STAGES, key=lambda s: row[f"{s}.fwd_ms"] + row[f"{s}.bwd_ms"])
        table[variant] = row
    return table


def _time_stages(model, batch, samples: Dict[str, List[float]]) -> None:
    out: Dict[str, Tensor] = {}

    def conv_forward() -> None:
        out["z"] = model.graph_convs.forward_batch(batch)

    samples["graph_conv.fwd_ms"].append(_timed(conv_forward))
    z = out["z"]
    samples["graph_conv.bwd_ms"].append(
        _timed(lambda: z.backward(_seed_like(z.data))))

    z_leaf = Tensor(z.data, requires_grad=True)
    slices = batch.split(z_leaf)

    def pool_forward() -> None:
        out["e"] = stack([model.embed_from_zconcat(s) for s in slices], axis=0)

    samples["pool_head.fwd_ms"].append(_timed(pool_forward))
    embeddings = out["e"]
    samples["pool_head.bwd_ms"].append(
        _timed(lambda: embeddings.backward(_seed_like(embeddings.data))))

    e_leaf = Tensor(embeddings.data, requires_grad=True)

    def mlp_forward() -> None:
        out["y"] = model.classify(e_leaf)

    samples["mlp.fwd_ms"].append(_timed(mlp_forward))
    log_probs = out["y"]
    samples["mlp.bwd_ms"].append(
        _timed(lambda: log_probs.backward(_seed_like(log_probs.data))))
    model.zero_grad()


def stage_metrics(table: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    """Flatten to ``core.<variant>.<stage>.<pass>_ms`` metric names."""
    return {f"core.{variant}.{name}": float(value)
            for variant, row in table.items()
            for name, value in row.items() if name.endswith("_ms")}
