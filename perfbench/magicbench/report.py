"""Result records, provenance and the printed report."""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import statistics
import subprocess
from typing import Dict, List, Optional

import numpy as np
import scipy

#: End-to-end metrics, in print order: name -> unit.
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_rps": "req/s",
    "train_graphs_per_s": "graphs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclasses.dataclass
class Metric:
    value: float
    unit: str
    #: Sample count, or the base of a ratio.
    base: Optional[float] = None
    #: For a layer metric: the end-to-end metric and workload it should move.
    moves: str = ""
    note: str = ""


_TRAIN_AND_SERVE = ("train_graphs_per_s on train-mskcfg; "
                    "latency_p50_ms on serve-unique")

#: Per layer metric: the end-to-end metric it should move, and where.
#: ``core.*`` metrics all move ``train_graphs_per_s`` on train-mskcfg.
MOVES = {
    "asm.parse_ms": "latency_p50_ms, throughput_rps on serve-unique",
    "cfg.build_ms": "latency_p50_ms on serve-unique",
    "cfg.vertices": "latency_p50_ms on serve-unique",
    "features.acfg_ms": "latency_p50_ms on serve-unique",
    "features.scale_ms": "latency_p50_ms on serve-unique",
    "similarity.fingerprint_ms": "latency_p50_ms on serve-unique",
    "similarity.insert_ms": "latency_p50_ms on serve-unique",
    "similarity.query_ms": "latency_p50_ms, throughput_rps on serve-resubmit",
    "similarity.hit_ratio": "latency_p50_ms, throughput_rps on serve-resubmit",
    "collate.ms": _TRAIN_AND_SERVE,
    "collate.memo_hit_ratio": _TRAIN_AND_SERVE,
    "tape.capture_ms": _TRAIN_AND_SERVE,
    "tape.replay_ms": _TRAIN_AND_SERVE,
    "tape.replay_ratio": _TRAIN_AND_SERVE,
    "serve.exact_hit_ratio": "latency_p50_ms, throughput_rps on serve-resubmit",
    "serve.batch_mean_size": "throughput_rps on serve-unique",
    "serve.server_request_p50_ms": "latency_p50_ms on serve-unique",
    "serve.transport_ms": "latency_p50_ms on serve-unique",
    "fleet.hit_latency_p50_ms": "latency_p50_ms on serve-resubmit",
    "fleet.mean_batch_size": "throughput_rps on serve-resubmit",
    "fleet.replica_skew": "latency_p99_ms on serve-resubmit",
    "fleet.respawns": "fail_ratio on serve-resubmit",
    "fleet.retries": "fail_ratio on serve-resubmit",
    "tape.backward_ms": "train_graphs_per_s on train-mskcfg",
    "train.optimizer_step_ms": "train_graphs_per_s on train-mskcfg",
    "train.eval_ms": "train_graphs_per_s on train-mskcfg",
}

#: Per-layer metric reported as a median span duration -> the spans it
#: covers.  A metric over several spans sums them per request first.
SPAN_METRICS = (
    ("asm.parse_ms", ("asm.parse",)),
    ("cfg.build_ms", ("cfg.build",)),
    ("features.acfg_ms", ("features.acfg",)),
    ("features.scale_ms", ("features.scale",)),
    ("similarity.fingerprint_ms",
     ("similarity.fingerprint", "similarity.signature")),
    ("similarity.insert_ms", ("similarity.insert",)),
    ("similarity.query_ms", ("similarity.query",)),
    ("collate.ms", ("collate",)),
    ("tape.capture_ms", ("tape.capture",)),
    ("tape.replay_ms", ("tape.replay",)),
    ("tape.backward_ms", ("tape.backward",)),
    ("train.optimizer_step_ms", ("train.optimizer_step",)),
    ("train.eval_ms", ("train.eval",)),
)


@dataclasses.dataclass
class Result:
    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    failures: List[str] = dataclasses.field(default_factory=list)
    metrics: Dict[str, Metric] = dataclasses.field(default_factory=dict)
    layers: Dict[str, Metric] = dataclasses.field(default_factory=dict)
    info: Dict[str, object] = dataclasses.field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(reason)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def add_layer(result: Result, name: str, value: float, unit: str,
              base: Optional[float], note: str = "") -> None:
    moves = MOVES.get(name, "train_graphs_per_s on train-mskcfg"
                      if name.startswith("core.") else "")
    result.layers[name] = Metric(float(value), unit, base, moves=moves,
                                 note=note)


def add_span_medians(result: Result, tracer) -> None:
    """Median duration of every traced entry point, with its call count.

    Entry points a workload never calls are left out.
    """
    durations = tracer.durations_ms()
    for metric, spans in SPAN_METRICS:
        values = (tracer.per_request_ms(spans) if len(spans) > 1
                  else durations.get(spans[0]))
        if values:
            add_layer(result, metric, statistics.median(values), "ms",
                      len(values))


def git_sha(root: str) -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    try:
        completed = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def provenance(root: str, code_digest: str, workload: str, seed: int,
               seconds: float, trace: bool) -> Dict[str, object]:
    return {
        "git_sha": git_sha(root),
        # Identifies the code when the checkout is not a git work tree.
        "code_digest": code_digest,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def print_report(result: Result, trace: bool) -> None:
    """Human-readable lines; the JSON verdict is printed separately."""
    info = result.info
    print(f"== {result.workload} seed={result.seed} "
          f"({'traced' if trace else 'timed'} run)")
    print("provenance: " + json.dumps(info.get("provenance", {})))
    if "shape" in info:
        print("input shape: " + json.dumps(info["shape"]))
    for phase in info.get("phases", []):
        print("phase: " + json.dumps(phase))
    print(f"fail_ratio: {result.fail_ratio:.4f} ratio "
          f"({result.failed} failed of {result.attempted} attempted)")
    for name, metric in result.metrics.items():
        base = f" (n={metric.base:g})" if metric.base is not None else ""
        note = f" [{metric.note}]" if metric.note else ""
        print(f"{name}: {metric.value:.4f} {metric.unit}{base}{note}")
    if trace:
        for name, metric in sorted(result.layers.items()):
            base = f" base={metric.base:g}" if metric.base is not None else ""
            moves = f" -> {metric.moves}" if metric.moves else ""
            note = f" [{metric.note}]" if metric.note else ""
            print(f"layer {name}: {metric.value:.4f} {metric.unit}{base}"
                  f"{moves}{note}")
        for line in info.get("trace_notes", []):
            print(f"trace: {line}")
    for reason in result.failures:
        print(f"FAILED: {reason}")
    print(f"oracle: {'PASS' if result.failed == 0 else 'FAIL'}")


def verdict(result: Result, names: List[str], source: Dict[str, Metric]) -> str:
    """The last stdout line: the machine-readable JSON verdict."""
    return json.dumps({
        "correct": result.failed == 0 and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": source[name].value,
                           "unit": source[name].unit} for name in names},
    })
