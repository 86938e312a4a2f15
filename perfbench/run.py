"""MAGIC benchmark: one command, three seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload serve-unique --seed 1 --seconds 20 --trace 0

``--trace 0`` is the timed run: it prints every end-to-end metric with
its unit and sample count, the oracle verdict, and as its last line one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).
``--trace 1`` also runs the traced pass and puts the per-layer metrics
in that JSON line instead.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

# One BLAS thread in this process and every process it starts (set before
# numpy loads).  On a small box, BLAS worker threads compete with the
# clients, the server and its replicas, and roughly double the
# run-to-run spread.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

WORKLOADS = ("serve-unique", "serve-resubmit", "train-mskcfg")

#: Per-layer metrics every workload's traced run reports in its JSON
#: line (the full per-layer set, with workload-specific ones, is printed
#: above it).
PER_LAYER = (
    "asm.parse_ms", "cfg.build_ms", "cfg.vertices", "features.acfg_ms",
    "features.scale_ms", "similarity.fingerprint_ms", "similarity.insert_ms",
    "similarity.query_ms", "similarity.hit_ratio", "collate.ms",
    "collate.memo_hit_ratio", "tape.capture_ms", "tape.replay_ratio",
) + tuple(
    f"core.{variant}.{stage}.{pass_}_ms"
    for variant in ("adaptive", "sort_conv1d", "sort_weighted")
    for stage in ("graph_conv", "pool_head", "mlp")
    for pass_ in ("fwd", "bwd")
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the generated inputs (tests use < 1)")
    return parser.parse_args(argv)


def _exit_on_signal(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # Leave through the normal unwinding on SIGINT and SIGTERM, even when
    # started with them ignored, so every server and worker this run
    # started is stopped and waited for.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _exit_on_signal)
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    from magicbench import prepare, report, serve_workload, train_workload

    out_dir = os.path.join(HERE, "out")
    # Everything this run and its children write stays in the checkout.
    os.makedirs(os.path.join(out_dir, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(out_dir, "tmp")
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    runner = (train_workload.run if args.workload == "train-mskcfg"
              else serve_workload.run)
    trace = bool(args.trace)
    code_digest = prepare.source_digest(SRC, HERE)
    result = runner(args.workload, ROOT, workdir, args.seed, args.seconds,
                    trace, args.scale, os.path.join(out_dir, "inputs"),
                    code_digest)
    result.info["provenance"] = report.provenance(
        ROOT, code_digest, args.workload, args.seed, args.seconds, trace)
    trace_file = os.path.join(workdir, f"trace-{args.workload}.jsonl")
    if os.path.exists(trace_file):
        kept = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl")
        os.replace(trace_file, kept)
        result.info.setdefault("trace_notes", []).append(f"spans in {kept}")
    shutil.rmtree(workdir, ignore_errors=True)

    report.print_report(result, trace)
    if trace:
        line = report.verdict(result, list(PER_LAYER), result.layers)
    else:
        line = report.verdict(result, list(report.END_TO_END), result.metrics)
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
