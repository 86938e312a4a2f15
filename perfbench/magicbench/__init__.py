"""The MAGIC benchmark: seeded workloads, oracle, metrics and tracing.

Run it through ``perfbench/run.py``; see ``perfbench/README.md``.
"""
