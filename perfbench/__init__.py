"""The repository benchmark: seeded workloads, end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload NAME`` from the
repository root; see ``perfbench/README.md`` for the workloads, the metrics
and which layer metric should move which end-to-end metric.
"""
