"""Throughput harness for the numbers ``perf/`` does not measure.

``python -m repro bench`` times fixed suites — the serving engine's
worker-scaling curve, offline diagnosis, differential fuzzing, static
layout analysis and attack synthesis — and emits one machine-readable
``BENCH_<suite>.json`` per suite, so later changes can be compared
against a recorded trajectory (``--baseline`` fails the run on
regressions).  End-to-end service throughput, set-up cost, memory and
cycle overhead are measured by ``python3 perf/run.py``.
"""

from .harness import (
    BenchResult,
    SuiteReport,
    compare_to_baseline,
)

__all__ = [
    "BenchResult",
    "SuiteReport",
    "compare_to_baseline",
]
