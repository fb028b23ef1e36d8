"""Performance-regression harness for the simulation substrate.

``python -m repro bench`` runs a fixed suite of wall-clock
microbenchmarks over the substrate — allocator throughput, guest
instruction rate, defended-vs-raw overhead, service request throughput —
and emits machine-readable ``BENCH_substrate.json`` and
``BENCH_services.json`` so every later PR can be compared against a
recorded trajectory (``--baseline`` fails the run on regressions).
"""

from .harness import (
    BenchResult,
    SuiteReport,
    compare_to_baseline,
    run_services_suite,
    run_substrate_suite,
)

__all__ = [
    "BenchResult",
    "SuiteReport",
    "compare_to_baseline",
    "run_services_suite",
    "run_substrate_suite",
]
