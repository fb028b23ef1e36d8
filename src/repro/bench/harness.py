"""The throughput harness behind ``python -m repro bench``.

Service throughput, set-up cost, memory and the defense's cycle
overhead are measured end to end by ``python3 perf/run.py``, with
seeded oracles, quartile spreads and per-layer attribution.  This
harness keeps the numbers ``perf/`` does not produce.  It runs each
suite's deterministic workloads, times them with ``time.perf_counter``
(best of ``--repeat`` runs), and writes one ``BENCH_<suite>.json`` per
suite:

* ``BENCH_serving.json`` — the serving engine's equal-work scaling
  curve over worker counts (``scaling_vs_workers1``), with the outcome
  digests checked identical across every recorded point;
* ``BENCH_diagnosis.json`` — offline patch-factory throughput (attacks
  diagnosed per second) serial versus multi-process at jobs ∈ {1, 2, 4},
  plus the deterministic patch-table merge cost;
* ``BENCH_fuzz.json`` — differential-fuzzing throughput: generated
  cases pushed through the three-way oracle per second, serial and
  sharded over worker processes, plus the program-generation rate;
* ``BENCH_layout.json`` — static heap-layout analysis rate;
* ``BENCH_synth.json`` — symbolic attack-synthesis rate and funnel.

``--baseline FILE`` compares the fresh run against a previously recorded
file and fails (exit status 1) when any shared throughput metric
regressed by more than ``--max-regression`` percent (default 10).

The workloads are deterministic in *work performed* (op counts, request
mixes, allocation sequences); only the wall-clock denominator varies
between hosts, which is exactly what a regression gate needs.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..parallel.fanout import usable_cpus

#: Version of the emitted JSON layout.
SCHEMA_VERSION = 1

#: Default regression gate for ``--baseline`` comparisons, in percent.
DEFAULT_MAX_REGRESSION_PCT = 10.0


@dataclass
class BenchResult:
    """One timed benchmark: deterministic op count over wall seconds."""

    name: str
    ops: int
    seconds: float
    #: Derived quantities (overhead percentages, cycle totals, ...).
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def ops_per_sec(self) -> float:
        """Throughput; the quantity the regression gate compares."""
        return self.ops / self.seconds if self.seconds > 0 else 0.0

    def to_json(self) -> Dict[str, Any]:
        """Serializable payload for one benchmark entry."""
        payload: Dict[str, Any] = {
            "ops": self.ops,
            "seconds": round(self.seconds, 6),
            "ops_per_sec": round(self.ops_per_sec, 2),
        }
        if self.extras:
            payload["extras"] = {k: round(v, 4)
                                 for k, v in self.extras.items()}
        return payload


@dataclass
class SuiteReport:
    """All results of one suite plus run configuration."""

    suite: str
    scale: float
    repeat: int
    results: List[BenchResult]
    #: Suite-level context (e.g. host CPU count for parallel suites);
    #: the regression gate uses it to avoid cross-host comparisons.
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        """The full ``BENCH_<suite>.json`` document (schema v1)."""
        doc: Dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "scale": self.scale,
            "repeat": self.repeat,
            "python": platform.python_version(),
            "results": {r.name: r.to_json() for r in self.results},
        }
        if self.meta:
            doc["meta"] = self.meta
        return doc

    def result(self, name: str) -> BenchResult:
        """Look up one result by benchmark name (KeyError if absent)."""
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)


def _best_of(repeat: int, fn: Callable[[], int]) -> Tuple[int, float]:
    """Run ``fn`` ``repeat`` times; return (ops, best wall seconds).

    One *untimed* warmup iteration runs first: the first execution pays
    one-off costs (bytecode specialization, allocator bin population,
    page-frame materialization, import side effects) that a steady-state
    throughput number should not include.  ``repeat`` counts only the
    timed iterations.

    The cyclic garbage collector is paused around each timed run (the
    same hygiene ``timeit`` applies by default) — a collection landing
    inside one run would be noise, not workload cost.
    """
    import gc

    fn()  # warmup — populates caches, never timed
    best = float("inf")
    ops = 0
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(max(repeat, 1)):
            if gc_was_enabled:
                gc.collect()
                gc.disable()
            start = time.perf_counter()
            ops = fn()
            elapsed = time.perf_counter() - start
            if gc_was_enabled:
                gc.enable()
            if elapsed < best:
                best = elapsed
    finally:
        if gc_was_enabled and not gc.isenabled():
            gc.enable()
    return ops, best


# ----------------------------------------------------------------------
# Serving engine scaling over worker counts
# ----------------------------------------------------------------------

#: Worker counts the serving scaling curve samples.
SERVING_WORKERS_SWEEP: Tuple[int, ...] = (1, 2, 4, 8)


def bench_serving_engine(requests: int, batch_size: int, workers: int,
                         repeat: int,
                         workers1: Optional[BenchResult] = None
                         ) -> Tuple[BenchResult, str]:
    """One point of the scaling curve: defended nginx on ``workers``
    processes.

    Every timed run reuses one preforked engine, so the steady-state
    dispatch rate is what lands in the record — fork cost is paid at
    pool creation, exactly as in nginx's master/worker model.  Extras
    carry the worker count (the baseline gate skips multi-worker entries
    across hosts with different CPU counts) and the equal-work scaling
    over the ``workers=1`` point.  Returns the result and the outcome
    digest of the last run.
    """
    from ..serving import ServingEngine, ServingOptions

    digests: List[str] = []
    options = ServingOptions(service="nginx", defended=True,
                             workers=workers, requests=requests,
                             batch_size=batch_size)
    with ServingEngine(options) as engine:
        def run() -> int:
            report = engine.serve().report
            if report["outcomes"].get("blocked"):
                raise RuntimeError("engine serving blocked")
            digests.append(report["outcomes_digest"])
            return requests

        ops, seconds = _best_of(repeat, run)
    result = BenchResult(f"serving_workers{workers}", ops, seconds)
    result.extras["workers"] = workers
    if workers1 is not None and workers1.ops_per_sec > 0:
        result.extras["scaling_vs_workers1"] = (
            result.ops_per_sec / workers1.ops_per_sec)
    return result, digests[-1]


def run_serving_suite(scale: float = 1.0, repeat: int = 2,
                      workers_sweep: Tuple[int, ...] =
                      SERVING_WORKERS_SWEEP) -> SuiteReport:
    """The serving scaling curve: engine throughput over worker counts.

    The batch size comes from the whole sweep (one batch per worker at
    its largest count), so every point on every host serves the same
    batches.  Points above the host's usable CPUs are skipped: the pool
    forks at most that many processes, so they would re-measure a
    smaller pool under a larger label.  Every recorded point must serve
    byte-identical outcomes (the engine's determinism contract) — a
    digest mismatch across worker counts fails the suite rather than
    recording an apples-to-oranges curve.  ``meta.cpus`` records the
    host parallelism; the baseline gate skips multi-worker entries
    across differing hosts.  End-to-end serving throughput itself is
    measured by ``python3 perf/run.py``.
    """
    requests = max(int(32000 * scale), 800)
    batch_size = max(requests // max(workers_sweep), 50)
    cpus = usable_cpus()
    results: List[BenchResult] = []
    workers1: Optional[BenchResult] = None
    digests: Dict[int, str] = {}
    for workers in workers_sweep:
        if workers > cpus:
            continue
        result, digests[workers] = bench_serving_engine(
            requests, batch_size, workers, repeat, workers1)
        if workers == 1:
            workers1 = result
        results.append(result)
    if len(set(digests.values())) > 1:
        raise RuntimeError(
            f"serving outcomes diverged across worker counts: {digests}")
    return SuiteReport("serving", scale, repeat, results,
                       meta={"cpus": cpus})


# ----------------------------------------------------------------------
# Offline diagnosis throughput (the parallel patch factory)
# ----------------------------------------------------------------------

#: Worker counts the diagnosis scaling curve samples.
DIAGNOSIS_JOBS_SWEEP: Tuple[int, ...] = (1, 2, 4)


def bench_diagnosis(scale: float, repeat: int, jobs: int,
                    baseline: Optional[BenchResult] = None
                    ) -> Tuple[BenchResult, Any]:
    """Diagnose the Table II + SAMATE corpus with ``jobs`` workers.

    Ops = attack reports diagnosed.  ``extras`` carry the worker count
    and, given the ``jobs=1`` result, the parallel speedup — the
    quantity the scaling curve is about.  Returns the result plus the
    last :class:`~repro.parallel.result.CorpusDiagnosis` (the merge
    benchmark reuses its per-entry results).
    """
    from ..parallel import DiagnosisPool
    from ..workloads.corpus import default_corpus

    replicate = max(int(16 * scale), 1)
    corpus = default_corpus().replicated(replicate)
    pool = DiagnosisPool(jobs=jobs)
    captured: List[Any] = [None]

    def run() -> int:
        diagnosis = pool.diagnose(corpus)
        captured[0] = diagnosis
        return len(diagnosis.results)

    ops, seconds = _best_of(repeat, run)
    result = BenchResult(f"diagnosis_jobs{jobs}", ops, seconds)
    result.extras["jobs"] = jobs
    if baseline is not None and baseline.ops_per_sec > 0:
        result.extras["speedup_vs_jobs1"] = (
            result.ops_per_sec / baseline.ops_per_sec)
    return result, captured[0]


def bench_diagnosis_merge(repeat: int, diagnosis: Any) -> BenchResult:
    """Cost of the deterministic patch-table merge, isolated.

    Merges the per-entry results of a finished diagnosis over and over;
    ops = diagnosis results merged.  This is the only serial section of
    the parallel factory, so its cost bounds the achievable speedup
    (Amdahl).
    """
    from ..parallel.engine import DiagnosisPool

    results = diagnosis.results
    iters = max(200 // max(len(results), 1), 1) * 10

    def run() -> int:
        for _ in range(iters):
            DiagnosisPool._merge(results)
        return iters * len(results)

    ops, seconds = _best_of(repeat, run)
    return BenchResult("diagnosis_merge", ops, seconds)


def run_diagnosis_suite(scale: float = 1.0, repeat: int = 3,
                        jobs_sweep: Tuple[int, ...] = DIAGNOSIS_JOBS_SWEEP
                        ) -> SuiteReport:
    """Serial-vs-parallel diagnosis scaling curve + merge cost.

    The suite records the host CPU count in ``meta`` — parallel
    throughput is only comparable between runs on equally sized hosts,
    and the regression gate skips multi-worker entries otherwise.
    """
    results: List[BenchResult] = []
    serial: Optional[BenchResult] = None
    diagnosis: Any = None
    for jobs in jobs_sweep:
        result, last = bench_diagnosis(scale, repeat, jobs, serial)
        if serial is None:
            serial = result
            diagnosis = last
        results.append(result)
    results.append(bench_diagnosis_merge(repeat, diagnosis))
    return SuiteReport("diagnosis", scale, repeat, results,
                       meta={"cpus": usable_cpus()})


# ----------------------------------------------------------------------
# Differential-fuzzing throughput
# ----------------------------------------------------------------------

#: Worker counts the fuzz scaling curve samples.
FUZZ_JOBS_SWEEP: Tuple[int, ...] = (1, 2)


def bench_fuzz_generation(scale: float, repeat: int) -> BenchResult:
    """Spec + program generation rate, isolated from the oracle."""
    from ..fuzz.generator import build_program, spec_for_seed

    count = max(int(400 * scale), 20)

    def run() -> int:
        for seed in range(count):
            build_program(spec_for_seed(seed))
        return count

    ops, seconds = _best_of(repeat, run)
    return BenchResult("fuzz_generation", ops, seconds)


def bench_fuzz_campaign(scale: float, repeat: int, jobs: int,
                        baseline: Optional[BenchResult] = None
                        ) -> BenchResult:
    """Full three-way-oracle case throughput with ``jobs`` workers.

    Ops = generated cases evaluated (each case is six executions plus
    two offline replays).  The campaign must report zero failures —
    a failing oracle would silently bench the error path instead.
    """
    from ..fuzz.runner import run_campaign

    count = max(int(40 * scale), 6)

    def run() -> int:
        campaign = run_campaign(0, count, jobs=jobs)
        if not campaign.ok:
            raise RuntimeError(
                f"fuzz bench: {len(campaign.failures)} oracle "
                f"failure(s); not benchmarking a broken oracle")
        return count

    ops, seconds = _best_of(repeat, run)
    result = BenchResult(f"fuzz_jobs{jobs}", ops, seconds)
    result.extras["jobs"] = jobs
    if baseline is not None and baseline.ops_per_sec > 0:
        result.extras["speedup_vs_jobs1"] = (
            result.ops_per_sec / baseline.ops_per_sec)
    return result


def run_fuzz_suite(scale: float = 1.0, repeat: int = 2,
                   jobs_sweep: Tuple[int, ...] = FUZZ_JOBS_SWEEP
                   ) -> SuiteReport:
    """Differential-fuzzing throughput, serial versus sharded.

    Like the diagnosis suite, multi-worker entries carry a ``jobs``
    extra and the report records the host CPU count in ``meta`` so the
    regression gate skips cross-host comparisons.
    """
    results: List[BenchResult] = [bench_fuzz_generation(scale, repeat)]
    serial: Optional[BenchResult] = None
    for jobs in jobs_sweep:
        result = bench_fuzz_campaign(scale, repeat, jobs, serial)
        if serial is None:
            serial = result
        results.append(result)
    return SuiteReport("fuzz", scale, repeat, results,
                       meta={"cpus": usable_cpus()})


# ----------------------------------------------------------------------
# Static layout-analysis throughput
# ----------------------------------------------------------------------

def bench_layout_workloads(repeat: int) -> BenchResult:
    """Layout-graph rate over the builtin Table II + SAMATE corpus."""
    from ..analysis.layout import analyze_layout
    from ..workloads.vulnerable import workload_registry

    programs = [factory() for factory in workload_registry().values()]

    def run() -> int:
        for program in programs:
            analyze_layout(program)
        return len(programs)

    ops, seconds = _best_of(repeat, run)
    return BenchResult("layout_workloads", ops, seconds)


def bench_layout_generated(scale: float, repeat: int) -> BenchResult:
    """Layout-graph rate over seed-generated fuzz programs.

    Ops = programs analyzed end to end (generation included — it is a
    small constant fraction; see ``fuzz_generation`` for its isolated
    rate).
    """
    from ..analysis.layout import analyze_layout
    from ..fuzz.generator import build_program, spec_for_seed

    count = max(int(120 * scale), 10)

    def run() -> int:
        for seed in range(count):
            analyze_layout(build_program(spec_for_seed(seed)))
        return count

    ops, seconds = _best_of(repeat, run)
    return BenchResult("layout_generated", ops, seconds)


def run_layout_suite(scale: float = 1.0, repeat: int = 3) -> SuiteReport:
    """Static heap-layout analysis throughput (graphs/s)."""
    results = [bench_layout_workloads(repeat),
               bench_layout_generated(scale, repeat)]
    return SuiteReport("layout", scale, repeat, results)


# ----------------------------------------------------------------------
# Symbolic attack synthesis throughput
# ----------------------------------------------------------------------

def bench_synth(scale: float, repeat: int) -> BenchResult:
    """End-to-end synthesis rate: layout plans attempted per second.

    One op = one fuzz-validated layout plan taken through the full
    pipeline (symbolic solve, allocator-geometry simulation, native
    validation, diagnose-and-rerun defeat check).  Extras record the
    funnel — concretized / abstentions / validated / defeated — so a
    regression in *effectiveness* is visible next to one in throughput.
    """
    from ..synth import synthesize_range

    count = max(int(24 * scale), 6)

    funnel: Dict[str, float] = {}

    def run() -> int:
        report = synthesize_range(0, count, jobs=1)
        funnel["seeds"] = float(report.seeds)
        funnel["concretized"] = float(report.concretized)
        funnel["abstentions"] = float(report.abstentions)
        funnel["validated"] = float(report.validated)
        funnel["defeated"] = float(report.defeated)
        return max(report.plans_attempted, 1)

    ops, seconds = _best_of(repeat, run)
    result = BenchResult("synth_plans", ops, seconds)
    result.extras.update(funnel)
    return result


def run_synth_suite(scale: float = 1.0, repeat: int = 2) -> SuiteReport:
    """Symbolic attack-synthesis throughput (plans/s) and funnel."""
    return SuiteReport("synth", scale, repeat,
                       [bench_synth(scale, repeat)])


# ----------------------------------------------------------------------
# Baseline comparison
# ----------------------------------------------------------------------

def compare_to_baseline(report: SuiteReport, baseline: Dict[str, Any],
                        max_regression_pct: float =
                        DEFAULT_MAX_REGRESSION_PCT
                        ) -> List[str]:
    """Return regression messages; empty means the gate passes.

    Only throughput metrics (``ops_per_sec``) present in both runs are
    compared; new or removed benchmarks never fail the gate.  Results
    carrying a ``jobs`` or ``workers`` extra above 1 (the diagnosis and
    serving scaling curves) are additionally skipped when the baseline
    was recorded on a host with a different CPU count — multi-worker
    throughput is a property of the host's parallelism, not of the code
    under test.
    """
    failures: List[str] = []
    base_results = baseline.get("results", {})
    base_cpus = baseline.get("meta", {}).get("cpus")
    run_cpus = report.meta.get("cpus")
    for result in report.results:
        base = base_results.get(result.name)
        if not base:
            continue
        if base_cpus != run_cpus and (result.extras.get("jobs", 1) > 1
                                      or result.extras.get("workers",
                                                           1) > 1):
            continue
        base_rate = float(base.get("ops_per_sec", 0))
        if base_rate <= 0 or result.ops_per_sec <= 0:
            continue
        regression_pct = (base_rate / result.ops_per_sec - 1) * 100
        if regression_pct > max_regression_pct:
            failures.append(
                f"{result.name}: {result.ops_per_sec:,.0f} ops/s is "
                f"{regression_pct:.1f}% below baseline "
                f"{base_rate:,.0f} ops/s "
                f"(gate: {max_regression_pct:.0f}%)")
    return failures


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def _load_baselines(baseline: str) -> Dict[str, Dict[str, Any]]:
    """Load baseline documents, keyed by suite name.

    ``baseline`` may be one ``BENCH_<suite>.json`` file (the historical
    form) or a *directory* — every ``BENCH_*.json`` inside is loaded, so
    one ``--baseline benchmarks/results`` gates all suites at once.
    Raises ``ValueError`` naming the file that is missing, unreadable or
    not a JSON object.
    """
    path = Path(baseline)
    docs: Dict[str, Dict[str, Any]] = {}
    files = (sorted(path.glob("BENCH_*.json")) if path.is_dir()
             else [path])
    for file in files:
        try:
            doc = json.loads(file.read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read baseline {file}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError(f"baseline {file} is not a BENCH_*.json "
                             f"document")
        suite = doc.get("suite")
        if suite:
            docs[suite] = doc
    return docs


def _emit(report: SuiteReport, out_dir: Path) -> Path:
    path = out_dir / f"BENCH_{report.suite}.json"
    path.write_text(json.dumps(report.to_json(), indent=2,
                               sort_keys=True) + "\n")
    return path


def _render(report: SuiteReport) -> str:
    lines = [f"suite: {report.suite} (scale={report.scale}, "
             f"repeat={report.repeat})"]
    for result in report.results:
        lines.append(f"  {result.name:<26} {result.ops_per_sec:>14,.0f} "
                     f"ops/s  ({result.ops} ops in "
                     f"{result.seconds:.3f}s)")
        for key, value in sorted(result.extras.items()):
            lines.append(f"    {key:<28} {value:,.2f}")
    return "\n".join(lines)


#: Stack frames listed in each ``profile_<suite>.txt`` artifact.
PROFILE_TOP_N = 40


def _profiled(suite: str, runner: Any, out: Path) -> SuiteReport:
    """Run one suite under :mod:`cProfile`; write the hot-spot table.

    The artifact (``profile_<suite>.txt``) lists the top
    ``PROFILE_TOP_N`` frames by cumulative time — the map optimization
    work starts from.  Profiling slows the run, so throughput numbers
    recorded from a ``--profile`` run are for reading tables, not for
    ratcheting baselines.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        report = runner()
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(PROFILE_TOP_N)
    stats.sort_stats("tottime").print_stats(PROFILE_TOP_N)
    path = out / f"profile_{suite}.txt"
    path.write_text(buffer.getvalue())
    print(f"wrote {path}")
    return report


def run_bench(suites: str = "all", scale: float = 1.0, repeat: int = 3,
              out_dir: Optional[str] = None,
              baseline: Optional[str] = None,
              max_regression_pct: float = DEFAULT_MAX_REGRESSION_PCT,
              profile: bool = False) -> int:
    """Run the requested suites; returns the process exit status.

    0 is a clean run, 1 a throughput regression against ``baseline``,
    and 2 a usage error (``repeat`` below 1, ``scale`` not positive, a
    baseline that cannot be read), reported on one stderr line before
    any suite runs.
    """
    try:
        if repeat < 1:
            raise ValueError(f"--repeat must be at least 1, got {repeat}")
        if not scale > 0:
            raise ValueError(f"--scale must be positive, got {scale}")
        baseline_docs = _load_baselines(baseline) if baseline else {}
    except ValueError as exc:
        print(f"repro bench: {exc}", file=sys.stderr)
        return 2
    out = Path(out_dir) if out_dir else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    runners = [
        ("serving", lambda: run_serving_suite(scale,
                                              max(repeat - 1, 1))),
        ("diagnosis", lambda: run_diagnosis_suite(scale, repeat)),
        ("fuzz", lambda: run_fuzz_suite(scale, max(repeat - 1, 1))),
        ("layout", lambda: run_layout_suite(scale, repeat)),
        ("synth", lambda: run_synth_suite(scale, max(repeat - 1, 1))),
    ]
    reports: List[SuiteReport] = []
    for name, runner in runners:
        if suites not in ("all", name):
            continue
        reports.append(_profiled(name, runner, out) if profile
                       else runner())

    failures: List[str] = []
    for report in reports:
        path = _emit(report, out)
        print(_render(report))
        print(f"wrote {path}")
        baseline_data = baseline_docs.get(report.suite)
        if baseline_data:
            base_scale = baseline_data.get("scale")
            if base_scale is not None and base_scale != report.scale:
                print(f"baseline scale {base_scale} != run scale "
                      f"{report.scale}; skipping regression gate "
                      f"(throughput is only comparable at equal scale)",
                      file=sys.stderr)
            else:
                failures.extend(compare_to_baseline(report, baseline_data,
                                                    max_regression_pct))
    if failures:
        print("\nPERF REGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


def add_bench_arguments(parser: Any) -> None:
    """Flag definitions of the ``repro bench`` subcommand."""
    parser.add_argument("--suite", default="all",
                        choices=("all", "serving", "diagnosis", "fuzz",
                                 "layout", "synth"),
                        help="which suite to run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (CI smoke: 0.05)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repeats; best run is recorded")
    parser.add_argument("--out-dir", default=None,
                        help="where BENCH_*.json land (default: cwd)")
    parser.add_argument("--baseline", default=None,
                        help="previously recorded BENCH_*.json (or a "
                             "directory of them) to compare against")
    parser.add_argument("--max-regression", type=float,
                        default=DEFAULT_MAX_REGRESSION_PCT,
                        help="percent throughput loss that fails the "
                             "run (default 10)")
    parser.add_argument("--profile", action="store_true",
                        help="run each suite under cProfile and write "
                             "profile_<suite>.txt next to the JSON "
                             "artifacts (numbers from profiled runs "
                             "are not baseline material)")

