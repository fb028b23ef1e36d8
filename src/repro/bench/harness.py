"""The perf-regression harness behind ``python -m repro bench``.

Every figure this reproduction reports is bottlenecked by the pure-Python
substrate, so the substrate's own speed is a first-class, *recorded*
quantity.  The harness runs a fixed suite of deterministic workloads,
times them with ``time.perf_counter`` (best of ``--repeat`` runs), and
writes two machine-readable files:

* ``BENCH_substrate.json`` — malloc/free throughput on both allocators,
  raw virtual-memory word traffic, guest instruction rate, and the
  defended-vs-raw interposition overhead;
* ``BENCH_services.json`` — request throughput of the nginx/mysql
  service harnesses, native and under the online defense, with both
  wall-clock and cycle-meter overhead percentages;
* ``BENCH_diagnosis.json`` — offline patch-factory throughput (attacks
  diagnosed per second) serial versus multi-process at jobs ∈ {1, 2, 4},
  plus the deterministic patch-table merge cost;
* ``BENCH_fuzz.json`` — differential-fuzzing throughput: generated
  cases pushed through the three-way oracle per second, serial and
  sharded over worker processes, plus the program-generation rate.

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

from ..allocator.base import Allocator
from ..allocator.libc import LibcAllocator
from ..allocator.segregated import SegregatedAllocator
from ..defense.interpose import DefendedAllocator
from ..defense.patch_table import PatchTable
from ..machine.layout import PAGE_SIZE
from ..machine.memory import VirtualMemory
from ..parallel.fanout import usable_cpus
from ..program.blocks import BasicBlock, BlockBuilder
from ..program.callgraph import CallGraph
from ..program.process import Process, ProgramLike

#: Version of the emitted JSON layout.
SCHEMA_VERSION = 1

#: Default regression gate for ``--baseline`` comparisons, in percent.
DEFAULT_MAX_REGRESSION_PCT = 10.0

#: Allocation-size mix for the malloc/free microbenchmarks: the small
#: sizes that dominate real workloads (Table IV's histograms), spread
#: over enough distinct bins to exercise free-list indexing.
ALLOC_SIZES: Tuple[int, ...] = (
    16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536)


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
# Substrate microbenchmarks
# ----------------------------------------------------------------------

def _alloc_workout(allocator: Allocator, rounds: int) -> int:
    """Deterministic malloc/calloc/free churn; returns ops performed."""
    ops = 0
    sizes = ALLOC_SIZES
    for round_no in range(rounds):
        ptrs = [allocator.malloc(size) for size in sizes]
        ops += len(sizes)
        # Free every other buffer, then allocate shifted sizes so the
        # next fits land both on exact and on larger free-list bins.
        for ptr in ptrs[::2]:
            allocator.free(ptr)
        ops += len(ptrs[::2])
        refills = [allocator.malloc(size + 8) for size in sizes[::2]]
        ops += len(refills)
        zeroed = allocator.calloc(4, 32 + (round_no % 4) * 16)
        ops += 1
        for ptr in ptrs[1::2] + refills + [zeroed]:
            allocator.free(ptr)
        ops += len(ptrs[1::2]) + len(refills) + 1
    return ops


def bench_malloc_free(scale: float, repeat: int,
                      factory: Callable[[], Allocator] = LibcAllocator,
                      name: str = "malloc_free") -> BenchResult:
    """Raw allocator malloc/calloc/free churn over ``factory()``."""
    rounds = max(int(2000 * scale), 20)

    def run() -> int:
        return _alloc_workout(factory(), rounds)

    ops, seconds = _best_of(repeat, run)
    return BenchResult(name, ops, seconds)


def bench_defended_malloc_free(scale: float, repeat: int,
                               raw: BenchResult) -> BenchResult:
    """Same churn through the patch-less interposer; extras carry the
    overhead versus the ``raw`` (undefended) result."""
    rounds = max(int(2000 * scale), 20)

    def run() -> int:
        allocator = DefendedAllocator(LibcAllocator(), PatchTable.empty())
        return _alloc_workout(allocator, rounds)

    ops, seconds = _best_of(repeat, run)
    result = BenchResult("defended_malloc_free", ops, seconds)
    if raw.ops_per_sec > 0 and result.ops_per_sec > 0:
        result.extras["overhead_vs_raw_pct"] = (
            raw.ops_per_sec / result.ops_per_sec - 1) * 100
    return result


#: Words per bulk transfer in ``vm_word_ops`` (a cache-line-friendly
#: run length; allocator zero-fills and shadow sweeps move runs of this
#: order).
VM_WORD_BATCH = 64


def bench_vm_words(scale: float, repeat: int) -> BenchResult:
    """Bulk word traffic: ``read_words``/``write_words`` in 64-word runs.

    Ops = 64-bit words transferred.  This is the access shape the
    substrate's columnar page store is built for — per-page
    ``memoryview`` slice transfers with one permission check per span —
    and the shape allocator zero-fill, shadow sweeps and buffer copies
    actually generate.  The per-word scalar path keeps its own benchmark
    (``vm_word_ops_scalar``) so neither regresses unnoticed.
    """
    iters = max(int(6000 * scale), 100)

    def run() -> int:
        from array import array
        memory = VirtualMemory()
        base = memory.mmap(16 * PAGE_SIZE)
        span = 16 * PAGE_SIZE - VM_WORD_BATCH * 8
        batch = array("Q", range(VM_WORD_BATCH))
        write_words = memory.write_words
        read_words = memory.read_words
        for i in range(iters):
            address = base + (i * 520) % span
            write_words(address, batch)
            read_words(address, VM_WORD_BATCH)
        return 2 * VM_WORD_BATCH * iters

    ops, seconds = _best_of(repeat, run)
    return BenchResult("vm_word_ops", ops, seconds)


def bench_vm_words_scalar(scale: float, repeat: int) -> BenchResult:
    """Per-word ``read_word``/``write_word`` traffic (the TLB fast path)."""
    iters = max(int(60_000 * scale), 1000)

    def run() -> int:
        memory = VirtualMemory()
        base = memory.mmap(16 * PAGE_SIZE)
        span = 16 * PAGE_SIZE - 8
        write_word = memory.write_word
        read_word = memory.read_word
        for i in range(iters):
            address = base + (i * 24) % span
            write_word(address, i)
            read_word(address)
        return 2 * iters

    ops, seconds = _best_of(repeat, run)
    return BenchResult("vm_word_ops_scalar", ops, seconds)


class _GuestLoop(ProgramLike):
    """Synthetic guest: per iteration a call, an allocation, a
    straight-line run of memory traffic (clear the buffer, stamp a
    header, scan/branch, copy half the buffer forward), and a free —
    the instruction mix of the service workloads, reduced to a counted
    loop.

    The straight-line run between ``malloc`` and ``free`` is pre-decoded
    into one :class:`~repro.program.blocks.BasicBlock` per distinct
    buffer size and dispatched with ``exec_block`` — the
    batched-interpretation path this benchmark is meant to exercise (the
    per-instruction twin is held equivalent by
    ``tests/program/test_block_equivalence.py``, and on the reference
    address space by ``tests/machine/test_fastpath_equivalence.py``).

    Guest instructions are counted at word granularity, exactly like
    :meth:`~repro.program.cost.CostModel.mem_cost` charges them: a
    ``size``-byte fill is ``size/8`` word stores, a copy is loads plus
    stores, even though the substrate executes each as one batched call
    (``BasicBlock.instructions`` is the per-block count).  ``call``,
    ``malloc`` and ``free`` count one instruction each."""

    def __init__(self) -> None:
        graph = CallGraph(entry="main")
        graph.add_call_site("main", "work")
        graph.add_call_site("work", "malloc", "buf")
        self.graph = graph.freeze()
        self._blocks = tuple(self._build_block(64 + k * 32)
                             for k in range(7))
        #: Instruction-rate numerator per iteration, by size class:
        #: call + malloc + free + the block's word-granular count.
        self._iter_instructions = tuple(
            3 + block.instructions for block in self._blocks)

    @staticmethod
    def _build_block(size: int) -> BasicBlock:
        builder = BlockBuilder()
        builder.fill(0, 0, size, 0)
        builder.write(0, 0, b"\x2a" * 16)
        builder.branch_on(builder.read(0, 0, 8))
        builder.write_arg(0, 8, 1)  # store loop counter at buf+8
        slot = builder.read_int(0, 8)
        builder.branch_on(slot)
        builder.copy(0, size // 2, 0, 0, size // 2)
        builder.write_value(0, 16, slot)
        builder.compute(5)
        return builder.build()

    def instruction_count(self, iters: int) -> int:
        """Exact guest instructions ``main(iters)`` executes."""
        per_cycle = sum(self._iter_instructions)
        full, rest = divmod(iters, len(self._iter_instructions))
        return full * per_cycle + sum(self._iter_instructions[:rest])

    def main(self, process: Process, iters: int) -> int:
        work = self._work
        for i in range(iters):
            process.call("work", work, i)
        return self.instruction_count(iters)

    def _work(self, process: Process, i: int) -> None:
        slot = i % 7
        buf = process.malloc(64 + slot * 32, site="buf")
        process.exec_block(self._blocks[slot], buf, i)
        process.free(buf)


def bench_guest_rate(scale: float, repeat: int) -> BenchResult:
    """Guest operations per second through the full Process machinery."""
    iters = max(int(6000 * scale), 100)
    program = _GuestLoop()

    def run() -> int:
        process = Process(program.graph, heap=LibcAllocator(),
                          record_allocations=False)
        return process.run(program, iters)

    ops, seconds = _best_of(repeat, run)
    return BenchResult("guest_instruction_rate", ops, seconds)


def run_substrate_suite(scale: float = 1.0, repeat: int = 3) -> SuiteReport:
    """The fixed substrate suite, slowest-changing names first."""
    raw = bench_malloc_free(scale, repeat)
    results = [
        raw,
        bench_malloc_free(scale, repeat, SegregatedAllocator,
                          "malloc_free_segregated"),
        bench_defended_malloc_free(scale, repeat, raw),
        bench_vm_words(scale, repeat),
        bench_vm_words_scalar(scale, repeat),
        bench_guest_rate(scale, repeat),
    ]
    return SuiteReport("substrate", scale, repeat, results)


# ----------------------------------------------------------------------
# Service throughput
# ----------------------------------------------------------------------

def _bench_service(name: str, program_factory: Callable[[], Any],
                   run_args: Tuple[Any, ...], work_units: int,
                   repeat: int) -> BenchResult:
    from ..core.pipeline import HeapTherapy

    def run_native() -> int:
        system = HeapTherapy(program_factory())
        run = system.run_native(*run_args)
        run_native.cycles = run.meter.total  # type: ignore[attr-defined]
        return work_units

    def run_defended() -> int:
        system = HeapTherapy(program_factory())
        run = system.run_defended(PatchTable.empty(), *run_args)
        if run.blocked:
            raise RuntimeError(f"{name}: defended run blocked: {run.fault}")
        run_defended.cycles = run.meter.total  # type: ignore[attr-defined]
        return work_units

    ops, native_seconds = _best_of(repeat, run_native)
    _, defended_seconds = _best_of(repeat, run_defended)
    result = BenchResult(name, ops, native_seconds)
    result.extras["defended_seconds"] = defended_seconds
    if native_seconds > 0:
        result.extras["defended_ops_per_sec"] = ops / defended_seconds
        result.extras["wall_overhead_pct"] = (
            defended_seconds / native_seconds - 1) * 100
    native_cycles = getattr(run_native, "cycles", 0.0)
    defended_cycles = getattr(run_defended, "cycles", 0.0)
    if native_cycles:
        result.extras["cycle_overhead_pct"] = (
            defended_cycles / native_cycles - 1) * 100
    return result


def run_services_suite(scale: float = 1.0, repeat: int = 2) -> SuiteReport:
    """End-to-end service throughput, native versus defended."""
    from ..workloads.services import MySqlServer, NginxServer

    requests = max(int(400 * scale), 40)
    queries = max(int(2000 * scale), 200)
    results = [
        _bench_service("nginx_requests", NginxServer, (requests, 20),
                       requests, repeat),
        _bench_service("mysql_queries", MySqlServer, (queries,),
                       queries, repeat),
    ]
    return SuiteReport("services", scale, repeat, results)


# ----------------------------------------------------------------------
# Concurrent serving engine throughput
# ----------------------------------------------------------------------

#: Worker counts the serving scaling curve samples.
SERVING_WORKERS_SWEEP: Tuple[int, ...] = (1, 2, 4, 8)


def bench_serving_sequential(requests: int,
                             repeat: int) -> BenchResult:
    """The close-per-request defended loop, recorded beside the engine
    curve but never divided into it (a different workload).  Native
    timing and the cycle overhead ride along as extras.
    """
    from ..core.pipeline import HeapTherapy
    from ..workloads.services import NginxServer

    cycles: Dict[str, float] = {}

    def run_native() -> int:
        system = HeapTherapy(NginxServer())
        run = system.run_native(requests, SERVE_BENCH_CONCURRENCY)
        cycles["native"] = run.meter.total
        return requests

    def run_defended() -> int:
        system = HeapTherapy(NginxServer())
        run = system.run_defended(PatchTable.empty(), requests,
                                  SERVE_BENCH_CONCURRENCY)
        if run.blocked:
            raise RuntimeError(f"sequential serving blocked: {run.fault}")
        cycles["defended"] = run.meter.total
        return requests

    _, native_seconds = _best_of(repeat, run_native)
    ops, defended_seconds = _best_of(repeat, run_defended)
    result = BenchResult("serving_sequential", ops, defended_seconds)
    result.extras["native_seconds"] = native_seconds
    if native_seconds > 0:
        result.extras["native_ops_per_sec"] = ops / native_seconds
    result.extras["cycle_overhead_pct"] = (
        cycles["defended"] / cycles["native"] - 1) * 100
    return result


def bench_serving_engine(requests: int, batch_size: int, workers: int,
                         repeat: int,
                         workers1: Optional[BenchResult] = None
                         ) -> BenchResult:
    """One point of the engine scaling curve: ``workers`` processes.

    Both runs reuse one preforked engine per configuration, so the
    steady-state dispatch rate is what lands in the record — fork cost
    is paid at pool creation, exactly as in nginx's master/worker model.
    Extras carry the worker count (the baseline gate skips multi-worker
    entries across hosts with different CPU counts), the cycle overhead
    and the equal-work scaling over the engine's own ``workers=1``
    point.
    """
    from ..serving import ServingEngine, ServingOptions

    cycles: Dict[str, float] = {}
    digests: Dict[str, str] = {}
    common = dict(service="nginx", workers=workers, requests=requests,
                  batch_size=batch_size)

    with ServingEngine(ServingOptions(defended=False,
                                      **common)) as native_engine, \
            ServingEngine(ServingOptions(defended=True,
                                         **common)) as defended_engine:
        def run_native() -> int:
            run = native_engine.serve()
            cycles["native"] = run.total_cycles
            return requests

        def run_defended() -> int:
            run = defended_engine.serve()
            if run.report["outcomes"].get("blocked"):
                raise RuntimeError("engine serving blocked")
            cycles["defended"] = run.total_cycles
            digests["defended"] = run.report["outcomes_digest"]
            return requests

        _, native_seconds = _best_of(repeat, run_native)
        ops, defended_seconds = _best_of(repeat, run_defended)
    result = BenchResult(f"serving_workers{workers}", ops,
                         defended_seconds)
    result.extras["workers"] = workers
    result.extras["native_seconds"] = native_seconds
    if native_seconds > 0:
        result.extras["native_ops_per_sec"] = ops / native_seconds
    result.extras["cycle_overhead_pct"] = (
        cycles["defended"] / cycles["native"] - 1) * 100
    if workers1 is not None and workers1.ops_per_sec > 0:
        result.extras["scaling_vs_workers1"] = (
            result.ops_per_sec / workers1.ops_per_sec)
    bench_serving_engine.last_digest = digests[  # type: ignore[attr-defined]
        "defended"]
    return result


#: Admission concurrency the serving benchmarks pass to the legacy loop.
SERVE_BENCH_CONCURRENCY = 20


def run_serving_suite(scale: float = 1.0, repeat: int = 2,
                      workers_sweep: Tuple[int, ...] =
                      SERVING_WORKERS_SWEEP) -> SuiteReport:
    """The serving scaling curve: engine throughput over worker counts.

    Every engine point must serve byte-identical outcomes (the engine's
    determinism contract) — a digest mismatch across worker counts fails
    the suite rather than recording an apples-to-oranges curve.  Batch
    size is sized so the largest worker count still gets one batch per
    worker.  ``meta.cpus`` records the host parallelism; the baseline
    gate skips multi-worker entries across differing hosts.
    """
    requests = max(int(32000 * scale), 800)
    batch_size = max(requests // max(workers_sweep), 50)
    results = [bench_serving_sequential(requests, repeat)]
    workers1: Optional[BenchResult] = None
    digests: Dict[int, str] = {}
    for workers in workers_sweep:
        result = bench_serving_engine(requests, batch_size, workers,
                                      repeat, workers1)
        if workers == 1:
            workers1 = result
        results.append(result)
        digests[workers] = (
            bench_serving_engine.last_digest)  # type: ignore[attr-defined]
    if len(set(digests.values())) > 1:
        raise RuntimeError(
            f"serving outcomes diverged across worker counts: {digests}")
    return SuiteReport("serving", scale, repeat, results,
                       meta={"cpus": usable_cpus()})


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
# Fleet immunization (registry publish → verify → hot-swap at scale)
# ----------------------------------------------------------------------

#: Fleet sizes the immunization curve samples.
FLEET_SIZES: Tuple[int, ...] = (1, 2, 4, 8)


def bench_fleet(scale: float, repeat: int, instances: int) -> BenchResult:
    """One fleet immunization run at ``instances`` serving instances.

    Ops = requests served *after* the hot-swap across the fleet (the
    immunized capacity).  Extras record the observability the issue
    asks for: per-run fleet immunization time (first observed attack at
    instance 0 to the last instance's proven immunity) and the
    min/mean/max per-instance swap latency, all from monotone
    ``BatchResult.wall`` stamps.  The canonical fleet report is checked
    for full immunity — a fleet that fails to immunize fails the suite
    rather than recording a meaningless number.
    """
    from ..fleet import FleetOptions, run_fleet

    requests = max(int(96 * scale), 48)
    options = FleetOptions(service="nginx", instances=instances,
                           attacks=4, requests=requests, batch_size=8,
                           jobs=1)
    extras: Dict[str, float] = {}

    def run() -> int:
        fleet = run_fleet(options)
        if not fleet.immune:
            raise RuntimeError(
                f"fleet of {instances} failed to immunize: "
                f"{fleet.report['immune_instances']} of {instances} "
                f"instances immune")
        post_swap = 0
        for inst in fleet.report["instance_reports"]:
            new_version = max(inst["table_versions"])
            post_swap += sum(
                count for version, _, count in inst["version_outcomes"]
                if version == new_version)
        latencies = fleet.telemetry["swap_latency"]
        extras["instances"] = float(instances)
        extras["registry_version"] = float(fleet.snapshot.version)
        extras["immunization_seconds"] = (
            fleet.telemetry["immunization_seconds"])
        extras["swap_latency_min_ms"] = min(latencies) * 1e3
        extras["swap_latency_max_ms"] = max(latencies) * 1e3
        extras["swap_latency_mean_ms"] = (
            sum(latencies) / len(latencies) * 1e3)
        return post_swap

    ops, seconds = _best_of(repeat, run)
    result = BenchResult(f"fleet_instances{instances}", ops, seconds)
    result.extras.update(extras)
    return result


def run_fleet_suite(scale: float = 1.0, repeat: int = 2,
                    sizes: Tuple[int, ...] = FLEET_SIZES) -> SuiteReport:
    """The fleet immunization curve: post-swap capacity over fleet size.

    ``meta.cpus`` records host parallelism for the cross-host baseline
    skip, mirroring the serving and diagnosis scaling curves (the runs
    themselves use ``jobs=1`` so the per-instance numbers stay
    comparable; fleet parallelism is exercised by the tests).
    """
    results = [bench_fleet(scale, repeat, instances)
               for instances in sizes]
    return SuiteReport("fleet", scale, repeat, results,
                       meta={"cpus": usable_cpus()})


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
    """
    path = Path(baseline)
    docs: Dict[str, Dict[str, Any]] = {}
    files = (sorted(path.glob("BENCH_*.json")) if path.is_dir()
             else [path])
    for file in files:
        doc = json.loads(file.read_text())
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
    """Run the requested suites; returns the process exit status."""
    out = Path(out_dir) if out_dir else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    runners = [
        ("substrate", lambda: run_substrate_suite(scale, repeat)),
        ("services", lambda: run_services_suite(scale,
                                                max(repeat - 1, 1))),
        ("serving", lambda: run_serving_suite(scale,
                                              max(repeat - 1, 1))),
        ("diagnosis", lambda: run_diagnosis_suite(scale, repeat)),
        ("fuzz", lambda: run_fuzz_suite(scale, max(repeat - 1, 1))),
        ("layout", lambda: run_layout_suite(scale, repeat)),
        ("synth", lambda: run_synth_suite(scale, max(repeat - 1, 1))),
        ("fleet", lambda: run_fleet_suite(scale, max(repeat - 1, 1))),
    ]
    reports: List[SuiteReport] = []
    for name, runner in runners:
        if suites not in ("all", name):
            continue
        reports.append(_profiled(name, runner, out) if profile
                       else runner())

    failures: List[str] = []
    baseline_docs = _load_baselines(baseline) if baseline else {}
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
                        choices=("all", "substrate", "services",
                                 "serving", "diagnosis", "fuzz", "layout",
                                 "synth", "fleet"),
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

