"""Multi-process offline diagnosis: the parallel patch factory.

HeapTherapy+'s offline phase is embarrassingly parallel — each attack
report is an independent shadow-memory replay yielding ``{FUN, CCID, T}``
patches — so :class:`DiagnosisPool` fans a corpus out over a
``concurrent.futures.ProcessPoolExecutor``:

* The parent instruments every workload in the corpus **once** and ships
  the pickled program plan + codec to each worker through the pool
  *initializer* — per-task messages carry only an entry index, so the
  plan is never re-shipped per attack.
* Each worker replays its entries under
  :class:`~repro.patch.generator.OfflinePatchGenerator` and returns a
  compact :class:`~repro.parallel.result.DiagnosisResult` (patches,
  vulnerability classification, cycle totals) — plain data, no live
  allocator or machine references.
* The parent merges all results into per-workload
  :class:`~repro.defense.patch_table.PatchTable` objects with the
  order-independent merge of :func:`repro.patch.model.merge_patches`
  (widest-``T`` conflict policy, canonical sort), so ``jobs=N`` output
  is bit-identical to ``jobs=1``.

Worker lifecycle: workers are long-lived for the duration of one
:meth:`DiagnosisPool.diagnose` call; the initializer unpickles the plan
into a module global, and per-workload generators are built lazily on
first use so a worker only pays for the workloads it actually sees.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..ccencoding import Strategy
from ..ccencoding.base import Codec
from ..core.instrument import instrument
from ..defense.patch_table import PatchTable
from ..patch.generator import OfflinePatchGenerator
from ..patch.model import HeapPatch
from ..program.program import Program
from ..shadow.analyzer import DEFAULT_QUOTA
from ..workloads.corpus import (
    AttackCorpus,
    CorpusEntry,
    CorpusError,
    fuzz_workload_seed,
    is_fuzz_workload,
)
from ..workloads.vulnerable import workload_registry
from .result import CorpusDiagnosis, DiagnosisResult


class DiagnosisError(RuntimeError):
    """A worker failed to diagnose an entry (message-only: picklable)."""


@dataclass(frozen=True)
class ProgramPlan:
    """One workload's shipped state: the program and its deployed codec.

    Shipping the parent's codec (rather than re-instrumenting in the
    worker) guarantees every process keys patches off the *same* CCID
    space — re-deriving the plan per worker would merely repeat work,
    but shipping it makes the invariant structural.
    """

    key: str
    program: Program
    codec: Codec


@dataclass(frozen=True)
class DiagnosisPlan:
    """Everything a worker needs, shipped once via the pool initializer."""

    programs: Tuple[ProgramPlan, ...]
    entries: Tuple[CorpusEntry, ...]
    quarantine_quota: int = DEFAULT_QUOTA


class _WorkerState:
    """Per-process diagnosis state (one per pool worker, or in-process
    for the serial path — both run the identical code)."""

    def __init__(self, plan: DiagnosisPlan) -> None:
        self.plan = plan
        self.entries = plan.entries
        self._programs: Dict[str, ProgramPlan] = {
            program_plan.key: program_plan
            for program_plan in plan.programs}
        self._generators: Dict[str, OfflinePatchGenerator] = {}

    def _generator(self, key: str) -> OfflinePatchGenerator:
        generator = self._generators.get(key)
        if generator is None:
            program_plan = self._programs[key]
            generator = OfflinePatchGenerator(
                program_plan.program, program_plan.codec,
                quarantine_quota=self.plan.quarantine_quota)
            self._generators[key] = generator
        return generator

    def diagnose(self, index: int) -> DiagnosisResult:
        entry = self.entries[index]
        program_plan = self._programs.get(entry.workload)
        if program_plan is None:
            raise DiagnosisError(
                f"{entry.entry_id}: workload {entry.workload!r} has no "
                f"shipped program plan")
        args = entry.resolve_args(program_plan.program)
        start = time.perf_counter()
        try:
            generation = self._generator(entry.workload).replay(*args)
        except Exception as exc:  # pragma: no cover - workload bugs
            raise DiagnosisError(
                f"{entry.entry_id}: replay failed: {exc!r}") from None
        seconds = time.perf_counter() - start
        summary = generation.report.summary()
        cycles: Tuple[Tuple[str, float], ...] = ()
        if generation.meter is not None:
            cycles = tuple(sorted(generation.meter.snapshot().items()))
        return DiagnosisResult(
            entry_id=entry.entry_id,
            workload=entry.workload,
            input_name=entry.input_name,
            expects_detection=entry.expects_detection,
            patches=tuple(generation.patches),
            vulns=summary.kinds,
            summary=summary,
            crashed=generation.crashed,
            cycles=cycles,
            seconds=seconds,
        )


#: The unpickled plan of this worker process (set by the initializer).
_STATE: Optional[_WorkerState] = None


def _init_worker(payload: bytes) -> None:
    """Pool initializer: unpickle the plan once per worker process."""
    global _STATE
    _STATE = _WorkerState(pickle.loads(payload))


def _diagnose_index(index: int) -> DiagnosisResult:
    """Pool task: diagnose one corpus entry by index."""
    assert _STATE is not None, "worker initializer did not run"
    return _STATE.diagnose(index)


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap workers, Linux default); the shipped plan
    stays pickle-clean either way so ``spawn`` hosts work too."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


class DiagnosisPool:
    """Process-pool diagnosis engine over an attack corpus.

    Args:
        jobs: worker processes; ``1`` (the default) runs in-process
            through the identical worker code path, and ``None`` uses
            every CPU this process may run on.
        strategy/scheme/prune: instrumentation options applied when the
            pool instruments corpus workloads itself (ignored for plans
            passed explicitly to :meth:`diagnose`).
        quarantine_quota: offline freed-block FIFO quota per replay.
    """

    def __init__(self, jobs: Optional[int] = 1, *,
                 strategy: Strategy = Strategy.INCREMENTAL,
                 scheme: str = "pcc",
                 prune: bool = False,
                 quarantine_quota: int = DEFAULT_QUOTA) -> None:
        if jobs is None:
            from .fanout import usable_cpus

            jobs = usable_cpus()
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.strategy = strategy
        self.scheme = scheme
        self.prune = prune
        self.quarantine_quota = quarantine_quota

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------

    def build_plan(self, corpus: AttackCorpus,
                   programs: Optional[Mapping[str, Tuple[Program, Codec]]]
                   = None) -> DiagnosisPlan:
        """Instrument each corpus workload once and freeze the plan.

        ``programs`` overrides registry resolution with pre-instrumented
        ``key -> (program, codec)`` pairs (the pipeline integration path,
        where :class:`~repro.core.pipeline.HeapTherapy` already holds a
        deployed codec).
        """
        plans: List[ProgramPlan] = []
        registry = None
        for key in corpus.workloads():
            if programs is not None and key in programs:
                program, codec = programs[key]
            else:
                if is_fuzz_workload(key):
                    # Synthesized corpora reference the deterministic
                    # fuzz generator by seed; the import is lazy because
                    # the fuzz package itself fans out through
                    # repro.parallel (a cycle at module level).
                    from ..fuzz.generator import (
                        build_program,
                        spec_for_seed,
                    )

                    program = build_program(
                        spec_for_seed(fuzz_workload_seed(key)))
                else:
                    if registry is None:
                        registry = workload_registry()
                    factory = registry.get(key)
                    if factory is None:
                        raise CorpusError(
                            f"unknown workload {key!r} in corpus"
                            + (f" {corpus.source!r}"
                               if corpus.source else ""))
                    program = factory()
                codec = instrument(program, strategy=self.strategy,
                                   scheme=self.scheme,
                                   prune=self.prune).codec
            plans.append(ProgramPlan(key, program, codec))
        return DiagnosisPlan(tuple(plans), tuple(corpus.entries),
                             self.quarantine_quota)

    # ------------------------------------------------------------------
    # Fan-out
    # ------------------------------------------------------------------

    def diagnose(self, corpus: AttackCorpus,
                 programs: Optional[Mapping[str, Tuple[Program, Codec]]]
                 = None) -> CorpusDiagnosis:
        """Replay every corpus entry; merge patches deterministically."""
        plan = self.build_plan(corpus, programs)
        start = time.perf_counter()
        if self.jobs == 1 or len(plan.entries) <= 1:
            state = _WorkerState(plan)
            results = [state.diagnose(index)
                       for index in range(len(plan.entries))]
        else:
            results = self._diagnose_parallel(plan)
        seconds = time.perf_counter() - start
        merge_start = time.perf_counter()
        tables = self._merge(results)
        merge_seconds = time.perf_counter() - merge_start
        return CorpusDiagnosis(results=results, jobs=self.jobs,
                               seconds=seconds,
                               merge_seconds=merge_seconds,
                               tables=tables)

    def _diagnose_parallel(self,
                           plan: DiagnosisPlan) -> List[DiagnosisResult]:
        try:
            payload = pickle.dumps(plan,
                                   protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise DiagnosisError(
                f"diagnosis plan is not picklable ({exc!r}); parallel "
                f"workers need pickle-clean programs and codecs — run "
                f"with jobs=1 or make the program picklable") from None
        chunksize = max(1, len(plan.entries) // (self.jobs * 4))
        with ProcessPoolExecutor(max_workers=self.jobs,
                                 mp_context=_pool_context(),
                                 initializer=_init_worker,
                                 initargs=(payload,)) as executor:
            return list(executor.map(_diagnose_index,
                                     range(len(plan.entries)),
                                     chunksize=chunksize))

    # ------------------------------------------------------------------
    # Deterministic merge
    # ------------------------------------------------------------------

    @staticmethod
    def _merge(results: List[DiagnosisResult]) -> Dict[str, PatchTable]:
        """Per-workload, order-independent patch-table merge.

        Determinism argument: grouping is by workload key (a pure
        function of each result), and within a group the merge of
        :meth:`PatchTable.merged` unions vulnerability masks and params
        — commutative, associative operations — then sorts canonically.
        No step observes arrival order, worker identity or wall time, so
        any ``jobs`` count yields byte-identical serialized tables.
        """
        groups: Dict[str, List[Tuple[HeapPatch, ...]]] = {}
        for result in results:
            groups.setdefault(result.workload, []).append(result.patches)
        return {workload: PatchTable.merged(patch_groups)
                for workload, patch_groups in groups.items()}
