"""The multi-worker serving engine (concurrent request dispatch).

``ServingEngine`` drives thousands of simulated connections through the
defended allocator:

* **Admission & batching** — the deterministic request stream is chunked
  into fixed-size batches; every batch is stamped at admission with the
  patch-table version current on the controller's
  :class:`~repro.serving.handle.PatchTableHandle`.  Copy-on-write swaps
  therefore take effect at the next batch boundary for every worker at
  once — no worker can serve one batch under two table versions.
* **Dispatch** — every unfinished batch is submitted at once to a
  preforked ``ProcessPoolExecutor`` of at most one worker per usable
  CPU; its call queue keeps the next batch ready beside each worker,
  so a worker that drains never waits for the controller, and a queued
  batch waits for a worker, never for a CPU.  The instrumented program
  plan — program, deployed codec, every published table text — ships
  once through the pool initializer; per-batch messages carry only the
  batch index, mirroring :class:`~repro.parallel.engine.DiagnosisPool`.
  Each worker keeps one private page arena
  (:class:`~repro.machine.pagestore.PageStore`) that every batch it
  serves borrows frames from.
* **Per-worker CCE state** — each batch is served by a fresh
  :class:`~repro.serving.session.ServingSession` owning its own encoding
  runtime (the paper's thread-local V register), allocator and process.
* **Determinism** — a batch's outcome is a pure function of (batch
  contents, table version): sessions are fresh per batch, the report
  excludes wall-clock time, and results merge in batch order.  Hence a
  ``workers=N`` report is byte-identical to ``workers=1`` modulo the
  ``workers`` field itself — the engine's distribution of work is
  unobservable in its output, which is what makes the scaling curve an
  apples-to-apples measurement.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..ccencoding import Strategy
from ..ccencoding.base import Codec
from ..core.instrument import instrument
from ..defense.interpose import DEFAULT_ONLINE_QUOTA
from ..defense.patch_table import PatchTable
from ..machine.pagestore import PageStore
from ..patch import config as patch_config
from ..program.program import Program
from .handle import PatchTableHandle
from .services import (
    ServedService,
    inject_attacks,
    serving_registry,
    split_rounds,
)
from .session import BatchResult, ServingSession

#: Report schema identifier (bump on layout changes).
REPORT_SCHEMA = "repro/serving-report/v2"

#: Times the dispatcher will rebuild a crashed worker pool before giving
#: up on the serve.  Each rebuild resubmits only the unfinished batches,
#: so a single worker death costs one pool fork plus the lost batch —
#: the outcome stays byte-identical to an undisturbed run.
MAX_POOL_REBUILDS = 3


class ServingError(RuntimeError):
    """Engine misconfiguration or worker failure (picklable message)."""


@dataclass(frozen=True)
class ServingOptions:
    """Everything that shapes one serving run (all deterministic)."""

    service: str = "nginx"
    workers: int = 1
    requests: int = 1024
    batch_size: int = 256
    defended: bool = True
    allocator: str = "segregated"
    strategy: str = "incremental"
    #: Initial patch-table configuration text ("" = empty table).
    patches_text: str = ""
    #: Copy-on-write swaps: (batch_index, table config text).  The swap
    #: is applied at the admission of that batch index.
    swap_schedule: Tuple[Tuple[int, str], ...] = ()
    #: Inject the service's attack token after every N benign requests
    #: (0 = no attacks).
    attack_every: int = 0
    quarantine_quota: int = DEFAULT_ONLINE_QUOTA


@dataclass(frozen=True)
class ServingPlan:
    """Worker-shipped state: program, codec, requests, table versions."""

    options: ServingOptions
    program: Program
    codec: Codec
    #: The admitted request stream (attack tokens included).
    requests: Tuple[Any, ...]
    #: version -> canonical table config text, for every published
    #: version (the copy-on-write wire format).
    tables: Tuple[Tuple[int, str], ...]
    #: Per-batch table version, stamped at admission.
    batch_versions: Tuple[int, ...]
    #: The service's attack token (None: no attack path).
    attack_token: Optional[Any]

    def batch(self, index: int) -> Tuple[Any, ...]:
        """The admitted request slice of batch ``index``."""
        size = self.options.batch_size
        return self.requests[index * size:(index + 1) * size]


@dataclass
class ServingResult:
    """One engine run: the canonical report plus timing telemetry."""

    report: Dict[str, Any]
    batches: List[BatchResult]
    #: Wall-clock seconds of the dispatch loop (excluded from report).
    seconds: float
    workers: int

    @property
    def requests_per_second(self) -> float:
        """Wall-clock serving rate of this run."""
        if self.seconds <= 0:
            return 0.0
        return self.report["served"] / self.seconds

    @property
    def total_cycles(self) -> float:
        """Simulated cycles across all batches."""
        return sum(self.report["cycles"].values())


class _WorkerServeState:
    """Per-process serving state (pool worker, or in-process for the
    ``workers=1`` oracle — both run the identical code path)."""

    def __init__(self, plan: ServingPlan) -> None:
        self.plan = plan
        self.options = plan.options
        self._tables: Dict[int, PatchTable] = {}
        self._table_text = dict(plan.tables)
        #: The worker's page arena: every batch borrows its frames and
        #: returns them, so frames and their views are built once per
        #: worker, not once per batch.
        self.arena = PageStore()

    def _table(self, version: int) -> PatchTable:
        table = self._tables.get(version)
        if table is None:
            text = self._table_text.get(version)
            if text is None:
                raise ServingError(f"batch stamped with unpublished "
                                   f"table version {version}")
            table = PatchTable(patch_config.loads(text))
            self._tables[version] = table
        return table

    def serve_batch(self, index: int) -> BatchResult:
        plan = self.plan
        options = self.options
        version = plan.batch_versions[index]
        session = ServingSession(
            plan.program, plan.codec,
            defended=options.defended,
            table=self._table(version),
            allocator=options.allocator,
            quarantine_quota=options.quarantine_quota,
            page_store=self.arena)
        rounds = split_rounds(list(plan.batch(index)), plan.attack_token)
        try:
            outcomes, served, bytes_sent = session.serve_rounds(rounds)
        finally:
            session.memory.close()
        process = session.process
        return BatchResult(
            index=index,
            outcomes=tuple(outcomes),
            served=served,
            bytes_sent=bytes_sent,
            cycles=tuple(sorted(session.meter.snapshot().items())),
            profile=tuple(sorted(process.alloc_profile.items())),
            table_version=version,
            wall=time.monotonic(),
        )

    def close(self) -> None:
        """Release the worker's arena."""
        self.arena.close()


#: The unpickled plan of this worker process (set by the initializer).
_STATE: Optional[_WorkerServeState] = None


def _init_worker(payload: bytes) -> None:
    """Pool initializer: unpickle the serving plan once per worker."""
    global _STATE
    _STATE = _WorkerServeState(pickle.loads(payload))


def _maybe_inject_crash(index: int) -> None:
    """Fault injection for the crash-recovery tests (env-gated, no-op
    otherwise): SIGKILL this worker before serving the targeted batch.

    ``REPRO_SERVE_CRASH_BATCH`` names the batch index to die on;
    ``REPRO_SERVE_CRASH_FLAG`` is a flag-file path created atomically
    (``O_EXCL``) so exactly one worker dies exactly once — the
    resubmitted batch then serves normally.  With no flag set the
    batch crashes *every* attempt, which is the persistent-crash-loop
    case the bounded-rebuild test pins down.
    """
    target = os.environ.get("REPRO_SERVE_CRASH_BATCH")
    if target is None or int(target) != index:
        return
    flag = os.environ.get("REPRO_SERVE_CRASH_FLAG")
    if flag is not None:
        try:
            os.close(os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return
    os.kill(os.getpid(), signal.SIGKILL)


def _serve_index(index: int) -> BatchResult:
    """Pool task: serve one admitted batch by index."""
    assert _STATE is not None, "worker initializer did not run"
    _maybe_inject_crash(index)
    return _STATE.serve_batch(index)


class ServingEngine:
    """Admits, batches and dispatches a serving run."""

    def __init__(self, options: ServingOptions,
                 service: Optional[ServedService] = None,
                 program: Optional[Program] = None,
                 codec: Optional[Codec] = None) -> None:
        if options.workers < 1:
            raise ServingError(
                f"workers must be >= 1, got {options.workers}")
        if options.batch_size < 1:
            raise ServingError(
                f"batch_size must be >= 1, got {options.batch_size}")
        if options.requests < 0:
            raise ServingError(
                f"requests must be >= 0, got {options.requests}")
        if options.attack_every < 0:
            raise ServingError(
                f"attack_every must be >= 0, got {options.attack_every}")
        if service is None:
            registry = serving_registry()
            service = registry.get(options.service)
            if service is None:
                raise ServingError(
                    f"unknown service {options.service!r}; choose from "
                    f"{', '.join(sorted(registry))}")
        self.options = options
        self.service = service
        if program is None:
            program = service.program_factory()
        self.program = program
        if codec is None:
            codec = instrument(
                program,
                strategy=Strategy.from_name(options.strategy)).codec
        self.codec = codec
        #: Controller-side versioned table (the copy-on-write handle).
        self.handle = PatchTableHandle(
            PatchTable(patch_config.loads(options.patches_text))
            if options.patches_text else PatchTable.empty())
        self.plan = self._admit()
        #: Preforked worker pool (nginx's master/worker model): spawned
        #: lazily on the first parallel ``serve`` and reused across
        #: calls, so repeated runs pay the fork cost once.
        self._executor: Optional[ProcessPoolExecutor] = None

    # -- admission -----------------------------------------------------

    def _admit(self) -> ServingPlan:
        """Build the request stream and stamp batches with versions."""
        options = self.options
        if options.attack_every and self.service.attack_token is None:
            raise ServingError(
                f"service {self.service.key!r} has no attack path")
        stream: List[Any] = self.service.stream(options.requests)
        if options.attack_every:
            stream = inject_attacks(stream, self.service.attack_token,
                                    options.attack_every)
        requests = tuple(stream)
        size = options.batch_size
        n_batches = (len(requests) + size - 1) // size
        schedule = dict(options.swap_schedule)
        versions: List[int] = []
        for index in range(n_batches):
            text = schedule.pop(index, None)
            if text is not None:
                self.handle.swap(PatchTable(patch_config.loads(text)))
            versions.append(self.handle.entry.version)
        if schedule:
            raise ServingError(
                f"swap schedule references batch indices beyond the "
                f"run: {sorted(schedule)} (only {n_batches} batches)")
        tables = tuple((entry.version, entry.config_text)
                       for entry in self.handle.history)
        return ServingPlan(
            options=options,
            program=self.program,
            codec=self.codec,
            requests=requests,
            tables=tables,
            batch_versions=tuple(versions),
            attack_token=self.service.attack_token,
        )

    # -- dispatch ------------------------------------------------------

    def serve(self) -> ServingResult:
        """Run every admitted batch; merge results in batch order."""
        plan = self.plan
        n_batches = len(plan.batch_versions)
        start = time.perf_counter()
        if self.options.workers == 1 or n_batches <= 1:
            state = _WorkerServeState(plan)
            try:
                batches = [state.serve_batch(index)
                           for index in range(n_batches)]
            finally:
                state.close()
        else:
            batches = self._serve_parallel(plan, n_batches)
        seconds = time.perf_counter() - start
        return ServingResult(report=self._build_report(batches),
                             batches=batches, seconds=seconds,
                             workers=self.options.workers)

    def _serve_parallel(self, plan: ServingPlan,
                        n_batches: int) -> List[BatchResult]:
        """Dispatch with crash recovery: a dead worker breaks the whole
        ``ProcessPoolExecutor`` (every unfinished future, queued or
        running, raises ``BrokenProcessPool``), so recovery reaps the
        broken pool, preforks a fresh one and resubmits only the
        batches that never completed.  Batch outcomes are pure
        functions of (batch, table version), so a rerun batch is
        byte-identical to what the dead worker would have produced —
        the ``workers=1`` oracle digest still matches.  Persistent
        crash loops fail the serve after :data:`MAX_POOL_REBUILDS`
        rebuilds instead of spinning."""
        results: List[Optional[BatchResult]] = [None] * n_batches
        rebuilds = 0
        while True:
            try:
                self._dispatch(plan, n_batches, results)
                break
            except BrokenProcessPool:
                rebuilds += 1
                self.close()  # reap the broken pool; _pool re-forks
                if rebuilds > MAX_POOL_REBUILDS:
                    raise ServingError(
                        f"worker pool died {rebuilds} times; giving up "
                        f"after {MAX_POOL_REBUILDS} rebuilds (crash "
                        f"loop, not a one-off worker death)") from None
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:
            raise ServingError(f"batches {missing} never completed")
        return [batch for batch in results if batch is not None]

    def _dispatch(self, plan: ServingPlan, n_batches: int,
                  results: List[Optional[BatchResult]]) -> None:
        """Submit every unfinished batch; merge results by index.  A
        broken pool first keeps every clean result, so recovery reruns
        only lost batches; any failure cancels the still-queued ones."""
        executor = self._pool(plan, n_batches)
        futures = {executor.submit(_serve_index, index): index
                   for index, result in enumerate(results)
                   if result is None}
        try:
            for future in as_completed(futures):
                results[futures[future]] = future.result()
        except BrokenProcessPool:
            for future, index in futures.items():
                if (future.done() and not future.cancelled()
                        and future.exception() is None):
                    results[index] = future.result()
            raise
        finally:
            for future in futures:
                future.cancel()

    def _pool(self, plan: ServingPlan,
              n_batches: int) -> ProcessPoolExecutor:
        """The engine's preforked worker pool (created once)."""
        if self._executor is not None:
            return self._executor
        # Imported here: repro.parallel pulls in the diagnosis stack,
        # which the in-process workers=1 path never needs.
        from ..parallel.engine import _pool_context
        from ..parallel.fanout import usable_cpus

        try:
            payload = pickle.dumps(plan,
                                   protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise ServingError(
                f"serving plan is not picklable ({exc!r}); parallel "
                f"workers need pickle-clean programs and codecs — run "
                f"with workers=1") from None
        self._executor = ProcessPoolExecutor(
            max_workers=max(1, min(self.options.workers, n_batches,
                                   usable_cpus())),
            mp_context=_pool_context(),
            initializer=_init_worker,
            initargs=(payload,))
        return self._executor

    def close(self) -> None:
        """Shut down the preforked worker pool (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # -- deterministic merge -------------------------------------------

    def _build_report(self, batches: List[BatchResult]) -> Dict[str, Any]:
        """The canonical report: a pure function of batch results.

        Cycles sum in batch order (fixed float-addition order), the
        outcome digest hashes the concatenated per-request outcomes, and
        no wall-clock quantity enters — so any worker count that serves
        the same batches produces a byte-identical report modulo the
        ``workers`` field.
        """
        options = self.options
        outcome_counts: Dict[str, int] = {}
        all_outcomes: List[Tuple[str, int]] = []
        cycles: Dict[str, float] = {}
        profile: Dict[Tuple[str, int], int] = {}
        served = 0
        bytes_sent = 0
        for batch in batches:
            all_outcomes.extend(batch.outcomes)
            served += batch.served
            bytes_sent += batch.bytes_sent
            for status, _ in batch.outcomes:
                outcome_counts[status] = outcome_counts.get(status, 0) + 1
            for category, value in batch.cycles:
                cycles[category] = cycles.get(category, 0) + value
            for key, count in batch.profile:
                profile[key] = profile.get(key, 0) + count
        digest = hashlib.sha256(
            json.dumps(all_outcomes, sort_keys=True,
                       separators=(",", ":")).encode()).hexdigest()
        return {
            "schema": REPORT_SCHEMA,
            "service": options.service,
            "workers": options.workers,
            "requests": options.requests,
            "batch_size": options.batch_size,
            "defended": options.defended,
            "allocator": options.allocator,
            "strategy": options.strategy,
            "attack_every": options.attack_every,
            "batches": len(batches),
            "table_versions": [batch.table_version for batch in batches],
            "served": served,
            "bytes_sent": bytes_sent,
            "outcomes": dict(sorted(outcome_counts.items())),
            "outcomes_digest": digest,
            "cycles": {category: cycles[category]
                       for category in sorted(cycles)},
            "profile": [[fun, ccid, profile[(fun, ccid)]]
                        for fun, ccid in sorted(profile)],
        }


def serve(options: ServingOptions, **engine_kwargs: Any) -> ServingResult:
    """Convenience one-shot: build an engine, run it, reap the pool."""
    with ServingEngine(options, **engine_kwargs) as engine:
        return engine.serve()


def default_workers() -> int:
    """Usable CPU count (the ``--workers 0`` CLI convention)."""
    from ..parallel.fanout import usable_cpus

    return usable_cpus()
