"""Per-worker serving session: one batch, one private CCE state.

The paper's calling-context encoding is thread-local by design — every
thread owns its V register.  The serving engine reproduces that
ownership structurally: each batch is served by its own
:class:`ServingSession` holding its *own* address space, encoding
runtime, allocator, meter and :class:`~repro.program.process.Process`.
Nothing mutable is shared between batches or workers, so per-worker
CCIDs are computed by the same codec over the same frames as a
sequential run — the cross-worker equivalence the tests pin down to
byte-identical reports.

Startup images: a session *starts* (:meth:`ServingSession.start`) by
entering the program's entry function and running its serving startup
(:meth:`~repro.program.program.Program.serve_startup`) — mysql's
buffer pool and key cache; nginx starts nothing.  The engine starts one
session per worker and table version, freezes it as that version's
*image*, and builds every batch's session as a fork of the image
(``ServingSession(..., image=)``): each layer copies the image's state
into an object built by its own constructor, and the address space
copies the image's pages into the worker's arena.  A batch served from
a fork equals one whose session started itself, field for field
(``tests/serving/test_snapshot_sessions.py``).

Only host frame storage outlives a batch: the session's
``VirtualMemory`` borrows page frames from its worker's arena (a
:class:`~repro.machine.pagestore.PageStore`) and returns them when the
engine closes it.  An image keeps its pages as immutable bytes outside
the arena.  The guest cannot see the reuse: a recycled frame holds
exactly the image's contents, or reads as zero.

Fault isolation: a batch is split into *rounds* around attack tokens
(:func:`~repro.serving.services.split_rounds`).  A started session
serves its first round against the started state
(:meth:`~repro.program.program.Program.serve_round`) and leaves the
entry function; every later round starts the session again first
(:meth:`ServingSession.start`).  A fault during a round's startup or
service leaves the entry function too.  A guard-page fault in an
attack round unwinds that round (frames and encoding state rebalance
through the call protocol's ``finally`` blocks) and is recorded as a
``blocked`` outcome — the session keeps serving the remaining
rounds, mirroring a supervised worker process being restarted after a
crash-stopped exploit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..allocator.base import Allocator
from ..allocator.libc import LibcAllocator
from ..allocator.segregated import SegregatedAllocator
from ..ccencoding.base import Codec
from ..ccencoding.runtime import EncodingRuntime
from ..defense.interpose import DEFAULT_ONLINE_QUOTA, DefendedAllocator
from ..defense.patch_table import PatchTable
from ..machine.errors import SegmentationFault
from ..machine.memory import VirtualMemory
from ..machine.pagestore import PageStore
from ..program.cost import CycleMeter
from ..program.monitor import DirectMonitor
from ..program.process import Process
from ..program.program import Program
from .services import split_rounds

#: Underlying allocators the serving engine can deploy over (the defense
#: is allocator-transparent — paper property 5).  Segregated storage is
#: the default: slab reuse suits a request loop's fixed size classes.
ALLOCATORS = ("segregated", "libc")


#: Freed dedicated mappings a serving allocator may retain for reuse.
#: Large response bodies (8–16 KiB documents) otherwise cost an
#: ``mmap``/``munmap`` round trip per request; real server allocators
#: cache such spans (tcmalloc's span cache), and the serving engine
#: models that.  Identical for the ``workers=1`` oracle and ``workers=N``
#: runs, so report equivalence is unaffected.
MAP_CACHE_MAPPINGS = 256


def make_allocator(name: str, map_cache: int = 0,
                   memory: Optional[VirtualMemory] = None) -> Allocator:
    """Construct a fresh underlying allocator by registry name (over
    ``memory``, or a fresh :class:`VirtualMemory` when omitted)."""
    if name == "segregated":
        return SegregatedAllocator(memory, map_cache=map_cache)
    if name == "libc":
        return LibcAllocator(memory)
    raise ValueError(f"unknown allocator {name!r}; choose from "
                     f"{', '.join(ALLOCATORS)}")


@dataclass(frozen=True)
class BatchResult:
    """Plain-data outcome of one served batch (picklable)."""

    index: int
    #: Per-request ``(status, sent_bytes)`` outcomes, in request order.
    outcomes: Tuple[Tuple[str, int], ...]
    served: int
    bytes_sent: int
    #: Sorted per-category cycle totals of the batch's meter.
    cycles: Tuple[Tuple[str, float], ...]
    #: Sorted ``((fun, ccid), count)`` allocation profile of the batch.
    profile: Tuple[Tuple[Tuple[str, int], int], ...]
    #: The patch-table version this batch was admitted under.
    table_version: int
    #: ``time.monotonic()`` at batch completion — wall-clock telemetry
    #: for the fleet's swap-latency samples.  Comparable across forked
    #: worker processes (CLOCK_MONOTONIC is system-wide) and strictly
    #: excluded from the canonical report, which stays timing-free.
    wall: float = 0.0


class ServingSession:
    """One worker's state for serving one batch.

    Built fresh from the layer options, or, with ``image`` (a started
    session, see :meth:`start`), as a fork of it: the layers then copy
    the image's state and options, and the session is started.
    """

    def __init__(self, program: Program, codec: Codec, *,
                 defended: bool = True,
                 table: Optional[PatchTable] = None,
                 allocator: str = "segregated",
                 quarantine_quota: int = DEFAULT_ONLINE_QUOTA,
                 page_store: Optional[PageStore] = None,
                 image: Optional["ServingSession"] = None) -> None:
        self.program = program
        if image is not None:
            self._fork(image, page_store)
            return
        self.meter = CycleMeter()
        #: This batch's address space, drawing frames from ``page_store``
        #: (the worker's arena) until it is closed.
        self.memory = VirtualMemory(page_store=page_store)
        underlying = make_allocator(allocator,
                                    map_cache=MAP_CACHE_MAPPINGS,
                                    memory=self.memory)
        runtime = EncodingRuntime(codec, self.meter)
        self.runtime = runtime
        if defended:
            heap: Allocator = DefendedAllocator(
                underlying, table if table is not None else
                PatchTable.empty(), context_source=runtime,
                meter=self.meter, quarantine_quota=quarantine_quota)
        else:
            heap = underlying
        self.heap = heap
        monitor = DirectMonitor(self.memory, heap, self.meter)
        self.process = Process(program.graph, monitor=monitor,
                               context_source=runtime, meter=self.meter,
                               record_allocations=False)
        #: Whether the process is inside the entry function, started.
        self.started = False
        self._state: Any = None

    def _fork(self, image: "ServingSession",
              page_store: Optional[PageStore]) -> None:
        if not image.started:
            raise ValueError("only a started session can be forked")
        self.meter = image.meter.fork()
        self.memory = image.memory.fork(page_store)
        self.runtime = image.runtime.fork(self.meter)
        heap = image.heap
        if isinstance(heap, DefendedAllocator):
            self.heap = heap.fork(self.memory, self.runtime, self.meter)
        else:
            self.heap = heap.fork(self.memory)
        monitor = DirectMonitor(self.memory, self.heap, self.meter)
        self.process = image.process.fork(monitor, self.runtime, self.meter)
        self.started = True
        self._state = image._state

    def start(self) -> None:
        """Enter the entry function and run the program's serving
        startup: the state the first round is served against."""
        if self.started:
            raise ValueError("session already started")
        process = self.process
        process.enter()
        try:
            self._state = self.program.serve_startup(process)
        except BaseException:
            process.leave()
            raise
        self.started = True

    def serve_batch(self, index: int, requests: Sequence[Any],
                    attack_token: Optional[Any],
                    table_version: int) -> BatchResult:
        """Serve one admitted batch, split into rounds around
        ``attack_token``, and summarize it."""
        rounds = split_rounds(list(requests), attack_token)
        outcomes, served, bytes_sent = self.serve_rounds(rounds)
        return BatchResult(
            index=index,
            outcomes=tuple(outcomes),
            served=served,
            bytes_sent=bytes_sent,
            cycles=tuple(sorted(self.meter.snapshot().items())),
            profile=tuple(sorted(self.process.alloc_profile.items())),
            table_version=table_version,
            wall=time.monotonic(),
        )

    def _serve_started(self, requests: List[Any]) -> Dict[str, Any]:
        """Serve one round against the started state; leaves the entry
        function after it."""
        self.started = False
        process = self.process
        try:
            return self.program.serve_round(process, self._state, requests)
        finally:
            process.leave()

    def serve_rounds(self, rounds: List[List[Any]]
                     ) -> Tuple[List[Tuple[str, int]], int, int]:
        """Serve every round; returns (outcomes, served, bytes_sent).
        A started session serves its first round against its started
        state; every other round starts the session again first."""
        outcomes: List[Tuple[str, int]] = []
        served = 0
        bytes_sent = 0
        for round_requests in rounds:
            try:
                if not self.started:
                    self.start()
                result = self._serve_started(round_requests)
            except SegmentationFault:
                # Guard page stopped the exploited request; the round is
                # a singleton by construction (split_rounds), so exactly
                # this request is lost.
                outcomes.append(("blocked", 0))
                served += len(round_requests)
                continue
            outcomes.extend(result["outcomes"])
            served += result["served"]
            bytes_sent += result["bytes_sent"]
        return outcomes, served, bytes_sent
