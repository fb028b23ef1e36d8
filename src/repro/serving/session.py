"""Per-worker serving session: one batch, one private CCE state.

The paper's calling-context encoding is thread-local by design — every
thread owns its V register.  The serving engine reproduces that
ownership structurally: each batch is served by a fresh
:class:`ServingSession` holding its *own* address space, encoding
runtime, allocator, meter and :class:`~repro.program.process.Process`.
Nothing mutable is shared between workers, so per-worker CCIDs are
computed by the same codec over the same frames as a sequential run —
the cross-worker equivalence the tests pin down to byte-identical
reports.

Only host frame storage outlives a batch: the session's
``VirtualMemory`` borrows page frames from its worker's arena (a
:class:`~repro.machine.pagestore.PageStore`) and returns them when the
engine closes it.  The guest cannot see the reuse — the address space starts empty
and a recycled frame reads as zero.

Fault isolation: a batch is split into *rounds* around attack tokens
(:func:`~repro.serving.services.split_rounds`).  Each round is one
``serve_main`` run; a guard-page fault in an attack round unwinds that
run (frames and encoding state rebalance through the call protocol's
``finally`` blocks) and is recorded as a ``blocked`` outcome — the
session keeps serving the remaining rounds, mirroring a supervised
worker process being restarted after a crash-stopped exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

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


class _ServeEntry:
    """Adapter giving ``Process.run`` a ``main`` for ``serve_main``."""

    __slots__ = ("_serve",)

    def __init__(self, serve: Any) -> None:
        self._serve = serve

    def main(self, process: Process, requests: List[Any]) -> Dict[str, Any]:
        return self._serve(process, requests)


class ServingSession:
    """One worker's state for serving one batch."""

    def __init__(self, program: Program, codec: Codec, *,
                 defended: bool = True,
                 table: Optional[PatchTable] = None,
                 allocator: str = "segregated",
                 quarantine_quota: int = DEFAULT_ONLINE_QUOTA,
                 page_store: Optional[PageStore] = None) -> None:
        self.program = program
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
                               record_allocations=False, track_live=False)
        self._entry = _ServeEntry(program.serve_main)  # type: ignore[attr-defined]

    def serve_rounds(self, rounds: List[List[Any]]
                     ) -> Tuple[List[Tuple[str, int]], int, int]:
        """Serve every round; returns (outcomes, served, bytes_sent)."""
        outcomes: List[Tuple[str, int]] = []
        served = 0
        bytes_sent = 0
        for round_requests in rounds:
            try:
                result = self.process.run(self._entry, round_requests)
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
