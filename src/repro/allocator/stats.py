"""Allocation statistics.

Table IV of the paper reports, per SPEC CPU2006 benchmark, how many times
``malloc``, ``calloc`` and ``realloc`` were invoked.  ``AllocationStats`` is
the counter object every allocator (and the defense interposer) updates so
the reproduction can print the same table for the synthetic workloads.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from typing import Dict, Sequence

#: ``dataclass(slots=True)`` needs Python 3.10; 3.9 gets a plain one.
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_SLOTS)
class AllocationStats:
    """Lifetime counters for one allocator instance.

    Slotted where the interpreter supports it: both the interposer and
    the underlying allocator update these counters on *every* heap call,
    so attribute access here is hot-path work.
    """

    malloc_calls: int = 0
    calloc_calls: int = 0
    realloc_calls: int = 0
    free_calls: int = 0
    memalign_calls: int = 0

    #: Total bytes handed out across all allocations.
    bytes_allocated: int = 0
    #: Bytes in currently live buffers.
    bytes_live: int = 0
    #: High-water mark of ``bytes_live``.
    bytes_peak: int = 0
    #: Number of currently live buffers.
    live_buffers: int = 0
    #: High-water mark of ``live_buffers``.
    peak_buffers: int = 0

    #: Histogram of request sizes, bucketed by power of two.
    size_histogram: Dict[int, int] = field(default_factory=dict)

    def record_malloc(self, size: int) -> None:
        """``record_alloc("malloc", size)`` without the entry-point
        dispatch — the fast path for the one function that dominates
        every workload's call mix."""
        self.malloc_calls += 1
        self.bytes_allocated += size
        live = self.bytes_live + size
        self.bytes_live = live
        if live > self.bytes_peak:
            self.bytes_peak = live
        buffers = self.live_buffers + 1
        self.live_buffers = buffers
        if buffers > self.peak_buffers:
            self.peak_buffers = buffers
        bucket = size.bit_length() or 1
        histogram = self.size_histogram
        histogram[bucket] = histogram.get(bucket, 0) + 1

    def record_alloc(self, fun: str, size: int) -> None:
        """Record one successful allocation through entry point ``fun``."""
        if fun == "malloc":
            self.malloc_calls += 1
        elif fun == "calloc":
            self.calloc_calls += 1
        elif fun == "realloc":
            self.realloc_calls += 1
        elif fun in ("memalign", "aligned_alloc", "posix_memalign"):
            self.memalign_calls += 1
        else:
            raise ValueError(f"unknown allocation function {fun!r}")
        self.bytes_allocated += size
        live = self.bytes_live + size
        self.bytes_live = live
        if live > self.bytes_peak:
            self.bytes_peak = live
        buffers = self.live_buffers + 1
        self.live_buffers = buffers
        if buffers > self.peak_buffers:
            self.peak_buffers = buffers
        bucket = size.bit_length() or 1
        self.size_histogram[bucket] = self.size_histogram.get(bucket, 0) + 1

    def record_free(self, size: int) -> None:
        """Record one ``free`` of a buffer of ``size`` bytes."""
        self.free_calls += 1
        self.bytes_live -= size
        self.live_buffers -= 1

    # -- batched recorders (fused loops; see Allocator.malloc_run) -----
    #
    # Counter-exact equivalents of n per-call records.  Exactness of the
    # high-water marks follows from monotonicity: within an all-malloc
    # run ``bytes_live``/``live_buffers`` only grow, so the peak after
    # the run equals the running peak the per-call path would have seen;
    # an all-free run only shrinks them and never moves a peak.

    def record_malloc_run(self, sizes: Sequence[int]) -> None:
        """Record a run of ``malloc`` allocations in one update."""
        n = len(sizes)
        total = sum(sizes)
        self.malloc_calls += n
        self.bytes_allocated += total
        live = self.bytes_live + total
        self.bytes_live = live
        if live > self.bytes_peak:
            self.bytes_peak = live
        buffers = self.live_buffers + n
        self.live_buffers = buffers
        if buffers > self.peak_buffers:
            self.peak_buffers = buffers
        histogram = self.size_histogram
        first = sizes[0] if n else 0
        if n and sizes.count(first) == n:
            bucket = first.bit_length() or 1
            histogram[bucket] = histogram.get(bucket, 0) + n
        else:
            for size in sizes:
                bucket = size.bit_length() or 1
                histogram[bucket] = histogram.get(bucket, 0) + 1

    def record_free_run(self, sizes: Sequence[int]) -> None:
        """Record a run of ``free`` calls in one update."""
        self.free_calls += len(sizes)
        self.bytes_live -= sum(sizes)
        self.live_buffers -= len(sizes)

    def copy_from(self, other: "AllocationStats") -> None:
        """Overwrite every counter with ``other``'s (a fork's stats stay
        the object its owner's prebound recorders are bound to)."""
        for counter in fields(self):
            setattr(self, counter.name, getattr(other, counter.name))
        self.size_histogram = dict(other.size_histogram)

    @property
    def total_allocations(self) -> int:
        """All allocation calls regardless of entry point."""
        return (self.malloc_calls + self.calloc_calls + self.realloc_calls
                + self.memalign_calls)

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict snapshot, convenient for report tables."""
        return {
            "malloc": self.malloc_calls,
            "calloc": self.calloc_calls,
            "realloc": self.realloc_calls,
            "memalign": self.memalign_calls,
            "free": self.free_calls,
            "bytes_allocated": self.bytes_allocated,
            "bytes_live": self.bytes_live,
            "bytes_peak": self.bytes_peak,
            "live_buffers": self.live_buffers,
            "peak_buffers": self.peak_buffers,
        }
