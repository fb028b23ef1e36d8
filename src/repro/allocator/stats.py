"""Allocation statistics.

Table IV of the paper reports, per SPEC CPU2006 benchmark, how many times
``malloc``, ``calloc`` and ``realloc`` were invoked.  ``AllocationStats`` is
the call counter every allocator (and the defense interposer) keeps so
the reproduction can print the same table for the synthetic workloads.

It counts calls and live buffers, never bytes: an allocation records its
entry point, a free records one more free, and a run records its length
once.  Each layer counts its own calls, so a defended stack keeps two of
these: the interposer's user requests and the raw requests the allocator
under it serves (a quarantined free reaches the latter only at eviction).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from typing import Dict

#: ``dataclass(slots=True)`` needs Python 3.10; 3.9 gets a plain one.
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_SLOTS)
class AllocationStats:
    """Lifetime call counters for one allocator instance."""

    malloc_calls: int = 0
    calloc_calls: int = 0
    realloc_calls: int = 0
    free_calls: int = 0
    memalign_calls: int = 0

    #: Number of currently live buffers.
    live_buffers: int = 0
    #: High-water mark of ``live_buffers``.
    peak_buffers: int = 0

    def record_alloc(self, fun: str = "malloc", n: int = 1) -> None:
        """Record ``n`` successful allocations through entry point
        ``fun``.  Within one such record ``live_buffers`` only grows, so
        the peak after it equals the running peak of ``n`` single
        records."""
        if fun == "malloc":
            self.malloc_calls += n
        elif fun == "calloc":
            self.calloc_calls += n
        elif fun == "realloc":
            self.realloc_calls += n
        elif fun in ("memalign", "aligned_alloc", "posix_memalign"):
            self.memalign_calls += n
        else:
            raise ValueError(f"unknown allocation function {fun!r}")
        buffers = self.live_buffers + n
        self.live_buffers = buffers
        if buffers > self.peak_buffers:
            self.peak_buffers = buffers

    def record_free(self, n: int = 1) -> None:
        """Record ``n`` frees of live buffers."""
        self.free_calls += n
        self.live_buffers -= n

    def copy_from(self, other: "AllocationStats") -> None:
        """Overwrite every counter with ``other``'s (a fork's stats stay
        the object its owner's prebound recorders are bound to)."""
        for counter in fields(self):
            setattr(self, counter.name, getattr(other, counter.name))

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
            "live_buffers": self.live_buffers,
            "peak_buffers": self.peak_buffers,
        }
