"""Deterministic cycle cost model.

The paper's efficiency numbers (the encoding comparison in §VIII-B1 and the
overhead decomposition in Figure 8) are wall-clock measurements on the
authors' testbed.  A reproduction on a simulator cannot — and per the
paper's framing need not — match absolute percentages; what must hold is
the *shape*: which configuration is cheaper, by roughly what factor, and
how overhead decomposes into interposition / metadata / patch enforcement.

To make those shapes deterministic and host-independent, every simulated
operation charges *cycles* to a :class:`CycleMeter`.  The constants below
are calibrated against published micro-architectural ballpark figures (a
call is a few cycles, a PCC encoding update is two or three arithmetic
instructions, an ``mprotect`` system call is thousands of cycles) so the
relative magnitudes are realistic rather than tuned to reproduce the
paper's exact percentages.

Cost categories mirror Figure 8's decomposition so the benchmark can report
the same stacked breakdown:

* ``base``      — the program's own work (compute, memory traffic, calls).
* ``encoding``  — calling-context encoding updates at instrumented sites.
* ``interpose`` — entering/leaving the interposition shim per heap call.
* ``metadata``  — maintaining the defense's own per-buffer metadata.
* ``lookup``    — patch hash-table lookups.
* ``defense``   — enforcement on patched buffers (guard pages, zeroing,
  deferred free).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class CostModel:
    """Cycle costs for each primitive operation."""

    #: Direct call + return pair.
    call: int = 4
    #: One encoding update (``V = 3*t + c``: load, multiply-add, store).
    encode_site: int = 3
    #: Reading V in the prologue of an instrumented function.
    encode_prologue: int = 1
    #: Baseline allocator work per malloc/free (bin search, header writes).
    heap_op: int = 60
    #: Entering and leaving the interposition shim (PLT indirection,
    #: saving the real-function pointers, tail call, cache misses on the
    #: shim's own state).
    interpose: int = 60
    #: Maintaining the defense's own metadata word and size bookkeeping
    #: (one extra cache line touched per buffer).
    metadata: int = 65
    #: One lookup in the read-only patch hash table.
    hash_lookup: int = 9
    #: An ``mprotect`` system call (guard-page install or release).
    mprotect: int = 3000
    #: Per-byte cost of zero-filling a buffer (uninitialized-read defense).
    zero_fill_per_byte: float = 0.25
    #: Enqueue/evict operations on the deferred-free FIFO queue.
    quarantine_op: int = 20
    #: Per-8-bytes cost of a guest memory read or write.
    mem_word: int = 1
    #: Fixed cost of issuing a guest memory operation.
    mem_op: int = 2

    def mem_cost(self, size: int) -> int:
        """Cycles for a guest memory access of ``size`` bytes."""
        return self.mem_op + max(1, (size + 7) // 8) * self.mem_word


#: The default model used across the library.
DEFAULT_COST_MODEL = CostModel()


@dataclass
class CycleMeter:
    """Accumulates cycles by category.

    One meter is shared between a :class:`~repro.program.process.Process`
    and any defense layer wrapped around its allocator, so the full
    overhead decomposition lands in one place.
    """

    model: CostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)
    by_category: Dict[str, int] = field(default_factory=dict)

    def charge(self, category: str, cycles: float) -> None:
        """Add ``cycles`` to ``category`` (fractions accumulate exactly)."""
        self.by_category[category] = (
            self.by_category.get(category, 0) + cycles)

    @property
    def total(self) -> float:
        """All cycles across categories."""
        return sum(self.by_category.values())

    def category(self, name: str) -> float:
        """Cycles charged to ``name`` so far."""
        return self.by_category.get(name, 0)

    def snapshot(self) -> Dict[str, float]:
        """Copy of the per-category totals."""
        return dict(self.by_category)

    def reset(self) -> None:
        """Zero every category."""
        self.by_category.clear()

    def fork(self) -> "CycleMeter":
        """A meter holding a copy of these totals (same model); charges
        to either no longer reach the other."""
        return CycleMeter(self.model, dict(self.by_category))
