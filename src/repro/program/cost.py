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

Charge records.  The hottest operations make the same few charges every
time: a bound guest call charges ``base`` and ``encoding``, a Structure 1
``malloc`` charges ``interpose``, ``metadata`` and ``lookup``.  Such an
operation describes its charges once, as a :class:`ChargeRecord` (a
fixed tuple of ``(category, cycles)`` pairs), and each time it runs it
*counts* the record: one dict update instead of one update per pair.
Every read of the meter (:attr:`CycleMeter.by_category`, ``total``,
``category()``, ``snapshot()``, ``fork()``) first folds the pending
counts into the totals as count x cycles per pair.

That is exact.  Integer addition is associative and commutative, so
when every cycle count is an ``int`` the order in which a category's
additions happen cannot change its total, and count x cycles equals the
sum of ``count`` additions of ``cycles``.  The key order of the totals
(which reports emit) is first-charge order: counting a record for the
first time puts each of its categories in place, as charging it would.
Fractional cycles (``zero_fill_per_byte``) are another matter: float
addition is not associative.  So a record is only counted when all of
its cycles are ``int``, and the first non-``int`` charge folds whatever
is pending and switches the meter to charging every record pair by pair
from then on, so every category sees its additions in the order a
sequential meter would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


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


class ChargeRecord:
    """A fixed set of charges that one operation makes together.

    ``pairs`` is a tuple of ``(category, cycles)`` pairs, in the order
    the operation would charge them one by one.  A record is hashed and
    compared by identity: meters keep their pending counts keyed by the
    record object, which hashes faster than its tuple would.
    """

    __slots__ = ("pairs", "exact")

    def __init__(self, *pairs: Tuple[str, float]) -> None:
        self.pairs: Tuple[Tuple[str, float], ...] = pairs
        #: True when every cycle count is an ``int``, so counting the
        #: record and folding it later adds exactly what charging it
        #: pair by pair would.
        self.exact = all(type(cycles) is int for _, cycles in pairs)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"ChargeRecord{self.pairs!r}"


class CycleMeter:
    """Accumulates cycles by category.

    One meter is shared between a :class:`~repro.program.process.Process`
    and any defense layer wrapped around its allocator, so the full
    overhead decomposition lands in one place.

    :meth:`charge` adds cycles to one category; :meth:`count` counts a
    :class:`ChargeRecord` and leaves its cycles pending, to be folded
    into the totals (count x cycles per pair) when they are read.  See
    the module docstring for why that is exact.
    """

    def __init__(self, model: Optional[CostModel] = None,
                 by_category: Optional[Dict[str, float]] = None) -> None:
        self.model = model if model is not None else DEFAULT_COST_MODEL
        #: Folded totals, keyed in first-charge order.
        self._totals: Dict[str, float] = (
            by_category if by_category is not None else {})
        #: Record -> times counted since the last fold.
        self._counts: Dict[ChargeRecord, int] = {}
        #: False once a non-``int`` charge was made: records are then
        #: charged pair by pair, in sequence with every other charge.
        self._exact = all(type(cycles) is int
                          for cycles in self._totals.values())

    def charge(self, category: str, cycles: float) -> None:
        """Add ``cycles`` to ``category`` (fractions accumulate exactly)."""
        if type(cycles) is not int and self._exact:
            self._fold()
            self._exact = False
        totals = self._totals
        totals[category] = totals.get(category, 0) + cycles

    def count(self, record: ChargeRecord, times: int = 1) -> None:
        """Charge every pair of ``record`` ``times`` times over.

        Adds to the totals exactly what ``charge(category, cycles *
        times)`` per pair, in order, would: each category the record
        touches takes its place in the totals now, and the cycles are
        folded in when the totals are next read.
        """
        counts = self._counts
        pending = counts.get(record)
        if pending is not None:
            counts[record] = pending + times
        elif self._exact and record.exact:
            setdefault = self._totals.setdefault
            for category, _ in record.pairs:
                setdefault(category, 0)
            counts[record] = times
        else:
            charge = self.charge
            for category, cycles in record.pairs:
                charge(category, cycles * times)

    def _fold(self) -> None:
        """Add the pending counts into the totals."""
        counts = self._counts
        if counts:
            totals = self._totals
            for record, times in counts.items():
                for category, cycles in record.pairs:
                    totals[category] += cycles * times
            counts.clear()

    @property
    def by_category(self) -> Dict[str, float]:
        """The per-category totals (the meter's own dict)."""
        self._fold()
        return self._totals

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
        self._totals.clear()
        self._counts.clear()
        self._exact = True

    def fork(self) -> "CycleMeter":
        """A meter holding a copy of these totals (same model); charges
        to either no longer reach the other."""
        return CycleMeter(self.model, self.snapshot())

    def __eq__(self, other: object) -> bool:
        if (not isinstance(other, CycleMeter)
                or other.__class__ is not self.__class__):
            return NotImplemented
        return (self.model, self.by_category) == (other.model,
                                                   other.by_category)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"CycleMeter(model={self.model!r}, "
                f"by_category={self.by_category!r})")
