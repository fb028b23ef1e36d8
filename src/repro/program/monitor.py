"""Execution monitors: how a running process touches memory and the heap.

A :class:`Process` never accesses guest memory or the heap directly — it
routes every operation through an :class:`ExecutionMonitor`.  This mirrors
the three deployment modes of HeapTherapy+:

* **native / defended** — :class:`DirectMonitor`: operations hit the
  virtual memory and the allocator directly.  If the allocator is the
  defense interposer, guard-page faults arise naturally from page
  protections; nothing else changes, which is the paper's point about
  lightweight online defense.
* **offline analysis** — :class:`repro.shadow.analyzer.ShadowAnalyzer`
  implements the same interface but interposes shadow-memory bookkeeping,
  red zones and deferred free, playing the role of Valgrind.

The monitor is bound to its process after construction (:meth:`bind`), so
the shadow analyzer can ask the process for the current calling context.

Basic blocks (:mod:`repro.program.blocks`) run one of two ways.  The
default :meth:`ExecutionMonitor.exec_block` is
:meth:`~repro.program.blocks.BasicBlock.interpret` on the bound process,
so an interpreting monitor sees every op.  :class:`DirectMonitor` runs
them through the block's fused executor,
:meth:`~repro.program.blocks.BasicBlock.fuse`: one straight-line
function generated per block, which :meth:`DirectMonitor.exec_block_run`
calls after checking the cost model; a single block is a one-row run.
The executor resolves each row's argument spans to resident page frames
whose permissions cover them
(:meth:`~repro.machine.memory.VirtualMemory.resolve`), probing a page
once per run.  A row whose spans all resolve runs as slice and
word-view ops on those frames, without the loads nothing reads; any
other row runs as per-op calls on the checked memory methods, which
fault, count faults and materialize first-touched pages.  A lone row
that accesses each argument once skips the probes: they would cost as
many calls as they save.  No opcode is dispatched here:
:meth:`~repro.program.blocks.BasicBlock.interpret` is the one
hand-written per-op executor.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, List, Optional, Sequence

from ..allocator.base import Allocator
from ..machine.memory import VirtualMemory
from .blocks import BasicBlock
from .cost import ChargeRecord, CycleMeter
from .values import TaggedValue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .process import Process


class ExecutionMonitor(abc.ABC):
    """Every memory/heap operation a guest program can perform."""

    process: Optional["Process"] = None
    #: The guest's address space and the allocator serving it.
    memory: VirtualMemory
    heap: Allocator

    def bind(self, process: "Process") -> None:
        """Attach the process; called once by ``Process.__init__``."""
        self.process = process

    # -- heap ----------------------------------------------------------

    @abc.abstractmethod
    def heap_alloc(self, fun: str, *args: int) -> int:
        """Dispatch an allocation call (``fun`` names the entry point)."""

    @abc.abstractmethod
    def heap_free(self, address: int) -> None:
        """Dispatch a ``free`` call."""

    def heap_alloc_run(self, fun: str, sizes: Sequence[int]) -> List[int]:
        """Dispatch a same-call-site run of single-size allocation calls.

        The generic implementation replays the run through
        :meth:`heap_alloc`, so interpreting monitors (the shadow
        analyzer) observe exactly the per-call stream.
        :class:`DirectMonitor` overrides it with a fused loop.
        """
        alloc = self.heap_alloc
        return [alloc(fun, size) for size in sizes]

    def heap_free_run(self, addresses: Sequence[int]) -> None:
        """Dispatch a run of ``free`` calls (see :meth:`heap_alloc_run`)."""
        free = self.heap_free
        for address in addresses:
            free(address)

    # -- computation -----------------------------------------------------

    @abc.abstractmethod
    def compute(self, cycles: int) -> None:
        """The guest performs ``cycles`` of pure computation.

        Monitors that interpret the guest (the shadow analyzer) tax this
        — Valgrind-style DBI slows *all* code down, not just memory
        operations.
        """

    # -- memory --------------------------------------------------------

    @abc.abstractmethod
    def read(self, address: int, size: int) -> TaggedValue:
        """Load ``size`` bytes into a register value."""

    @abc.abstractmethod
    def write(self, address: int, value: TaggedValue) -> None:
        """Store a register value (data + shadow state) to memory."""

    @abc.abstractmethod
    def copy(self, dst: int, src: int, size: int) -> None:
        """``memcpy`` — copies data and, under analysis, shadow state."""

    @abc.abstractmethod
    def fill(self, address: int, size: int, byte: int) -> None:
        """``memset`` — fills with an immediate (hence valid) byte."""

    # -- value uses (the only points where validity is checked) --------

    @abc.abstractmethod
    def use(self, value: TaggedValue, kind: str) -> None:
        """A value decides control flow / an address / enters the kernel."""

    @abc.abstractmethod
    def syscall_out(self, address: int, size: int) -> bytes:
        """Buffer leaves the process (e.g. ``send``); returns the bytes."""

    @abc.abstractmethod
    def syscall_in(self, address: int, data: bytes) -> None:
        """Buffer is filled from outside (e.g. ``recv``)."""

    def sendfile(self, address: int, size: int) -> int:
        """Buffer leaves the process zero-copy (``sendfile``).

        The generic implementation routes through :meth:`syscall_out`,
        so interpreting monitors (the shadow analyzer) observe the full
        read of the range exactly as a copying send; only
        :class:`DirectMonitor` skips the data copy.
        """
        return len(self.syscall_out(address, size))

    # -- batched execution ---------------------------------------------

    def exec_block(self, block: BasicBlock,
                   args: Sequence[int]) -> List[Any]:
        """Execute a pre-decoded straight-line block.

        The generic implementation is the block's per-op reference,
        :meth:`BasicBlock.interpret`, on the bound process: every op
        reaches the per-op monitor methods above, so any monitor (the
        shadow analyzer included) observes exactly the stream the
        per-instruction path would have produced.  :class:`DirectMonitor`
        overrides this with its fused executor.  Returns the block
        outputs (one per USE / SYSCALL_OUT op, in op order).
        """
        return block.interpret(self.process, args)

    def exec_block_run(self, block: BasicBlock,
                       rows: Sequence[Sequence[int]]) -> List[List[Any]]:
        """Execute one block over many argument rows (a request batch).

        Returns one output list per row, in row order.  The generic
        implementation is the row loop itself; :class:`DirectMonitor`
        fuses the per-row dispatch.
        """
        exec_block = self.exec_block
        return [exec_block(block, row) for row in rows]


class DirectMonitor(ExecutionMonitor):
    """Pass-through monitor for native and defended execution.

    Charges only the program's own baseline costs; any defense costs are
    charged by the :class:`~repro.defense.interpose.DefendedAllocator`
    itself, keeping Figure 8's decomposition clean.
    """

    def __init__(self, memory: VirtualMemory, heap: Allocator,
                 meter: CycleMeter) -> None:
        self.memory = memory
        self.heap = heap
        self.meter = meter
        # Hot-path bindings (the model is a frozen dataclass, the meter
        # is shared for the process lifetime): one attribute walk at
        # construction instead of several per guest memory operation.
        self._charge = meter.charge
        self._count = meter.count
        #: The allocator's baseline work on one heap call.
        self._heap_charges = ChargeRecord(("base", meter.model.heap_op))
        self._mem_cost = meter.model.mem_cost
        self._mem_read = memory.read
        self._mem_write = memory.write
        #: fun name -> bound allocator method (avoids getattr per call).
        self._heap_methods: dict = {}

    def heap_alloc(self, fun: str, *args: int) -> int:
        self._count(self._heap_charges)
        method = self._heap_methods.get(fun)
        if method is None:
            method = getattr(self.heap, fun)
            self._heap_methods[fun] = method
        return method(*args)

    def heap_free(self, address: int) -> None:
        self._count(self._heap_charges)
        self.heap.free(address)

    # A run charges ``base`` for the entries the per-call loop would
    # have reached: all of them, or those up to and including the one
    # that raised.  The heap's counters say how far a failed run got:
    # each allocation it made records one call, as does each free of a
    # non-null pointer (but for a double free that the defended
    # allocator's quarantine absorbs, which records none).  Counting the
    # record zero times first gives ``base`` its place in the totals
    # before the heap charges its own.

    def heap_alloc_run(self, fun: str, sizes: Sequence[int]) -> List[int]:
        if fun != "malloc":
            return super().heap_alloc_run(fun, sizes)
        if not sizes:
            return []
        count, charges = self._count, self._heap_charges
        count(charges, 0)
        heap = self.heap
        made = heap.stats.malloc_calls
        try:
            addresses = heap.malloc_run(sizes)
        except BaseException:
            count(charges, heap.stats.malloc_calls - made + 1)
            raise
        count(charges, len(sizes))
        return addresses

    def heap_free_run(self, addresses: Sequence[int]) -> None:
        if not addresses:
            return
        count, charges = self._count, self._heap_charges
        count(charges, 0)
        heap = self.heap
        freed = heap.stats.free_calls
        try:
            heap.free_run(addresses)
        except BaseException:
            freed = heap.stats.free_calls - freed
            for reached, address in enumerate(addresses):
                if address:
                    if not freed:
                        break
                    freed -= 1
            count(charges, reached + 1)
            raise
        count(charges, len(addresses))

    def compute(self, cycles: int) -> None:
        self._charge("base", cycles)

    def read(self, address: int, size: int) -> TaggedValue:
        self._charge("base", self._mem_cost(size))
        return TaggedValue(self._mem_read(address, size))

    def write(self, address: int, value: TaggedValue) -> None:
        self._charge("base", self._mem_cost(len(value)))
        self._mem_write(address, value.data)

    def copy(self, dst: int, src: int, size: int) -> None:
        self._charge("base", self._mem_cost(size) * 2)
        self._mem_write(dst, self._mem_read(src, size))

    def fill(self, address: int, size: int, byte: int) -> None:
        self._charge("base", self._mem_cost(size))
        self.memory.fill(address, size, byte)

    def use(self, value: TaggedValue, kind: str) -> None:
        self._charge("base", 1)

    def syscall_out(self, address: int, size: int) -> bytes:
        self._charge("base", self._mem_cost(size))
        return self._mem_read(address, size)

    def syscall_in(self, address: int, data: bytes) -> None:
        self._charge("base", self._mem_cost(len(data)))
        self._mem_write(address, data)

    def sendfile(self, address: int, size: int) -> int:
        self._charge("base", self._mem_cost(size))
        self.memory.check_read(address, size)
        return size

    def exec_block(self, block: BasicBlock,
                   args: Sequence[int]) -> List[Any]:
        """Fused block execution: a one-row :meth:`exec_block_run`."""
        return self.exec_block_run(block, (args,))[0]

    def exec_block_run(self, block: BasicBlock,
                       rows: Sequence[Sequence[int]]) -> List[List[Any]]:
        """Fused block execution: one cycle charge, direct memory ops.

        Observation-identical to :meth:`BasicBlock.interpret` per row:
        same memory effects (word stores fall back to byte stores exactly
        where the per-op path would), same outputs, same cycles per
        category.  The ``n`` per-row charges collapse into one
        ``n``-scaled charge up front; on a fault in row ``r`` it is
        adjusted down to what the per-op path would have charged by then
        (``r`` full blocks plus the faulting row's per-op prefix).

        Each row first resolves its argument spans
        (:attr:`BasicBlock.spans`) with :meth:`VirtualMemory.resolve`,
        reusing the page an argument's span resolved to in an earlier
        row of the run when the span lies in it again.  When every span
        resolves, the row's checks have all passed, so it runs
        :attr:`BasicBlock.resolved_ops` as slice and word-view ops on
        the resolved frames; only its SENDFILE ops can still fault.
        Otherwise the row runs op by op through the checked
        ``VirtualMemory`` methods, which fault, count and materialize
        pages exactly as the per-op path does.  A run of one row whose
        block accesses each argument once (:attr:`BasicBlock.accesses`
        equals its number of spans) runs op by op without probing.

        All of this is the block's generated executor
        (:meth:`BasicBlock.fuse`); this method only checks that the
        block's pre-computed charges belong to the meter's cost model.
        """
        if block.model is not self.meter.model:
            # The block's pre-computed charges belong to another cost
            # model; interpret per op so the meter's model is consulted.
            process = self.process
            return [block.interpret(process, row) for row in rows]
        return (block.fused or block.fuse())(self.memory, self._charge,
                                             rows)
