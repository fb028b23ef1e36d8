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
them through its one fused executor, :meth:`DirectMonitor.exec_block_run`;
a single block is a one-row run.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, List, Optional, Sequence

from ..allocator.base import Allocator
from ..machine.errors import SegmentationFault
from ..machine.memory import VirtualMemory
from .blocks import (
    OP_COPY,
    OP_FILL,
    OP_READ,
    OP_READ_W,
    OP_SENDFILE,
    OP_SYSCALL_OUT,
    OP_USE,
    OP_USE_W,
    OP_WRITE_ARG_W,
    OP_WRITE_IMM,
    OP_WRITE_IMM_PAIR,
    OP_WRITE_IMM_W,
    OP_WRITE_REG,
    OP_WRITE_REG_W,
    BasicBlock,
)
from .cost import CycleMeter
from .values import TaggedValue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .process import Process


class ExecutionMonitor(abc.ABC):
    """Every memory/heap operation a guest program can perform."""

    process: Optional["Process"] = None

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
        self._heap_op = meter.model.heap_op
        self._mem_cost = meter.model.mem_cost
        self._mem_read = memory.read
        self._mem_write = memory.write
        #: fun name -> bound allocator method (avoids getattr per call).
        self._heap_methods: dict = {}

    def heap_alloc(self, fun: str, *args: int) -> int:
        self._charge("base", self._heap_op)
        method = self._heap_methods.get(fun)
        if method is None:
            method = getattr(self.heap, fun)
            self._heap_methods[fun] = method
        return method(*args)

    def heap_free(self, address: int) -> None:
        self._charge("base", self._heap_op)
        self.heap.free(address)

    def heap_alloc_run(self, fun: str, sizes: Sequence[int]) -> List[int]:
        if not sizes:
            return []
        self._charge("base", self._heap_op * len(sizes))
        if fun == "malloc":
            return self.heap.malloc_run(sizes)
        method = self._heap_methods.get(fun)
        if method is None:
            method = getattr(self.heap, fun)
            self._heap_methods[fun] = method
        return [method(size) for size in sizes]

    def heap_free_run(self, addresses: Sequence[int]) -> None:
        if not addresses:
            return
        self._charge("base", self._heap_op * len(addresses))
        self.heap.free_run(addresses)

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
        """
        n = len(rows)
        if n == 0:
            return []
        if block.model is not self.meter.model:
            # The block's pre-computed charges belong to another cost
            # model; interpret per op so the meter's model is consulted.
            process = self.process
            return [block.interpret(process, row) for row in rows]
        base_cycles = block.base_cycles
        self._charge("base", base_cycles * n)
        memory = self.memory
        read_word = memory.read_word
        write_word = memory.write_word
        run_ops = block.run_ops
        nslots = block.nslots
        results: List[List[Any]] = []
        completed = 0
        index = 0
        try:
            for row in rows:
                regs: List[Any] = [0] * nslots
                out: List[Any] = []
                # COMPUTE ops are pre-filtered out of run_ops (their
                # cycles are in the up-front charge); the chain is
                # ordered by op frequency in the serving workloads.
                for index, op in run_ops:
                    code = op[0]
                    if code == OP_COPY:
                        memory.write(row[op[1]] + op[2],
                                     memory.read(row[op[3]] + op[4],
                                                 op[5]))
                    elif code == OP_SENDFILE:
                        memory.check_read(row[op[1]] + op[2], op[3])
                        out.append(op[3])
                    elif code == OP_FILL:
                        memory.fill(row[op[1]] + op[2], op[3], op[4])
                    elif code == OP_SYSCALL_OUT:
                        out.append(memory.read(row[op[1]] + op[2],
                                               op[3]))
                    elif code == OP_READ:
                        regs[op[4]] = memory.read(row[op[1]] + op[2],
                                                  op[3])
                    elif code == OP_WRITE_IMM:
                        memory.write(row[op[1]] + op[2], op[4])
                    elif code == OP_READ_W:
                        regs[op[3]] = read_word(row[op[1]] + op[2])
                    elif code == OP_USE_W:
                        out.append(regs[op[1]])
                    elif code == OP_WRITE_ARG_W:
                        write_word(row[op[1]] + op[2], row[op[3]])
                    elif code == OP_WRITE_IMM_W:
                        write_word(row[op[1]] + op[2], op[4])
                    elif code == OP_WRITE_IMM_PAIR:
                        memory.write_word_pair(row[op[1]] + op[2], op[4],
                                               op[5])
                    elif code == OP_WRITE_REG_W:
                        write_word(row[op[1]] + op[2], regs[op[3]])
                    elif code == OP_WRITE_REG:
                        memory.write(row[op[1]] + op[2], regs[op[3]])
                    elif code == OP_USE:
                        out.append(int.from_bytes(regs[op[1]], "little"))
                    else:  # OP_SYSCALL_IN
                        memory.write(row[op[1]] + op[2], op[3])
                results.append(out)
                completed += 1
        except SegmentationFault:
            # completed rows charged in full; the faulting row charged
            # its per-op prefix; the remaining rows charged nothing.
            self._charge("base", block.cum_cycles[index]
                         - base_cycles * (n - completed))
            raise
        return results
