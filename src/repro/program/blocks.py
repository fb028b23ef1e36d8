"""Basic-block batched guest execution.

A guest program normally issues one :class:`~repro.program.process.Process`
method call per simulated instruction — every load, store, fill and value
use pays Python dispatch through the process *and* the monitor.  For
straight-line instruction runs that is pure overhead: the op sequence, the
access sizes and the cycle charges are all static, only the base addresses
vary.

:class:`BasicBlock` captures such a run once, pre-decoded: a tuple of
opcode tuples whose address operands are ``(arg_index, offset)`` pairs
resolved against the block's runtime arguments, with every cycle charge
pre-computed against a :class:`~repro.program.cost.CostModel` (both the
block total and the running prefix sums, so a faulting block can charge
exactly what the per-instruction path would have).  The process dispatches
the whole run with one call — ``process.exec_block(block, *args)`` — and
the monitor executes it.  There are two executors:

* :meth:`BasicBlock.interpret` issues one ordinary ``Process`` call per
  op.  It is the reference, the path under a lock-step scheduler, and
  what :meth:`ExecutionMonitor.exec_block` (the generic default) runs, so
  interpreting monitors (the shadow analyzer) observe exactly the
  per-instruction stream and need no changes;
* :meth:`DirectMonitor.exec_block_run` is the fused executor over a run
  of argument rows: one batched cycle charge, direct word-view memory
  traffic, no :class:`~repro.program.values.TaggedValue` boxing.  A
  single ``exec_block`` is a one-row run.

Equivalence obligations (enforced by
``tests/program/test_block_equivalence.py``): for any block and argument
vector, fused execution must produce the same memory contents, the same
outputs, the same cycle totals per category, and — when an op faults — the
same first faulting address with the same cycles consumed as issuing the
ops one by one.  Blocks never contain heap calls or control flow; those
stay on the per-instruction path where contexts and schedulers see them.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from .cost import CostModel, DEFAULT_COST_MODEL
from .values import TaggedValue

# Opcodes.  Each op is a plain tuple ``(opcode, ...)``; address operands
# are an ``(arg_index, offset)`` pair meaning ``args[arg_index] + offset``.
OP_COMPUTE = 0        # (op, cycles)
OP_READ_W = 1         # (op, argi, off, slot)          8-byte load
OP_READ = 2           # (op, argi, off, size, slot)    generic load
OP_WRITE_IMM = 3      # (op, argi, off, value, data)   static bytes
OP_WRITE_IMM_W = 4    # (op, argi, off, value, word)   static 8B as a word
OP_WRITE_IMM_PAIR = 5  # (op, argi, off, value, lo, hi) static 16B
OP_WRITE_ARG_W = 6    # (op, argi, off, vargi)         8B int from args
OP_WRITE_REG_W = 7    # (op, argi, off, slot)          store a READ_W slot
OP_WRITE_REG = 8      # (op, argi, off, slot, size)    store a READ slot
OP_FILL = 9           # (op, argi, off, size, byte)
OP_COPY = 10          # (op, dargi, doff, sargi, soff, size)
OP_USE_W = 11         # (op, slot, kind)               use a READ_W slot
OP_USE = 12           # (op, slot, kind)               use a READ slot
OP_SYSCALL_OUT = 13   # (op, argi, off, size)
OP_SYSCALL_IN = 14    # (op, argi, off, data)
OP_SENDFILE = 15      # (op, argi, off, size)   zero-copy send


class BlockError(ValueError):
    """Malformed block construction (bad slot, empty block, ...)."""


class BasicBlock:
    """An immutable pre-decoded straight-line op run.

    Build via :class:`BlockBuilder`; execute via
    ``process.exec_block(block, *args)``.

    Attributes:
        ops: tuple of opcode tuples (see module constants).
        nslots: number of value registers the block reads into.
        model: the cost model the cycle pre-computation used; fused
            execution is only valid under the same model.
        base_cycles: total "base" cycles the ops charge.
        cum_cycles: prefix sums — ``cum_cycles[i]`` is the cycles charged
            once op ``i`` has *started* (per-op dispatch charges before
            accessing memory, so a fault inside op ``i`` leaves exactly
            ``cum_cycles[i]`` on the meter).
        n_args: how many runtime arguments the ops reference.
        instructions: guest instructions the block represents, counted at
            word granularity exactly like :meth:`CostModel.mem_cost`
            charges them — a 256-byte fill is 32 word stores even though
            the substrate executes it as one batched call.  This is the
            honest numerator for instruction-rate benchmarks.
    """

    __slots__ = ("ops", "nslots", "model", "base_cycles", "cum_cycles",
                 "n_args", "instructions", "run_ops")

    def __init__(self, ops: Sequence[Tuple], nslots: int,
                 model: CostModel, cycles: Sequence[float],
                 n_args: int, instructions: int = 0) -> None:
        if not ops:
            raise BlockError("a basic block needs at least one op")
        self.ops = tuple(ops)
        self.nslots = nslots
        self.model = model
        # Start from int 0 so all-integer charges stay integral and the
        # batched meter totals compare (and serialize) exactly like the
        # per-op path's.
        total = 0
        cum: List[float] = []
        for charge in cycles:
            total += charge
            cum.append(total)
        self.cum_cycles = tuple(cum)
        self.base_cycles = total
        self.n_args = n_args
        self.instructions = instructions if instructions > 0 else len(ops)
        # COMPUTE ops are pure cycle charges: under batched charging the
        # fused executor has nothing to do for them, so it iterates
        # this pre-filtered view.  The original op index rides along to
        # keep fault accounting (``cum_cycles[i]``) exact.
        self.run_ops = tuple((i, op) for i, op in enumerate(self.ops)
                             if op[0] != OP_COMPUTE)

    def __len__(self) -> int:
        return len(self.ops)

    # ------------------------------------------------------------------
    # Reference execution: the per-instruction Process API
    # ------------------------------------------------------------------

    def interpret(self, process: Any, args: Sequence[int]) -> List[Any]:
        """Run the block through the ordinary per-op ``Process`` methods.

        This is the fused path's semantic reference, the path taken under
        a lock-step scheduler (where every op must remain a preemption
        point) and the generic ``ExecutionMonitor.exec_block``.  Returns
        the block's outputs: one entry per USE / SYSCALL_OUT op, in op
        order.
        """
        regs: List[Any] = [None] * self.nslots
        out: List[Any] = []
        for op in self.ops:
            code = op[0]
            if code == OP_READ_W:
                regs[op[3]] = process.read(args[op[1]] + op[2], 8)
            elif code == OP_USE_W or code == OP_USE:
                if op[2] == "address":
                    out.append(process.use_as_address(regs[op[1]]))
                else:
                    out.append(process.branch_on(regs[op[1]]))
            elif code == OP_WRITE_ARG_W:
                process.write_int(args[op[1]] + op[2], args[op[3]], 8)
            elif (code == OP_WRITE_IMM or code == OP_WRITE_IMM_W
                  or code == OP_WRITE_IMM_PAIR):
                process.write(args[op[1]] + op[2], op[3])
            elif code == OP_COMPUTE:
                process.compute(op[1])
            elif code == OP_FILL:
                process.fill(args[op[1]] + op[2], op[3], op[4])
            elif code == OP_READ:
                regs[op[4]] = process.read(args[op[1]] + op[2], op[3])
            elif code == OP_WRITE_REG_W or code == OP_WRITE_REG:
                process.write(args[op[1]] + op[2], regs[op[3]])
            elif code == OP_COPY:
                process.copy(args[op[1]] + op[2], args[op[3]] + op[4],
                             op[5])
            elif code == OP_SYSCALL_OUT:
                out.append(process.syscall_out(args[op[1]] + op[2], op[3]))
            elif code == OP_SYSCALL_IN:
                process.syscall_in(args[op[1]] + op[2], op[3])
            elif code == OP_SENDFILE:
                out.append(process.sendfile(args[op[1]] + op[2], op[3]))
            else:  # pragma: no cover - builder emits only known opcodes
                raise BlockError(f"unknown opcode {code}")
        return out


class BlockBuilder:
    """Accumulates ops and compiles a :class:`BasicBlock`.

    Address operands are ``(arg, offset)``: ``arg`` indexes the argument
    vector later passed to ``exec_block`` (the block inputs — typically
    buffer base addresses), ``offset`` is a static byte offset.  ``read``
    and ``read_int`` return *slot handles* to feed to ``write_value`` /
    ``branch_on`` / ``use_as_address``.
    """

    def __init__(self, model: CostModel = DEFAULT_COST_MODEL) -> None:
        self._model = model
        self._ops: List[Tuple] = []
        self._cycles: List[float] = []
        #: slot -> size in bytes; wide slots (8B word loads) are negative.
        self._slots: List[int] = []
        self._n_args = 0
        #: Word-granular guest instruction count (see BasicBlock).
        self._instructions = 0

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _words(size: int) -> int:
        """Guest instructions a ``size``-byte access stands for."""
        return max(1, (size + 7) // 8)

    def _addr(self, arg: int, offset: int) -> Tuple[int, int]:
        if arg < 0:
            raise BlockError(f"argument index must be >= 0, got {arg}")
        if arg + 1 > self._n_args:
            self._n_args = arg + 1
        return arg, offset

    def _slot(self, handle: int, wide: bool) -> int:
        if not 0 <= handle < len(self._slots):
            raise BlockError(f"unknown value slot {handle}")
        if (self._slots[handle] < 0) != wide:
            # Wrong accessor for the slot's kind; pick the matching one.
            raise BlockError(f"slot {handle} kind mismatch")
        return handle

    def _kind_of(self, handle: int) -> bool:
        if not 0 <= handle < len(self._slots):
            raise BlockError(f"unknown value slot {handle}")
        return self._slots[handle] < 0

    # -- op emitters ---------------------------------------------------

    def compute(self, cycles: int) -> None:
        """Pure computation: charges ``cycles`` to the baseline."""
        self._ops.append((OP_COMPUTE, cycles))
        self._cycles.append(cycles)
        self._instructions += 1

    def read(self, arg: int, offset: int, size: int) -> int:
        """Load ``size`` bytes; returns a value-slot handle."""
        if size <= 0:
            raise BlockError(f"invalid read size {size}")
        argi, off = self._addr(arg, offset)
        slot = len(self._slots)
        if size == 8:
            self._slots.append(-8)
            self._ops.append((OP_READ_W, argi, off, slot))
        else:
            self._slots.append(size)
            self._ops.append((OP_READ, argi, off, size, slot))
        self._cycles.append(self._model.mem_cost(size))
        self._instructions += self._words(size)
        return slot

    def read_int(self, arg: int, offset: int, size: int = 8) -> int:
        """Load an integer-sized value; alias of :meth:`read`."""
        return self.read(arg, offset, size)

    def write(self, arg: int, offset: int, data: bytes) -> None:
        """Store static bytes."""
        data = bytes(data)
        if not data:
            raise BlockError("empty write")
        argi, off = self._addr(arg, offset)
        value = TaggedValue.of_bytes(data)
        if len(data) == 8:
            word = int.from_bytes(data, "little")
            self._ops.append((OP_WRITE_IMM_W, argi, off, value, word))
        elif len(data) == 16:
            lo = int.from_bytes(data[:8], "little")
            hi = int.from_bytes(data[8:], "little")
            self._ops.append((OP_WRITE_IMM_PAIR, argi, off, value, lo, hi))
        else:
            self._ops.append((OP_WRITE_IMM, argi, off, value, data))
        self._cycles.append(self._model.mem_cost(len(data)))
        self._instructions += self._words(len(data))

    def write_int(self, arg: int, offset: int, value: int,
                  size: int = 8) -> None:
        """Store a static little-endian integer."""
        self.write(arg, offset, TaggedValue.of_int(value, size).data)

    def write_arg(self, arg: int, offset: int, value_arg: int) -> None:
        """Store a *runtime* argument as an 8-byte integer."""
        argi, off = self._addr(arg, offset)
        if value_arg < 0:
            raise BlockError(f"argument index must be >= 0, got {value_arg}")
        if value_arg + 1 > self._n_args:
            self._n_args = value_arg + 1
        self._ops.append((OP_WRITE_ARG_W, argi, off, value_arg))
        self._cycles.append(self._model.mem_cost(8))
        self._instructions += 1

    def write_value(self, arg: int, offset: int, slot: int) -> None:
        """Store a previously loaded value slot."""
        argi, off = self._addr(arg, offset)
        if self._kind_of(slot):
            self._ops.append((OP_WRITE_REG_W, argi, off, slot))
            size = 8
        else:
            size = self._slots[slot]
            self._ops.append((OP_WRITE_REG, argi, off, slot, size))
        self._cycles.append(self._model.mem_cost(size))
        self._instructions += self._words(size)

    def fill(self, arg: int, offset: int, size: int, byte: int = 0) -> None:
        """``memset`` a static-size range."""
        if size <= 0:
            raise BlockError(f"invalid fill size {size}")
        argi, off = self._addr(arg, offset)
        self._ops.append((OP_FILL, argi, off, size, byte))
        self._cycles.append(self._model.mem_cost(size))
        self._instructions += self._words(size)

    def copy(self, dst_arg: int, dst_offset: int, src_arg: int,
             src_offset: int, size: int) -> None:
        """``memcpy`` a static-size range between two argument bases."""
        if size <= 0:
            raise BlockError(f"invalid copy size {size}")
        dargi, doff = self._addr(dst_arg, dst_offset)
        sargi, soff = self._addr(src_arg, src_offset)
        self._ops.append((OP_COPY, dargi, doff, sargi, soff, size))
        self._cycles.append(self._model.mem_cost(size) * 2)
        self._instructions += 2 * self._words(size)

    def branch_on(self, slot: int) -> None:
        """Use a loaded value for control flow; emits one block output."""
        code = OP_USE_W if self._kind_of(slot) else OP_USE
        self._ops.append((code, slot, "branch"))
        self._cycles.append(1)
        self._instructions += 1

    def use_as_address(self, slot: int) -> None:
        """Use a loaded value as an address; emits one block output."""
        code = OP_USE_W if self._kind_of(slot) else OP_USE
        self._ops.append((code, slot, "address"))
        self._cycles.append(1)
        self._instructions += 1

    def syscall_out(self, arg: int, offset: int, size: int) -> None:
        """Send a buffer to the outside world; emits one block output."""
        if size <= 0:
            raise BlockError(f"invalid syscall_out size {size}")
        argi, off = self._addr(arg, offset)
        self._ops.append((OP_SYSCALL_OUT, argi, off, size))
        self._cycles.append(self._model.mem_cost(size))
        self._instructions += self._words(size)

    def sendfile(self, arg: int, offset: int, size: int) -> None:
        """Send a buffer zero-copy (``sendfile``/``writev`` from cached
        pages): same access check and cycle charge as :meth:`syscall_out`,
        but the block output is the byte *count*, not a copy of the data.
        """
        if size <= 0:
            raise BlockError(f"invalid sendfile size {size}")
        argi, off = self._addr(arg, offset)
        self._ops.append((OP_SENDFILE, argi, off, size))
        self._cycles.append(self._model.mem_cost(size))
        self._instructions += self._words(size)

    def syscall_in(self, arg: int, offset: int, data: bytes) -> None:
        """Receive static external bytes into a buffer."""
        data = bytes(data)
        if not data:
            raise BlockError("empty syscall_in")
        argi, off = self._addr(arg, offset)
        self._ops.append((OP_SYSCALL_IN, argi, off, data))
        self._cycles.append(self._model.mem_cost(len(data)))
        self._instructions += self._words(len(data))

    def build(self) -> BasicBlock:
        """Compile the accumulated ops into an immutable block."""
        return BasicBlock(self._ops, len(self._slots), self._model,
                          self._cycles, self._n_args, self._instructions)
