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
* the fused executor runs a run of argument rows for
  :class:`~repro.program.monitor.DirectMonitor`: one batched cycle
  charge, direct word-view memory traffic, no
  :class:`~repro.program.values.TaggedValue` boxing.  A single
  ``exec_block`` is a one-row run.  It is generated per block
  (:meth:`BasicBlock.fuse`, on the block's first fused run) as one
  straight-line Python function, so no opcode is decoded at run time.
  An opcode is therefore defined twice: in :meth:`BasicBlock.interpret`
  and in the generator (:func:`executor_source`).

Because the offsets are static, a block also records per argument slot
the byte span ``[lo, hi)`` its data ops touch and the ``PROT_*`` bits
they need (:attr:`BasicBlock.spans`; SENDFILE stays out and keeps its
own read check).  The fused executor resolves each row's spans with
:meth:`~repro.machine.memory.VirtualMemory.resolve`.  If every span
lies in one resident page with the needed permissions, the row runs
:attr:`BasicBlock.resolved_ops` directly on those frames.  Any other row
(a span that straddles a page, lacks a permission, or lies on an
unmapped or never-written page) runs op by op through the checked
memory methods, as does a lone row that accesses each argument only
once.  ``resolved_ops`` obeys the dead-load rule: it drops every load
whose slot no later USE or WRITE_REG reads, since such a load's only
effect is the permission check that resolution has made.

Generated code is shared, its constants are not.  Only operands the
builder has checked to be plain ``int`` values (argument indices,
offsets, sizes, slot numbers) are written into the source; every other
value — stored bytes, words, fill bytes, the cycle prefix sums — is a
per-block constant the function closes over.  Compiled factories are
cached by source text in one bounded module-level map, so structurally
identical blocks (every fresh server's copy of the same request plan)
compile once.  The generated function belongs to its block alone and is
left out of the block's pickled state; an unpickled block generates its
own on its first fused run.

Equivalence obligations (enforced by
``tests/program/test_block_equivalence.py``): for any block and argument
vector, fused execution must produce the same memory contents, the same
outputs, the same cycle totals per category, and — when an op faults — the
same first faulting address with the same cycles consumed as issuing the
ops one by one.  Blocks never contain heap calls or control flow; those
stay on the per-instruction path where contexts and schedulers see them.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..machine.errors import SegmentationFault
from ..machine.layout import PAGE_SIZE
from ..machine.memory import PROT_READ, PROT_WRITE
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
#: Resolved rows only: every static store above (WRITE_IMM*, SYSCALL_IN,
#: FILL) as the bytes it leaves in ``[off, end)``.
OP_STORE = 16         # (op, argi, off, end, data)


class BlockError(ValueError):
    """Malformed block construction (bad slot, empty block, ...)."""


#: A block's fused executor: ``(memory, charge, rows) -> outputs``.
Executor = Callable[[Any, Callable[[str, float], None],
                     Sequence[Sequence[int]]], List[List[Any]]]


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
        spans: ``(arg, lo, hi - lo, needed)`` per argument slot the
            data ops address, in argument order: the byte span
            ``[lo, hi)`` they touch relative to the argument and the
            union of the ``PROT_*`` bits they need.  SENDFILE is not
            counted.
        accesses: how many accesses those spans cover: one per data op,
            two per COPY.  Each is a checked memory call on the per-op
            path.
        resolved_ops: what a row whose spans all resolved runs:
            ``run_ops`` without dead loads (loads whose slot nothing
            reads), with static stores as :data:`OP_STORE`.
        instructions: guest instructions the block represents, counted at
            word granularity exactly like :meth:`CostModel.mem_cost`
            charges them — a 256-byte fill is 32 word stores even though
            the substrate executes it as one batched call.  This is the
            honest numerator for instruction-rate benchmarks.
        fused: the block's generated executor
            ``fused(memory, charge, rows)``, or ``None`` until
            :meth:`fuse` first runs.  Never pickled.
    """

    __slots__ = ("ops", "nslots", "model", "base_cycles", "cum_cycles",
                 "n_args", "instructions", "run_ops", "spans",
                 "accesses", "resolved_ops", "fused")

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
        accesses = [access for op in self.ops for access in _accesses(op)]
        self.spans = _spans(accesses)
        self.accesses = len(accesses)
        self.resolved_ops = _resolved(self.run_ops)
        self.fused: Optional[Executor] = None

    def __len__(self) -> int:
        return len(self.ops)

    def __getstate__(self) -> Dict[str, Any]:
        # The generated function is not picklable, and an unpickled
        # block regenerates its own on its first fused run.
        return {name: getattr(self, name) for name in self.__slots__
                if name != "fused"}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self.fused = None

    def fuse(self) -> Executor:
        """Generate, keep and return the block's fused executor.

        ``fused(memory, charge, rows)`` runs the block over ``rows`` on
        a :class:`~repro.machine.memory.VirtualMemory`, charging its
        ``base`` cycles through ``charge``, and returns one output list
        per row.  It is only valid when the caller's cost model is
        :attr:`model`.  It binds ``memory``'s methods on each call, so
        class-level wrappers installed on ``VirtualMemory`` see every
        checked access.  See :meth:`DirectMonitor.exec_block_run
        <repro.program.monitor.DirectMonitor.exec_block_run>` for the
        semantics it implements.
        """
        source, constants = executor_source(self)
        self.fused = _factory(source)(self.base_cycles, self.cum_cycles,
                                      *constants)
        return self.fused

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


def _accesses(op: Tuple) -> Tuple[Tuple[int, int, int, int], ...]:
    """``(arg, offset, size, PROT_*)`` of each access ``op`` makes.

    SENDFILE is left out: it keeps :meth:`VirtualMemory.check_read`,
    whose span cache covers bodies of any length.
    """
    code = op[0]
    if code == OP_READ_W:
        return ((op[1], op[2], 8, PROT_READ),)
    if code == OP_READ or code == OP_SYSCALL_OUT:
        return ((op[1], op[2], op[3], PROT_READ),)
    if (code == OP_WRITE_IMM or code == OP_WRITE_IMM_W
            or code == OP_WRITE_IMM_PAIR or code == OP_SYSCALL_IN):
        return ((op[1], op[2], len(op[3]), PROT_WRITE),)
    if code == OP_WRITE_ARG_W or code == OP_WRITE_REG_W:
        return ((op[1], op[2], 8, PROT_WRITE),)
    if code == OP_WRITE_REG:
        return ((op[1], op[2], op[4], PROT_WRITE),)
    if code == OP_FILL:
        return ((op[1], op[2], op[3], PROT_WRITE),)
    if code == OP_COPY:
        return ((op[1], op[2], op[5], PROT_WRITE),
                (op[3], op[4], op[5], PROT_READ))
    return ()


def _spans(accesses: Sequence[Tuple[int, int, int, int]]
           ) -> Tuple[Tuple[int, int, int, int], ...]:
    """Per argument slot, ``(arg, lo, hi - lo, needed)``: the byte span
    ``[lo, hi)`` its ``accesses`` touch relative to the argument and
    the union of the permissions they need, in argument order."""
    spans: dict = {}
    for arg, off, size, needed in accesses:
        lo, hi, prot = spans.get(arg, (off, off + size, 0))
        spans[arg] = (min(lo, off), max(hi, off + size), prot | needed)
    return tuple((arg, lo, hi - lo, needed)
                 for arg, (lo, hi, needed) in sorted(spans.items()))


def _resolved(run_ops: Sequence[Tuple[int, Tuple]]
              ) -> Tuple[Tuple[int, Tuple], ...]:
    """``run_ops`` as a row whose spans all resolved runs them.

    A load whose slot no USE or WRITE_REG op reads is dropped:
    resolution has already made its permission check, its only effect.
    Static stores become :data:`OP_STORE` of the bytes they write.
    """
    live = set()
    for _, op in run_ops:
        code = op[0]
        if code == OP_USE_W or code == OP_USE:
            live.add(op[1])
        elif code == OP_WRITE_REG_W or code == OP_WRITE_REG:
            live.add(op[3])
    out = []
    for i, op in run_ops:
        code = op[0]
        if ((code == OP_READ_W and op[3] not in live)
                or (code == OP_READ and op[4] not in live)):
            continue
        if (code == OP_WRITE_IMM or code == OP_WRITE_IMM_W
                or code == OP_WRITE_IMM_PAIR):
            data = op[3].data
        elif code == OP_SYSCALL_IN:
            data = op[3]
        elif code == OP_FILL:
            data = bytes((op[4],)) * op[3]
        else:
            out.append((i, op))
            continue
        out.append((i, (OP_STORE, op[1], op[2], op[2] + len(data), data)))
    return tuple(out)


# ---------------------------------------------------------------------------
# The fused executor generator
# ---------------------------------------------------------------------------

_WORD_MASK = (1 << 64) - 1
#: Page base of an argument with no page resolved yet in a run: no
#: address lies within a page of it.
_NO_PAGE = float("inf")
#: Most compiled executor factories kept; past it the oldest goes.
FACTORY_LIMIT = 256
#: Generated source -> its compiled ``make`` factory.  Holds code, never
#: a block: each block's executor is a closure the block alone keeps.
_FACTORIES: Dict[str, Callable[..., Executor]] = {}
_FACTORIES_LOCK = threading.Lock()


def _factory(source: str) -> Callable[..., Executor]:
    """The ``make`` that ``source`` defines, compiled on a cache miss."""
    with _FACTORIES_LOCK:
        factory = _FACTORIES.get(source)
        if factory is None:
            namespace = {"INF": _NO_PAGE,
                         "SegmentationFault": SegmentationFault}
            exec(compile(source, "<basic block>", "exec"), namespace)
            factory = namespace["make"]
            if len(_FACTORIES) >= FACTORY_LIMIT:
                del _FACTORIES[next(iter(_FACTORIES))]
            _FACTORIES[source] = factory
        return factory


def _plus(name: str, offset: int) -> str:
    """Source of ``name + offset``."""
    if offset > 0:
        return f"{name} + {offset}"
    return f"{name} - {-offset}" if offset else name


def _indent(lines: Sequence[str], depth: int) -> str:
    pad = " " * depth
    return "\n".join(pad + line for line in lines or ["pass"])


#: The fused executor; see :func:`executor_source`.
_EXECUTOR = """\
def make(base, cum{params}):
    def run(memory, charge, rows):
        n = len(rows)
        if not n:
            return []
        charge("base", base * n)
{setup}
        results = []
        append = results.append
        i = 0
        try:
            for row in rows:
{row}
                if ok:
{fast}
                else:
{slow}
                append([{outputs}])
        except SegmentationFault:
            charge("base", cum[i] - base * (n - len(results)))
            raise
        return results
    return run
"""


def executor_source(block: BasicBlock) -> Tuple[str, Tuple[Any, ...]]:
    """The source of ``block``'s fused executor and its constants.

    The source defines ``make(base, cum, k0, k1, ...)``, which returns
    ``run(memory, charge, rows)`` closed over ``base`` (the block's
    :attr:`~BasicBlock.base_cycles`), ``cum`` (its
    :attr:`~BasicBlock.cum_cycles`) and the ``k`` constants returned
    alongside: every stored byte string, word and fill byte, in emission
    order.  The source itself holds only the block's checked integer
    operands, so blocks that differ only in what they store share it.

    ``run`` is :meth:`DirectMonitor.exec_block_run
    <repro.program.monitor.DirectMonitor.exec_block_run>`'s op loop
    unrolled.  Per row, ``a<arg>`` holds each argument and the probes
    set ``ok`` and, per spanned argument, the frame ``f``, word view
    ``w`` and base address ``b`` of its page (kept across the rows of
    one call).  The row then runs :attr:`~BasicBlock.resolved_ops` on
    the frames, ``d<arg>`` being the argument's offset in its page, or
    :attr:`~BasicBlock.run_ops` through the checked memory methods.
    ``r<slot>`` are the value slots, ``o<index>`` the sent buffers and
    ``i`` the index of the last op started that can fault.
    """
    constants: List[Any] = []
    methods: Set[str] = set()

    def const(value: Any) -> str:
        constants.append(value)
        return f"k{len(constants) - 1}"

    def call(method: str, *args: Any) -> str:
        methods.add(method)
        return f"{method}({', '.join(str(arg) for arg in args)})"

    def frame(arg: int, lo: int, size: int) -> str:
        return (f"f{arg}[{_plus(f'd{arg}', lo)}:"
                f"{_plus(f'd{arg}', lo + size)}]")

    def word(arg: int, offset: int, load: str = "", store: str = ""
             ) -> List[str]:
        """A word load into ``load`` or store of ``store``: a word-view
        access when 8-aligned in its page, else a byte slice."""
        if load:
            unaligned = f"{load} = int.from_bytes(f{arg}[x:x + 8], 'little')"
            aligned = f"{load} = w{arg}[x >> 3]"
        else:
            unaligned = f"f{arg}[x:x + 8] = ({store}).to_bytes(8, 'little')"
            aligned = f"w{arg}[x >> 3] = {store}"
        return [f"x = {_plus(f'd{arg}', offset)}", "if x & 7:",
                "    " + unaligned, "else:", "    " + aligned]

    outputs: List[str] = []
    slow: List[str] = []
    for index, op in block.run_ops:
        code = op[0]
        if code == OP_USE_W:
            outputs.append(f"r{op[1]}")
            continue
        if code == OP_USE:
            outputs.append(f"int.from_bytes(r{op[1]}, 'little')")
            continue
        at = _plus(f"a{op[1]}", op[2])
        slow.append(f"i = {index}")
        if code == OP_READ_W:
            slow.append(f"r{op[3]} = {call('read_word', at)}")
        elif code == OP_READ:
            slow.append(f"r{op[4]} = {call('read', at, op[3])}")
        elif code == OP_WRITE_IMM:
            slow.append(call("write", at, const(op[4])))
        elif code == OP_SYSCALL_IN:
            slow.append(call("write", at, const(op[3])))
        elif code == OP_WRITE_IMM_W:
            slow.append(call("write_word", at, const(op[4])))
        elif code == OP_WRITE_IMM_PAIR:
            slow.append(call("write_word_pair", at, const(op[4]),
                             const(op[5])))
        elif code == OP_WRITE_ARG_W:
            slow.append(call("write_word", at, f"a{op[3]}"))
        elif code == OP_WRITE_REG_W:
            slow.append(call("write_word", at, f"r{op[3]}"))
        elif code == OP_WRITE_REG:
            slow.append(call("write", at, f"r{op[3]}"))
        elif code == OP_FILL:
            slow.append(call("fill", at, op[3], const(op[4])))
        elif code == OP_COPY:
            source = call("read", _plus(f"a{op[3]}", op[4]), op[5])
            slow.append(call("write", at, source))
        elif code == OP_SYSCALL_OUT:
            slow.append(f"o{index} = {call('read', at, op[3])}")
            outputs.append(f"o{index}")
        else:  # OP_SENDFILE
            slow.append(call("check_read", at, op[3]))
            outputs.append(str(op[3]))

    framed: Set[int] = set()
    fast: List[str] = []
    for index, op in block.resolved_ops:
        code = op[0]
        if code == OP_USE_W or code == OP_USE:
            continue
        if code == OP_SENDFILE:
            at = _plus(f"a{op[1]}", op[2])
            fast += [f"i = {index}", call("check_read", at, op[3])]
            continue
        framed.add(op[1])
        if code == OP_STORE:
            fast.append(f"{frame(op[1], op[2], op[3] - op[2])} = "
                        f"{const(op[4])}")
        elif code == OP_READ_W:
            fast += word(op[1], op[2], load=f"r{op[3]}")
        elif code == OP_READ:
            fast.append(f"r{op[4]} = bytes({frame(op[1], op[2], op[3])})")
        elif code == OP_WRITE_REG:
            fast.append(f"{frame(op[1], op[2], op[4])} = r{op[3]}")
        elif code == OP_SYSCALL_OUT:
            fast.append(f"o{index} = bytes({frame(op[1], op[2], op[3])})")
        elif code == OP_COPY:
            framed.add(op[3])
            fast.append(f"{frame(op[1], op[2], op[5])} = "
                        f"{frame(op[3], op[4], op[5])}")
        elif code == OP_WRITE_ARG_W:
            fast += word(op[1], op[2], store=f"a{op[3]} & {_WORD_MASK}")
        else:  # OP_WRITE_REG_W
            fast += word(op[1], op[2], store=f"r{op[3]}")

    # The lone-row rule: a one-row run of a block that accesses each
    # argument once skips the probes (``probe`` is false).
    lone = block.accesses == len(block.spans)
    row = [f"a{arg} = row[{arg}]" for arg in range(block.n_args)]
    row.append("ok = probe" if lone else "ok = 1")
    for arg, lo, size, needed in block.spans:
        at = _plus(f"a{arg}", lo)
        # A page resolved in an earlier row of the run is reused.
        reuse = f"0 <= {at} - b{arg} <= {PAGE_SIZE - size}"
        row += [f"if ok and not {reuse}:",
                f"    v = {call('resolve', at, size, needed)}",
                "    if v is None:",
                "        ok = 0",
                "    else:",
                f"        f{arg}, w{arg}, b{arg} = v"]
    setup = [f"{name} = memory.{name}" for name in sorted(methods)]
    setup += [f"b{arg} = INF" for arg, _, _, _ in block.spans]
    if lone:
        setup.append("probe = n > 1")
    fast[:0] = [f"d{arg} = a{arg} - b{arg}" for arg in sorted(framed)]
    source = _EXECUTOR.format(
        params="".join(f", k{k}" for k in range(len(constants))),
        setup=_indent(setup, 8), row=_indent(row, 16),
        fast=_indent(fast, 20), slow=_indent(slow, 20),
        outputs=", ".join(outputs))
    return source, tuple(constants)


def _int(name: str, value: Any) -> int:
    """``value`` as a plain ``int``; :class:`BlockError` unless it is an
    ``int`` (a ``bool`` is not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise BlockError(f"{name} must be an int, got {value!r}")
    return int(value)


class BlockBuilder:
    """Accumulates ops and compiles a :class:`BasicBlock`.

    Address operands are ``(arg, offset)``: ``arg`` indexes the argument
    vector later passed to ``exec_block`` (the block inputs — typically
    buffer base addresses), ``offset`` is a static byte offset.  ``read``
    and ``read_int`` return *slot handles* to feed to ``write_value`` /
    ``branch_on`` / ``use_as_address``.

    Every integer operand (argument index, offset, size, fill byte,
    cycles, slot handle) must be an ``int`` and not a ``bool``, and a
    fill byte must lie in ``0..255``; anything else raises
    :class:`BlockError`.  The fused executor's generated source holds
    these operands as literals (:func:`executor_source`).
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

    def _arg(self, arg: int) -> int:
        arg = _int("argument index", arg)
        if arg < 0:
            raise BlockError(f"argument index must be >= 0, got {arg}")
        if arg + 1 > self._n_args:
            self._n_args = arg + 1
        return arg

    def _addr(self, arg: int, offset: int) -> Tuple[int, int]:
        offset = _int("offset", offset)
        return self._arg(arg), offset

    @staticmethod
    def _size(kind: str, size: int) -> int:
        size = _int(f"{kind} size", size)
        if size <= 0:
            raise BlockError(f"invalid {kind} size {size}")
        return size

    def _slot(self, handle: int) -> Tuple[int, bool]:
        """``handle`` checked, and whether its slot is a word slot."""
        handle = _int("value slot", handle)
        if not 0 <= handle < len(self._slots):
            raise BlockError(f"unknown value slot {handle}")
        return handle, self._slots[handle] < 0

    # -- op emitters ---------------------------------------------------

    def compute(self, cycles: int) -> None:
        """Pure computation: charges ``cycles`` to the baseline."""
        cycles = _int("cycles", cycles)
        self._ops.append((OP_COMPUTE, cycles))
        self._cycles.append(cycles)
        self._instructions += 1

    def read(self, arg: int, offset: int, size: int) -> int:
        """Load ``size`` bytes; returns a value-slot handle."""
        size = self._size("read", size)
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
        value_arg = self._arg(value_arg)
        self._ops.append((OP_WRITE_ARG_W, argi, off, value_arg))
        self._cycles.append(self._model.mem_cost(8))
        self._instructions += 1

    def write_value(self, arg: int, offset: int, slot: int) -> None:
        """Store a previously loaded value slot."""
        slot, wide = self._slot(slot)
        argi, off = self._addr(arg, offset)
        if wide:
            self._ops.append((OP_WRITE_REG_W, argi, off, slot))
            size = 8
        else:
            size = self._slots[slot]
            self._ops.append((OP_WRITE_REG, argi, off, slot, size))
        self._cycles.append(self._model.mem_cost(size))
        self._instructions += self._words(size)

    def fill(self, arg: int, offset: int, size: int, byte: int = 0) -> None:
        """``memset`` a static-size range."""
        size = self._size("fill", size)
        byte = _int("fill byte", byte)
        if not 0 <= byte <= 255:
            raise BlockError(f"fill byte must lie in 0..255, got {byte}")
        argi, off = self._addr(arg, offset)
        self._ops.append((OP_FILL, argi, off, size, byte))
        self._cycles.append(self._model.mem_cost(size))
        self._instructions += self._words(size)

    def copy(self, dst_arg: int, dst_offset: int, src_arg: int,
             src_offset: int, size: int) -> None:
        """``memcpy`` a static-size range between two argument bases."""
        size = self._size("copy", size)
        dargi, doff = self._addr(dst_arg, dst_offset)
        sargi, soff = self._addr(src_arg, src_offset)
        self._ops.append((OP_COPY, dargi, doff, sargi, soff, size))
        self._cycles.append(self._model.mem_cost(size) * 2)
        self._instructions += 2 * self._words(size)

    def branch_on(self, slot: int) -> None:
        """Use a loaded value for control flow; emits one block output."""
        slot, wide = self._slot(slot)
        code = OP_USE_W if wide else OP_USE
        self._ops.append((code, slot, "branch"))
        self._cycles.append(1)
        self._instructions += 1

    def use_as_address(self, slot: int) -> None:
        """Use a loaded value as an address; emits one block output."""
        slot, wide = self._slot(slot)
        code = OP_USE_W if wide else OP_USE
        self._ops.append((code, slot, "address"))
        self._cycles.append(1)
        self._instructions += 1

    def syscall_out(self, arg: int, offset: int, size: int) -> None:
        """Send a buffer to the outside world; emits one block output."""
        size = self._size("syscall_out", size)
        argi, off = self._addr(arg, offset)
        self._ops.append((OP_SYSCALL_OUT, argi, off, size))
        self._cycles.append(self._model.mem_cost(size))
        self._instructions += self._words(size)

    def sendfile(self, arg: int, offset: int, size: int) -> None:
        """Send a buffer zero-copy (``sendfile``/``writev`` from cached
        pages): same access check and cycle charge as :meth:`syscall_out`,
        but the block output is the byte *count*, not a copy of the data.
        """
        size = self._size("sendfile", size)
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
