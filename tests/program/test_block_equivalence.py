"""Observation equivalence of basic-block batched execution.

The substrate has two block executors, reached three ways:

1. the per-instruction reference — ``BasicBlock.interpret`` issuing one
   ``Process`` method call per op (also the path under a lock-step
   scheduler),
2. the generic monitor path — ``process.exec_block`` on a monitor that
   inherits ``ExecutionMonitor.exec_block``, which interprets the block
   through the ordinary per-op monitor methods (the shadow analyzer's
   path), and
3. the fused fast path — ``process.exec_block`` on a ``DirectMonitor``,
   a one-row ``exec_block_run`` with one batched cycle charge and
   direct word-view memory traffic, run by the block's generated
   executor (``BasicBlock.fuse``).

The module docstrings of ``repro.program.blocks`` and
``repro.program.monitor`` promise these are observationally identical:
same memory contents, same outputs, same cycle totals per category, and
on a fault the same first faulting address with the same cycles
consumed.  Hypothesis generates arbitrary blocks and this suite holds
all three paths to that promise, plus allocator-trace and
attack-outcome equivalence for block-using guest programs, row runs
with a faulting row, and the fused executor's fallback for blocks built
under another cost model.  A last section places rows where page
resolution must fall back (spans across a page boundary, on untouched,
read-only and guard pages, two arguments on one page) and pins the
dead-load rule and the resolved fast path.  The builder's operand
checks and the executor generator (shared code with per-block
constants, Python 3.9 syntax for every bundled block, the bounded code
cache) close the suite.
"""

import ast
import warnings

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.allocator.libc import LibcAllocator
from repro.defense.interpose import DefendedAllocator
from repro.defense.patch_table import PatchTable
from repro.machine.errors import SegmentationFault
from repro.machine.layout import PAGE_SIZE
from repro.machine.memory import (
    PROT_NONE,
    PROT_READ,
    PROT_RW,
    PROT_WRITE,
    VirtualMemory,
)
from repro.patch.model import HeapPatch
from repro.program import blocks
from repro.program.blocks import BlockBuilder, BlockError, executor_source
from repro.program.callgraph import CallGraph
from repro.program.context import ContextSource
from repro.program.cost import DEFAULT_COST_MODEL, CostModel, CycleMeter
from repro.program.monitor import DirectMonitor, ExecutionMonitor
from repro.program.process import Process
from repro.vulntypes import VulnType
from repro.workloads.services.mysql import (
    PAGE_INIT_BLOCK,
    POOL_PAGE_SIZE,
    QUERY_BLOCK,
)
from repro.workloads.services.nginx import (
    DOCUMENT_TREE,
    MISSING_PATH,
    NginxServer,
)

#: User size of each scratch buffer the generated blocks address.
BUF = 256

#: Access sizes the strategies draw from: sub-word, word, multi-word.
SIZES = (1, 2, 3, 4, 8, 12, 16, 24, 32)

#: The third runtime argument is a plain integer (write_arg source).
EXTRA_ARG = 0x1122334455


#: DirectMonitor's per-op methods under the block methods every monitor
#: inherits from ExecutionMonitor: the generic block path.
GenericMonitor = type("GenericMonitor", (ExecutionMonitor,), {
    name: DirectMonitor.__dict__[name]
    for name in ("__init__", "heap_alloc", "heap_free", "compute", "read",
                 "write", "copy", "fill", "use", "syscall_out",
                 "syscall_in", "sendfile")})


def make_process(heap=None, monitor_cls=DirectMonitor):
    graph = CallGraph()
    for label in ("a", "b", "loop", "victim"):
        graph.add_call_site("main", "malloc", label)
    graph.add_call_site("main", "free")
    heap = heap or LibcAllocator()
    meter = CycleMeter()
    return Process(graph, monitor=monitor_cls(heap.memory, heap, meter),
                   meter=meter)


class _Main:
    """Minimal ProgramLike: runs ``fn`` inside the entry frame (heap
    calls need an active frame for their call sites)."""

    def __init__(self, fn):
        self.fn = fn

    def main(self, process):
        return self.fn(process)


def run_in_main(process, fn):
    return process.run(_Main(fn))


def normalize(outputs):
    """Block outputs are ints (value uses) and bytes (syscall_out)."""
    return [bytes(o) if isinstance(o, (bytes, bytearray, memoryview))
            else int(o) for o in outputs]


# ---------------------------------------------------------------------------
# Strategies: descriptor lists applied to a BlockBuilder
# ---------------------------------------------------------------------------

_arg = st.integers(0, 1)
_off = st.integers(0, BUF - 32)
_size = st.sampled_from(SIZES)

_plain_ops = [
    st.tuples(st.just("compute"), st.integers(1, 20)),
    st.tuples(st.just("read"), _arg, _off, _size),
    st.tuples(st.just("write"), _arg, _off,
              st.binary(min_size=1, max_size=24)),
    st.tuples(st.just("write_arg"), _arg, _off, st.integers(0, 2)),
    st.tuples(st.just("fill"), _arg, _off, _size, st.integers(0, 255)),
    st.tuples(st.just("copy"), _arg, _off, _arg, _off, _size),
    st.tuples(st.just("syscall_out"), _arg, _off, _size),
    st.tuples(st.just("sendfile"), _arg, _off, _size),
    st.tuples(st.just("syscall_in"), _arg, _off,
              st.binary(min_size=1, max_size=24)),
]

#: Ops that consume a previously created value slot (the index is taken
#: modulo the number of live slots at build time).
_slot_ops = [
    st.tuples(st.just("write_value"), _arg, _off, st.integers(0, 63)),
    st.tuples(st.just("branch_on"), st.integers(0, 63)),
    st.tuples(st.just("use_as_address"), st.integers(0, 63)),
]


@st.composite
def block_descriptors(draw):
    n = draw(st.integers(1, 12))
    descriptors = []
    slots = 0
    for _ in range(n):
        pool = list(_plain_ops) + (_slot_ops if slots else [])
        d = draw(st.one_of(pool))
        if d[0] == "read":
            slots += 1
        descriptors.append(d)
    return descriptors


def build_block(descriptors, model=DEFAULT_COST_MODEL):
    builder = BlockBuilder(model)
    slots = []
    for d in descriptors:
        kind = d[0]
        if kind == "compute":
            builder.compute(d[1])
        elif kind == "read":
            slots.append(builder.read(d[1], d[2], d[3]))
        elif kind == "write":
            builder.write(d[1], d[2], d[3])
        elif kind == "write_arg":
            builder.write_arg(d[1], d[2], d[3])
        elif kind == "write_value":
            builder.write_value(d[1], d[2], slots[d[3] % len(slots)])
        elif kind == "fill":
            builder.fill(d[1], d[2], d[3], d[4])
        elif kind == "copy":
            builder.copy(d[1], d[2], d[3], d[4], d[5])
        elif kind == "branch_on":
            builder.branch_on(slots[d[1] % len(slots)])
        elif kind == "use_as_address":
            builder.use_as_address(slots[d[1] % len(slots)])
        elif kind == "syscall_out":
            builder.syscall_out(d[1], d[2], d[3])
        elif kind == "sendfile":
            builder.sendfile(d[1], d[2], d[3])
        else:  # syscall_in
            builder.syscall_in(d[1], d[2], d[3])
    return builder.build()


# ---------------------------------------------------------------------------
# The three execution paths
# ---------------------------------------------------------------------------

def run_reference(process, block, args):
    return block.interpret(process, args)


def run_block(process, block, args):
    return process.exec_block(block, *args)


#: (monitor class, runner) per path.
PATHS = ((DirectMonitor, run_reference), (GenericMonitor, run_block),
         (DirectMonitor, run_block))
PATH_IDS = ("interpret", "generic", "fused")


def observe(path, block, heap_factory=None):
    """Run ``block`` on a fresh process; return every observable."""
    monitor_cls, runner = path
    process = make_process(heap_factory() if heap_factory else None,
                           monitor_cls)

    def body(p):
        buf0 = p.malloc(BUF, site="a")
        buf1 = p.malloc(BUF, site="b")
        outputs = normalize(runner(p, block, (buf0, buf1, EXTRA_ARG)))
        memory = p.monitor.memory
        return {
            "addresses": (buf0, buf1),
            "outputs": outputs,
            "mem0": bytes(memory.read(buf0, BUF)),
            "mem1": bytes(memory.read(buf1, BUF)),
            "meter": p.meter.snapshot(),
        }

    return run_in_main(process, body)


# ---------------------------------------------------------------------------
# Happy-path equivalence
# ---------------------------------------------------------------------------

class TestBlockEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(block_descriptors())
    def test_three_paths_agree(self, descriptors):
        block = build_block(descriptors)
        reference, generic, fused = (observe(path, block) for path in PATHS)
        assert reference["addresses"] == generic["addresses"] \
            == fused["addresses"]
        assert reference["outputs"] == generic["outputs"] \
            == fused["outputs"]
        assert reference["mem0"] == generic["mem0"] == fused["mem0"]
        assert reference["mem1"] == generic["mem1"] == fused["mem1"]
        assert reference["meter"] == generic["meter"] == fused["meter"]

    @settings(max_examples=40, deadline=None)
    @given(block_descriptors())
    def test_three_paths_agree_over_defended_heap(self, descriptors):
        """Equivalence must survive the defense interposer's metadata
        word sitting immediately before each buffer."""
        block = build_block(descriptors)

        def heap():
            return DefendedAllocator(LibcAllocator(), PatchTable.empty())

        results = [observe(path, block, heap_factory=heap)
                   for path in PATHS]
        first = results[0]
        for other in results[1:]:
            assert other == first

    def test_instruction_count_is_word_granular(self):
        builder = BlockBuilder()
        builder.fill(0, 0, 256, 0)      # 32 word stores
        builder.copy(0, 0, 1, 0, 64)    # 8 loads + 8 stores
        slot = builder.read(0, 8, 8)    # 1 load
        builder.branch_on(slot)         # 1 use
        builder.compute(7)              # 1 alu op
        block = builder.build()
        assert block.instructions == 32 + 16 + 1 + 1 + 1
        assert len(block.ops) == 5

    def test_empty_block_rejected(self):
        with pytest.raises(BlockError):
            BlockBuilder().build()


# ---------------------------------------------------------------------------
# Fault equivalence
# ---------------------------------------------------------------------------

def faulting_block(read_fault):
    """Writes, then an op that faults, then ops that must never run."""
    builder = BlockBuilder()
    builder.write(0, 0, b"before-fault!")
    builder.fill(0, 64, 32, 0xAB)
    if read_fault:
        slot = builder.read(1, 0, 8)  # arg 1 points at unmapped memory
        builder.branch_on(slot)
    else:
        builder.write(1, 0, b"\xff" * 8)
    builder.write(0, 128, b"never-written")
    return builder.build()


class TestFaultEquivalence:
    @pytest.mark.parametrize("read_fault", [True, False],
                             ids=["read", "write"])
    def test_same_fault_same_cycles_same_memory(self, read_fault):
        block = faulting_block(read_fault)
        observations = []
        for monitor_cls, runner in PATHS:
            process = make_process(monitor_cls=monitor_cls)
            state = {}

            def body(p):
                buf = state["buf"] = p.malloc(BUF, site="a")
                bad = buf + (1 << 40)  # far outside any mapping
                runner(p, block, (buf, bad))

            with pytest.raises(SegmentationFault) as excinfo:
                run_in_main(process, body)
            fault = excinfo.value
            memory = process.monitor.memory
            observations.append({
                "address": fault.address - state["buf"],
                "access": fault.access,
                "size": fault.size,
                "meter": process.meter.snapshot(),
                "mem": bytes(memory.read(state["buf"], BUF)),
            })
        assert observations[0] == observations[1] == observations[2]
        # The ops before the fault landed; the op after it never ran.
        done = observations[0]["mem"]
        assert done.startswith(b"before-fault!")
        assert done[64:96] == b"\xab" * 32
        assert done[128:141] == bytes(13)

    @settings(max_examples=30, deadline=None)
    @given(block_descriptors())
    def test_random_prefix_then_fault(self, descriptors):
        """A fault following an arbitrary block leaves the same meter
        totals on every path (the prefix's charges all landed)."""
        block_ok = build_block(descriptors)
        fb = BlockBuilder()
        fb.read(0, 0, 8)
        fault_block = fb.build()
        observations = []
        for monitor_cls, runner in PATHS:
            process = make_process(monitor_cls=monitor_cls)

            def body(p):
                buf0 = p.malloc(BUF, site="a")
                buf1 = p.malloc(BUF, site="b")
                normalize(runner(p, block_ok, (buf0, buf1, EXTRA_ARG)))
                runner(p, fault_block, (buf0 + (1 << 40),))

            with pytest.raises(SegmentationFault) as excinfo:
                run_in_main(process, body)
            observations.append({
                "address": excinfo.value.address,
                "meter": process.meter.snapshot(),
            })
        assert observations[0] == observations[1] == observations[2]


# ---------------------------------------------------------------------------
# Row runs and the fused executor's cost-model fallback
# ---------------------------------------------------------------------------

#: A cost model whose memory charges differ from the default's: blocks
#: built under it make DirectMonitor fall back to interpreting per op.
OTHER_MODEL = CostModel(mem_word=3, mem_op=5)

ROWS = 3


def interpret_rows(process, block, rows):
    return [block.interpret(process, row) for row in rows]


def exec_block_rows(process, block, rows):
    return [process.exec_block(block, *row) for row in rows]


def exec_block_run(process, block, rows):
    return process.exec_block_run(block, rows)


#: (monitor class, row runner) per path; the first is the reference.
ROW_PATHS = ((DirectMonitor, interpret_rows),
             (DirectMonitor, exec_block_rows),
             (DirectMonitor, exec_block_run),
             (GenericMonitor, exec_block_run))


def observe_rows(path, block, fault_row=None):
    """Run ``block`` over :data:`ROWS` argument rows on a fresh process;
    row ``fault_row``'s first argument points at unmapped memory."""
    monitor_cls, runner = path
    process = make_process(monitor_cls=monitor_cls)
    state = {"outputs": None, "fault": None}

    def body(p):
        bufs = state["bufs"] = [p.malloc(BUF, site="a")
                                for _ in range(2 * ROWS)]
        rows = [(bufs[2 * r] + (1 << 40 if r == fault_row else 0),
                 bufs[2 * r + 1], EXTRA_ARG) for r in range(ROWS)]
        state["outputs"] = [normalize(out)
                            for out in runner(p, block, rows)]

    try:
        run_in_main(process, body)
    except SegmentationFault as fault:
        state["fault"] = (fault.address, fault.access, fault.size)
    memory = process.monitor.memory
    state["mem"] = [bytes(memory.read(buf, BUF)) for buf in state["bufs"]]
    state["meter"] = process.meter.snapshot()
    return state


class TestRowRuns:
    @settings(max_examples=40, deadline=None)
    @given(block_descriptors(),
           st.sampled_from([DEFAULT_COST_MODEL, OTHER_MODEL]),
           st.sampled_from([None, 0, 1, ROWS - 1]))
    def test_every_path_matches_interpret(self, descriptors, model,
                                          fault_row):
        """Row runs, with or without a faulting row and under either cost
        model, leave what interpreting each row leaves."""
        # A trailing load of the first argument faults in ``fault_row``
        # even when the generated ops never touch it.
        block = build_block(descriptors + [("read", 0, 0, 8)], model)
        reference, *others = (observe_rows(path, block, fault_row)
                              for path in ROW_PATHS)
        assert (reference["fault"] is None) == (fault_row is None)
        for other in others:
            assert other == reference

    @pytest.mark.parametrize("fault_row", [None, 1], ids=["ok", "fault"])
    def test_fallback_charges_the_meters_model(self, fault_row):
        """A block built under another cost model charges what the same
        ops built under the meter's model charge, not its own totals."""
        descriptors = [("fill", 1, 0, 64, 7), ("copy", 1, 64, 1, 0, 24),
                       ("compute", 5), ("read", 0, 8, 8)]
        foreign = build_block(descriptors, OTHER_MODEL)
        native = build_block(descriptors)
        assert foreign.base_cycles != native.base_cycles
        for path in ROW_PATHS:
            assert (observe_rows(path, foreign, fault_row)
                    == observe_rows(path, native, fault_row))


# ---------------------------------------------------------------------------
# Allocator-trace and attack-outcome equivalence for block programs
# ---------------------------------------------------------------------------

def guest_loop(process, use_blocks, iterations=40):
    """A miniature _GuestLoop: malloc, touch via block, free."""
    builder = BlockBuilder()
    builder.fill(0, 0, 96, 0)
    builder.write(0, 0, b"\x2a" * 16)
    slot = builder.read_int(0, 0, 8)
    builder.branch_on(slot)
    builder.write_arg(0, 8, 1)
    builder.write_value(0, 16, slot)
    block = builder.build()
    for i in range(iterations):
        buf = process.malloc(96 + (i % 3) * 32, site="loop")
        if use_blocks:
            process.exec_block(block, buf, i)
        else:
            block.interpret(process, (buf, i))
        process.free(buf)


class TestWorkloadEquivalence:
    def test_allocator_trace_identical(self):
        """Batched and per-op execution leave identical allocator
        traces: same stats, same event stream, same profile."""
        runs = []
        for use_blocks in (True, False):
            process = make_process()
            run_in_main(process,
                        lambda p, u=use_blocks: guest_loop(p, u))
            runs.append({
                "stats": process.monitor.heap.stats.snapshot(),
                "events": [(e.serial, e.fun, e.ccid, e.address, e.size)
                           for e in process.allocations],
                "profile": dict(process.alloc_profile),
                "meter": process.meter.snapshot(),
            })
        assert runs[0] == runs[1]

    def test_attack_outcome_identical(self):
        """A patched overflow must hit the guard page at the same
        address whether the overflowing store is batched or not."""
        from repro.defense.metadata import METADATA_SIZE, BufferMetadata
        from repro.machine.layout import PAGE_SIZE

        class FixedContext(ContextSource):
            def current_ccid(self):
                return 0x77

        # In-bounds fill, then a contiguous overflow long enough to
        # reach the guard page wherever in the page the buffer sits.
        builder = BlockBuilder()
        builder.write(0, 0, b"A" * 64)
        builder.fill(0, 64, PAGE_SIZE + 64, 0x42)
        block = builder.build()

        outcomes = []
        for use_blocks in (True, False):
            table = PatchTable(
                [HeapPatch("malloc", 0x77, VulnType.OVERFLOW)])
            heap = DefendedAllocator(LibcAllocator(), table,
                                     context_source=FixedContext())
            process = make_process(heap)
            state = {}

            def body(p):
                buf = state["buf"] = p.malloc(64, site="victim")
                if use_blocks:
                    p.exec_block(block, buf)
                else:
                    block.interpret(p, (buf,))

            with pytest.raises(SegmentationFault) as excinfo:
                run_in_main(process, body)
            buf = state["buf"]
            meta = BufferMetadata.decode(
                heap.memory.read_word(buf - METADATA_SIZE))
            assert meta.has_guard
            outcomes.append({
                "fault_offset": excinfo.value.address - buf,
                "hit_guard": excinfo.value.address == meta.guard_page,
                "access": excinfo.value.access,
                "meter": process.meter.snapshot(),
                "intact": bytes(
                    process.monitor.memory.read(buf, 64)) == b"A" * 64,
            })
        assert outcomes[0] == outcomes[1]
        assert outcomes[0]["hit_guard"]
        assert outcomes[0]["access"] == "write"
        assert outcomes[0]["intact"]


# ---------------------------------------------------------------------------
# sendfile: zero-copy send semantics
# ---------------------------------------------------------------------------

class TestSendfile:
    def test_counts_match_syscall_out_bytes(self):
        """sendfile outputs the byte *count* a copying send would have
        produced, for the same cycle charge in the same category."""
        data = b"zero-copy-response-body!"
        copying = BlockBuilder()
        copying.write(0, 0, data)
        copying.syscall_out(0, 0, len(data))
        fused = BlockBuilder()
        fused.write(0, 0, data)
        fused.sendfile(0, 0, len(data))

        process_a = make_process()
        out_a = run_in_main(
            process_a,
            lambda p: normalize(p.exec_block(copying.build(),
                                             p.malloc(BUF, site="a"))))
        process_b = make_process()
        out_b = run_in_main(
            process_b,
            lambda p: normalize(p.exec_block(fused.build(),
                                             p.malloc(BUF, site="a"))))
        assert out_a == [data]
        assert out_b == [len(data)]
        assert process_a.meter.snapshot() == process_b.meter.snapshot()

    def test_identical_instruction_count(self):
        a = BlockBuilder()
        a.syscall_out(0, 0, 64)
        b = BlockBuilder()
        b.sendfile(0, 0, 64)
        assert a.build().instructions == b.build().instructions

    def test_invalid_size_rejected(self):
        with pytest.raises(BlockError):
            BlockBuilder().sendfile(0, 0, 0)

    @pytest.mark.parametrize("path", PATHS, ids=PATH_IDS)
    def test_unreadable_range_is_a_read_fault(self, path):
        """The access check is a *read* of the full range on every
        execution path — the zero-copy send still observes the data."""
        builder = BlockBuilder()
        builder.sendfile(0, 0, 8)
        block = builder.build()
        monitor_cls, runner = path
        process = make_process(monitor_cls=monitor_cls)

        def body(p):
            buf = p.malloc(BUF, site="a")
            runner(p, block, (buf + (1 << 40),))

        with pytest.raises(SegmentationFault) as excinfo:
            run_in_main(process, body)
        assert excinfo.value.access == "read"
        assert excinfo.value.size == 8

    def test_overread_into_guard_page_blocked(self):
        """A sendfile running past a patched buffer's end hits the guard
        page: the serving engine's leak-blocking mechanism."""
        from repro.machine.layout import PAGE_SIZE

        class FixedContext(ContextSource):
            def current_ccid(self):
                return 0x31

        table = PatchTable([HeapPatch("malloc", 0x31, VulnType.OVERFLOW)])
        heap = DefendedAllocator(LibcAllocator(), table,
                                 context_source=FixedContext())
        process = make_process(heap)
        builder = BlockBuilder()
        builder.sendfile(0, 0, 2 * PAGE_SIZE)  # far past the 64 bytes
        block = builder.build()

        def body(p):
            p.exec_block(block, p.malloc(64, site="victim"))

        with pytest.raises(SegmentationFault) as excinfo:
            run_in_main(process, body)
        assert excinfo.value.access == "read"


# ---------------------------------------------------------------------------
# Page-resolved rows: spans, dead loads and the per-row fallback
# ---------------------------------------------------------------------------

#: Pages of the resolution arena, in address order: two resident
#: read-write pages, a mapped page nothing has written, a resident
#: read-only page and a PROT_NONE guard page.
RESIDENT_A, RESIDENT_B, UNTOUCHED, READ_ONLY, GUARD = range(5)
ARENA_PAGES = 5


def resolution_process():
    """A process over the resolution arena; returns it and the arena's
    base address.  Nothing is charged to the meter."""
    heap = LibcAllocator()
    process = make_process(heap)
    memory = heap.memory
    base = memory.mmap(ARENA_PAGES * PAGE_SIZE)
    for page in (RESIDENT_A, RESIDENT_B, READ_ONLY):
        memory.write(base + page * PAGE_SIZE,
                     bytes((i * 7 + page) % 251 + 1
                           for i in range(PAGE_SIZE)))
    memory.mprotect(base + READ_ONLY * PAGE_SIZE, PAGE_SIZE, PROT_READ)
    memory.mprotect(base + GUARD * PAGE_SIZE, PAGE_SIZE, PROT_NONE)
    return process, base


def observe_resolution(runner, block, placements):
    """Run ``block`` over rows placed in the resolution arena (each
    argument a ``(page, offset)``); return every observable."""
    process, base = resolution_process()
    memory = process.monitor.memory
    rows = [tuple(base + page * PAGE_SIZE + offset
                  for page, offset in row) + (EXTRA_ARG,)
            for row in placements]
    state = {"outputs": None, "fault": None}
    try:
        state["outputs"] = [normalize(out)
                            for out in runner(process, block, rows)]
    except SegmentationFault as fault:
        state["fault"] = (fault.address - base, fault.access, fault.size)
    state.update(
        memory=memory.peek(base, (ARENA_PAGES + 1) * PAGE_SIZE),
        meter=process.meter.snapshot(),
        fault_count=memory.fault_count,
        resident_pages=memory.resident_pages,
        peak_resident_pages=memory.peak_resident_pages)
    return state


#: Offsets in a page: near its start, where a block's span can run
#: into the next page, or anywhere.
_page_offset = st.one_of(st.integers(0, 64),
                         st.integers(PAGE_SIZE - BUF - 32, PAGE_SIZE - 1),
                         st.integers(0, PAGE_SIZE - 1))
_placement = st.tuples(st.integers(0, ARENA_PAGES - 1), _page_offset)
_placement_rows = st.lists(st.tuples(_placement, _placement),
                           min_size=1, max_size=4)


def _counted(name):
    original = getattr(VirtualMemory, name)

    def method(self, *args):
        self.calls[name] += 1
        return original(self, *args)
    method.__name__ = name
    return method


#: A ``VirtualMemory`` that counts its per-op access calls and its
#: resolution probes in ``calls``.
CountingMemory = type("CountingMemory", (VirtualMemory,), {
    "__slots__": ("calls",),
    **{name: _counted(name)
       for name in ("read", "write", "read_word", "write_word",
                    "read_word_pair", "write_word_pair", "fill",
                    "check_read", "resolve")}})


class TestPageResolution:
    @settings(deadline=None)
    @given(block_descriptors(), _placement_rows)
    @example(descriptors=[("write", 0, 0, b"0123456789abcdef")],
             placements=[((RESIDENT_A, 0), (RESIDENT_B, 0)),
                         ((RESIDENT_A, PAGE_SIZE - 8), (RESIDENT_B, 0))])
    @example(descriptors=[("read", 0, 8, 8), ("branch_on", 0)],
             placements=[((UNTOUCHED, 16), (RESIDENT_A, 0)),
                         ((RESIDENT_A, 16), (RESIDENT_A, 0))])
    @example(descriptors=[("fill", 1, 0, 32, 9), ("read", 0, 0, 12)],
             placements=[((UNTOUCHED, 16), (UNTOUCHED, 64)),
                         ((UNTOUCHED, 16), (UNTOUCHED, 64))])
    @example(descriptors=[("read", 0, 0, 4), ("write", 0, 8, b"ro")],
             placements=[((READ_ONLY, 32), (RESIDENT_A, 0)),
                         ((RESIDENT_B, 0), (RESIDENT_A, 0))])
    @example(descriptors=[("write", 1, 0, b"first"), ("read", 0, 0, 8)],
             placements=[((RESIDENT_A, 0), (RESIDENT_B, 0)),
                         ((GUARD, 0), (RESIDENT_B, 64))])
    @example(descriptors=[("write", 0, 40, b"aliased!"),  # read back
                          ("read", 1, 8, 8), ("branch_on", 0),
                          ("copy", 1, 64, 0, 40, 8)],
             placements=[((RESIDENT_A, 0), (RESIDENT_A, 32)),
                         ((RESIDENT_B, 96), (RESIDENT_B, 96))])
    def test_resolved_run_matches_interpret(self, descriptors, placements):
        """Row bases that straddle pages, land on untouched, read-only
        or guard pages, or alias one page: a fused run leaves what
        interpreting each row leaves."""
        block = build_block(descriptors)
        reference = observe_resolution(interpret_rows, block, placements)
        assert observe_resolution(exec_block_run, block,
                                  placements) == reference

    def test_spans_and_dead_loads(self):
        builder = BlockBuilder()
        builder.read(0, 256, 128)              # dead
        live = builder.read(0, 8, 8)
        builder.write_value(1, 0, live)
        builder.copy(1, 16, 2, 4, 8)
        builder.sendfile(2, 0, 1 << 16)        # stays on check_read
        builder.compute(3)
        block = builder.build()
        assert block.spans == ((0, 8, 376, PROT_READ),
                               (1, 0, 24, PROT_WRITE),
                               (2, 4, 8, PROT_READ))
        assert [i for i, _ in block.resolved_ops] == [1, 2, 3, 4]
        assert [i for i, _ in block.run_ops] == [0, 1, 2, 3, 4]
        builder = BlockBuilder()
        builder.fill(0, 0, 8, 0)
        builder.read(0, 0, 8)
        assert builder.build().spans == ((0, 0, 8, PROT_RW),)

    def test_dead_load_on_guard_page_still_faults(self):
        """A load nothing reads is dropped from resolved rows, but its
        permission check is not: a row whose only access to an
        argument is such a load on a guard page falls back and faults
        at that op, with the per-op cycle prefix."""
        builder = BlockBuilder()
        builder.write(0, 0, b"landed")
        builder.compute(9)
        builder.read(1, 0, 8)               # nothing reads the slot
        builder.write(0, 64, b"never")
        block = builder.build()
        assert [i for i, _ in block.resolved_ops] == [0, 3]
        placements = [((RESIDENT_A, 0), (RESIDENT_B, 0)),
                      ((RESIDENT_A, 128), (GUARD, 0))]
        reference = observe_resolution(interpret_rows, block, placements)
        fused = observe_resolution(exec_block_run, block, placements)
        assert fused == reference
        assert fused["fault"] == (GUARD * PAGE_SIZE, "read", 8)
        assert fused["meter"] == {"base": block.base_cycles
                                  + block.cum_cycles[2]}
        assert fused["fault_count"] == 1
        row = RESIDENT_A * PAGE_SIZE + 128
        assert fused["memory"][row:row + 6] == b"landed"
        assert fused["memory"][row + 64:row + 69] != b"never"

    @staticmethod
    def _pool_process():
        """A process over a :class:`CountingMemory`, with eight mysql
        pool pages initialized (so resident) and one fresh page."""
        memory = CountingMemory()
        memory.calls = Counter()
        heap = LibcAllocator(memory)
        process = make_process(heap)
        pool = [heap.malloc(POOL_PAGE_SIZE) for _ in range(8)]
        fresh = heap.malloc(POOL_PAGE_SIZE)
        process.exec_block_run(PAGE_INIT_BLOCK, [(page,) for page in pool])
        memory.calls.clear()
        return process, memory, pool, fresh

    def test_resident_query_rows_make_no_per_op_memory_calls(self):
        """mysql's point query over resident pool pages runs entirely
        on resolved frames: a row that fell back would call
        ``read``/``write_word_pair`` and fail this test."""
        process, memory, pool, fresh = self._pool_process()
        meter = process.meter.category("base")
        rows = [(pool[i * 5 % 8],) for i in range(64)]
        outputs = process.exec_block_run(QUERY_BLOCK, rows)
        assert outputs == [[] for _ in rows]
        assert memory.calls.keys() <= {"resolve"}
        assert (process.meter.category("base") - meter
                == 64 * QUERY_BLOCK.base_cycles)
        for page in pool:
            assert memory.peek(page + 64, 16) == b"\x01" * 16

        # The counter does see a fallback row: a page nothing wrote.
        memory.calls.clear()
        process.exec_block_run(QUERY_BLOCK,
                               [(fresh + PAGE_SIZE,), (pool[0],)])
        assert memory.calls == Counter(resolve=2, read=1,
                                       write_word_pair=1)

    def test_lone_row_probes_only_when_that_saves_calls(self):
        """A one-row run resolves when its block accesses an argument
        more than once (the query's dead load and store: one probe for
        two checked calls), and otherwise takes the checked path."""
        process, memory, pool, _ = self._pool_process()
        process.exec_block(QUERY_BLOCK, pool[3])
        assert memory.calls == Counter(resolve=1)
        builder = BlockBuilder()
        builder.write(0, 0, b"once")
        memory.calls.clear()
        process.exec_block(builder.build(), pool[3])
        assert memory.calls == Counter(write=1)

    def test_each_run_probes_its_pages_afresh(self):
        """A page resolved in one run is not trusted by the next: a
        protection revoked between runs faults at the store."""
        builder = BlockBuilder()
        builder.write(0, 0, b"run")
        block = builder.build()
        process, base = resolution_process()
        page = base + RESIDENT_A * PAGE_SIZE
        process.exec_block_run(block, [(page,), (page + 64,)])
        process.monitor.memory.mprotect(page, PAGE_SIZE, PROT_READ)
        with pytest.raises(SegmentationFault) as excinfo:
            process.exec_block_run(block, [(page + 128,), (page,)])
        assert excinfo.value.address == page + 128
        assert process.monitor.memory.peek(page + 64, 3) == b"run"


# ---------------------------------------------------------------------------
# Operand checks: only plain ints reach the generated source
# ---------------------------------------------------------------------------

#: Per emitter: a valid call (slot 0 is a word load made beforehand)
#: and the positions of its integer operands.
EMITTERS = (
    ("compute", (5,), (0,)),
    ("read", (0, 0, 8), (0, 1, 2)),
    ("read_int", (0, 0, 4), (0, 1, 2)),
    ("write", (0, 0, b"data"), (0, 1)),
    ("write_int", (0, 0, 7), (0, 1)),
    ("write_arg", (0, 0, 1), (0, 1, 2)),
    ("write_value", (0, 0, 0), (0, 1, 2)),
    ("fill", (0, 0, 8, 1), (0, 1, 2, 3)),
    ("copy", (0, 0, 1, 0, 8), (0, 1, 2, 3, 4)),
    ("branch_on", (0,), (0,)),
    ("use_as_address", (0,), (0,)),
    ("syscall_out", (0, 0, 8), (0, 1, 2)),
    ("sendfile", (0, 0, 8), (0, 1, 2)),
    ("syscall_in", (0, 0, b"data"), (0, 1)),
)


def _slotted_builder():
    builder = BlockBuilder()
    builder.read(0, 0, 8)
    return builder


class TestOperandChecks:
    @pytest.mark.parametrize("name,args,positions", EMITTERS,
                             ids=[e[0] for e in EMITTERS])
    def test_non_int_operands_rejected(self, name, args, positions):
        """A bool, float, string or ``None`` in any integer operand is a
        ``BlockError`` at the emitter, never a later failure."""
        getattr(_slotted_builder(), name)(*args)
        for position in positions:
            for bad in (True, False, 1.0, "1", None):
                call = list(args)
                call[position] = bad
                with pytest.raises(BlockError):
                    getattr(_slotted_builder(), name)(*call)

    @pytest.mark.parametrize("byte", [-1, 256, 300])
    def test_fill_byte_out_of_range_rejected(self, byte):
        with pytest.raises(BlockError):
            BlockBuilder().fill(0, 0, 4, byte)


# ---------------------------------------------------------------------------
# The generated executor
# ---------------------------------------------------------------------------

def _stores(data, byte):
    """One block shape: a 5-byte, an 8-byte and a 16-byte store and a
    fill, all of their values constants."""
    builder = BlockBuilder()
    builder.write(0, 0, data[:5])
    builder.write(0, 8, data[:8])
    builder.write(0, 16, data[:16])
    builder.fill(0, 32, 8, byte)
    return builder.build()


def bundled_blocks():
    """Every block the bundled services build: each nginx path's
    request plan (the missing path's and the leak path's included) and
    stage set-up blocks, and mysql's query and page-init blocks."""
    server = NginxServer()
    found = [QUERY_BLOCK, PAGE_INIT_BLOCK]
    for path in sorted(DOCUMENT_TREE) + [MISSING_PATH]:
        plan = server._plan(path)
        found += [plan.fill, plan.cached, plan.lead]
        found += [stage.setup for stage in plan.stages
                  if stage.setup is not None]
    return found


class TestGeneratedExecutor:
    def test_same_shape_shares_code_not_constants(self):
        """Two blocks that differ only in what they store share one
        code object; each writes its own bytes and fill byte, on
        resolved rows and on rows that fall back."""
        first = _stores(bytes(range(1, 17)), 0xAA)
        second = _stores(bytes(range(101, 117)), 0x55)
        assert executor_source(first)[0] == executor_source(second)[0]
        placements = [((RESIDENT_A, 0),), ((RESIDENT_A, 128),),
                      ((UNTOUCHED, 0),)]
        for block, data, byte in ((first, bytes(range(1, 17)), 0xAA),
                                  (second, bytes(range(101, 117)), 0x55)):
            fused = observe_resolution(exec_block_run, block, placements)
            assert fused == observe_resolution(interpret_rows, block,
                                               placements)
            for page, offset in (row[0] for row in placements):
                memory = fused["memory"][page * PAGE_SIZE + offset:]
                assert memory[:5] == data[:5]
                assert memory[8:16] == data[:8]
                assert memory[16:32] == data[:16]
                assert memory[32:40] == bytes((byte,)) * 8
        assert first.fused is not second.fused
        assert first.fused.__code__ is second.fused.__code__

    @pytest.mark.parametrize("block", bundled_blocks())
    def test_bundled_sources_parse_as_python_3_9(self, block):
        """The generated source needs nothing newer than the oldest
        supported Python, and compiles without a warning."""
        source, _ = executor_source(block)
        ast.parse(source, feature_version=(3, 9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(source, "<basic block>", "exec")

    def test_code_cache_stays_bounded(self):
        """Compiling more distinct shapes than the cache holds evicts
        the oldest factories; blocks keep their own executors."""
        shapes = []
        for offset in range(blocks.FACTORY_LIMIT + 8):
            builder = BlockBuilder()
            builder.fill(0, offset, 8, 0x11)
            shapes.append(builder.build())
        for block in shapes:
            block.fuse()
            assert len(blocks._FACTORIES) <= blocks.FACTORY_LIMIT
        assert executor_source(shapes[0])[0] not in blocks._FACTORIES
        assert executor_source(shapes[-1])[0] in blocks._FACTORIES
        for block in (shapes[0], shapes[-1]):
            state = observe_resolution(exec_block_run, block,
                                       [((RESIDENT_A, 0),)] * 2)
            assert state == observe_resolution(interpret_rows, block,
                                               [((RESIDENT_A, 0),)] * 2)
