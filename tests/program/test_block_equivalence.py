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
   direct word-view memory traffic.

The module docstrings of ``repro.program.blocks`` and
``repro.program.monitor`` promise these are observationally identical:
same memory contents, same outputs, same cycle totals per category, and
on a fault the same first faulting address with the same cycles
consumed.  Hypothesis generates arbitrary blocks and this suite holds
all three paths to that promise, plus allocator-trace and
attack-outcome equivalence for block-using guest programs, row runs
with a faulting row, and the fused executor's fallback for blocks built
under another cost model.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocator.libc import LibcAllocator
from repro.defense.interpose import DefendedAllocator
from repro.defense.patch_table import PatchTable
from repro.machine.errors import SegmentationFault
from repro.patch.model import HeapPatch
from repro.program.blocks import BlockBuilder, BlockError
from repro.program.callgraph import CallGraph
from repro.program.context import ContextSource
from repro.program.cost import DEFAULT_COST_MODEL, CostModel, CycleMeter
from repro.program.monitor import DirectMonitor, ExecutionMonitor
from repro.program.process import Process
from repro.vulntypes import VulnType

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
