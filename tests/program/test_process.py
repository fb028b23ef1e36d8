"""Process execution: call protocol, contexts, heap dispatch, profiling."""

import pytest

from repro.allocator.libc import LibcAllocator
from repro.allocator.segregated import SegregatedAllocator
from repro.ccencoding import Strategy
from repro.core.instrument import instrument
from repro.fuzz.faults import FaultInjector
from repro.machine.errors import OutOfMemoryError
from repro.machine.memory import VirtualMemory
from repro.program.callgraph import CallGraph, CallGraphError
from repro.program.cost import CycleMeter
from repro.program.process import Process, ProcessError
from repro.program.program import Program
from repro.program.values import TaggedValue


class TwoPathProgram(Program):
    """main -> {left, right} -> malloc; writes/reads through buffers."""

    name = "two-path"

    def build_graph(self):
        graph = CallGraph()
        graph.add_call_site("main", "left")
        graph.add_call_site("main", "right")
        graph.add_call_site("left", "malloc")
        graph.add_call_site("right", "malloc")
        graph.add_call_site("main", "free")
        return graph

    def main(self, p, use_right=True):
        a = p.call("left", self._leaf)
        b = p.call("right", self._leaf) if use_right else 0
        p.write(a, b"hello")
        assert p.read(a, 5).data == b"hello"
        p.free(a)
        if b:
            p.free(b)
        return "done"

    def _leaf(self, p):
        return p.malloc(64)


@pytest.fixture
def program():
    return TwoPathProgram()


@pytest.fixture
def process(program):
    return Process(program.graph, heap=LibcAllocator())


class TestCallProtocol:
    def test_run_returns_program_result(self, program, process):
        assert process.run(program) == "done"

    def test_stack_unwinds_after_run(self, program, process):
        process.run(program)
        assert process.depth == 0

    def test_current_function_tracks_stack(self, program):
        observed = []

        class Probe(Program):
            name = "probe"

            def build_graph(self):
                graph = CallGraph()
                graph.add_call_site("main", "inner")
                return graph

            def main(self, p):
                observed.append(p.current_function)
                p.call("inner", lambda p2: observed.append(
                    p2.current_function))
                observed.append(p.current_function)

        probe = Probe()
        Process(probe.graph, heap=LibcAllocator()).run(probe)
        assert observed == ["main", "inner", "main"]

    def test_undeclared_call_rejected(self):
        class Rogue(Program):
            name = "rogue"

            def build_graph(self):
                return CallGraph()

            def main(self, p):
                p.call("ghost", lambda p2: None)

        rogue = Rogue()
        with pytest.raises(CallGraphError):
            Process(rogue.graph, heap=LibcAllocator()).run(rogue)

    def test_no_frame_outside_run(self, process):
        with pytest.raises(ProcessError):
            _ = process.current_function

    @pytest.mark.parametrize("operation", [
        lambda p: p.call("left", lambda p: None),
        lambda p: p.malloc(64),
        lambda p: p.calloc(2, 8),
        lambda p: p.malloc_run([16, 16]),
        lambda p: p.realloc(0, 32),
    ], ids=["call", "malloc", "calloc", "malloc_run", "realloc"])
    def test_call_protocol_outside_run_is_a_process_error(self, process,
                                                          operation):
        # Not an IndexError from the empty frame stack.
        with pytest.raises(ProcessError, match="no active frame"):
            operation(process)
        assert process.depth == 0

    def test_nested_run_rejected(self, program, process):
        class Nester(Program):
            name = "nester"

            def build_graph(self):
                return CallGraph()

            def main(self, p):
                p.run(self)

        nester = Nester()
        proc = Process(nester.graph, heap=LibcAllocator())
        with pytest.raises(ProcessError):
            proc.run(nester)

    def test_needs_monitor_or_heap(self, program):
        with pytest.raises(ProcessError):
            Process(program.graph)


class TestAllocationTracking:
    def test_events_record_context_and_fun(self, program, process):
        process.run(program)
        events = process.allocations
        assert len(events) == 2
        assert all(event.fun == "malloc" for event in events)
        left_site = program.graph.site("main", "left").site_id
        right_site = program.graph.site("main", "right").site_id
        assert events[0].context[0] == left_site
        assert events[1].context[0] == right_site
        # The final element is the allocation call site itself.
        assert program.graph.site_by_id(events[0].context[-1]).callee \
            == "malloc"

    def test_alloc_profile_counts(self, program, process):
        process.run(program)
        assert sum(process.alloc_profile.values()) == 2

    def test_event_serial_is_its_log_index(self, program, process):
        process.run(program)
        process.run(program)
        assert [event.serial for event in process.allocations] \
            == list(range(4))

    def test_context_capture_is_not_an_option(self, program):
        # Every recorded event carries its context; there is no knob.
        with pytest.raises(TypeError):
            Process(program.graph, heap=LibcAllocator(),
                    capture_context=False)

    def test_record_allocations_off(self, program):
        process = Process(program.graph, heap=LibcAllocator(),
                          record_allocations=False)
        process.run(program)
        assert process.allocations == []
        assert sum(process.alloc_profile.values()) == 2  # profile stays


class TestMemoryApi:
    def test_write_accepts_bytes_and_tagged(self, program, process):
        class Mem(Program):
            name = "mem"

            def build_graph(self):
                graph = CallGraph()
                graph.add_call_site("main", "malloc")
                return graph

            def main(self, p):
                buf = p.malloc(32)
                p.write(buf, b"raw")
                p.write(buf + 3, TaggedValue.of_bytes(b"tag"))
                p.write_int(buf + 8, 0xABCD, size=4)
                value = p.read_int(buf + 8, size=4)
                assert p.branch_on(value) == 0xABCD
                p.copy(buf + 16, buf, 6)
                assert p.read(buf + 16, 6).data == b"rawtag"
                p.fill(buf, 4, 0)
                assert p.read(buf, 4).data == bytes(4)
                return True

        mem = Mem()
        assert Process(mem.graph, heap=LibcAllocator()).run(mem)

    def test_syscalls_move_data(self):
        class Sys(Program):
            name = "sys"

            def build_graph(self):
                graph = CallGraph()
                graph.add_call_site("main", "malloc")
                return graph

            def main(self, p):
                buf = p.malloc(16)
                p.syscall_in(buf, b"from-network")
                return p.syscall_out(buf, 12)

        sys_prog = Sys()
        result = Process(sys_prog.graph, heap=LibcAllocator()).run(sys_prog)
        assert result == b"from-network"

    def test_compute_charges_base(self, program, process):
        before = process.meter.category("base")
        process.meter.charge("base", 0)

        class Burn(Program):
            name = "burn"

            def build_graph(self):
                return CallGraph()

            def main(self, p):
                p.compute(12345)

        burn = Burn()
        proc = Process(burn.graph, heap=LibcAllocator())
        proc.run(burn)
        assert proc.meter.category("base") == 12345


class TestReallocSemantics:
    def test_realloc_retags_context(self):
        class Re(Program):
            name = "re"

            def build_graph(self):
                graph = CallGraph()
                graph.add_call_site("main", "malloc")
                graph.add_call_site("main", "grow")
                graph.add_call_site("grow", "realloc")
                return graph

            def main(self, p):
                buf = p.malloc(16)
                return p.call("grow", lambda p2: p2.realloc(buf, 64))

        re_prog = Re()
        process = Process(re_prog.graph, heap=LibcAllocator())
        new_address = process.run(re_prog)
        events = process.allocations
        assert events[-1].fun == "realloc"
        assert events[-1].address == new_address
        grow_site = re_prog.graph.site("main", "grow").site_id
        assert events[-1].context[0] == grow_site


class BufferProgram(Program):
    """main -> worker -> malloc "buf": the worker allocates its sizes
    as one run or one call at a time."""

    name = "buffers"

    def build_graph(self):
        graph = CallGraph()
        graph.add_call_site("main", "worker")
        graph.add_call_site("worker", "malloc", "buf")
        return graph

    def main(self, p, sizes, batched):
        return p.call("worker", self._worker, sizes, batched)

    def _worker(self, p, sizes, batched):
        if batched:
            return p.malloc_run(sizes, site="buf")
        return [p.malloc(size, site="buf") for size in sizes]


class TestFailedMallocRun:
    """A ``malloc_run`` that raises partway leaves the crossing
    counters, the encoding cycles, the profile and the log where the
    per-call loop leaves them: every entry reached, the failing one's
    crossing included, and no more.  With the log off the run itself
    reaches the heap; with it on, the run replays per call."""

    @staticmethod
    def _observe(allocator_cls, sizes, budgets, log, batched):
        program = BufferProgram()
        system = instrument(program, Strategy.TCS, "pcc")
        meter = CycleMeter()
        runtime = system.runtime(meter)
        memory = VirtualMemory(fault_injector=(FaultInjector(budgets)
                                               if budgets else None))
        heap = allocator_cls(memory)
        process = Process(program.graph, heap=heap, context_source=runtime,
                          meter=meter, record_allocations=log)
        with pytest.raises((OutOfMemoryError, ValueError)) as excinfo:
            process.run(program, sizes, batched)
        return {
            "error": (excinfo.type, str(excinfo.value)),
            "meter": meter.snapshot(),
            "crossings": (runtime.sites_crossed, runtime.updates_executed),
            "profile": dict(process.alloc_profile),
            "events": [(e.serial, e.fun, e.ccid, e.address, e.size,
                        e.context) for e in process.allocations],
            "heap": (heap.stats.snapshot(), heap.live_buffer_count),
        }

    @pytest.mark.parametrize("log", [True, False], ids=["log", "no-log"])
    @pytest.mark.parametrize("allocator_cls",
                             [LibcAllocator, SegregatedAllocator],
                             ids=["libc", "segregated"])
    @pytest.mark.parametrize("sizes, budgets", [
        ([200_000] * 4, {"mmap": 2}),
        ([64, 64, -1, 64], None),
    ], ids=["mmap-fault", "negative-size"])
    def test_run_equals_the_stopped_loop(self, allocator_cls, sizes,
                                         budgets, log):
        run = self._observe(allocator_cls, sizes, budgets, log, True)
        loop = self._observe(allocator_cls, sizes, budgets, log, False)
        assert loop["heap"][1] == 2
        assert sum(loop["profile"].values()) == 2
        assert len(loop["events"]) == (2 if log else 0)
        assert run == loop
