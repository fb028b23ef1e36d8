"""DirectMonitor: the pass-through execution monitor."""

import pytest

from repro.allocator.libc import MMAP_THRESHOLD, LibcAllocator
from repro.allocator.segregated import SegregatedAllocator
from repro.fuzz.faults import FaultInjector
from repro.machine.errors import (
    InvalidFree,
    OutOfMemoryError,
    SegmentationFault,
)
from repro.machine.memory import VirtualMemory
from repro.program.cost import CycleMeter
from repro.program.monitor import DirectMonitor
from repro.program.values import TaggedValue


@pytest.fixture
def setup():
    allocator = LibcAllocator()
    meter = CycleMeter()
    monitor = DirectMonitor(allocator.memory, allocator, meter)
    return allocator, meter, monitor


def test_heap_alloc_dispatches_by_name(setup):
    allocator, _, monitor = setup
    a = monitor.heap_alloc("malloc", 64)
    b = monitor.heap_alloc("calloc", 2, 32)
    c = monitor.heap_alloc("memalign", 64, 100)
    assert c % 64 == 0
    monitor.heap_alloc("realloc", a, 128)
    assert allocator.stats.malloc_calls == 1
    assert allocator.stats.calloc_calls == 1
    assert allocator.stats.memalign_calls == 1
    assert allocator.stats.realloc_calls == 1


def test_heap_free(setup):
    allocator, _, monitor = setup
    address = monitor.heap_alloc("malloc", 64)
    monitor.heap_free(address)
    assert allocator.live_buffer_count == 0


def test_read_returns_fully_valid_value(setup):
    _, _, monitor = setup
    address = monitor.heap_alloc("malloc", 16)
    monitor.write(address, TaggedValue.of_bytes(b"0123456789abcdef"))
    value = monitor.read(address, 16)
    assert value.data == b"0123456789abcdef"
    assert value.valid_mask is None  # native mode tracks no validity


def test_copy_and_fill(setup):
    _, _, monitor = setup
    address = monitor.heap_alloc("malloc", 32)
    monitor.fill(address, 16, 0xAA)
    monitor.copy(address + 16, address, 16)
    assert monitor.read(address + 16, 16).data == b"\xaa" * 16


def test_syscalls(setup):
    _, _, monitor = setup
    address = monitor.heap_alloc("malloc", 16)
    monitor.syscall_in(address, b"net-data")
    assert monitor.syscall_out(address, 8) == b"net-data"


def test_faults_propagate(setup):
    _, _, monitor = setup
    with pytest.raises(SegmentationFault):
        monitor.read(0x10, 8)


def test_costs_charged_to_base(setup):
    _, meter, monitor = setup
    address = monitor.heap_alloc("malloc", 1024)
    monitor.fill(address, 1024, 0)
    monitor.read(address, 1024)
    monitor.use(TaggedValue.of_int(1), "branch")
    snapshot = meter.snapshot()
    assert set(snapshot) == {"base"}
    assert snapshot["base"] > meter.model.heap_op


def test_use_never_raises_in_native_mode(setup):
    _, _, monitor = setup
    # Even a value flagged invalid is not checked natively.
    value = TaggedValue(b"\x00", valid_mask=b"\x00", origin=3)
    monitor.use(value, "branch")


# -- runs that fail partway ------------------------------------------------

#: kind -> (allocator class, a request size that maps its own pages).
ALLOCATORS = {"libc": (LibcAllocator, MMAP_THRESHOLD),
              "segregated": (SegregatedAllocator, 8192)}


def _monitor(kind, budgets=None):
    cls, _ = ALLOCATORS[kind]
    memory = VirtualMemory(fault_injector=(FaultInjector(budgets)
                                           if budgets else None))
    allocator = cls(memory)
    return allocator, DirectMonitor(memory, allocator, CycleMeter())


def _raised(call, *args):
    """What ``call(*args)`` raised, or None."""
    try:
        call(*args)
    except Exception as error:
        return error
    return None


def _observed(allocator, monitor, error):
    return (type(error), str(error), monitor.meter.snapshot(),
            allocator.stats.snapshot(), allocator.live_buffer_count)


class TestFailedRunCharges:
    """A heap run that raises charges ``base`` for the entries the
    per-call loop reaches, the failing one included, and no more."""

    @pytest.mark.parametrize("kind", sorted(ALLOCATORS))
    def test_malloc_run_out_of_maps(self, kind):
        size = ALLOCATORS[kind][1]
        sizes = [size] * 4
        (run_heap, run), (loop_heap, loop) = (
            _monitor(kind, {"mmap": 2}) for _ in range(2))
        error = _raised(run.heap_alloc_run, "malloc", sizes)
        want = _raised(lambda: [loop.heap_alloc("malloc", s) for s in sizes])
        assert isinstance(want, OutOfMemoryError)
        assert loop_heap.live_buffer_count == 2
        assert (_observed(run_heap, run, error)
                == _observed(loop_heap, loop, want))
        assert run.meter.category("base") == 3 * run.meter.model.heap_op

    @pytest.mark.parametrize("kind", sorted(ALLOCATORS))
    def test_malloc_run_negative_size(self, kind):
        sizes = [64, 64, -1, 64]
        (run_heap, run), (loop_heap, loop) = (_monitor(kind)
                                              for _ in range(2))
        error = _raised(run.heap_alloc_run, "malloc", sizes)
        want = _raised(lambda: [loop.heap_alloc("malloc", s) for s in sizes])
        assert want is not None
        assert (_observed(run_heap, run, error)
                == _observed(loop_heap, loop, want))

    @pytest.mark.parametrize("kind", sorted(ALLOCATORS))
    @pytest.mark.parametrize("shape", ["bad", "null-then-bad", "twice"])
    def test_free_run_stops_at_bad_pointer(self, kind, shape):
        size = ALLOCATORS[kind][1]
        twins = []
        for _ in range(2):
            allocator, monitor = _monitor(kind)
            a0, a1, a2 = monitor.heap_alloc_run("malloc", [size] * 3)
            run = {"bad": [a0, a1, 12345678, a2],
                   "null-then-bad": [0, a0, 0, 12345678, a1],
                   "twice": [a0, a1, a0, a2]}[shape]
            twins.append((allocator, monitor, run))
        (run_heap, run, addresses), (loop_heap, loop, _) = twins
        error = _raised(run.heap_free_run, addresses)
        want = _raised(lambda: [loop.heap_free(a) for a in addresses])
        assert isinstance(want, InvalidFree)
        assert (_observed(run_heap, run, error)
                == _observed(loop_heap, loop, want))

    @pytest.mark.parametrize("kind", sorted(ALLOCATORS))
    def test_whole_runs_charge_every_entry(self, kind):
        allocator, monitor = _monitor(kind)
        addresses = monitor.heap_alloc_run("malloc", [64] * 5)
        monitor.heap_free_run(addresses + [0])
        assert monitor.meter.snapshot() == {
            "base": 11 * monitor.meter.model.heap_op}
        assert allocator.live_buffer_count == 0
