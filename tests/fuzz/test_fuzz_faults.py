"""Substrate fault injection: typed errors, graceful degradation."""

import pytest

from repro.allocator.libc import MMAP_THRESHOLD, LibcAllocator
from repro.defense.interpose import DefendedAllocator
from repro.defense.patch_table import PatchTable
from repro.fuzz.faults import (
    FAULT_OPS,
    FaultBudgetExceeded,
    FaultInjector,
    exhaust_after,
    fault_plans,
)
from repro.machine.errors import (
    MachineError,
    MapError,
    OutOfMemoryError,
)
from repro.machine.layout import PAGE_SIZE
from repro.machine.memory import PROT_NONE, PROT_RW, VirtualMemory
from repro.patch.model import HeapPatch
from repro.vulntypes import VulnType


class TestFaultInjector:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown fault op"):
            FaultInjector({"brk": 1})

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="negative budget"):
            FaultInjector({"sbrk": -1})

    def test_budget_counts_successes_then_faults(self):
        injector = exhaust_after("sbrk", 2)
        injector.charge("sbrk")
        injector.charge("sbrk")
        with pytest.raises(OutOfMemoryError, match="injected"):
            injector.charge("sbrk")
        assert injector.passed["sbrk"] == 2
        assert injector.injected["sbrk"] == 1

    @pytest.mark.parametrize("op,error", [
        ("sbrk", OutOfMemoryError),
        ("mmap", OutOfMemoryError),
        ("mprotect", MapError),
    ])
    def test_each_op_raises_its_production_error_type(self, op, error):
        injector = exhaust_after(op, 0)
        with pytest.raises(error):
            injector.charge(op)
        assert issubclass(error, MachineError)

    def test_unbudgeted_ops_never_fail(self):
        injector = exhaust_after("sbrk", 0)
        for _ in range(100):
            injector.charge("mmap")
            injector.charge("mprotect")
        assert injector.total_injected == 0

    def test_disarm_passes_everything_through(self):
        injector = exhaust_after("mmap", 0)
        injector.disarm()
        injector.charge("mmap")
        injector.arm()
        with pytest.raises(OutOfMemoryError):
            injector.charge("mmap")

    def test_retry_loop_trips_the_budget_cap(self):
        injector = exhaust_after("sbrk", 0, max_injections=3)
        for _ in range(3):
            with pytest.raises(OutOfMemoryError):
                injector.charge("sbrk")
        with pytest.raises(FaultBudgetExceeded, match="retrying"):
            injector.charge("sbrk")

    def test_fault_plans_cover_the_grid(self):
        plans = list(fault_plans())
        assert len(plans) == len(FAULT_OPS) * 5
        for plan in plans:
            assert isinstance(plan, FaultInjector)


class TestVirtualMemoryWiring:
    def test_mmap_fault_leaves_the_map_untouched(self):
        memory = VirtualMemory()
        base = memory.mmap(PAGE_SIZE)
        memory.fault_injector = exhaust_after("mmap", 0)
        before = memory.mapped_bytes
        with pytest.raises(OutOfMemoryError, match="injected"):
            memory.mmap(PAGE_SIZE)
        assert memory.mapped_bytes == before
        memory.write_word(base, 7)  # existing mapping still usable
        assert memory.read_word(base) == 7

    def test_mprotect_fault_preserves_protections(self):
        memory = VirtualMemory()
        base = memory.mmap(PAGE_SIZE, prot=PROT_RW)
        memory.fault_injector = exhaust_after("mprotect", 0)
        with pytest.raises(MapError, match="injected"):
            memory.mprotect(base, PAGE_SIZE, PROT_NONE)
        memory.write_word(base, 1)  # still writable: fault was pre-op

    def test_sbrk_fault_then_recovery(self):
        memory = VirtualMemory()
        injector = exhaust_after("sbrk", 0)
        memory.fault_injector = injector
        with pytest.raises(OutOfMemoryError, match="injected"):
            memory.sbrk(PAGE_SIZE)
        injector.disarm()
        assert memory.sbrk(PAGE_SIZE) >= 0

    def test_shrinking_sbrk_is_never_charged(self):
        memory = VirtualMemory()
        memory.sbrk(4 * PAGE_SIZE)
        memory.fault_injector = exhaust_after("sbrk", 0)
        memory.sbrk(-PAGE_SIZE)  # releases memory; must not fault
        memory.sbrk(0)  # probe; must not fault


class TestAllocatorDegradation:
    def test_heap_exhaustion_is_typed_and_consistent(self):
        allocator = LibcAllocator()
        allocator.malloc(64)  # prime the heap
        injector = exhaust_after("sbrk", 0)
        allocator.memory.fault_injector = injector
        seen_oom = False
        kept = []
        for _ in range(10_000):
            try:
                kept.append(allocator.malloc(1024))
            except OutOfMemoryError:
                seen_oom = True
                break
        assert seen_oom, "sbrk exhaustion never surfaced"
        allocator.check_consistency()
        for ptr in kept:  # frees must still work after the OOM
            allocator.free(ptr)
        allocator.check_consistency()

    def test_mmap_exhaustion_for_large_requests(self):
        allocator = LibcAllocator()
        allocator.memory.fault_injector = exhaust_after("mmap", 0)
        with pytest.raises(OutOfMemoryError, match="injected"):
            allocator.malloc(MMAP_THRESHOLD)
        allocator.check_consistency()

    def test_guard_install_fault_degrades_gracefully(self):
        underlying = LibcAllocator()
        table = PatchTable([HeapPatch("malloc", 0, VulnType.OVERFLOW)])
        defended = DefendedAllocator(underlying, table)
        injector = exhaust_after("mprotect", 0)
        underlying.memory.fault_injector = injector
        with pytest.raises(MapError, match="injected"):
            defended.malloc(64)
        underlying.check_consistency()
        injector.disarm()
        ptr = defended.malloc(64)  # recovers once mprotect works again
        defended.free(ptr)
        underlying.check_consistency()

    @pytest.mark.parametrize("allocate", [
        lambda defended: defended.malloc(64),            # Structure 2
        lambda defended: defended.malloc_run([64] * 3),  # a run of them
        lambda defended: defended.calloc(4, 16),         # zero-filled
        lambda defended: defended.memalign(64, 64),      # Structure 4
    ], ids=["malloc", "malloc_run", "calloc", "memalign"])
    def test_failed_guard_seal_releases_the_chunk(self, allocate):
        underlying = LibcAllocator()
        table = PatchTable([HeapPatch(fun, 0, VulnType.OVERFLOW)
                            for fun in ("malloc", "calloc", "memalign")])
        defended = DefendedAllocator(underlying, table)
        underlying.memory.fault_injector = exhaust_after("mprotect", 0)
        for _ in range(3):  # each retry used to leak one more chunk
            with pytest.raises(MapError, match="injected"):
                allocate(defended)
        assert underlying.live_buffer_count == 0
        assert defended.stats.live_buffers == 0
        assert defended.enhanced_counts[VulnType.OVERFLOW] == 0
        underlying.check_consistency()

    def test_quarantine_pressure_stays_consistent(self):
        underlying = LibcAllocator()
        table = PatchTable(
            [HeapPatch("malloc", 0, VulnType.USE_AFTER_FREE)])
        defended = DefendedAllocator(underlying, table,
                                     quarantine_quota=256)
        for _ in range(50):  # every free is quarantined; tiny quota
            ptr = defended.malloc(96)
            defended.free(ptr)
        underlying.check_consistency()
