"""Virtual memory: mapping, protection, faulting, residency."""

import pytest

from repro.machine import (
    HEAP_BASE,
    MapError,
    OutOfMemoryError,
    PAGE_SIZE,
    PROT_NONE,
    PROT_READ,
    PROT_RW,
    SegmentationFault,
    VirtualMemory,
)


class TestMapping:
    def test_mmap_returns_page_aligned(self, memory):
        address = memory.mmap(100)
        assert address % PAGE_SIZE == 0
        assert memory.is_mapped(address, PAGE_SIZE)

    def test_mmap_rounds_length_to_pages(self, memory):
        address = memory.mmap(PAGE_SIZE + 1)
        assert memory.is_mapped(address, 2 * PAGE_SIZE)
        assert not memory.is_mapped(address + 2 * PAGE_SIZE)

    def test_mmap_rejects_bad_length(self, memory):
        with pytest.raises(MapError):
            memory.mmap(0)
        with pytest.raises(MapError):
            memory.mmap(-4096)

    def test_mmap_fixed_address(self, memory):
        target = 0x7000_0000_0000
        address = memory.mmap(PAGE_SIZE, address=target)
        assert address == target

    def test_mmap_fixed_rejects_overlap(self, memory):
        target = 0x7000_0000_0000
        memory.mmap(PAGE_SIZE, address=target)
        with pytest.raises(MapError):
            memory.mmap(PAGE_SIZE, address=target)

    def test_mmap_fixed_rejects_misaligned(self, memory):
        with pytest.raises(MapError):
            memory.mmap(PAGE_SIZE, address=0x7000_0000_0001)

    def test_munmap_removes_mapping(self, memory):
        address = memory.mmap(2 * PAGE_SIZE)
        memory.munmap(address, 2 * PAGE_SIZE)
        assert not memory.is_mapped(address)
        with pytest.raises(SegmentationFault):
            memory.read(address, 1)

    def test_munmap_partial(self, memory):
        address = memory.mmap(2 * PAGE_SIZE)
        memory.munmap(address, PAGE_SIZE)
        assert not memory.is_mapped(address)
        assert memory.is_mapped(address + PAGE_SIZE)

    def test_distinct_mappings_do_not_overlap(self, memory):
        first = memory.mmap(PAGE_SIZE)
        second = memory.mmap(PAGE_SIZE)
        assert abs(first - second) >= PAGE_SIZE


class TestProtection:
    def test_mprotect_none_faults_read_and_write(self, memory):
        address = memory.mmap(PAGE_SIZE)
        memory.mprotect(address, PAGE_SIZE, PROT_NONE)
        with pytest.raises(SegmentationFault):
            memory.read(address, 1)
        with pytest.raises(SegmentationFault):
            memory.write(address, b"x")

    def test_mprotect_read_only(self, memory):
        address = memory.mmap(PAGE_SIZE)
        memory.write(address, b"ro")
        memory.mprotect(address, PAGE_SIZE, PROT_READ)
        assert memory.read(address, 2) == b"ro"
        with pytest.raises(SegmentationFault):
            memory.write(address, b"y")

    def test_mprotect_restores_access(self, memory):
        address = memory.mmap(PAGE_SIZE)
        memory.mprotect(address, PAGE_SIZE, PROT_NONE)
        memory.mprotect(address, PAGE_SIZE, PROT_RW)
        memory.write(address, b"ok")
        assert memory.read(address, 2) == b"ok"

    def test_mprotect_requires_mapped_range(self, memory):
        with pytest.raises(MapError):
            memory.mprotect(0x7000_0000_0000, PAGE_SIZE, PROT_NONE)

    def test_mprotect_requires_alignment(self, memory):
        address = memory.mmap(PAGE_SIZE)
        with pytest.raises(MapError):
            memory.mprotect(address + 8, PAGE_SIZE, PROT_NONE)

    def test_mprotect_counted(self, memory):
        address = memory.mmap(PAGE_SIZE)
        before = memory.mprotect_count
        memory.mprotect(address, PAGE_SIZE, PROT_NONE)
        assert memory.mprotect_count == before + 1

    def test_fault_reports_first_bad_address(self, memory):
        address = memory.mmap(3 * PAGE_SIZE)
        memory.mprotect(address + PAGE_SIZE, PAGE_SIZE, PROT_NONE)
        with pytest.raises(SegmentationFault) as excinfo:
            memory.read(address, 3 * PAGE_SIZE)
        assert excinfo.value.address == address + PAGE_SIZE
        assert excinfo.value.access == "read"

    def test_fault_count_increments(self, memory):
        before = memory.fault_count
        with pytest.raises(SegmentationFault):
            memory.read(0x1234_5678_9000, 1)
        assert memory.fault_count == before + 1

    def test_is_accessible(self, memory):
        address = memory.mmap(PAGE_SIZE)
        assert memory.is_accessible(address, 8, write=True)
        memory.mprotect(address, PAGE_SIZE, PROT_READ)
        assert memory.is_accessible(address, 8)
        assert not memory.is_accessible(address, 8, write=True)


class TestDataAccess:
    def test_write_read_roundtrip(self, memory):
        address = memory.mmap(PAGE_SIZE)
        memory.write(address + 10, b"hello")
        assert memory.read(address + 10, 5) == b"hello"

    def test_read_of_untouched_page_is_zero(self, memory):
        address = memory.mmap(PAGE_SIZE)
        assert memory.read(address, 16) == bytes(16)

    def test_cross_page_write_read(self, memory):
        address = memory.mmap(3 * PAGE_SIZE)
        blob = bytes(range(256)) * 20
        start = address + PAGE_SIZE - 100
        memory.write(start, blob)
        assert memory.read(start, len(blob)) == blob

    def test_word_roundtrip(self, memory):
        address = memory.mmap(PAGE_SIZE)
        memory.write_word(address, 0xDEAD_BEEF_CAFE_F00D)
        assert memory.read_word(address) == 0xDEAD_BEEF_CAFE_F00D

    def test_word_truncates_to_64_bits(self, memory):
        address = memory.mmap(PAGE_SIZE)
        memory.write_word(address, 1 << 70 | 42)
        assert memory.read_word(address) == 42

    def test_fill(self, memory):
        address = memory.mmap(PAGE_SIZE)
        memory.fill(address, 100, 0xAB)
        assert memory.read(address, 100) == b"\xab" * 100
        memory.fill(address, 0)  # zero-size fill is a no-op
        assert memory.read(address, 1) == b"\xab"

    def test_peek_ignores_protection(self, memory):
        address = memory.mmap(PAGE_SIZE)
        memory.write(address, b"secret")
        memory.mprotect(address, PAGE_SIZE, PROT_NONE)
        assert memory.peek(address, 6) == b"secret"

    def test_peek_unmapped_reads_zero(self, memory):
        assert memory.peek(0x7654_3210_0000, 8) == bytes(8)

    def test_poke_ignores_protection(self, memory):
        address = memory.mmap(PAGE_SIZE)
        memory.mprotect(address, PAGE_SIZE, PROT_NONE)
        memory.poke(address, b"debugger")
        assert memory.peek(address, 8) == b"debugger"

    def test_poke_unmapped_faults(self, memory):
        with pytest.raises(SegmentationFault):
            memory.poke(0x7654_3210_0000, b"x")


class TestBrk:
    def test_sbrk_grows_heap(self, memory):
        old = memory.sbrk(PAGE_SIZE)
        assert old == HEAP_BASE
        assert memory.brk == HEAP_BASE + PAGE_SIZE
        memory.write(HEAP_BASE, b"heap")
        assert memory.read(HEAP_BASE, 4) == b"heap"

    def test_sbrk_zero_queries_brk(self, memory):
        assert memory.sbrk(0) == HEAP_BASE
        assert memory.brk == HEAP_BASE

    def test_sbrk_shrink_unmaps(self, memory):
        memory.sbrk(4 * PAGE_SIZE)
        memory.write(HEAP_BASE + 3 * PAGE_SIZE, b"gone")
        memory.sbrk(-2 * PAGE_SIZE)
        assert memory.brk == HEAP_BASE + 2 * PAGE_SIZE
        with pytest.raises(SegmentationFault):
            memory.read(HEAP_BASE + 3 * PAGE_SIZE, 1)

    def test_sbrk_cannot_shrink_below_base(self, memory):
        with pytest.raises(MapError):
            memory.sbrk(-PAGE_SIZE)

    def test_heap_limit_enforced(self, memory):
        with pytest.raises(OutOfMemoryError):
            memory.sbrk(1 << 46)


class TestResidency:
    def test_mapping_alone_is_not_resident(self, memory):
        memory.mmap(64 * PAGE_SIZE)
        assert memory.resident_pages == 0
        assert memory.mapped_pages == 64

    def test_write_materializes_only_touched_pages(self, memory):
        address = memory.mmap(64 * PAGE_SIZE)
        memory.write(address + 5 * PAGE_SIZE, b"x")
        memory.write(address + 9 * PAGE_SIZE, b"y")
        assert memory.resident_pages == 2
        assert memory.resident_bytes == 2 * PAGE_SIZE

    def test_reads_do_not_materialize(self, memory):
        address = memory.mmap(16 * PAGE_SIZE)
        memory.read(address, 16 * PAGE_SIZE)
        assert memory.resident_pages == 0

    def test_guard_pages_cost_no_memory(self, memory):
        """The paper's claim: guard pages are virtual and free."""
        address = memory.mmap(8 * PAGE_SIZE)
        memory.mprotect(address + PAGE_SIZE, PAGE_SIZE, PROT_NONE)
        assert memory.resident_pages == 0

    def test_peak_resident_tracks_high_water(self, memory):
        address = memory.mmap(8 * PAGE_SIZE)
        for i in range(4):
            memory.write(address + i * PAGE_SIZE, b"x")
        memory.munmap(address, 8 * PAGE_SIZE)
        assert memory.resident_pages == 0
        assert memory.peak_resident_pages == 4

    def test_munmap_releases_residency(self, memory):
        address = memory.mmap(PAGE_SIZE)
        memory.write(address, b"x")
        memory.munmap(address, PAGE_SIZE)
        assert memory.resident_pages == 0


class TestResolve:
    """``resolve`` hands out a resident page's views and nothing else."""

    def test_resident_span_resolves_to_its_frame(self, memory):
        address = memory.mmap(2 * PAGE_SIZE)
        memory.write(address + 16, b"resolved")
        frame, words, page_base = memory.resolve(address + 16, 8, PROT_RW)
        assert page_base == address
        assert bytes(frame[16:24]) == b"resolved"
        assert words[2] == int.from_bytes(b"resolved", "little")

    @pytest.mark.parametrize("case", ["straddle", "untouched", "unmapped",
                                      "read_only", "guard", "negative"])
    def test_unresolvable_spans_are_none(self, memory, case):
        address = memory.mmap(4 * PAGE_SIZE)
        for page in range(3):
            memory.write(address + page * PAGE_SIZE, b"x")
        memory.mprotect(address + PAGE_SIZE, PAGE_SIZE, PROT_READ)
        memory.mprotect(address + 2 * PAGE_SIZE, PAGE_SIZE, PROT_NONE)
        span = {
            "straddle": (address + PAGE_SIZE - 4, 8, PROT_READ),
            "untouched": (address + 3 * PAGE_SIZE, 8, PROT_READ),
            "unmapped": (address + 4 * PAGE_SIZE, 8, PROT_READ),
            "read_only": (address + PAGE_SIZE, 8, PROT_RW),
            "guard": (address + 2 * PAGE_SIZE, 8, PROT_READ),
            "negative": (-PAGE_SIZE, 8, PROT_READ),
        }[case]
        resident = memory.resident_pages
        assert memory.resolve(*span) is None
        assert memory.resident_pages == resident
        assert memory.fault_count == 0

    def test_leaves_the_translation_cache_alone(self, memory):
        address = memory.mmap(2 * PAGE_SIZE)
        memory.write_word(address, 1)
        memory.write_word(address + PAGE_SIZE, 2)
        memory.resolve(address, 8, PROT_READ)
        # Still cached: the word load of the second page hits the TLB.
        assert memory._tlb_page == (address + PAGE_SIZE) // PAGE_SIZE
        assert memory.read_word(address) == 1


class TestIntrospection:
    def test_iter_mappings_merges_runs(self, memory):
        a = memory.mmap(2 * PAGE_SIZE)
        memory.mmap(PAGE_SIZE)  # contiguous, same protection
        runs = list(memory.iter_mappings())
        assert runs == [(a, 3 * PAGE_SIZE, PROT_RW)]

    def test_iter_mappings_splits_on_protection(self, memory):
        a = memory.mmap(3 * PAGE_SIZE)
        memory.mprotect(a + PAGE_SIZE, PAGE_SIZE, PROT_NONE)
        runs = list(memory.iter_mappings())
        assert len(runs) == 3
        assert runs[1] == (a + PAGE_SIZE, PAGE_SIZE, PROT_NONE)

    def test_protection_of(self, memory):
        a = memory.mmap(PAGE_SIZE)
        assert memory.protection_of(a) == PROT_RW
        assert memory.protection_of(0x1111_0000_0000) is None
