"""``iter_mappings`` run coalescing and ``sbrk`` shrink edge cases."""

import pytest

from repro.machine import (
    HEAP_BASE,
    MMAP_BASE,
    MapError,
    PAGE_SIZE,
    PROT_READ,
    PROT_RW,
    SegmentationFault,
)


class TestIterMappingsCoalescing:
    def test_contiguous_same_prot_is_one_run(self, memory):
        a = memory.mmap(3 * PAGE_SIZE, prot=PROT_RW)
        runs = [r for r in memory.iter_mappings() if r[0] == a]
        assert runs == [(a, 3 * PAGE_SIZE, PROT_RW)]

    def test_protection_change_splits_run(self, memory):
        a = memory.mmap(4 * PAGE_SIZE, prot=PROT_RW)
        memory.mprotect(a + PAGE_SIZE, 2 * PAGE_SIZE, PROT_READ)
        runs = [r for r in memory.iter_mappings()
                if a <= r[0] < a + 4 * PAGE_SIZE]
        assert runs == [
            (a, PAGE_SIZE, PROT_RW),
            (a + PAGE_SIZE, 2 * PAGE_SIZE, PROT_READ),
            (a + 3 * PAGE_SIZE, PAGE_SIZE, PROT_RW),
        ]

    def test_restoring_protection_recoalesces(self, memory):
        a = memory.mmap(3 * PAGE_SIZE, prot=PROT_RW)
        memory.mprotect(a + PAGE_SIZE, PAGE_SIZE, PROT_READ)
        memory.mprotect(a + PAGE_SIZE, PAGE_SIZE, PROT_RW)
        runs = [r for r in memory.iter_mappings() if r[0] == a]
        assert runs == [(a, 3 * PAGE_SIZE, PROT_RW)]

    def test_hole_splits_run(self, memory):
        a = memory.mmap(3 * PAGE_SIZE, prot=PROT_RW)
        memory.munmap(a + PAGE_SIZE, PAGE_SIZE)
        runs = [r for r in memory.iter_mappings()
                if a <= r[0] < a + 3 * PAGE_SIZE]
        assert runs == [
            (a, PAGE_SIZE, PROT_RW),
            (a + 2 * PAGE_SIZE, PAGE_SIZE, PROT_RW),
        ]

    def test_adjacent_mmaps_coalesce(self, memory):
        a = memory.mmap(PAGE_SIZE, prot=PROT_RW)
        b = memory.mmap(PAGE_SIZE, prot=PROT_RW)
        if b == a + PAGE_SIZE:  # deterministic bump allocation
            runs = [r for r in memory.iter_mappings() if r[0] == a]
            assert runs == [(a, 2 * PAGE_SIZE, PROT_RW)]


class TestSbrkShrinkEdges:
    def test_partial_page_break_keeps_last_page(self, memory):
        """Shrinking to a mid-page break must keep that page mapped —
        the break's own page is still (partially) in use."""
        memory.sbrk(2 * PAGE_SIZE)
        memory.write(HEAP_BASE, b"low")
        memory.sbrk(-(PAGE_SIZE // 2))  # break now mid second page
        assert memory.brk == HEAP_BASE + 2 * PAGE_SIZE - PAGE_SIZE // 2
        # The second page is still mapped: writes below the break work.
        memory.write(HEAP_BASE + PAGE_SIZE, b"still here")
        assert memory.read(HEAP_BASE + PAGE_SIZE, 10) == b"still here"

    def test_shrink_whole_pages_unmaps_them(self, memory):
        memory.sbrk(3 * PAGE_SIZE)
        memory.write(HEAP_BASE + 2 * PAGE_SIZE, b"top")
        memory.sbrk(-PAGE_SIZE)
        with pytest.raises(SegmentationFault):
            memory.read(HEAP_BASE + 2 * PAGE_SIZE, 3)
        # Pages below the new break are untouched.
        memory.write(HEAP_BASE, b"base")
        assert memory.read(HEAP_BASE, 4) == b"base"

    def test_shrink_to_base(self, memory):
        memory.sbrk(4 * PAGE_SIZE)
        memory.write(HEAP_BASE, b"x")
        memory.sbrk(-4 * PAGE_SIZE)
        assert memory.brk == HEAP_BASE
        with pytest.raises(SegmentationFault):
            memory.read(HEAP_BASE, 1)
        assert not any(start <= HEAP_BASE < start + length
                       for start, length, _ in memory.iter_mappings())

    def test_shrink_below_base_rejected(self, memory):
        memory.sbrk(PAGE_SIZE)
        with pytest.raises(MapError):
            memory.sbrk(-2 * PAGE_SIZE)
        # The failed call must not have moved the break.
        assert memory.brk == HEAP_BASE + PAGE_SIZE

    def test_shrink_then_regrow_reads_zero(self, memory):
        """Pages released by a shrink are discarded; regrowing maps
        fresh zero pages (no stale data), like Linux brk."""
        memory.sbrk(PAGE_SIZE)
        memory.write(HEAP_BASE, b"secret")
        memory.sbrk(-PAGE_SIZE)
        memory.sbrk(PAGE_SIZE)
        assert memory.read(HEAP_BASE, 6) == bytes(6)


class TestFixedMmapBounds:
    def test_negative_fixed_address_rejected(self, memory):
        """A fixed mapping below address zero is refused before any
        state changes, like one that runs past the top of the space."""
        with pytest.raises(MapError):
            memory.mmap(PAGE_SIZE, address=-PAGE_SIZE)
        assert memory.mapped_pages == 0
        assert list(memory.iter_mappings()) == []
        # The placed-mapping cursor is untouched as well.
        assert memory.mmap(PAGE_SIZE) == MMAP_BASE
