"""Large allocations via dedicated mappings (M_MMAP_THRESHOLD)."""

import pytest

from repro.allocator.libc import MMAP_THRESHOLD, LibcAllocator
from repro.machine import DoubleFree, HEAP_BASE, MMAP_BASE


BIG = MMAP_THRESHOLD + 1024
SMALL = 4096


@pytest.fixture
def allocator():
    return LibcAllocator()


def test_big_allocations_live_in_mmap_area(allocator):
    address = allocator.malloc(BIG)
    assert address >= MMAP_BASE
    small = allocator.malloc(SMALL)
    assert HEAP_BASE <= small < MMAP_BASE


def test_big_free_unmaps_immediately(allocator):
    address = allocator.malloc(BIG)
    allocator.memory.write(address, b"x" * BIG)
    resident_before = allocator.memory.resident_pages
    allocator.free(address)
    assert allocator.memory.resident_pages < resident_before
    assert not allocator.memory.is_mapped(address)


def test_big_calloc_is_zero_without_touching_pages(allocator):
    address = allocator.calloc(1, BIG)
    assert allocator.memory.read(address, 4096) == bytes(4096)
    # The zero guarantee came from fresh pages, not a memset.
    assert allocator.memory.resident_pages <= 2


def test_usable_size_spans_mapping(allocator):
    address = allocator.malloc(BIG)
    assert allocator.malloc_usable_size(address) >= BIG


def test_double_free_of_mmapped_detected(allocator):
    address = allocator.malloc(BIG)
    allocator.free(address)
    with pytest.raises((DoubleFree, Exception)):
        allocator.free(address)


def test_realloc_heap_to_mmap_and_back(allocator):
    small = allocator.malloc(1024)
    allocator.memory.write(small, b"m" * 1024)
    big = allocator.realloc(small, BIG)
    assert big >= MMAP_BASE
    assert allocator.memory.read(big, 1024) == b"m" * 1024
    back = allocator.realloc(big, 2048)
    assert back < MMAP_BASE
    assert allocator.memory.read(back, 1024) == b"m" * 1024
    allocator.check_consistency()


def test_realloc_mmap_to_mmap(allocator):
    first = allocator.malloc(BIG)
    allocator.memory.write(first, b"q" * 64)
    second = allocator.realloc(first, BIG * 2)
    assert second >= MMAP_BASE
    assert allocator.memory.read(second, 64) == b"q" * 64
    assert not allocator.memory.is_mapped(first)


def test_stats_cover_mmapped(allocator):
    address = allocator.malloc(BIG)
    assert allocator.stats.live_buffers == allocator.live_buffer_count == 1
    allocator.free(address)
    assert allocator.stats.live_buffers == allocator.live_buffer_count == 0


def test_heap_consistency_untouched_by_mmapped_traffic(allocator):
    pointers = [allocator.malloc(s) for s in (100, BIG, 200, BIG * 2, 300)]
    allocator.check_consistency()
    for pointer in pointers:
        allocator.free(pointer)
    allocator.check_consistency()


def test_defense_over_mmapped_buffers():
    """A patched buffer big enough for the mmap path still gets its
    guard page and survives free (pi recovery works on mappings)."""
    from repro.defense.interpose import DefendedAllocator
    from repro.defense.patch_table import PatchTable
    from repro.patch.model import HeapPatch
    from repro.vulntypes import VulnType
    from repro.machine.errors import SegmentationFault
    from repro.program.context import ContextSource

    class Fixed(ContextSource):
        def current_ccid(self):
            return 0x42

    table = PatchTable([HeapPatch("malloc", 0x42, VulnType.OVERFLOW)])
    defended = DefendedAllocator(LibcAllocator(), table,
                                 context_source=Fixed())
    address = defended.malloc(BIG)
    defended.memory.write(address, b"g" * BIG)
    with pytest.raises(SegmentationFault):
        defended.memory.write(address, b"g" * (BIG + 8192))
    defended.free(address)
