"""Unit tests for the columnar page store.

A :class:`~repro.machine.pagestore.PageStore` outlives the
``VirtualMemory`` instances that borrow its frames (one arena per
serving worker), so its contracts are tested on their own: recycled
frames read as zero, a slot's views are built once and released by
``close()``, and a slot can only be freed while it is allocated.
"""

import pytest

from repro.machine.layout import PAGE_SIZE
from repro.machine.memory import VirtualMemory
from repro.machine.pagestore import (
    PRIVATE_SEGMENT_PAGES,
    PageStore,
    SlotAlreadyFree,
)


class TestSlotReuse:
    def test_dirty_slot_reads_zero_through_both_views(self):
        store = PageStore()
        slot, window, words = store.alloc()
        window[:] = b"\xab" * PAGE_SIZE
        store.free(slot)
        again, window, words = store.alloc()
        assert again == slot
        assert bytes(window) == bytes(PAGE_SIZE)
        assert not any(words)
        store.close()

    def test_views_are_cached_across_reuse(self):
        store = PageStore()
        slot, window, words = store.alloc()
        store.free(slot)
        again, window_again, words_again = store.alloc()
        assert again == slot
        assert window_again is window
        assert words_again is words
        store.close()

    def test_slots_of_later_segments_cache_too(self):
        store = PageStore()
        slots = [store.alloc() for _ in range(PRIVATE_SEGMENT_PAGES + 1)]
        assert store.segment_count == 2
        slot, window, words = slots[-1]
        words[0] = 0x1122334455667788
        store.free(slot)
        assert store.alloc() == (slot, window, words)
        assert words[0] == 0
        store.close()

    def test_double_free_raises(self):
        store = PageStore()
        slot, _, _ = store.alloc()
        store.free(slot)
        with pytest.raises(SlotAlreadyFree) as info:
            store.free(slot)
        assert info.value.slot == slot
        # The rejected free left one free copy of the slot: two
        # allocations get two distinct frames.
        first, window, _ = store.alloc()
        second, other, _ = store.alloc()
        assert first != second
        window[:4] = b"ABCD"
        assert bytes(other[:4]) == bytes(4)
        assert store.allocated_pages == 2
        store.close()


class TestClose:
    def test_close_releases_cached_views(self):
        store = PageStore()
        _, window, words = store.alloc()
        store.close()
        with pytest.raises(ValueError):
            window[0]
        with pytest.raises(ValueError):
            words[0]

    def test_close_is_idempotent_and_free_after_close_is_ignored(self):
        store = PageStore()
        slot, _, _ = store.alloc()
        store.close()
        store.close()
        store.free(slot)


class TestSharedArenaAcrossMemories:
    def test_second_memory_reads_zero_from_recycled_frames(self):
        store = PageStore()
        first = VirtualMemory(page_store=store)
        base = first.mmap(8 * PAGE_SIZE)
        first.write(base, b"\x5a" * (8 * PAGE_SIZE))
        assert store.allocated_pages == 8
        first.close()
        assert store.allocated_pages == 0

        second = VirtualMemory(page_store=store)
        other = second.mmap(8 * PAGE_SIZE)
        for page in range(8):
            second.write_word(other + page * PAGE_SIZE, 1)
        # Every frame was recycled from the first memory ...
        assert store.capacity_pages == PRIVATE_SEGMENT_PAGES
        assert store.allocated_pages == 8
        # ... and reads as zero apart from the word just written.
        data = second.read(other, 8 * PAGE_SIZE)
        assert data.count(0) == 8 * PAGE_SIZE - 8
        for page in range(8):
            assert second.read_word(other + page * PAGE_SIZE) == 1
        second.close()
        assert store.allocated_pages == 0
        # A memory that borrows a store never closes it.
        store.alloc()
        store.close()

    def test_munmap_returns_frames_to_the_store(self):
        store = PageStore()
        memory = VirtualMemory(page_store=store)
        base = memory.mmap(4 * PAGE_SIZE)
        memory.fill(base, 4 * PAGE_SIZE, 7)
        memory.munmap(base, 4 * PAGE_SIZE)
        assert store.allocated_pages == 0
        again = memory.mmap(4 * PAGE_SIZE)
        assert memory.read(again, 4 * PAGE_SIZE) == bytes(4 * PAGE_SIZE)
        memory.write(again, b"x")
        assert memory.read(again, 2) == b"x\x00"
        memory.close()
        store.close()
