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

    def test_never_handed_out_slot_raises(self):
        """A fresh slot sits on the free list; freeing it would queue it
        twice and hand one frame to two owners."""
        store = PageStore()
        store.alloc()
        with pytest.raises(SlotAlreadyFree) as info:
            store.free(5)
        assert info.value.slot == 5
        frames = {store.alloc()[0] for _ in range(PRIVATE_SEGMENT_PAGES - 1)}
        assert len(frames) == PRIVATE_SEGMENT_PAGES - 1
        assert store.allocated_pages == PRIVATE_SEGMENT_PAGES
        store.close()

    @pytest.mark.parametrize("slot", [-1, PRIVATE_SEGMENT_PAGES, 10**6])
    def test_out_of_range_slot_raises(self, slot):
        store = PageStore()
        store.alloc()
        with pytest.raises(SlotAlreadyFree) as info:
            store.free(slot)
        assert info.value.slot == slot
        assert store.allocated_pages == 1
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


class TestCopies:
    def test_copies_overwrite_recycled_slots(self):
        store = PageStore()
        slots = [store.alloc()[0] for _ in range(3)]
        for slot in slots:
            store._slot_views[slot][0][:] = b"\xee" * PAGE_SIZE
            store.free(slot)
        pages = [bytes([n]) * PAGE_SIZE for n in (1, 2, 3, 4)]
        copies = store.alloc_copies(pages)
        assert store.allocated_pages == 4
        assert len({slot for slot, _, _ in copies}) == 4
        for (slot, window, words), page in zip(copies, pages):
            assert bytes(window) == page
            assert words[0] == int.from_bytes(page[:8], "little")
            store.free(slot)
        # A recycled copy slot is re-zeroed by a plain alloc.
        assert all(bytes(store.alloc()[1]) == bytes(PAGE_SIZE)
                   for _ in range(4))
        store.close()

    def test_copies_grow_the_store(self):
        store = PageStore()
        count = PRIVATE_SEGMENT_PAGES + 1
        store.alloc_copies([bytes(PAGE_SIZE)] * count)
        assert store.segment_count == 2
        assert store.allocated_pages == count
        store.close()



def stores_with_slots(count):
    """Two stores in the same state, each with ``count`` slots
    allocated: one for sequential ``free`` calls, one for
    ``free_many``."""
    pair = []
    for _ in range(2):
        store = PageStore()
        pair.append((store, [store.alloc()[0] for _ in range(count)]))
    assert pair[0][1] == pair[1][1]
    return pair


class TestFreeMany:
    def test_same_free_order_as_sequential_frees(self):
        (one, slots), (many, _) = stores_with_slots(PRIVATE_SEGMENT_PAGES + 4)
        order = slots[5:1:-1] + slots[-3:] + slots[8:12]
        for slot in order:
            one.free(slot)
        many.free_many(order)
        assert many.allocated_pages == one.allocated_pages == (
            len(slots) - len(order))
        # Later allocations hand out the same slots, fresh slots after.
        again = [(one.alloc()[0], many.alloc()[0])
                 for _ in range(len(order) + 3)]
        assert [a for a, _ in again] == [b for _, b in again]
        assert [a for a, _ in again][:len(order)] == order[::-1]
        one.close()
        many.close()

    def test_freed_frames_read_zero_when_reused(self):
        store = PageStore()
        slots = []
        for _ in range(3):
            slot, window, _ = store.alloc()
            window[:] = b"\x77" * PAGE_SIZE
            slots.append(slot)
        store.free_many(slots)
        assert store.allocated_pages == 0
        for _ in range(3):
            assert bytes(store.alloc()[1]) == bytes(PAGE_SIZE)
        store.close()

    def test_duplicate_within_one_call_raises(self):
        (one, slots), (many, _) = stores_with_slots(4)
        batch = [slots[0], slots[2], slots[0], slots[3]]
        with pytest.raises(SlotAlreadyFree) as info:
            many.free_many(batch)
        assert info.value.slot == slots[0]
        # The slots before the repeat were freed, as sequential calls
        # leave them.
        one.free(slots[0])
        one.free(slots[2])
        with pytest.raises(SlotAlreadyFree):
            one.free(slots[0])
        assert many.allocated_pages == one.allocated_pages == 2
        assert ([many.alloc()[0] for _ in range(3)]
                == [one.alloc()[0] for _ in range(3)])
        one.close()
        many.close()

    def test_already_free_slot_raises(self):
        store = PageStore()
        slots = [store.alloc()[0] for _ in range(3)]
        store.free(slots[1])
        with pytest.raises(SlotAlreadyFree) as info:
            store.free_many([slots[0], slots[1], slots[2]])
        assert info.value.slot == slots[1]
        assert store.allocated_pages == 1
        store.free_many([slots[2]])
        assert store.allocated_pages == 0
        store.close()

    def test_never_handed_out_slot_raises(self):
        store = PageStore()
        slots = [store.alloc()[0] for _ in range(2)]
        never = PRIVATE_SEGMENT_PAGES - 1
        assert never not in slots
        with pytest.raises(SlotAlreadyFree) as info:
            store.free_many([slots[0], never, slots[1]])
        assert info.value.slot == never
        assert store.allocated_pages == 1
        store.free_many([slots[1]])
        assert store.allocated_pages == 0
        store.close()

    @pytest.mark.parametrize("slot", [-1, PRIVATE_SEGMENT_PAGES, 10**6])
    def test_out_of_range_slot_raises(self, slot):
        store = PageStore()
        held = store.alloc()[0]
        with pytest.raises(SlotAlreadyFree) as info:
            store.free_many([held, slot])
        assert info.value.slot == slot
        assert store.allocated_pages == 0
        assert store.alloc()[0] == held
        store.close()

    def test_closed_store_is_a_no_op(self):
        store = PageStore()
        slots = [store.alloc()[0] for _ in range(2)]
        store.close()
        store.free_many(slots)
        store.free_many(slots + slots)
        assert store.allocated_pages == 2

    def test_memory_close_returns_every_frame_in_order(self):
        store = PageStore()
        memory = VirtualMemory(page_store=store)
        base = memory.mmap(5 * PAGE_SIZE)
        for page in (3, 0, 4):
            memory.write_word(base + page * PAGE_SIZE, page + 1)
        slots = list(memory._frame_slots.values())
        memory.close()
        assert store.allocated_pages == 0
        assert [store.alloc()[0] for _ in slots] == slots[::-1]
        store.close()

class TestFrozenImage:
    def test_fork_copies_an_image_that_holds_no_frame(self):
        store = PageStore()
        image = VirtualMemory(page_store=store)
        base = image.mmap(3 * PAGE_SIZE)
        image.write(base + 8, b"image")
        image.write_word(base + 2 * PAGE_SIZE, 42)
        image.mprotect(base + PAGE_SIZE, PAGE_SIZE, 0)
        image.freeze()
        assert store.allocated_pages == 0
        assert image.resident_pages == 2
        assert image.read(base + 8, 5) == b"image"
        with pytest.raises(TypeError):
            image.write(base + 8, b"x")
        forks = [image.fork(store) for _ in range(2)]
        assert store.allocated_pages == 4
        forks[0].write(base + 8, b"FORK!")
        for memory in forks:
            assert list(memory.iter_mappings()) == list(
                image.iter_mappings())
            assert memory.read_word(base + 2 * PAGE_SIZE) == 42
            assert memory.peak_resident_pages == 2
        assert forks[1].read(base + 8, 5) == b"image"
        assert image.read(base + 8, 5) == b"image"
        for memory in forks:
            memory.close()
        assert store.allocated_pages == 0
        store.close()
