"""Allocation statistics counters."""

import pytest

from repro.allocator.stats import AllocationStats


def test_per_api_counters():
    stats = AllocationStats()
    stats.record_alloc()
    stats.record_alloc("malloc")
    stats.record_alloc("calloc")
    stats.record_alloc("realloc")
    stats.record_alloc("memalign")
    stats.record_alloc("aligned_alloc")
    stats.record_alloc("posix_memalign")
    assert stats.malloc_calls == 2
    assert stats.calloc_calls == 1
    assert stats.realloc_calls == 1
    assert stats.memalign_calls == 3
    assert stats.total_allocations == 7


def test_unknown_api_rejected():
    stats = AllocationStats()
    with pytest.raises(ValueError):
        stats.record_alloc("valloc")
    assert stats == AllocationStats()


def test_live_and_peak_tracking():
    stats = AllocationStats()
    stats.record_alloc()
    stats.record_alloc()
    assert stats.live_buffers == stats.peak_buffers == 2
    stats.record_free()
    assert stats.free_calls == 1
    assert stats.live_buffers == 1
    assert stats.peak_buffers == 2  # peak is sticky
    stats.record_alloc()
    assert stats.peak_buffers == 2


def test_counted_records_equal_single_records():
    single, counted = AllocationStats(), AllocationStats()
    for fun, n in (("malloc", 3), ("calloc", 2), ("posix_memalign", 1)):
        for _ in range(n):
            single.record_alloc(fun)
        counted.record_alloc(fun, n)
    for _ in range(4):
        single.record_free()
    counted.record_free(4)
    counted.record_alloc("malloc", 0)
    counted.record_free(0)
    assert counted == single
    assert counted.live_buffers == 2 and counted.peak_buffers == 6


def test_snapshot_round_trips_fields():
    stats = AllocationStats()
    stats.record_alloc("calloc")
    snapshot = stats.snapshot()
    assert snapshot["calloc"] == 1
    assert snapshot["live_buffers"] == 1


def test_copy_from_copies_every_counter():
    source = AllocationStats()
    source.record_alloc("realloc", 3)
    source.record_free(2)
    copy = AllocationStats()
    copy.copy_from(source)
    assert copy == source
    assert copy.snapshot() == source.snapshot()
