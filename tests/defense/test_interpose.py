"""The online defense interposer (paper Section VI, Figures 5-7)."""

import pytest

from repro.allocator.base import Allocator
from repro.allocator.libc import LibcAllocator
from repro.allocator.segregated import SegregatedAllocator
from repro.defense.interpose import DefendedAllocator
from repro.defense.metadata import METADATA_SIZE, BufferMetadata
from repro.defense.patch_table import PatchTable
from repro.fuzz.faults import FaultInjector
from repro.machine.errors import (MapError, OutOfMemoryError,
                                  SegmentationFault)
from repro.machine.layout import PAGE_SIZE
from repro.machine.memory import PROT_NONE
from repro.patch.model import HeapPatch
from repro.program.context import ContextSource
from repro.program.cost import CycleMeter
from repro.vulntypes import VulnType


class FixedContext(ContextSource):
    """Context source returning a settable CCID."""

    def __init__(self, ccid=0):
        self.ccid = ccid

    def current_ccid(self):
        return self.ccid


def defended(patches=(), ccid=0, **kwargs):
    underlying = LibcAllocator()
    context = FixedContext(ccid)
    allocator = DefendedAllocator(underlying, PatchTable(patches),
                                  context_source=context, **kwargs)
    return allocator, underlying, context


class TestUnpatchedBuffers:
    def test_malloc_free_roundtrip(self):
        allocator, underlying, _ = defended()
        address = allocator.malloc(100)
        allocator.memory.write(address, b"x" * 100)
        allocator.free(address)
        assert underlying.live_buffer_count == 0

    def test_metadata_word_precedes_every_buffer(self):
        allocator, _, _ = defended()
        address = allocator.malloc(100)
        meta = BufferMetadata.decode(
            allocator.memory.read_word(address - METADATA_SIZE))
        assert meta.vuln == VulnType.NONE
        assert not meta.aligned
        assert meta.user_size == 100

    def test_usable_size_is_exact(self):
        allocator, _, _ = defended()
        address = allocator.malloc(100)
        assert allocator.malloc_usable_size(address) == 100
        assert allocator.malloc_usable_size(0) == 0

    def test_calloc_zeroes(self):
        allocator, underlying, _ = defended()
        dirty = underlying.malloc(512)
        allocator.memory.write(dirty, b"\xff" * 512)
        underlying.free(dirty)
        address = allocator.calloc(8, 64)
        assert allocator.memory.read(address, 512) == bytes(512)

    def test_free_null_noop(self):
        allocator, _, _ = defended()
        allocator.free(0)

    def test_memalign_alignment_and_metadata(self):
        allocator, _, _ = defended()
        address = allocator.memalign(256, 80)
        assert address % 256 == 0
        meta = BufferMetadata.decode(
            allocator.memory.read_word(address - METADATA_SIZE))
        assert meta.aligned and meta.alignment == 256
        allocator.free(address)

    def test_stats_track_api(self):
        allocator, _, _ = defended()
        allocator.malloc(10)
        allocator.calloc(1, 10)
        p = allocator.memalign(32, 10)
        allocator.free(p)
        assert allocator.stats.malloc_calls == 1
        assert allocator.stats.calloc_calls == 1
        assert allocator.stats.memalign_calls == 1
        assert allocator.stats.free_calls == 1


class TestOverflowDefense:
    PATCH = [HeapPatch("malloc", 0x77, VulnType.OVERFLOW)]

    def test_guard_page_installed_for_patched_context(self):
        allocator, _, context = defended(self.PATCH, ccid=0x77)
        address = allocator.malloc(100)
        meta = BufferMetadata.decode(
            allocator.memory.read_word(address - METADATA_SIZE))
        assert meta.has_guard
        assert allocator.memory.protection_of(meta.guard_page) == PROT_NONE

    def test_contiguous_overflow_faults_at_guard(self):
        allocator, _, _ = defended(self.PATCH, ccid=0x77)
        address = allocator.malloc(100)
        with pytest.raises(SegmentationFault):
            allocator.memory.write(address, b"A" * (PAGE_SIZE + 200))

    def test_in_bounds_access_unaffected(self):
        allocator, _, _ = defended(self.PATCH, ccid=0x77)
        address = allocator.malloc(100)
        allocator.memory.write(address, b"B" * 100)
        assert allocator.memory.read(address, 100) == b"B" * 100

    def test_other_contexts_not_enhanced(self):
        allocator, _, context = defended(self.PATCH, ccid=0x78)
        address = allocator.malloc(100)
        meta = BufferMetadata.decode(
            allocator.memory.read_word(address - METADATA_SIZE))
        assert not meta.has_guard

    def test_free_releases_guard_and_memory(self):
        allocator, underlying, _ = defended(self.PATCH, ccid=0x77)
        address = allocator.malloc(100)
        meta = BufferMetadata.decode(
            allocator.memory.read_word(address - METADATA_SIZE))
        allocator.free(address)
        assert underlying.live_buffer_count == 0
        # Guard page accessible again so the allocator can recycle it.
        assert allocator.memory.is_accessible(meta.guard_page, 8)

    def test_usable_size_reads_size_from_guard_page(self):
        allocator, _, _ = defended(self.PATCH, ccid=0x77)
        address = allocator.malloc(100)
        assert allocator.malloc_usable_size(address) == 100
        # ... and re-seals the guard afterwards.
        meta = BufferMetadata.decode(
            allocator.memory.read_word(address - METADATA_SIZE))
        assert allocator.memory.protection_of(meta.guard_page) == PROT_NONE

    def test_aligned_overflow_buffer_structure4(self):
        patches = [HeapPatch("memalign", 0x9, VulnType.OVERFLOW)]
        allocator, _, _ = defended(patches, ccid=0x9)
        address = allocator.memalign(64, 100)
        assert address % 64 == 0
        with pytest.raises(SegmentationFault):
            allocator.memory.write(address, b"C" * (PAGE_SIZE + 200))
        allocator.free(address)

    def test_guard_pages_cost_no_rss(self):
        allocator, _, _ = defended(self.PATCH, ccid=0x77)
        before = allocator.memory.resident_pages
        address = allocator.malloc(100)
        # Only the metadata/size words became resident; the guard did not.
        assert allocator.memory.resident_pages - before <= 2


class TestUninitDefense:
    PATCH = [HeapPatch("malloc", 0x5, VulnType.UNINIT_READ)]

    def test_patched_buffer_is_zeroed(self):
        allocator, underlying, context = defended(self.PATCH, ccid=0x5)
        # Dirty the heap then free, so reuse would expose stale bytes.
        context.ccid = 0
        dirty = allocator.malloc(256)
        allocator.memory.write(dirty, b"\xee" * 256)
        allocator.free(dirty)
        context.ccid = 0x5
        address = allocator.malloc(256)
        assert allocator.memory.read(address, 256) == bytes(256)

    def test_unpatched_buffer_not_zeroed(self):
        allocator, _, context = defended(self.PATCH, ccid=0)
        dirty = allocator.malloc(256)
        allocator.memory.write(dirty, b"\xee" * 256)
        allocator.free(dirty)
        address = allocator.malloc(256)
        stale = allocator.memory.read(address, 256)
        assert any(byte for byte in stale)


class TestUafDefense:
    PATCH = [HeapPatch("malloc", 0xA, VulnType.USE_AFTER_FREE)]

    def test_freed_patched_buffer_not_reused(self):
        allocator, underlying, _ = defended(self.PATCH, ccid=0xA)
        first = allocator.malloc(64)
        allocator.memory.write(first, b"legit!!!")
        allocator.free(first)
        second = allocator.malloc(64)
        assert second != first
        # The quarantined memory still holds the original data.
        assert allocator.memory.read(first, 8) == b"legit!!!"
        assert len(allocator.quarantine) == 1

    def test_unpatched_buffer_reused_immediately(self):
        allocator, _, _ = defended(self.PATCH, ccid=0)
        first = allocator.malloc(64)
        allocator.free(first)
        second = allocator.malloc(64)
        assert second == first

    def test_quota_eviction_really_frees(self):
        allocator, underlying, _ = defended(self.PATCH, ccid=0xA,
                                            quarantine_quota=1024)
        for _ in range(16):
            allocator.free(allocator.malloc(256))
        assert allocator.quarantine.evicted > 0
        assert allocator.quarantine.held_bytes <= 1024


class TestCombinedDefenses:
    def test_all_three_bits_on_one_buffer(self):
        patches = [HeapPatch("malloc", 0xF, VulnType.OVERFLOW
                             | VulnType.USE_AFTER_FREE
                             | VulnType.UNINIT_READ)]
        allocator, underlying, _ = defended(patches, ccid=0xF)
        address = allocator.malloc(128)
        # Zero-filled:
        assert allocator.memory.read(address, 128) == bytes(128)
        # Guarded:
        with pytest.raises(SegmentationFault):
            allocator.memory.write(address, b"D" * (PAGE_SIZE + 256))
        # Deferred on free:
        allocator.free(address)
        assert len(allocator.quarantine) == 1
        assert allocator.malloc(128) != address


class TestRealloc:
    def test_realloc_preserves_data_and_metadata(self):
        allocator, _, _ = defended()
        address = allocator.malloc(32)
        allocator.memory.write(address, bytes(range(32)))
        grown = allocator.realloc(address, 128)
        assert allocator.memory.read(grown, 32) == bytes(range(32))
        assert allocator.malloc_usable_size(grown) == 128

    def test_realloc_null_and_zero(self):
        allocator, underlying, _ = defended()
        address = allocator.realloc(0, 64)
        assert address
        assert allocator.realloc(address, 0) == 0
        assert underlying.live_buffer_count == 0

    def test_realloc_of_guarded_buffer(self):
        patches = [HeapPatch("malloc", 0x3, VulnType.OVERFLOW)]
        allocator, _, context = defended(patches, ccid=0x3)
        address = allocator.malloc(64)
        allocator.memory.write(address, b"E" * 64)
        context.ccid = 0  # realloc context is not patched
        grown = allocator.realloc(address, 256)
        assert allocator.memory.read(grown, 64) == b"E" * 64
        meta = BufferMetadata.decode(
            allocator.memory.read_word(grown - METADATA_SIZE))
        assert not meta.has_guard

    def test_failed_realloc_keeps_the_guard_sealed(self):
        """The old buffer stays live when the new allocation fails, so
        its guard must still be sealed afterwards."""
        patches = [HeapPatch("malloc", 0x3, VulnType.OVERFLOW)]
        allocator, _, context = defended(patches, ccid=0x3)
        address = allocator.malloc(64)
        guard = BufferMetadata.decode(allocator.memory.read_word(
            address - METADATA_SIZE)).guard_page
        context.ccid = 0
        with pytest.raises(OutOfMemoryError):
            allocator.realloc(address, 1 << 60)
        assert allocator.memory.protection_of(guard) == PROT_NONE
        with pytest.raises(SegmentationFault):
            allocator.memory.write(address + 64, b"X" * PAGE_SIZE)
        assert allocator.malloc_usable_size(address) == 64

    @pytest.mark.parametrize("underlying",
                             [LibcAllocator, SegregatedAllocator])
    def test_failed_unseal_keeps_the_old_guard_sealed(self, underlying):
        """The new buffer's seal uses the last ``mprotect`` the injector
        allows, so unsealing the old guard fails: the old buffer stays
        live with its guard sealed (the new one, whose release needs an
        ``mprotect`` too, leaks), and it frees cleanly afterwards."""
        patches = [HeapPatch("malloc", 0x3, VulnType.OVERFLOW),
                   HeapPatch("realloc", 0x4, VulnType.OVERFLOW)]
        context = FixedContext(0x3)
        allocator = DefendedAllocator(underlying(), PatchTable(patches),
                                      context_source=context)
        address = allocator.malloc(64)
        allocator.memory.write(address, b"E" * 64)
        guard = BufferMetadata.decode(allocator.memory.read_word(
            address - METADATA_SIZE)).guard_page
        injector = FaultInjector({"mprotect": 1})
        allocator.memory.fault_injector = injector
        context.ccid = 0x4
        with pytest.raises(MapError):
            allocator.realloc(address, 256)
        assert allocator.memory.protection_of(guard) == PROT_NONE
        assert allocator.memory.read(address, 64) == b"E" * 64
        assert allocator.stats.live_buffers == 2
        injector.disarm()
        assert allocator.malloc_usable_size(address) == 64
        allocator.free(address)
        assert allocator.stats.live_buffers == 1
        assert allocator.underlying.live_buffer_count == 1

    def test_guarded_realloc_unseals_once(self):
        patches = [HeapPatch("malloc", 0x3, VulnType.OVERFLOW)]
        meter = CycleMeter()
        allocator, underlying, context = defended(patches, ccid=0x3,
                                                  meter=meter)
        address = allocator.malloc(64)
        context.ccid = 0  # realloc context is not patched
        mprotects = allocator.memory.mprotect_count
        defense = meter.category("defense")
        allocator.realloc(address, 256)
        assert allocator.memory.mprotect_count == mprotects + 1
        assert meter.category("defense") - defense == meter.model.mprotect
        assert underlying.live_buffer_count == 1
        assert allocator.stats.live_buffers == 1

    def test_realloc_lookup_uses_realloc_fun(self):
        patches = [HeapPatch("realloc", 0x4, VulnType.UNINIT_READ)]
        allocator, _, context = defended(patches, ccid=0x4)
        address = allocator.malloc(16)
        allocator.memory.write(address, b"\xaa" * 16)
        grown = allocator.realloc(address, 64)
        # Kept prefix was copied back over the zero-fill...
        assert allocator.memory.read(grown, 16) == b"\xaa" * 16
        # ...but the grown tail was zeroed by the patch.
        assert allocator.memory.read(grown + 16, 48) == bytes(48)


class RecordingAllocator(Allocator):
    """Mock underlying allocator that records public-API calls only."""

    def __init__(self):
        self.inner = LibcAllocator()
        self.memory = self.inner.memory
        self.calls = []

    def malloc(self, size):
        self.calls.append(("malloc", size))
        return self.inner.malloc(size)

    def calloc(self, nmemb, size):
        self.calls.append(("calloc", nmemb, size))
        return self.inner.calloc(nmemb, size)

    def realloc(self, address, size):
        self.calls.append(("realloc", address, size))
        return self.inner.realloc(address, size)

    def free(self, address):
        self.calls.append(("free", address))
        self.inner.free(address)

    def memalign(self, alignment, size):
        self.calls.append(("memalign", alignment, size))
        return self.inner.memalign(alignment, size)

    def malloc_usable_size(self, address):
        self.calls.append(("malloc_usable_size", address))
        return self.inner.malloc_usable_size(address)


class TestAllocatorTransparency:
    """The paper's property (5): no dependency on allocator internals."""

    def test_only_public_api_touched(self):
        recorder = RecordingAllocator()
        table = PatchTable([HeapPatch("malloc", 0, VulnType.OVERFLOW
                                      | VulnType.USE_AFTER_FREE
                                      | VulnType.UNINIT_READ)])
        allocator = DefendedAllocator(recorder, table,
                                      context_source=FixedContext(0))
        a = allocator.malloc(100)
        b = allocator.memalign(64, 50)
        c = allocator.calloc(2, 30)
        allocator.realloc(c, 200)
        allocator.free(a)
        allocator.free(b)
        assert all(call[0] in ("malloc", "calloc", "realloc", "free",
                               "memalign", "malloc_usable_size")
                   for call in recorder.calls)
        # Underlying malloc was asked for *more* than the user size
        # (metadata + guard slack) — interposition, not pass-through.
        first_malloc = next(call for call in recorder.calls
                            if call[0] == "malloc")
        assert first_malloc[1] > 100

    def test_works_over_recording_allocator_end_to_end(self):
        recorder = RecordingAllocator()
        allocator = DefendedAllocator(recorder, PatchTable.empty(),
                                      context_source=FixedContext())
        address = allocator.malloc(64)
        allocator.memory.write(address, b"F" * 64)
        assert allocator.memory.read(address, 64) == b"F" * 64
        allocator.free(address)
        assert recorder.inner.live_buffer_count == 0


class TestCostDecomposition:
    def test_categories_charged(self):
        meter = CycleMeter()
        underlying = LibcAllocator()
        table = PatchTable([HeapPatch("malloc", 0, VulnType.OVERFLOW)])
        allocator = DefendedAllocator(underlying, table,
                                      context_source=FixedContext(0),
                                      meter=meter)
        address = allocator.malloc(64)
        allocator.free(address)
        assert meter.category("interpose") == 2 * meter.model.interpose
        assert meter.category("metadata") == 2 * meter.model.metadata
        assert meter.category("lookup") == meter.model.hash_lookup
        assert meter.category("defense") >= 2 * meter.model.mprotect

    def test_unfrozen_table_rejected(self):
        table = PatchTable.empty()
        table._frozen = False
        with pytest.raises(ValueError):
            DefendedAllocator(LibcAllocator(), table)
