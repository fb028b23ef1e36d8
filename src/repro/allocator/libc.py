"""A libc-style heap allocator over the simulated virtual memory.

``LibcAllocator`` is the "underlying allocator" of the paper's deployment
story: HeapTherapy+ interposes the allocation API *in front of* an allocator
like this one and must work without modifying it or relying on its
internals.  Implementing a realistic allocator (boundary tags, size-class
bins, splitting, coalescing, top-chunk extension via ``sbrk``, heap trim)
rather than a toy bump pointer gives the transparency claim teeth and makes
fragmentation/residency behaviour in the memory benchmarks meaningful.

Design, following dlmalloc/ptmalloc at small scale:

* The heap is a contiguous tiling of chunks from ``heap_start`` up to
  ``top``; the *top region* ``[top, brk)`` is untiled wilderness extended
  with ``sbrk`` on demand and trimmed back when large.
* Free chunks live in exact-size LIFO bins up to ``SMALL_MAX`` and in one
  sorted best-fit list above that.
* ``free`` coalesces with both physical neighbours and with the top region.
* ``memalign`` over-allocates, splits off the misaligned prefix as a free
  chunk, and returns a naturally-headered aligned chunk, so ``free`` needs
  no special casing for aligned buffers.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

from ..machine.errors import DoubleFree, InvalidFree, OutOfMemoryError
from ..machine.layout import (
    HEAP_BASE,
    SIZE_MAX,
    page_align_down,
    page_align_up,
)
from ..machine.memory import VirtualMemory
from .base import Allocator
from .chunk import (
    CHUNK_ALIGN,
    HEADER_SIZE,
    IN_USE,
    MIN_CHUNK_SIZE,
    ChunkView,
    read_chunk,
    read_header,
    request_to_chunk_size,
    write_chunk,
)
from .stats import AllocationStats

#: Largest chunk size served from exact-size bins.
SMALL_MAX: int = 2048

#: Number of exact-size small bins (sizes 0, 16, ..., SMALL_MAX).
_SMALL_BIN_COUNT = SMALL_MAX // CHUNK_ALIGN + 1

#: Minimum ``sbrk`` growth, to amortize system-call cost.
GROWTH_MIN: int = 64 * 1024

#: Trim the heap back when the top region exceeds this many bytes.
TRIM_THRESHOLD: int = 256 * 1024

#: Bytes of top region retained after a trim.
TRIM_KEEP: int = 64 * 1024

#: Requests at or above this size get a dedicated ``mmap`` region
#: (glibc's M_MMAP_THRESHOLD), released back to the system on free.
MMAP_THRESHOLD: int = 128 * 1024


# ----------------------------------------------------------------------
# Read-only size-class geometry (for static analyses; the allocator
# itself never consults these — they mirror its decision rules exactly)
# ----------------------------------------------------------------------


def request_uses_mmap(request: int) -> bool:
    """True when ``malloc(request)`` is served by a dedicated mapping.

    Mirrors the threshold test in :meth:`LibcAllocator.malloc`; such
    buffers live in their own mapping and are never heap-adjacent to
    any other allocation.
    """
    return request + HEADER_SIZE >= MMAP_THRESHOLD


def bin_kind(request: int) -> str:
    """Free-list class for a request: ``small``, ``large`` or ``mmap``.

    ``small`` chunks recycle through exact-size LIFO bins (deterministic
    hole reuse), ``large`` through the sorted best-fit list.
    """
    if request_uses_mmap(request):
        return "mmap"
    return ("small" if request_to_chunk_size(request) <= SMALL_MAX
            else "large")


def small_bin_index(request: int) -> Optional[int]:
    """Exact-size small-bin index for a request, or None.

    Two requests with the same index free into (and are served from)
    the same LIFO bin — the reuse relation heap-layout plans exploit.
    """
    if request_uses_mmap(request):
        return None
    csize = request_to_chunk_size(request)
    return csize // CHUNK_ALIGN if csize <= SMALL_MAX else None


def hole_reusable(hole_request: int, request: int) -> bool:
    """Can ``malloc(request)`` be served from a freed ``hole_request``
    chunk?

    The feasibility precondition ``hole-reuse`` layout plans rely on:
    the freed placeholder's chunk must be recyclable by the follow-up
    request — either both land in the same exact-size small bin (LIFO,
    fully deterministic) or the hole's chunk is at least as large as the
    request's (best-fit / split path).  ``mmap``-class requests never
    reuse heap holes.
    """
    if request_uses_mmap(hole_request) or request_uses_mmap(request):
        return False
    hole_bin = small_bin_index(hole_request)
    if hole_bin is not None and hole_bin == small_bin_index(request):
        return True
    return (request_to_chunk_size(hole_request)
            >= request_to_chunk_size(request))


class LibcAllocator(Allocator):
    """Free-list allocator with boundary-tag coalescing.

    Args:
        memory: the virtual memory to allocate from.  A fresh
            :class:`VirtualMemory` is created when omitted.
    """

    def __init__(self, memory: Optional[VirtualMemory] = None) -> None:
        self.memory = memory if memory is not None else VirtualMemory()
        self.heap_start: int = HEAP_BASE
        self._top: int = self.heap_start
        self._top_max: int = self.heap_start
        self._top_prev_size: int = 0
        #: Exact-size LIFO bins indexed by ``size // CHUNK_ALIGN``; the
        #: companion bitmap has bit ``i`` set iff bin ``i`` is non-empty,
        #: so the smallest fitting bin is found with one bit-scan instead
        #: of a linear probe over bin sizes.
        self._small_bins: List[List[int]] = [
            [] for _ in range(_SMALL_BIN_COUNT)]
        self._small_map: int = 0
        self._large_bin: List[Tuple[int, int]] = []  # sorted (size, base)
        self._free_index: Dict[int, int] = {}        # base -> size
        self._live: Dict[int, int] = {}              # user addr -> chunk size
        #: user addr -> (map base, map length, user size) for buffers
        #: served by dedicated mappings (requests >= MMAP_THRESHOLD).
        self._mmapped: Dict[int, Tuple[int, int, int]] = {}
        self.stats = AllocationStats()
        #: Neither ``memory`` nor ``stats`` is ever rebound after
        #: construction, so the hottest callees are prebound once —
        #: malloc/free skip two attribute walks per heap call.
        self._read_word = self.memory.read_word
        self._write_word = self.memory.write_word
        self._write_word_pair = self.memory.write_word_pair
        self._record_alloc = self.stats.record_alloc
        self._record_free = self.stats.record_free

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def malloc(self, size: int) -> int:
        user = self._alloc(size)
        self._record_alloc()
        return user

    def _alloc(self, size: int) -> int:
        """``malloc``'s buffer, unrecorded."""
        if size + HEADER_SIZE >= MMAP_THRESHOLD:
            return self._alloc_mmapped(size)
        base, chunk_size = self._allocate_chunk(request_to_chunk_size(size))
        user = base + HEADER_SIZE
        self._live[user] = chunk_size
        return user

    def _alloc_mmapped(self, size: int) -> int:
        """Serve one large request from a dedicated mapping."""
        length = page_align_up(size + HEADER_SIZE)
        map_base = self.memory.mmap(length)
        user = map_base + HEADER_SIZE
        self._mmapped[user] = (map_base, length, size)
        self._live[user] = size + HEADER_SIZE
        return user

    def calloc(self, nmemb: int, size: int) -> int:
        if nmemb < 0 or size < 0:
            raise ValueError("calloc: negative argument")
        total = nmemb * size
        if total > SIZE_MAX:
            # glibc's overflow check: the product cannot be represented
            # in a size_t, so the request must fail, not wrap.
            raise OutOfMemoryError(
                f"calloc: {nmemb} * {size} overflows size_t")
        if total + HEADER_SIZE >= MMAP_THRESHOLD:
            # Fresh mappings read as zero; no memset needed (and doing
            # one would needlessly materialize every page).
            user = self._alloc_mmapped(total)
        else:
            base, chunk_size = self._allocate_chunk(
                request_to_chunk_size(total))
            user = base + HEADER_SIZE
            self.memory.fill(user, total if total else 1, 0)
            self._live[user] = chunk_size
        self._record_alloc("calloc")
        return user

    def free(self, address: int) -> None:
        if address == 0:
            return
        chunk_size = self._live.pop(address, None)
        if chunk_size is None:
            self._validate_live(address, "free")  # raises the typed error
        self._record_free()
        if self._mmapped:
            mapping = self._mmapped.pop(address, None)
            if mapping is not None:
                map_base, length, _ = mapping
                self.memory.munmap(map_base, length)
                return
        self._free_chunk(address - HEADER_SIZE, chunk_size)

    # -- batched entry points: the per-call loops.  They are restated
    # here, not inherited, because perf/trace.py wraps the entry points
    # it times from this class's own ``__dict__``.

    def malloc_run(self, sizes: Sequence[int]) -> List[int]:
        return Allocator.malloc_run(self, sizes)

    def free_run(self, addresses: Sequence[int]) -> None:
        Allocator.free_run(self, addresses)

    def realloc(self, address: int, size: int) -> int:
        if address == 0:
            return self.malloc(size)
        if size == 0:
            self.free(address)
            return 0
        self._validate_live(address, "realloc")
        if address in self._mmapped:
            return self._realloc_mmapped(address, size)
        base = address - HEADER_SIZE
        chunk = read_chunk(self.memory, base)
        new_csize = request_to_chunk_size(size)
        if size + HEADER_SIZE >= MMAP_THRESHOLD:
            # Crossing the threshold upward: move to a dedicated map.
            new_user = self._alloc_mmapped(size)
            keep = min(chunk.user_size, size)
            self.memory.write(new_user, self.memory.read(address, keep))
            self._record_alloc("realloc")
            del self._live[address]
            self._record_free()
            self._free_chunk(base)
            return new_user

        if chunk.size >= new_csize:
            kept = (new_csize
                    if chunk.size - new_csize >= MIN_CHUNK_SIZE
                    else chunk.size)
            self._maybe_split(base, chunk.size, new_csize)
            self._live[address] = kept
            self._record_alloc("realloc")
            self._record_free()
            return address

        grown_size = self._grow_in_place(chunk, new_csize)
        if grown_size:
            self._live[address] = grown_size
            self._record_alloc("realloc")
            self._record_free()
            return address

        new_base, new_size = self._allocate_chunk(new_csize)
        new_user = new_base + HEADER_SIZE
        self.memory.write(new_user, self.memory.read(
            address, min(chunk.user_size, size)))
        self._live[new_user] = new_size
        self._record_alloc("realloc")
        del self._live[address]
        self._record_free()
        self._free_chunk(base)
        return new_user

    def _realloc_mmapped(self, address: int, size: int) -> int:
        """Resize a dedicated-mapping buffer (always by move)."""
        map_base, length, old_size = self._mmapped[address]
        new_user = self._alloc(size)
        keep = min(old_size, size)
        if keep:
            self.memory.write(new_user, self.memory.read(address, keep))
        self._record_alloc("realloc")
        del self._live[address]
        del self._mmapped[address]
        self._record_free()
        self.memory.munmap(map_base, length)
        return new_user

    def memalign(self, alignment: int, size: int) -> int:
        if alignment <= 0 or alignment & (alignment - 1):
            raise ValueError(
                f"memalign: alignment {alignment} is not a power of two")
        if alignment <= CHUNK_ALIGN:
            # Every chunk's user area is already 16-byte aligned.
            user = self._alloc(size)
            self._record_alloc("memalign")
            return user
        slack = alignment + MIN_CHUNK_SIZE
        big_csize = request_to_chunk_size(size + slack)
        base, _ = self._allocate_chunk(big_csize)
        big = read_chunk(self.memory, base)

        aligned_user = -(-(base + HEADER_SIZE) // alignment) * alignment
        if aligned_user != base + HEADER_SIZE:
            gap = aligned_user - HEADER_SIZE - base
            if gap < MIN_CHUNK_SIZE:
                aligned_user += alignment
                gap = aligned_user - HEADER_SIZE - base
            # Carve: [base, base+gap) becomes a free prefix chunk;
            # the aligned chunk starts at aligned_user - HEADER_SIZE.
            aligned_base = base + gap
            aligned_size = big.size - gap
            write_chunk(self.memory, base, gap, big.prev_size, in_use=True)
            write_chunk(self.memory, aligned_base, aligned_size, gap,
                        in_use=True)
            self._set_successor_prev_size(aligned_base, aligned_size)
            self._free_chunk(base)
            base = aligned_base
            self._maybe_split(base, aligned_size, request_to_chunk_size(size))
        else:
            self._maybe_split(base, big.size, request_to_chunk_size(size))

        user = base + HEADER_SIZE
        self._live[user] = read_chunk(self.memory, base).size
        self._record_alloc("memalign")
        return user

    def malloc_usable_size(self, address: int) -> int:
        if address == 0:
            return 0
        self._validate_live(address, "malloc_usable_size")
        mapping = self._mmapped.get(address)
        if mapping is not None:
            map_base, length, _ = mapping
            return map_base + length - address
        return read_chunk(self.memory, address - HEADER_SIZE).user_size

    def fork(self, memory: VirtualMemory) -> "LibcAllocator":
        twin = LibcAllocator(memory)
        twin.heap_start = self.heap_start
        twin._top = self._top
        twin._top_max = self._top_max
        twin._top_prev_size = self._top_prev_size
        twin._small_bins = [list(bin_) for bin_ in self._small_bins]
        twin._small_map = self._small_map
        twin._large_bin = list(self._large_bin)
        twin._free_index = dict(self._free_index)
        twin._live = dict(self._live)
        twin._mmapped = dict(self._mmapped)
        twin.stats.copy_from(self.stats)
        return twin

    # ------------------------------------------------------------------
    # Introspection (for tests and reports; not used by the defense)
    # ------------------------------------------------------------------

    @property
    def live_buffer_count(self) -> int:
        """Number of currently outstanding allocations."""
        return len(self._live)

    @property
    def free_chunk_count(self) -> int:
        """Number of free chunks across all bins."""
        return len(self._free_index)

    @property
    def top(self) -> int:
        """Start of the untiled top region (end of the chunk tiling)."""
        return self._top

    def walk_heap(self) -> List[ChunkView]:
        """Decode every chunk from ``heap_start`` to ``top``, in order.

        Used by consistency checks: the walk must tile the heap exactly.
        """
        chunks = []
        cursor = self.heap_start
        while cursor < self._top:
            chunk = read_chunk(self.memory, cursor)
            chunks.append(chunk)
            if chunk.size < MIN_CHUNK_SIZE:
                raise AssertionError(
                    f"corrupt heap: chunk at 0x{cursor:x} has size "
                    f"{chunk.size}")
            cursor = chunk.next_base
        return chunks

    def check_consistency(self) -> None:
        """Assert structural invariants of the heap; raises on violation."""
        prev_size = 0
        for chunk in self.walk_heap():
            if chunk.prev_size != prev_size:
                raise AssertionError(
                    f"chunk at 0x{chunk.base:x}: prev_size {chunk.prev_size} "
                    f"!= actual previous size {prev_size}")
            if not chunk.in_use and chunk.base not in self._free_index:
                raise AssertionError(
                    f"free chunk at 0x{chunk.base:x} missing from free index")
            if chunk.in_use and chunk.base in self._free_index:
                raise AssertionError(
                    f"in-use chunk at 0x{chunk.base:x} present in free index")
            prev_size = chunk.size
        if self._top_prev_size != prev_size:
            raise AssertionError("top prev_size out of sync")

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------

    def _validate_live(self, address: int, api: str) -> int:
        size = self._live.get(address)
        if size is None:
            if (address % CHUNK_ALIGN == 0
                    and self.heap_start < address < self._top_max):
                # Plausible chunk address that was live once: double free.
                raise DoubleFree(address)
            raise InvalidFree(address,
                              reason=f"{api} of pointer not from this heap")
        return size

    def _bin_insert(self, base: int, size: int) -> None:
        self._free_index[base] = size
        if size <= SMALL_MAX:
            index = size // CHUNK_ALIGN
            self._small_bins[index].append(base)
            self._small_map |= 1 << index
        else:
            bisect.insort(self._large_bin, (size, base))

    def _bin_remove(self, base: int, size: int) -> None:
        del self._free_index[base]
        if size <= SMALL_MAX:
            index = size // CHUNK_ALIGN
            bin_list = self._small_bins[index]
            # LIFO bins are nearly always hit at the tail (that is what
            # _find_fit returns); pop() there instead of a front scan.
            if bin_list[-1] == base:
                bin_list.pop()
            else:
                bin_list.remove(base)
            if not bin_list:
                self._small_map &= ~(1 << index)
        else:
            index = bisect.bisect_left(self._large_bin, (size, base))
            if (index >= len(self._large_bin)
                    or self._large_bin[index] != (size, base)):
                raise AssertionError(
                    f"free chunk (size={size}, base=0x{base:x}) missing "
                    f"from large bin")
            del self._large_bin[index]

    def _find_fit(self, csize: int) -> Optional[Tuple[int, int]]:
        """Return ``(base, size)`` of a free chunk able to hold ``csize``.

        Small requests: one bit-scan over the non-empty-bin bitmap finds
        the smallest bin of size >= ``csize`` in O(1) — same best-fit
        LIFO policy as a linear probe, without visiting empty bins.
        """
        if csize <= SMALL_MAX:
            mask = self._small_map >> (csize // CHUNK_ALIGN)
            if mask:
                index = ((csize // CHUNK_ALIGN)
                         + (mask & -mask).bit_length() - 1)
                return self._small_bins[index][-1], index * CHUNK_ALIGN
        large_bin = self._large_bin
        if not large_bin:
            return None
        index = bisect.bisect_left(large_bin, (csize, 0))
        if index < len(large_bin):
            size, base = large_bin[index]
            return base, size
        return None

    def _allocate_chunk(self, csize: int) -> Tuple[int, int]:
        """Obtain an in-use chunk of at least ``csize`` bytes.

        Returns ``(base, chunk size)`` so callers never re-read the
        header they just caused to be written.
        """
        # Fused small-bin hit: the bit-scan of _find_fit and the LIFO
        # pop of _bin_remove touch the same bin back to back, so the
        # dominant malloc path does both in one pass with no calls.
        if csize <= SMALL_MAX:
            shift = csize // CHUNK_ALIGN
            mask = self._small_map >> shift
            if mask:
                index = shift + (mask & -mask).bit_length() - 1
                bin_list = self._small_bins[index]
                base = bin_list.pop()
                if not bin_list:
                    self._small_map &= ~(1 << index)
                del self._free_index[base]
                size = index * CHUNK_ALIGN
                remainder = size - csize
                if remainder < MIN_CHUNK_SIZE:
                    self._write_word(base + 8, size | IN_USE)
                    return base, size
                return self._split_chunk(base, csize, remainder)
        fit = self._find_fit(csize)
        if fit is None:
            return self._extend_top(csize), csize
        base, size = fit
        self._bin_remove(base, size)
        remainder = size - csize
        if remainder < MIN_CHUNK_SIZE:
            # A binned chunk's size word is exactly ``size`` (no flags
            # set), so IN_USE is a direct store, not a read-modify-write.
            self._write_word(base + 8, size | IN_USE)
            return base, size
        return self._split_chunk(base, csize, remainder)

    def _split_chunk(self, base: int, csize: int,
                     remainder: int) -> Tuple[int, int]:
        """Keep ``csize`` of a just-unbinned chunk, free the tail.

        A binned chunk's neighbours are in-use or the top (adjacent
        free chunks always coalesce), so the tail cannot coalesce
        either way — its free header can be written directly, skipping
        _free_chunk's probes and the transient in-use header store.
        """
        prev_size = self._read_word(base)
        # Direct pair stores: sizes here are legal by construction, so
        # write_chunk's validation wrapper is pure per-call overhead.
        self._write_word_pair(base, prev_size, csize | IN_USE)
        tail = base + csize
        self._write_word_pair(tail, csize, remainder)
        self._set_successor_prev_size(tail, remainder)
        self._bin_insert(tail, remainder)
        return base, csize

    def _extend_top(self, csize: int) -> int:
        """Carve a fresh chunk of exactly ``csize`` bytes from the top."""
        needed = self._top + csize - self.memory.brk
        if needed > 0:
            self.memory.sbrk(page_align_up(max(needed, GROWTH_MIN)))
        base = self._top
        self._write_word_pair(base, self._top_prev_size,
                              csize | IN_USE)
        self._top = base + csize
        if self._top > self._top_max:
            self._top_max = self._top
        self._top_prev_size = csize
        return base

    def _maybe_split(self, base: int, size: int, keep: int) -> None:
        """Split the in-use chunk ``(base, size)``, freeing the tail."""
        remainder = size - keep
        if remainder < MIN_CHUNK_SIZE:
            return
        prev_size = self.memory.read_word(base)
        write_chunk(self.memory, base, keep, prev_size, in_use=True)
        tail = base + keep
        write_chunk(self.memory, tail, remainder, keep, in_use=True)
        self._set_successor_prev_size(tail, remainder)
        self._free_chunk(tail, remainder)

    def _set_successor_prev_size(self, base: int, size: int) -> None:
        """Fix the ``prev_size`` of whatever follows chunk ``(base, size)``."""
        successor = base + size
        if successor == self._top:
            self._top_prev_size = size
        elif successor < self._top:
            self._write_word(successor, size)

    def _grow_in_place(self, chunk: ChunkView, new_csize: int) -> int:
        """Try to grow ``chunk`` to ``new_csize`` without moving it.

        Absorbs a free successor chunk, or extends into the top region
        when the chunk is the last one tiled.  Returns the chunk's new
        size on success, 0 on failure.
        """
        base = chunk.base
        size = chunk.size
        next_base = base + size

        if next_base == self._top:
            delta = new_csize - size
            needed = self._top + delta - self.memory.brk
            if needed > 0:
                self.memory.sbrk(page_align_up(max(needed, GROWTH_MIN)))
            write_chunk(self.memory, base, new_csize, chunk.prev_size,
                        in_use=True)
            self._top = base + new_csize
            if self._top > self._top_max:
                self._top_max = self._top
            self._top_prev_size = new_csize
            return new_csize

        if next_base < self._top:
            next_size = self._free_index.get(next_base)
            if next_size is not None and size + next_size >= new_csize:
                self._bin_remove(next_base, next_size)
                merged = size + next_size
                write_chunk(self.memory, base, merged, chunk.prev_size,
                            in_use=True)
                self._set_successor_prev_size(base, merged)
                self._maybe_split(base, merged, new_csize)
                return (new_csize
                        if merged - new_csize >= MIN_CHUNK_SIZE
                        else merged)
        return 0

    def _free_chunk(self, base: int,
                    size: Optional[int] = None) -> None:
        """Release the in-use chunk at ``base`` with full coalescing.

        Callers that already know the chunk size pass it to skip the
        header read; neighbour free/in-use status comes from the
        allocator's own free index (kept in lockstep with the headers),
        so the common no-coalesce case costs one word read for
        ``prev_size`` plus the free-header store.
        """
        free_index = self._free_index
        if size is None:
            size, prev_size, _ = read_header(self.memory, base)
        else:
            prev_size = self._read_word(base)

        # Coalesce forward.
        next_size = free_index.get(base + size)
        if next_size is not None:
            self._bin_remove(base + size, next_size)
            size += next_size

        # Coalesce backward.
        if prev_size and base > self.heap_start:
            prev_base = base - prev_size
            prev_free = free_index.get(prev_base)
            if prev_free is not None:
                self._bin_remove(prev_base, prev_free)
                base = prev_base
                size += prev_size
                prev_size = self._read_word(prev_base)

        if base + size == self._top:
            # Merge into the top region.
            self._top = base
            self._top_prev_size = prev_size
            self._maybe_trim()
            return

        # Inlined _set_successor_prev_size + _bin_insert: the top-merge
        # case returned above, so the successor is strictly below the
        # top and its prev_size is a direct store; the bin insert is
        # the small-bin append in every non-huge workload.
        self._write_word_pair(base, prev_size, size)
        self._write_word(base + size, size)
        free_index[base] = size
        if size <= SMALL_MAX:
            index = size // CHUNK_ALIGN
            self._small_bins[index].append(base)
            self._small_map |= 1 << index
        else:
            bisect.insort(self._large_bin, (size, base))

    def _maybe_trim(self) -> None:
        """Return excess top-region pages to the system."""
        slack = self.memory.brk - self._top
        if slack < TRIM_THRESHOLD:
            return
        delta = page_align_down(slack - TRIM_KEEP)
        if delta > 0:
            self.memory.sbrk(-delta)
