"""A second, structurally different allocator: segregated storage.

The paper's property (5) — *no dependency on specific heap allocators* —
is only credible if the defense demonstrably works over allocators with
different internals.  ``SegregatedAllocator`` is deliberately nothing
like :class:`~repro.allocator.libc.LibcAllocator`:

* memory comes from ``mmap`` slabs, not ``sbrk`` (no contiguous heap,
  no boundary tags, no coalescing);
* small objects live in power-of-two size classes with per-class free
  slot lists (tcmalloc-style); slots are naturally aligned to their
  class size;
* large objects get dedicated page-aligned mappings released with
  ``munmap`` on free;
* object size is tracked in an internal page-map, not in headers before
  the user data.

The full HeapTherapy+ pipeline runs unchanged over it (see
``tests/allocator/test_segregated.py`` and the transparency tests),
because the defense only ever touches the public ``Allocator`` API.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..machine.errors import (DoubleFree, InvalidFree, MapError,
                              OutOfMemoryError)
from ..machine.layout import (PAGE_SIZE, SIZE_MAX, is_power_of_two,
                              page_align_up)
from ..machine.memory import VirtualMemory
from .base import Allocator
from .stats import AllocationStats

#: Smallest size class in bytes.
MIN_CLASS = 16

#: Largest size served from slabs; bigger requests get dedicated maps.
MAX_CLASS = 4096

#: Bytes per slab mapping.
SLAB_SIZE = 16 * PAGE_SIZE


def _size_class(size: int) -> int:
    """Round a request up to its power-of-two class."""
    if size <= MIN_CLASS:
        return MIN_CLASS
    return 1 << (size - 1).bit_length()


class SegregatedAllocator(Allocator):
    """Size-class slab allocator over ``mmap``."""

    def __init__(self, memory: Optional[VirtualMemory] = None,
                 map_cache: int = 0) -> None:
        self.memory = memory if memory is not None else VirtualMemory()
        #: class size -> free slot addresses (LIFO).
        self._free_slots: Dict[int, List[int]] = {}
        #: user address -> (kind, info): ("slot", class) or
        #: ("large", (map_base, map_length)).
        self._objects: Dict[int, Tuple[str, object]] = {}
        #: Addresses that were once live (double-free detection).
        self._retired: set = set()
        self.stats = AllocationStats()
        #: Slab mappings created, for introspection.
        self.slabs_mapped = 0
        #: Large-mapping cache (tcmalloc's span cache / dlmalloc's mmap
        #: threshold caching): up to ``map_cache`` freed dedicated
        #: mappings are retained per run and reused LIFO for same-length
        #: requests instead of ``munmap``/``mmap`` round trips.  Off by
        #: default — freed large objects then unmap eagerly, which is
        #: what the use-after-free detection tests rely on.
        self._map_cache: Dict[int, List[int]] = {}
        self._map_cache_limit = map_cache
        self._map_cached = 0

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------

    def _refill(self, cls: int) -> None:
        base = self.memory.mmap(SLAB_SIZE)
        self.slabs_mapped += 1
        self._free_slots.setdefault(cls, []).extend(
            range(base, base + SLAB_SIZE, cls))

    def _alloc_small(self, size: int) -> int:
        cls = _size_class(size)
        slots = self._free_slots.get(cls)
        if not slots:
            self._refill(cls)
            slots = self._free_slots[cls]
        address = slots.pop()
        self._objects[address] = ("slot", cls)
        self._retired.discard(address)
        return address

    def _alloc_large(self, size: int, alignment: int = PAGE_SIZE) -> int:
        if alignment <= PAGE_SIZE:
            length = page_align_up(max(size, 1))
            cached = self._map_cache.get(length)
            if cached:
                base = cached.pop()
                self._map_cached -= 1
            else:
                base = self.memory.mmap(length)
            self._objects[base] = ("large", (base, length))
            self._retired.discard(base)
            return base
        # Over-map, align inside, remember the true mapping extent.
        length = page_align_up(size + alignment)
        base = self.memory.mmap(length)
        user = (base + alignment - 1) & ~(alignment - 1)
        self._objects[user] = ("large", (base, length))
        self._retired.discard(user)
        return user

    def _allocate(self, size: int, alignment: int = 0) -> int:
        if alignment > MAX_CLASS or size > MAX_CLASS:
            return self._alloc_large(size, max(alignment, PAGE_SIZE))
        if alignment > 0:
            # Slots are naturally aligned to their class size; choose a
            # class no smaller than the alignment.
            cls = max(_size_class(max(size, 1)), alignment)
            return self._alloc_small(cls)
        return self._alloc_small(max(size, 1))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def malloc(self, size: int) -> int:
        if size < 0:
            raise ValueError("malloc: negative size")
        address = self._allocate(size)
        self.stats.record_alloc()
        return address

    def calloc(self, nmemb: int, size: int) -> int:
        if nmemb < 0 or size < 0:
            raise ValueError("calloc: negative argument")
        total = nmemb * size
        if total > SIZE_MAX:
            # glibc's overflow check: the product cannot be represented
            # in a size_t, so the request must fail, not wrap.
            raise OutOfMemoryError(
                f"calloc: {nmemb} * {size} overflows size_t")
        address = self._allocate(total)
        self.memory.fill(address, max(total, 1), 0)
        self.stats.record_alloc("calloc")
        return address

    def memalign(self, alignment: int, size: int) -> int:
        if not is_power_of_two(alignment):
            raise ValueError(
                f"memalign: alignment {alignment} is not a power of two")
        address = self._allocate(size, alignment)
        self.stats.record_alloc("memalign")
        return address

    def realloc(self, address: int, size: int) -> int:
        if address == 0:
            return self.malloc(size)
        if size == 0:
            self.free(address)
            return 0
        old_usable = self.malloc_usable_size(address)
        new_address = self._allocate(size)
        keep = min(old_usable, size)
        if keep:
            self.memory.write(new_address, self.memory.read(address, keep))
        self.stats.record_alloc("realloc")
        self._release(address)
        self.stats.record_free()
        return new_address

    def free(self, address: int) -> None:
        if address == 0:
            return
        self._release(address)
        self.stats.record_free()

    # -- batched entry points (see Allocator.malloc_run) ---------------
    #
    # Uniform runs, one size class or one large length, are the
    # request-batch shapes and take list-wise fast paths.  Any other
    # ``malloc_run`` is the per-call loop, and any other ``free_run``
    # releases entry by entry through ``free``'s own body.

    def malloc_run(self, sizes: Sequence[int]) -> List[int]:
        n = len(sizes)
        first = sizes[0] if n else 0
        if not (n and first > 0 and sizes.count(first) == n):
            malloc = self.malloc
            return [malloc(size) for size in sizes]
        out: List[int] = []
        if first <= MAX_CLASS:
            cls = _size_class(first)
            try:
                self._take_slots(cls, n, out)
            finally:
                # Slots taken before a failed refill stay live and
                # counted, as they would after the per-call loop.
                self._place(out, repeat(("slot", cls)))
            return out
        length = page_align_up(first)
        self._map_large(length, n, out)
        self._place(out, (("large", (base, length)) for base in out))
        # Whatever the one mapping could not place goes per call.
        while len(out) < n:
            out.append(self.malloc(first))
        return out

    def _place(self, out: List[int],
               entries: Iterable[Tuple[str, object]]) -> None:
        """Register ``out`` as live objects and count them as mallocs."""
        self._objects.update(zip(out, entries))
        if self._retired:
            self._retired.difference_update(out)
        self.stats.record_alloc("malloc", len(out))

    def _take_slots(self, cls: int, n: int, out: List[int]) -> None:
        """Append ``n`` slots of class ``cls`` to ``out``: the same
        addresses, in the same order, ``n`` ``_alloc_small`` pops yield."""
        slots = self._free_slots.setdefault(cls, [])
        while len(out) < n:
            # Scalar order: drain the current free list from its tail,
            # refilling only once it runs empty — a refill mid-run must
            # not jump ahead of older slots.
            if not slots:
                self._refill(cls)
            take = min(n - len(out), len(slots))
            split = len(slots) - take
            out.extend(reversed(slots[split:]))
            del slots[split:]

    def _map_large(self, length: int, n: int, out: List[int]) -> None:
        """Append up to ``n`` dedicated mappings of ``length`` bytes to
        ``out`` without raising: drain the map cache LIFO, then map the
        rest as one cursor-placed mapping.  Protections are per page,
        so that maps the same pages at the same addresses, in the same
        order, as ``_alloc_large`` calls would, and each piece still
        unmaps alone."""
        cached = self._map_cache.get(length)
        if cached:
            take = min(n, len(cached))
            split = len(cached) - take
            out.extend(reversed(cached[split:]))
            del cached[split:]
            self._map_cached -= take
        fresh = n - len(out)
        if fresh and self.memory.fault_injector is None:
            # Under a fault schedule every piece maps alone, so the
            # injector counts the operations the per-call loop makes.
            try:
                base = self.memory.mmap(fresh * length)
            except (MapError, OutOfMemoryError):
                # A failed mmap maps nothing; the per-call loop maps the
                # same prefix and raises at the same piece.
                return
            out.extend(range(base, base + fresh * length, length))

    def free_run(self, addresses: Sequence[int]) -> None:
        # Bulk-pop every entry first (C-speed ``map``), then release by
        # shape: uniform runs do list-wise exactly what ``n`` scalar
        # ``_release`` calls would.
        live = [address for address in addresses if address]
        n = len(live)
        if n == 0:
            return
        objects = self._objects
        entries = list(map(objects.pop, live, repeat(None, n)))
        if None in entries:
            # Unknown or double free somewhere in the run: restore the
            # popped entries and replay scalar, which releases (and
            # records) the prefix and raises the canonical error at the
            # bad address.
            for address, entry in zip(live, entries):
                if entry is not None:
                    objects[address] = entry
            for address in live:
                self.free(address)
        self._retired.update(live)
        first = entries[0]
        if first[0] == "slot" and entries.count(first) == n:
            cls = first[1]
            self._free_slots.setdefault(cls, []).extend(live)
            self.stats.record_free(n)
            return
        if first[0] == "large":
            length = first[1][1]
            if all(entry[0] == "large" and entry[1] == (address, length)
                   for address, entry in zip(live, entries)):
                room = self._map_cache_limit - self._map_cached
                take = min(room, n) if room > 0 else 0
                if take:
                    self._map_cache.setdefault(
                        length, []).extend(live[:take])
                    self._map_cached += take
                munmap = self.memory.munmap
                for base in live[take:]:
                    munmap(base, length)
                self.stats.record_free(n)
                return
        release = self._release_entry
        for address, entry in zip(live, entries):
            release(address, entry)
        self.stats.record_free(n)

    def _release(self, address: int) -> None:
        """Return an object to its slab or unmap it."""
        entry = self._objects.pop(address, None)
        if entry is None:
            if address in self._retired:
                raise DoubleFree(address)
            raise InvalidFree(address,
                              reason="free of pointer not from this heap")
        self._retired.add(address)
        self._release_entry(address, entry)

    def _release_entry(self, address: int,
                       entry: Tuple[str, object]) -> None:
        """Release the popped, retired object ``entry`` at ``address``."""
        kind, info = entry
        if kind == "slot":
            self._free_slots.setdefault(info, []).append(address)
            return
        base, length = info
        if address == base and self._map_cached < self._map_cache_limit:
            # Retain the mapping for same-length reuse (over-aligned
            # mappings are excluded: their user address differs from the
            # mapping base, so reuse could not honor the alignment).
            self._map_cache.setdefault(length, []).append(base)
            self._map_cached += 1
        else:
            self.memory.munmap(base, length)

    def malloc_usable_size(self, address: int) -> int:
        if address == 0:
            return 0
        entry = self._objects.get(address)
        if entry is None:
            raise InvalidFree(address, reason="unknown pointer")
        kind, info = entry
        if kind == "slot":
            return info
        base, length = info
        return base + length - address

    def fork(self, memory: VirtualMemory) -> "SegregatedAllocator":
        twin = SegregatedAllocator(memory, map_cache=self._map_cache_limit)
        twin._free_slots = {cls: list(slots)
                            for cls, slots in self._free_slots.items()}
        twin._objects = dict(self._objects)
        twin._retired = set(self._retired)
        twin.stats.copy_from(self.stats)
        twin.slabs_mapped = self.slabs_mapped
        twin._map_cache = {length: list(bases)
                           for length, bases in self._map_cache.items()}
        twin._map_cached = self._map_cached
        return twin

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def live_buffer_count(self) -> int:
        """Number of outstanding objects."""
        return len(self._objects)
