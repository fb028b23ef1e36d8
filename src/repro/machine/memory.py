"""Sparse paged virtual memory with POSIX-style protection semantics.

``VirtualMemory`` is the bottom layer of the simulated machine.  It provides
exactly the facilities HeapTherapy+ relies on from the operating system:

* a 48-bit virtual address space managed in 4 KiB pages,
* ``mmap``/``munmap``/``sbrk`` for obtaining address ranges,
* ``mprotect`` for changing page permissions — the mechanism behind guard
  pages, and
* faulting semantics: any access to an unmapped page or one lacking the
  needed permission raises :class:`~repro.machine.errors.SegmentationFault`.

Resident-set accounting mirrors Linux demand paging: a mapped page consumes
no physical memory until it is first *written* (reads of untouched pages are
served from the shared zero page).  This is what makes the paper's
observation "guard pages themselves do not increase the use of memory"
reproducible — a guard page is mapped ``PROT_NONE`` and never touched, so it
never becomes resident.

Hot-path design (every guest load/store funnels through here, so the
entire benchmark suite is bottlenecked on this file):

* page frames live in a columnar :class:`~repro.machine.pagestore.PageStore`
  arena rather than one ``bytearray`` per page; each resident page is a
  ``memoryview`` window plus a pre-cast 64-bit word view, so aligned
  word traffic is a single indexed store/load with no ``int.from_bytes``
  round trip;
* ``read``/``write``/``fill`` take a *single-page fast path* when the
  access fits in one page — the overwhelmingly common case — doing one
  dict probe and one slice instead of the general page-walk;
* a one-entry *translation cache* (page → (prot, frame, words)) and
  dedicated ``read_word``/``write_word``/``read_word_pair``/
  ``write_word_pair`` fast paths short-circuit even that probe for runs
  of accesses to the same page.  A page missing from the cache is
  fetched by one refill, ``_tlb_fill``, which only ever caches a page
  mapped with the permission the access needs; a cached page's frame is
  updated whenever it is first materialized;
* every cached translation (the one-entry cache and ``check_read``'s
  span) is dropped at one invalidation point, ``_forget``, which
  ``munmap``, ``mprotect``, a shrinking ``sbrk``, ``freeze`` and
  ``close`` all call;
* multi-page copies go through ``memoryview`` slices rather than
  per-element Python loops; the bulk word ops ``read_words``/
  ``write_words`` are thin calls to ``read``/``write``;
* ``resolve`` hands a block executor the frame views behind a
  single-page, resident, sufficiently permitted span (and ``None`` for
  any other), so a block row checks each argument's page once and then
  works on the frame directly.

Fast paths must be *observation-identical* to the general path: same
first faulting address, same ``resident_pages`` demand-paging behaviour,
same counters.  The oracle is a separate, cache-free reference address
space under ``tests/machine/reference_memory.py``;
``tests/machine/test_fastpath_equivalence.py`` runs both side by side.
The word views use the host's native byte order; the substrate assumes a
little-endian host (as the generic paths do ``int.from_bytes(...,
"little")``), which covers every platform CPython ships for today.

By default each ``VirtualMemory`` owns a private page store; pass
``page_store=`` to borrow an explicit one instead (a serving worker's
arena, which outlives the memories that draw from it).
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import MapError, OutOfMemoryError, SegmentationFault
from .layout import (
    ADDRESS_SPACE_SIZE,
    HEAP_BASE,
    HEAP_LIMIT,
    MMAP_BASE,
    MMAP_LIMIT,
    PAGE_SIZE,
    is_page_aligned,
    page_align_up,
    page_number,
)
from .pagestore import PageStore

#: No access at all; used for guard pages and red zones at page granularity.
PROT_NONE: int = 0
#: Page may be read.
PROT_READ: int = 1
#: Page may be written.
PROT_WRITE: int = 2
#: Convenience combination for ordinary data pages.
PROT_RW: int = PROT_READ | PROT_WRITE

_ZERO_PAGE = bytes(PAGE_SIZE)
_PAGE_MASK = PAGE_SIZE - 1
_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
_WORD_MASK = (1 << 64) - 1
#: Highest page offset at which a 16-byte word pair fits in one page.
_PAIR_LAST = PAGE_SIZE - 16


class VirtualMemory:
    """A sparse, permission-checked, demand-paged address space.

    The class is deliberately small and explicit: one dictionary for
    page permissions (defines what is *mapped*) and a frame table over a
    columnar page store (defines what is *resident*).  All byte-level
    operations validate permissions page by page and fault with the
    exact first offending address, which the shadow analyzer and the
    defense tests rely on.

    Args:
        fault_injector: optional hook with a ``charge(op)`` method
            (see :class:`repro.fuzz.faults.FaultInjector`) consulted
            *before* every ``mmap``/``mprotect`` call and every growing
            ``sbrk``; it may raise the op's typed error to simulate
            substrate exhaustion.  A raised charge leaves the memory
            map untouched.  ``None`` (the default) costs one attribute
            test on these management paths and nothing on data paths.
        page_store: explicit frame arena to borrow resident pages
            from.  ``None`` builds a private store owned (and torn
            down) by this instance.
    """

    __slots__ = (
        "_owns_store", "_store", "_protections", "_frames", "_frame_words",
        "_frame_slots", "_brk", "_mmap_cursor", "fault_count",
        "mprotect_count", "peak_resident_pages", "fault_injector",
        "_tlb_page", "_tlb_prot", "_tlb_frame", "_tlb_words", "_read_span",
    )

    def __init__(self, fault_injector: Optional[object] = None,
                 page_store: Optional[PageStore] = None) -> None:
        if page_store is None:
            page_store = PageStore()
            self._owns_store = True
        else:
            self._owns_store = False
        self._store = page_store
        self._protections: Dict[int, int] = {}
        #: Byte view of each resident page (window into the store).
        self._frames: Dict[int, memoryview] = {}
        #: The same windows cast to 64-bit words ('Q').
        self._frame_words: Dict[int, memoryview] = {}
        #: Store slot backing each resident page (for freeing).
        self._frame_slots: Dict[int, int] = {}
        self._brk: int = HEAP_BASE
        self._mmap_cursor: int = MMAP_BASE
        #: Lifetime counters, useful for tests and cost accounting.
        self.fault_count: int = 0
        self.mprotect_count: int = 0
        #: High-water mark of resident pages (the paper's RSS sampling).
        self.peak_resident_pages: int = 0
        #: Fault-injection hook for mapping-management operations.
        self.fault_injector = fault_injector
        # One-entry translation cache: last page touched by a fast-path
        # access.  ``_tlb_page`` is -1 when empty; ``_tlb_frame`` and
        # ``_tlb_words`` are ``None`` while the page is still backed by
        # the zero page.
        self._tlb_page: int = -1
        self._tlb_prot: int = 0
        self._tlb_frame: Optional[memoryview] = None
        self._tlb_words: Optional[memoryview] = None
        # One-entry readability cache: the last page span validated by
        # :meth:`check_read` (the zero-copy send path re-checks the same
        # cached response body for every request).  Invalidated wherever
        # protections can be revoked, alongside the TLB.
        self._read_span: Tuple[int, int] = (-1, -1)

    @property
    def page_store(self) -> PageStore:
        """The frame arena resident pages are drawn from."""
        return self._store

    # ------------------------------------------------------------------
    # Mapping management
    # ------------------------------------------------------------------

    def mmap(self, length: int, prot: int = PROT_RW,
             address: Optional[int] = None) -> int:
        """Map ``length`` bytes (rounded up to pages) and return the base.

        Without ``address`` the mapping is placed at the current mmap cursor
        (deterministic bump allocation).  With ``address`` the mapping is
        fixed and must not overlap an existing mapping.  A call that
        raises changes nothing, the cursor included.
        """
        if length <= 0:
            raise MapError(f"mmap: invalid length {length}")
        if self.fault_injector is not None:
            self.fault_injector.charge("mmap")
        length = page_align_up(length)
        placed = address is None
        if placed:
            address = self._mmap_cursor
            if address + length > MMAP_LIMIT:
                raise OutOfMemoryError("mmap area exhausted")
        else:
            if not is_page_aligned(address):
                raise MapError(f"mmap: address 0x{address:x} not page aligned")
            if address < 0:
                raise MapError(f"mmap: negative address {address:#x}")
            if address + length > ADDRESS_SPACE_SIZE:
                raise MapError("mmap: mapping exceeds address space")
        first = page_number(address)
        pages = range(first, first + length // PAGE_SIZE)
        protections = self._protections
        if not protections.keys().isdisjoint(pages):
            pno = next(pno for pno in pages if pno in protections)
            raise MapError(f"mmap: page 0x{pno << 12:x} already mapped")
        if placed:
            self._mmap_cursor = address + length
        protections.update(zip(pages, repeat(prot)))
        # Freshly mapped pages were unmapped a moment ago, so they cannot
        # be sitting in the translation cache; no invalidation needed.
        return address

    def munmap(self, address: int, length: int) -> None:
        """Unmap ``length`` bytes starting at the page-aligned ``address``."""
        if not is_page_aligned(address):
            raise MapError(f"munmap: address 0x{address:x} not page aligned")
        if length <= 0:
            raise MapError(f"munmap: invalid length {length}")
        first = page_number(address)
        self._unmap(range(first, first + page_align_up(length) // PAGE_SIZE))

    def mprotect(self, address: int, length: int, prot: int) -> None:
        """Change the protection of every page overlapping the range.

        Mirrors POSIX: the whole range must already be mapped, and the
        address must be page aligned.  Counting calls lets benchmarks charge
        a realistic cost to guard-page installation and removal.
        """
        if not is_page_aligned(address):
            raise MapError(
                f"mprotect: address 0x{address:x} not page aligned")
        if length <= 0:
            raise MapError(f"mprotect: invalid length {length}")
        if self.fault_injector is not None:
            self.fault_injector.charge("mprotect")
        first = page_number(address)
        count = page_align_up(length) // PAGE_SIZE
        for pno in range(first, first + count):
            if pno not in self._protections:
                raise MapError(
                    f"mprotect: page 0x{pno << 12:x} is not mapped")
        for pno in range(first, first + count):
            self._protections[pno] = prot
        self.mprotect_count += 1
        self._forget()

    def sbrk(self, increment: int) -> int:
        """Grow (or shrink) the program break; return the previous break.

        New heap pages are mapped read-write.  Shrinking unmaps and discards
        the released pages, as Linux does for ``brk``.
        """
        old_brk = self._brk
        new_brk = old_brk + increment
        if increment > 0:
            if self.fault_injector is not None:
                self.fault_injector.charge("sbrk")
            if new_brk > HEAP_LIMIT:
                raise OutOfMemoryError("heap limit exceeded")
            first_new = page_number(page_align_up(old_brk))
            last = page_number(page_align_up(new_brk))
            for pno in range(first_new, last):
                if pno not in self._protections:
                    self._protections[pno] = PROT_RW
        elif increment < 0:
            if new_brk < HEAP_BASE:
                raise MapError("sbrk: cannot shrink below heap base")
            self._unmap(range(page_number(page_align_up(new_brk)),
                              page_number(page_align_up(old_brk))))
        self._brk = new_brk
        return old_brk

    @property
    def brk(self) -> int:
        """The current program break."""
        return self._brk

    def _unmap(self, pages: range) -> None:
        """Drop ``pages``' mappings and resident frames."""
        protections = self._protections
        frames = self._frames
        for pno in pages:
            protections.pop(pno, None)
            if pno in frames:
                del frames[pno]
                del self._frame_words[pno]
                self._store.free(self._frame_slots.pop(pno))
        self._forget()

    def _forget(self) -> None:
        """Drop every cached translation: the one invalidation point for
        anything that revokes a mapping, a permission or a frame."""
        self._tlb_page = -1
        self._tlb_frame = None
        self._tlb_words = None
        self._read_span = (-1, -1)

    # ------------------------------------------------------------------
    # Access checking
    # ------------------------------------------------------------------

    def _denied(self, address: int, size: int, needed: int) -> Optional[int]:
        """The first page of ``[address, address+size)`` not mapped with
        every bit of ``needed``, or ``None``.  ``size`` must be positive."""
        protections = self._protections
        for pno in range(address >> _PAGE_SHIFT,
                         ((address + size - 1) >> _PAGE_SHIFT) + 1):
            prot = protections.get(pno)
            if prot is None or (prot & needed) != needed:
                return pno
        return None

    def _check(self, address: int, size: int, needed: int, kind: str) -> None:
        if size <= 0:
            raise MapError(f"invalid access size {size}")
        if address < 0 or address + size > ADDRESS_SPACE_SIZE:
            self.fault_count += 1
            raise SegmentationFault(address, kind, size)
        pno = self._denied(address, size, needed)
        if pno is not None:
            self.fault_count += 1
            raise SegmentationFault(max(address, pno << _PAGE_SHIFT), kind,
                                    size)

    def _tlb_fill(self, pno: int, needed: int) -> bool:
        """Point the translation cache at page ``pno`` if it is mapped
        with every bit of ``needed``; otherwise return False and leave
        the cache as it was."""
        prot = self._protections.get(pno)
        if prot is None or (prot & needed) != needed:
            return False
        self._tlb_page = pno
        self._tlb_prot = prot
        self._tlb_frame = self._frames.get(pno)
        self._tlb_words = self._frame_words.get(pno)
        return True

    def _translate(self, address: int, size: int, needed: int,
                   kind: str) -> Tuple[int, int, Optional[memoryview]]:
        """Fast-path translation of a single-page access.

        The caller guarantees ``0 < size`` and that ``[address,
        address+size)`` lies within one page with ``address >= 0``.
        Returns ``(page, offset, frame)``; faults exactly as the general
        ``_check`` would.
        """
        pno = address >> _PAGE_SHIFT
        if ((pno != self._tlb_page or (self._tlb_prot & needed) != needed)
                and not self._tlb_fill(pno, needed)):
            self.fault_count += 1
            raise SegmentationFault(address, kind, size)
        return pno, address & _PAGE_MASK, self._tlb_frame

    def check_read(self, address: int, size: int) -> None:
        """Permission-check a read of the range without copying it.

        Faults exactly where :meth:`read` would — the zero-copy send
        path (``sendfile``) still takes a guard-page fault if the range
        crosses into sealed memory.  A successful check caches its page
        span; re-checks of the same span (the steady-state cached-body
        send) are free until any protection is revoked.
        """
        if size > 0 and address >= 0:
            span = (address >> _PAGE_SHIFT,
                    (address + size - 1) >> _PAGE_SHIFT)
            if span == self._read_span:
                return
            self._check(address, size, PROT_READ, "read")
            self._read_span = span
            return
        self._check(address, size, PROT_READ, "read")

    def resolve(self, address: int, size: int, needed: int
                ) -> Optional[Tuple[memoryview, memoryview, int]]:
        """The frame behind ``[address, address+size)``, if direct access
        to it needs no fault and no first touch.

        Returns ``(frame, words, page_base)`` (the page's byte view, its
        64-bit word view and its base address) when the range lies in
        one page that is mapped with every bit of ``needed`` and is
        resident; ``None`` otherwise.  A pure query: it never faults,
        materializes a page, bumps a counter or touches the translation
        cache, so a caller that gets ``None`` can redo the access through
        the checked methods and observe exactly what they observe.
        """
        pno = address >> _PAGE_SHIFT
        if (size <= 0 or address < 0
                or (address + size - 1) >> _PAGE_SHIFT != pno):
            return None
        prot = self._protections.get(pno, 0)
        if (prot & needed) != needed:
            return None
        words = self._frame_words.get(pno)
        if words is None:
            return None
        return self._frames[pno], words, pno << _PAGE_SHIFT

    def is_mapped(self, address: int, size: int = 1) -> bool:
        """True if every page in ``[address, address+size)`` is mapped."""
        return (size > 0 and address >= 0
                and self._denied(address, size, PROT_NONE) is None)

    def protection_of(self, address: int) -> Optional[int]:
        """Return the protection flags of the page holding ``address``."""
        return self._protections.get(page_number(address))

    def is_accessible(self, address: int, size: int = 1,
                      write: bool = False) -> bool:
        """True if the range can be read (and written, if asked) safely."""
        return (size > 0 and address >= 0
                and self._denied(address, size,
                                 PROT_RW if write else PROT_READ) is None)

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------

    def read(self, address: int, size: int) -> bytes:
        """Read ``size`` bytes, faulting on any protection violation."""
        if (0 < size and (address & _PAGE_MASK) + size <= PAGE_SIZE
                and address >= 0):
            _, offset, frame = self._translate(address, size, PROT_READ,
                                               "read")
            if frame is None:
                return _ZERO_PAGE[offset:offset + size]
            return bytes(frame[offset:offset + size])
        self._check(address, size, PROT_READ, "read")
        return self._copy_out(address, size)

    def write(self, address: int, data: bytes) -> None:
        """Write ``data``, faulting on any protection violation."""
        size = len(data)
        if size == 0:
            return
        if (address & _PAGE_MASK) + size <= PAGE_SIZE and address >= 0:
            pno, offset, frame = self._translate(address, size, PROT_WRITE,
                                                 "write")
            if frame is None:
                frame = self._materialize(pno)
            frame[offset:offset + size] = data
            return
        self._check(address, size, PROT_WRITE, "write")
        self._copy_in(address, data)

    def read_word(self, address: int) -> int:
        """Read a little-endian 64-bit word.

        8-aligned reads of a cached page are a single word-view load;
        everything else funnels through :meth:`read`.
        """
        if not address & 7 and address >= 0:
            pno = address >> _PAGE_SHIFT
            if ((pno == self._tlb_page and self._tlb_prot & PROT_READ)
                    or self._tlb_fill(pno, PROT_READ)):
                words = self._tlb_words
                if words is None:
                    return 0
                return words[(address & _PAGE_MASK) >> 3]
        return int.from_bytes(self.read(address, 8), "little")

    def write_word(self, address: int, value: int) -> None:
        """Write a little-endian 64-bit word (value masked to 64 bits)."""
        if not address & 7 and address >= 0:
            pno = address >> _PAGE_SHIFT
            if ((pno == self._tlb_page and self._tlb_prot & PROT_WRITE)
                    or self._tlb_fill(pno, PROT_WRITE)):
                words = self._tlb_words
                if words is None:
                    self._materialize(pno)
                    words = self._tlb_words
                words[(address & _PAGE_MASK) >> 3] = value & _WORD_MASK
                return
        self.write(address, (value & _WORD_MASK).to_bytes(8, "little"))

    def read_word_pair(self, address: int) -> Tuple[int, int]:
        """Read two consecutive 64-bit words at an 8-aligned address.

        One translation for both words — the shape of a boundary-tag
        chunk-header load.  Falls back to :meth:`read` when unaligned,
        or when the pair crosses a page.
        """
        if (not address & 7 and address >= 0
                and (address & _PAGE_MASK) <= _PAIR_LAST):
            pno = address >> _PAGE_SHIFT
            if ((pno == self._tlb_page and self._tlb_prot & PROT_READ)
                    or self._tlb_fill(pno, PROT_READ)):
                words = self._tlb_words
                if words is None:
                    return 0, 0
                i = (address & _PAGE_MASK) >> 3
                return words[i], words[i + 1]
        data = self.read(address, 16)
        return (int.from_bytes(data[:8], "little"),
                int.from_bytes(data[8:], "little"))

    def write_word_pair(self, address: int, low: int, high: int) -> None:
        """Write two consecutive 64-bit words at an 8-aligned address
        (see :meth:`read_word_pair`)."""
        if (not address & 7 and address >= 0
                and (address & _PAGE_MASK) <= _PAIR_LAST):
            pno = address >> _PAGE_SHIFT
            if ((pno == self._tlb_page and self._tlb_prot & PROT_WRITE)
                    or self._tlb_fill(pno, PROT_WRITE)):
                words = self._tlb_words
                if words is None:
                    self._materialize(pno)
                    words = self._tlb_words
                i = (address & _PAGE_MASK) >> 3
                words[i] = low & _WORD_MASK
                words[i + 1] = high & _WORD_MASK
                return
        self.write(address,
                   (low & _WORD_MASK).to_bytes(8, "little")
                   + (high & _WORD_MASK).to_bytes(8, "little"))

    def read_words(self, address: int, count: int) -> "array[int]":
        """Read ``count`` consecutive 64-bit words as an ``array('Q')``."""
        return array("Q", self.read(address, count << 3))

    def write_words(self, address: int,
                    values: Union["array[int]", Sequence[int]]) -> None:
        """Write consecutive 64-bit words (each masked to 64 bits)."""
        self.write(address,
                   array("Q", [v & _WORD_MASK for v in values]).tobytes())

    def write_word_scatter(self, addresses: Sequence[int],
                           values: Sequence[int]) -> None:
        """Write one 64-bit word at each 8-aligned address.

        Scattered batch write — the defense's metadata-stamp shape: one
        word per freshly allocated buffer.  The page lookup is hoisted
        and cached across items (a run of same-class slab slots mostly
        lands on one page), instead of re-translating per word.
        Unaligned or faulting items funnel through :meth:`write_word`,
        so faulting behavior is identical item-for-item.
        """
        cached_pno = -1
        cached_words: Optional[memoryview] = None
        for address, value in zip(addresses, values):
            if address & 7 or address < 0:
                self.write_word(address, value)
                continue
            pno = address >> _PAGE_SHIFT
            if pno != cached_pno:
                if not self._tlb_fill(pno, PROT_WRITE):
                    self.write_word(address, value)  # faults like per-op
                    continue
                words = self._tlb_words
                if words is None:
                    self._materialize(pno)
                    words = self._tlb_words
                cached_pno = pno
                cached_words = words
            assert cached_words is not None
            cached_words[(address & _PAGE_MASK) >> 3] = value & _WORD_MASK

    def read_word_gather(self, addresses: Sequence[int]) -> List[int]:
        """Read one 64-bit word at each 8-aligned address.

        Scattered batch read (the free path's metadata loads), page
        lookup cached across items as in :meth:`write_word_scatter`.
        """
        cached_pno = -1
        cached_words: Optional[memoryview] = None
        out: List[int] = []
        append = out.append
        for address in addresses:
            if address & 7 or address < 0:
                append(self.read_word(address))
                continue
            pno = address >> _PAGE_SHIFT
            if pno != cached_pno:
                if not self._tlb_fill(pno, PROT_READ):
                    append(self.read_word(address))  # faults like per-op
                    continue
                words = self._tlb_words
                if words is None:
                    append(0)  # unmaterialized pages read as zero
                    continue
                cached_pno = pno
                cached_words = words
            assert cached_words is not None
            append(cached_words[(address & _PAGE_MASK) >> 3])
        return out

    def fill(self, address: int, size: int, byte: int = 0) -> None:
        """Set ``size`` bytes to ``byte`` (memset).

        Zero-copy: fills page frames in place instead of materializing a
        ``size``-byte pattern first.  Filling *writes*, so touched pages
        become resident exactly as they would under ``write``.
        """
        if size == 0:
            return
        if (0 < size and (address & _PAGE_MASK) + size <= PAGE_SIZE
                and address >= 0):
            pno, offset, frame = self._translate(address, size, PROT_WRITE,
                                                 "write")
            if frame is None:
                frame = self._materialize(pno)
            if byte == 0:
                frame[offset:offset + size] = _ZERO_PAGE[:size]
            else:
                frame[offset:offset + size] = bytes([byte]) * size
            return
        self._check(address, size, PROT_WRITE, "write")
        self._fill_pages(address, size, byte)

    def peek(self, address: int, size: int) -> bytes:
        """Read bytes *without* permission checks (debugger access).

        Used by the offline analyzer, which — like Valgrind — can observe
        memory the guest program cannot.  Unmapped bytes read as zero.
        """
        return self._copy_out(address, size)

    def poke(self, address: int, data: bytes) -> None:
        """Write bytes without permission checks (debugger access).

        The target pages must at least be mapped; protections are ignored.
        """
        if not self.is_mapped(address, max(len(data), 1)):
            raise SegmentationFault(address, "write", len(data),
                                    message="poke of unmapped memory")
        self._copy_in(address, data)

    # ------------------------------------------------------------------
    # Page-frame plumbing
    # ------------------------------------------------------------------

    def _materialize(self, pno: int) -> memoryview:
        """First write to a mapped page: give it a frame from the store."""
        slot, frame, words = self._store.alloc()
        self._frames[pno] = frame
        self._frame_words[pno] = words
        self._frame_slots[pno] = slot
        if len(self._frames) > self.peak_resident_pages:
            self.peak_resident_pages = len(self._frames)
        if pno == self._tlb_page:
            self._tlb_frame = frame
            self._tlb_words = words
        return frame

    def _copy_out(self, address: int, size: int) -> bytes:
        if size <= 0:
            return b""
        out = bytearray(size)
        view = memoryview(out)
        frames = self._frames
        position = 0
        cursor = address
        remaining = size
        while remaining > 0:
            pno = cursor >> _PAGE_SHIFT
            offset = cursor & _PAGE_MASK
            chunk = min(PAGE_SIZE - offset, remaining)
            frame = frames.get(pno)
            if frame is not None:
                view[position:position + chunk] = \
                    frame[offset:offset + chunk]
            # else: the preallocated buffer is already zero-filled.
            position += chunk
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def _copy_in(self, address: int, data: bytes) -> None:
        view = memoryview(data)
        frames = self._frames
        remaining = len(data)
        cursor = address
        consumed = 0
        while remaining > 0:
            pno = cursor >> _PAGE_SHIFT
            offset = cursor & _PAGE_MASK
            chunk = min(PAGE_SIZE - offset, remaining)
            frame = frames.get(pno)
            if frame is None:
                frame = self._materialize(pno)
            frame[offset:offset + chunk] = view[consumed:consumed + chunk]
            cursor += chunk
            consumed += chunk
            remaining -= chunk

    def _fill_pages(self, address: int, size: int, byte: int) -> None:
        """Page-walking memset; never builds a ``size``-byte pattern."""
        frames = self._frames
        pattern = _ZERO_PAGE if byte == 0 else bytes([byte]) * PAGE_SIZE
        remaining = size
        cursor = address
        while remaining > 0:
            pno = cursor >> _PAGE_SHIFT
            offset = cursor & _PAGE_MASK
            chunk = min(PAGE_SIZE - offset, remaining)
            frame = frames.get(pno)
            if frame is None:
                frame = self._materialize(pno)
            frame[offset:offset + chunk] = pattern[:chunk]
            cursor += chunk
            remaining -= chunk

    # ------------------------------------------------------------------
    # Images and forks
    # ------------------------------------------------------------------

    def freeze(self) -> None:
        """Turn this address space into an image for :meth:`fork`.

        Every resident page moves out of the page store into immutable
        bytes, and its frame goes back to the store, so an image holds
        no store frame however long it is kept.  Mappings, counters and
        contents read as before; a write to a resident page raises
        ``TypeError``.  An image is meant to be read by :meth:`fork`
        only.
        """
        frames = self._frames
        words = self._frame_words
        for pno, frame in frames.items():
            image = memoryview(bytes(frame))
            frames[pno] = image
            words[pno] = image.cast("Q")
        self._store.free_many(self._frame_slots.values())
        self._frame_slots.clear()
        self._forget()

    def fork(self, page_store: Optional[PageStore] = None
             ) -> "VirtualMemory":
        """A copy of this address space over ``page_store`` (a private
        store when omitted): the same mappings, break, mmap cursor,
        counters and page contents.  The copy's resident pages come
        from one :meth:`PageStore.alloc_copies` call; it shares no
        frame with this memory."""
        twin = VirtualMemory(self.fault_injector, page_store)
        twin._protections.update(self._protections)
        twin._brk = self._brk
        twin._mmap_cursor = self._mmap_cursor
        twin.fault_count = self.fault_count
        twin.mprotect_count = self.mprotect_count
        twin.peak_resident_pages = self.peak_resident_pages
        frames = twin._frames
        words = twin._frame_words
        slots = twin._frame_slots
        copies = twin._store.alloc_copies(list(self._frames.values()))
        for pno, (slot, frame, word) in zip(self._frames, copies):
            frames[pno] = frame
            words[pno] = word
            slots[pno] = slot
        return twin

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release all resident frames (and a privately owned store).

        Optional: garbage collection performs the same cleanup.  Useful
        when many ``VirtualMemory`` instances share a long-lived store
        and slots should be returned promptly.
        """
        self._store.free_many(self._frame_slots.values())
        self._frames.clear()
        self._frame_words.clear()
        self._frame_slots.clear()
        self._forget()
        if self._owns_store:
            self._store.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        # Return slots to a borrowed (externally owned) store so long-lived
        # arenas do not leak pages as VirtualMemory instances come and go.
        try:
            if not self._owns_store:
                self._store.free_many(self._frame_slots.values())
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Accounting & introspection
    # ------------------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        """Number of pages that have been materialized (written to)."""
        return len(self._frames)

    @property
    def resident_bytes(self) -> int:
        """Resident set size in bytes — the simulated ``VmRSS``."""
        return len(self._frames) * PAGE_SIZE

    @property
    def mapped_pages(self) -> int:
        """Number of pages currently mapped (any protection)."""
        return len(self._protections)

    @property
    def mapped_bytes(self) -> int:
        """Total mapped bytes — the simulated ``VmSize`` contribution."""
        return len(self._protections) * PAGE_SIZE

    def iter_mappings(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(start, length, prot)`` for maximal contiguous runs."""
        pages = sorted(self._protections)
        i = 0
        while i < len(pages):
            start = pages[i]
            prot = self._protections[start]
            j = i
            while (j + 1 < len(pages) and pages[j + 1] == pages[j] + 1
                   and self._protections[pages[j + 1]] == prot):
                j += 1
            yield (start * PAGE_SIZE, (j - i + 1) * PAGE_SIZE, prot)
            i = j + 1
