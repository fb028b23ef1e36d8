"""A cache-free reference address space: the oracle for ``VirtualMemory``.

``ReferenceMemory`` implements the surface of
:class:`repro.machine.memory.VirtualMemory` that the allocators,
``Process`` and the defense call, in the most direct way available: one
dict of page protections, one dict of resident ``bytearray`` pages, one
permission check per byte range.  It has no translation cache, no word
views and no single-page shortcuts; every word, pair, bulk, scatter and
gather op is a byte op.  The production memory's fast paths must be
observation-identical to it: same results, same first faulting address,
same counters, same demand-paging residency.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.machine import MapError, OutOfMemoryError, SegmentationFault
from repro.machine.layout import (
    ADDRESS_SPACE_SIZE,
    HEAP_BASE,
    HEAP_LIMIT,
    MMAP_BASE,
    MMAP_LIMIT,
    PAGE_SIZE,
)
from repro.machine.memory import PROT_READ, PROT_RW, PROT_WRITE

_WORD_MASK = (1 << 64) - 1


def _pages(address: int, size: int) -> range:
    """Page numbers covering ``[address, address + size)``, size > 0."""
    return range(address // PAGE_SIZE, (address + size - 1) // PAGE_SIZE + 1)


def _word_bytes(value: int) -> bytes:
    return (value & _WORD_MASK).to_bytes(8, "little")


class ReferenceMemory:
    """Sparse, permission-checked, demand-paged memory without caches."""

    def __init__(self, fault_injector: Optional[object] = None) -> None:
        self._protections: Dict[int, int] = {}
        self._resident: Dict[int, bytearray] = {}
        self._brk = HEAP_BASE
        self._mmap_cursor = MMAP_BASE
        self.fault_count = 0
        self.mprotect_count = 0
        self.peak_resident_pages = 0
        self.fault_injector = fault_injector

    # -- mapping management --------------------------------------------

    def _charge(self, op: str) -> None:
        if self.fault_injector is not None:
            self.fault_injector.charge(op)

    def mmap(self, length: int, prot: int = PROT_RW,
             address: Optional[int] = None) -> int:
        if length <= 0:
            raise MapError(f"mmap: invalid length {length}")
        self._charge("mmap")
        length = -(-length // PAGE_SIZE) * PAGE_SIZE
        if address is None:
            base = self._mmap_cursor
            if base + length > MMAP_LIMIT:
                raise OutOfMemoryError("mmap area exhausted")
        else:
            base = address
            if base % PAGE_SIZE:
                raise MapError("mmap: address not page aligned")
            if base < 0 or base + length > ADDRESS_SPACE_SIZE:
                raise MapError("mmap: mapping outside the address space")
        pages = _pages(base, length)
        if any(pno in self._protections for pno in pages):
            raise MapError("mmap: range already mapped")
        if address is None:
            self._mmap_cursor = base + length
        for pno in pages:
            self._protections[pno] = prot
        return base

    def _unmap_pages(self, pages: range) -> None:
        for pno in pages:
            self._protections.pop(pno, None)
            self._resident.pop(pno, None)

    def munmap(self, address: int, length: int) -> None:
        if address % PAGE_SIZE:
            raise MapError("munmap: address not page aligned")
        if length <= 0:
            raise MapError(f"munmap: invalid length {length}")
        self._unmap_pages(_pages(address, length))

    def mprotect(self, address: int, length: int, prot: int) -> None:
        if address % PAGE_SIZE:
            raise MapError("mprotect: address not page aligned")
        if length <= 0:
            raise MapError(f"mprotect: invalid length {length}")
        self._charge("mprotect")
        pages = _pages(address, length)
        if not all(pno in self._protections for pno in pages):
            raise MapError("mprotect: range not mapped")
        for pno in pages:
            self._protections[pno] = prot
        self.mprotect_count += 1

    def sbrk(self, increment: int) -> int:
        old = self._brk
        new = old + increment
        # Pages wholly or partly below a break are heap pages.
        old_top = -(-old // PAGE_SIZE)
        new_top = -(-new // PAGE_SIZE)
        if increment > 0:
            self._charge("sbrk")
            if new > HEAP_LIMIT:
                raise OutOfMemoryError("heap limit exceeded")
            for pno in range(old_top, new_top):
                self._protections.setdefault(pno, PROT_RW)
        elif increment < 0:
            if new < HEAP_BASE:
                raise MapError("sbrk: cannot shrink below heap base")
            self._unmap_pages(range(new_top, old_top))
        self._brk = new
        return old

    @property
    def brk(self) -> int:
        return self._brk

    # -- access checking -----------------------------------------------

    def _check(self, address: int, size: int, needed: int, kind: str) -> None:
        if size <= 0:
            raise MapError(f"invalid access size {size}")
        if address < 0 or address + size > ADDRESS_SPACE_SIZE:
            self.fault_count += 1
            raise SegmentationFault(address, kind, size)
        for pno in _pages(address, size):
            prot = self._protections.get(pno)
            if prot is None or (prot & needed) != needed:
                self.fault_count += 1
                raise SegmentationFault(max(address, pno * PAGE_SIZE),
                                        kind, size)

    def check_read(self, address: int, size: int) -> None:
        self._check(address, size, PROT_READ, "read")

    def is_mapped(self, address: int, size: int = 1) -> bool:
        if size <= 0 or address < 0:
            return False
        return all(pno in self._protections
                   for pno in _pages(address, size))

    def protection_of(self, address: int) -> Optional[int]:
        return self._protections.get(address // PAGE_SIZE)

    def is_accessible(self, address: int, size: int = 1,
                      write: bool = False) -> bool:
        needed = PROT_RW if write else PROT_READ
        if size <= 0 or address < 0:
            return False
        return all(
            (self._protections.get(pno, 0) & needed) == needed
            for pno in _pages(address, size))

    # -- unchecked byte transfer ---------------------------------------

    def _spans(self, address: int,
               size: int) -> Iterator[Tuple[int, slice, slice]]:
        """``(page, slice in page, slice in buffer)`` for each page the
        byte range ``[address, address + size)`` touches."""
        for pno in _pages(address, size) if size > 0 else ():
            low = max(address, pno * PAGE_SIZE)
            high = min(address + size, (pno + 1) * PAGE_SIZE)
            yield (pno, slice(low - pno * PAGE_SIZE, high - pno * PAGE_SIZE),
                   slice(low - address, high - address))

    def _load(self, address: int, size: int) -> bytes:
        out = bytearray(max(size, 0))
        for pno, in_page, in_out in self._spans(address, size):
            page = self._resident.get(pno)
            if page is not None:
                out[in_out] = page[in_page]
        return bytes(out)

    def _store(self, address: int, data: bytes) -> None:
        for pno, in_page, in_data in self._spans(address, len(data)):
            page = self._resident.get(pno)
            if page is None:
                page = self._resident[pno] = bytearray(PAGE_SIZE)
                self.peak_resident_pages = max(self.peak_resident_pages,
                                               len(self._resident))
            page[in_page] = data[in_data]

    # -- data access ---------------------------------------------------

    def read(self, address: int, size: int) -> bytes:
        self._check(address, size, PROT_READ, "read")
        return self._load(address, size)

    def write(self, address: int, data: bytes) -> None:
        if not data:
            return
        self._check(address, len(data), PROT_WRITE, "write")
        self._store(address, data)

    def fill(self, address: int, size: int, byte: int = 0) -> None:
        if size == 0:
            return
        self._check(address, size, PROT_WRITE, "write")
        self._store(address, bytes([byte]) * size)

    def peek(self, address: int, size: int) -> bytes:
        return self._load(address, size)

    def poke(self, address: int, data: bytes) -> None:
        if not self.is_mapped(address, max(len(data), 1)):
            raise SegmentationFault(address, "write", len(data),
                                    message="poke of unmapped memory")
        self._store(address, data)

    def read_word(self, address: int) -> int:
        return int.from_bytes(self.read(address, 8), "little")

    def write_word(self, address: int, value: int) -> None:
        self.write(address, _word_bytes(value))

    def read_word_pair(self, address: int) -> Tuple[int, int]:
        data = self.read(address, 16)
        return (int.from_bytes(data[:8], "little"),
                int.from_bytes(data[8:], "little"))

    def write_word_pair(self, address: int, low: int, high: int) -> None:
        self.write(address, _word_bytes(low) + _word_bytes(high))

    def read_words(self, address: int, count: int) -> "array[int]":
        return array("Q", self.read(address, count * 8))

    def write_words(self, address: int, values: Sequence[int]) -> None:
        self.write(address, b"".join(_word_bytes(v) for v in values))

    def write_word_scatter(self, addresses: Sequence[int],
                           values: Sequence[int]) -> None:
        for address, value in zip(addresses, values):
            self.write_word(address, value)

    def read_word_gather(self, addresses: Sequence[int]) -> List[int]:
        return [self.read_word(address) for address in addresses]

    # -- accounting ----------------------------------------------------

    @property
    def resident_pages(self) -> int:
        return len(self._resident)

    @property
    def mapped_bytes(self) -> int:
        return len(self._protections) * PAGE_SIZE

    def iter_mappings(self) -> Iterator[Tuple[int, int, int]]:
        run: Optional[List[int]] = None  # [first page, pages, prot]
        for pno in sorted(self._protections):
            prot = self._protections[pno]
            if run is not None and run[0] + run[1] == pno and run[2] == prot:
                run[1] += 1
                continue
            if run is not None:
                yield run[0] * PAGE_SIZE, run[1] * PAGE_SIZE, run[2]
            run = [pno, 1, prot]
        if run is not None:
            yield run[0] * PAGE_SIZE, run[1] * PAGE_SIZE, run[2]
