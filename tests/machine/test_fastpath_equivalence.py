"""Fast-path equivalence: the optimized memory paths must be
observation-identical to the slow validator (``fast_paths=False``) —
same fault addresses, same residency accounting, same cycle totals.
"""

import pytest

from repro.allocator.libc import LibcAllocator
from repro.machine import (
    PAGE_SIZE,
    PROT_NONE,
    PROT_READ,
    PROT_RW,
    SegmentationFault,
    VirtualMemory,
)
from repro.program.callgraph import CallGraph
from repro.program.process import Process, ProgramLike


def _pair():
    return VirtualMemory(fast_paths=True), VirtualMemory(fast_paths=False)


def _fault_address(fn):
    with pytest.raises(SegmentationFault) as exc:
        fn()
    return exc.value.address


class TestFaultEquivalence:
    """Every fault the fast path raises matches the slow path exactly."""

    def test_unmapped_read_same_fault_address(self):
        fast, slow = _pair()
        for mem in (fast, slow):
            mem.mmap(PAGE_SIZE)
        target = 0x7000_0000_0123
        assert (_fault_address(lambda: fast.read(target, 8))
                == _fault_address(lambda: slow.read(target, 8))
                == target)
        assert fast.fault_count == slow.fault_count == 1

    def test_protection_fault_same_address(self):
        fast, slow = _pair()
        addrs = []
        for mem in (fast, slow):
            a = mem.mmap(2 * PAGE_SIZE, prot=PROT_RW)
            mem.mprotect(a, PAGE_SIZE, PROT_READ)
            addrs.append(a)
        fa = _fault_address(lambda: fast.write(addrs[0] + 5, b"x"))
        sa = _fault_address(lambda: slow.write(addrs[1] + 5, b"x"))
        assert fa - addrs[0] == sa - addrs[1] == 5

    def test_cross_page_fault_at_second_page(self):
        """A straddling access faults at the *second* page's base when
        only the first page is accessible — both modes agree."""
        fast, slow = _pair()
        offsets = []
        for mem in (fast, slow):
            a = mem.mmap(2 * PAGE_SIZE, prot=PROT_RW)
            mem.mprotect(a + PAGE_SIZE, PAGE_SIZE, PROT_NONE)
            start = a + PAGE_SIZE - 4
            offsets.append(_fault_address(lambda: mem.read(start, 8)) - a)
        assert offsets[0] == offsets[1] == PAGE_SIZE

    def test_negative_and_huge_addresses(self):
        fast, slow = _pair()
        for target in (-8, (1 << 48) - 4):
            fa = _fault_address(lambda: fast.read(target, 8))
            sa = _fault_address(lambda: slow.read(target, 8))
            assert fa == sa

    def test_fill_invalid_size_rejected_in_both(self):
        from repro.machine import MapError
        fast, slow = _pair()
        for mem in (fast, slow):
            a = mem.mmap(PAGE_SIZE, prot=PROT_RW)
            with pytest.raises(MapError):
                mem.fill(a, -4, 0)


class TestTlbInvalidation:
    """The one-entry translation cache never serves stale state."""

    def test_munmap_invalidates(self):
        mem = VirtualMemory()
        a = mem.mmap(PAGE_SIZE, prot=PROT_RW)
        mem.write(a, b"hello")
        mem.munmap(a, PAGE_SIZE)
        with pytest.raises(SegmentationFault):
            mem.read(a, 4)

    def test_mprotect_invalidates(self):
        mem = VirtualMemory()
        a = mem.mmap(PAGE_SIZE, prot=PROT_RW)
        mem.write(a, b"hello")
        mem.mprotect(a, PAGE_SIZE, PROT_NONE)
        with pytest.raises(SegmentationFault):
            mem.read(a, 4)

    def test_sbrk_shrink_invalidates(self):
        mem = VirtualMemory()
        base = mem.sbrk(0)
        mem.sbrk(PAGE_SIZE)
        mem.write(base, b"data")
        mem.sbrk(-PAGE_SIZE)
        with pytest.raises(SegmentationFault):
            mem.read(base, 4)

    def test_materialize_refreshes_cached_frame(self):
        """Reading a zero page caches frame=None; a subsequent write
        materializes the frame, and the next read must see the data."""
        mem = VirtualMemory()
        a = mem.mmap(PAGE_SIZE, prot=PROT_RW)
        assert mem.read(a, 8) == bytes(8)  # cached as zero page
        mem.write(a, b"\x01\x02\x03")
        assert mem.read(a, 3) == b"\x01\x02\x03"

    def test_write_then_read_other_page_then_back(self):
        mem = VirtualMemory()
        a = mem.mmap(2 * PAGE_SIZE, prot=PROT_RW)
        mem.write(a, b"first")
        mem.write(a + PAGE_SIZE, b"second")
        assert mem.read(a, 5) == b"first"
        assert mem.read(a + PAGE_SIZE, 6) == b"second"


class TestObservationEquivalence:
    """Whole-workload equivalence between the two modes."""

    def _workout(self, mem):
        a = mem.mmap(8 * PAGE_SIZE, prot=PROT_RW)
        # Word traffic inside one page, across pages, and fills.
        for i in range(0, 3 * PAGE_SIZE, 40):
            mem.write_word(a + i, i)
        total = 0
        for i in range(0, 3 * PAGE_SIZE, 40):
            total += mem.read_word(a + i)
        mem.fill(a + 4 * PAGE_SIZE, PAGE_SIZE + 100, 0xAB)
        cross = mem.read(a + PAGE_SIZE - 8, 16)
        mem.write(a + 2 * PAGE_SIZE - 3, b"straddle")
        mem.mprotect(a + 6 * PAGE_SIZE, PAGE_SIZE, PROT_READ)
        ro = mem.read(a + 6 * PAGE_SIZE, 32)
        mem.munmap(a + 7 * PAGE_SIZE, PAGE_SIZE)
        return (total, cross, ro, mem.resident_pages,
                mem.peak_resident_pages, mem.mapped_bytes,
                mem.fault_count, list(mem.iter_mappings()))

    def test_same_observations(self):
        fast, slow = _pair()
        assert self._workout(fast) == self._workout(slow)

    def test_guest_cycle_totals_identical(self):
        """A guest program's cycle decomposition must not depend on
        whether the memory fast paths are enabled."""

        class Prog(ProgramLike):
            def __init__(self):
                self.graph = CallGraph()
                self.graph.add_call_site("main", "malloc", "buf")
                self.graph.add_call_site("main", "free", "buf")
                self.graph.freeze()

            def main(self, p, iters):
                for i in range(iters):
                    buf = p.malloc(64 + (i % 5) * 16, site="buf")
                    p.fill(buf, 64, 0)
                    p.write_int(buf, i)
                    value = p.read_int(buf)
                    p.branch_on(value)
                    p.free(buf)
                return 0

        snapshots = []
        for fast in (True, False):
            program = Prog()
            heap = LibcAllocator(VirtualMemory(fast_paths=fast))
            process = Process(program.graph, heap=heap)
            process.run(program, 50)
            snapshots.append(process.meter.snapshot())
        assert snapshots[0] == snapshots[1]


class WriteCountingMemory(VirtualMemory):
    """Counts general-path ``write`` calls (fast paths never make one)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.writes = 0

    def write(self, address, data):
        self.writes += 1
        return super().write(address, data)


def _pair_observations(mem, offset, second_prot=PROT_RW):
    """Write, then read back, a word pair at ``offset`` into a two-page
    mapping whose second page has ``second_prot``."""
    a = mem.mmap(2 * PAGE_SIZE, prot=PROT_RW)
    mem.write_word(a + PAGE_SIZE - 8, 0x5A5A)
    mem.mprotect(a + PAGE_SIZE, PAGE_SIZE, second_prot)
    outcomes = []
    for op in (lambda: mem.write_word_pair(a + offset, 0x1122, 1 << 63),
               lambda: mem.read_word_pair(a + offset)):
        try:
            outcomes.append(op())
        except SegmentationFault as fault:
            outcomes.append(("fault", fault.address - a))
    return (outcomes, mem.peek(a, PAGE_SIZE), mem.resident_pages,
            mem.fault_count)


class TestWordPairEquivalence:
    """Word pairs take the fast path at any 8-aligned address whose 16
    bytes lie in one page, and match ``fast_paths=False`` everywhere."""

    @pytest.mark.parametrize("offset", [8, 16, 24, PAGE_SIZE - 24,
                                        PAGE_SIZE - 16])
    def test_in_page_pair(self, offset):
        fast = WriteCountingMemory()
        slow = VirtualMemory(fast_paths=False)
        observed = _pair_observations(fast, offset)
        assert observed == _pair_observations(slow, offset)
        assert observed[0] == [None, (0x1122, 1 << 63)]
        # 8-aligned, not 16-aligned, pairs no longer fall back.
        assert fast.writes == 0

    def test_pair_crossing_pages_takes_the_general_path(self):
        fast = WriteCountingMemory()
        slow = VirtualMemory(fast_paths=False)
        observed = _pair_observations(fast, PAGE_SIZE - 8)
        assert observed == _pair_observations(slow, PAGE_SIZE - 8)
        assert observed[0] == [None, (0x1122, 1 << 63)]
        assert fast.writes == 1

    def test_pair_into_a_protected_page_faults_at_the_same_address(self):
        fast, slow = _pair()
        observed = _pair_observations(fast, PAGE_SIZE - 8, PROT_NONE)
        assert observed == _pair_observations(slow, PAGE_SIZE - 8,
                                              PROT_NONE)
        assert observed[0] == [("fault", PAGE_SIZE), ("fault", PAGE_SIZE)]
        # Nothing of the faulting store landed in the first page.
        assert observed[1][-8:] == (0x5A5A).to_bytes(8, "little")
