"""Fast-path equivalence: ``VirtualMemory``'s optimized memory paths
must be observation-identical to ``ReferenceMemory``, the cache-free
reference address space in ``reference_memory.py`` — same results, same
fault addresses, same residency accounting, same cycle totals.

Three layers of evidence: hand-written edge cases, a whole guest
workload run batched on ``VirtualMemory`` against per-op interpretation
on ``ReferenceMemory``, and a Hypothesis differential over random op
sequences.
"""

from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_memory import ReferenceMemory

from repro.allocator.libc import LibcAllocator
from repro.bench.harness import _GuestLoop
from repro.machine import (
    PAGE_SIZE,
    PROT_NONE,
    PROT_READ,
    PROT_RW,
    PROT_WRITE,
    MapError,
    OutOfMemoryError,
    SegmentationFault,
    VirtualMemory,
)
from repro.machine.layout import ADDRESS_SPACE_SIZE, HEAP_BASE, MMAP_BASE
from repro.program.callgraph import CallGraph
from repro.program.process import Process, ProgramLike


def _pair():
    return VirtualMemory(), ReferenceMemory()


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
        only the first page is accessible — both address spaces agree."""
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
    """Whole-workload equivalence between the two address spaces."""

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
        whether it runs on the fast paths or on the reference."""

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
        for memory in _pair():
            program = Prog()
            heap = LibcAllocator(memory)
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
    bytes lie in one page, and match the reference everywhere."""

    @pytest.mark.parametrize("offset", [8, 16, 24, PAGE_SIZE - 24,
                                        PAGE_SIZE - 16])
    def test_in_page_pair(self, offset):
        fast = WriteCountingMemory()
        slow = ReferenceMemory()
        observed = _pair_observations(fast, offset)
        assert observed == _pair_observations(slow, offset)
        assert observed[0] == [None, (0x1122, 1 << 63)]
        # 8-aligned, not 16-aligned, pairs no longer fall back.
        assert fast.writes == 0

    def test_pair_crossing_pages_takes_the_general_path(self):
        fast = WriteCountingMemory()
        slow = ReferenceMemory()
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


class _PerOpGuestLoop(_GuestLoop):
    """The substrate guest loop with every block interpreted op by op
    through the ordinary ``Process`` methods."""

    def _work(self, process: Process, i: int) -> None:
        slot = i % 7
        buf = process.malloc(64 + slot * 32, site="buf")
        self._blocks[slot].interpret(process, (buf, i))
        process.free(buf)


class TestGuestLoopEquivalence:
    """The substrate guest workload run batched on the fast paths
    matches per-op interpretation on the reference in every simulated
    observable."""

    ITERATIONS = 150

    def _observe(self, program: _GuestLoop, memory):
        heap = LibcAllocator(memory)
        process = Process(program.graph, heap=heap,
                          record_allocations=False)
        result = process.run(program, self.ITERATIONS)
        return {
            "instructions": result,
            "meter": process.meter.snapshot(),
            "alloc_stats": heap.stats.snapshot(),
            "alloc_profile": dict(process.alloc_profile),
            "fault_count": memory.fault_count,
            "resident_pages": memory.resident_pages,
            "peak_resident_pages": memory.peak_resident_pages,
        }

    def test_batched_guest_loop_matches_per_op_reference(self):
        batched = self._observe(_GuestLoop(), VirtualMemory())
        per_op = self._observe(_PerOpGuestLoop(), ReferenceMemory())
        for key, value in batched.items():
            assert value == per_op[key], key


# ----------------------------------------------------------------------
# Differential property test: random op sequences on both address spaces
# ----------------------------------------------------------------------

#: Setup shared by every sequence, so most random accesses land on
#: mapped pages: four placed mmap pages, the second read-only and the
#: third a guard page, and two heap pages.
_MMAP_PAGES = 4
_HEAP_PAGES = 2


def _setup(memory) -> None:
    base = memory.mmap(_MMAP_PAGES * PAGE_SIZE)
    memory.mprotect(base + PAGE_SIZE, PAGE_SIZE, PROT_READ)
    memory.mprotect(base + 2 * PAGE_SIZE, PAGE_SIZE, PROT_NONE)
    memory.sbrk(_HEAP_PAGES * PAGE_SIZE)


_prots = st.sampled_from((PROT_NONE, PROT_READ, PROT_WRITE, PROT_RW))
_page_index = st.integers(-1, _MMAP_PAGES + 1)
_page_base = st.one_of(
    st.builds(lambda base, index: base + index * PAGE_SIZE,
              st.sampled_from((MMAP_BASE, HEAP_BASE)), _page_index),
    st.just(-PAGE_SIZE))
_offsets = st.one_of(
    st.sampled_from((0, 1, 8, 16, PAGE_SIZE - 16, PAGE_SIZE - 12,
                     PAGE_SIZE - 8, PAGE_SIZE - 4, PAGE_SIZE - 1)),
    st.integers(0, PAGE_SIZE - 1))
_wild = st.sampled_from((-PAGE_SIZE, -16, -8, -1, ADDRESS_SPACE_SIZE - 8,
                         ADDRESS_SPACE_SIZE))
_addresses = st.one_of(
    st.builds(lambda base, offset: base + offset, _page_base, _offsets),
    st.builds(lambda base, offset: base + (offset & ~7), _page_base,
              _offsets),
    _wild)
_map_addresses = st.one_of(_page_base, _addresses)
_lengths = st.one_of(st.integers(-1, 3 * PAGE_SIZE),
                     st.sampled_from((PAGE_SIZE, 2 * PAGE_SIZE)))
_sizes = st.one_of(st.integers(-1, 24), st.integers(25, PAGE_SIZE + 16))
_words = st.integers(-(1 << 64), 1 << 65)
_words64 = st.integers(0, (1 << 64) - 1)
_data = st.binary(max_size=48)


def _op(name, *args):
    return st.tuples(st.just(name), *args)


_ops = st.one_of(
    _op("mmap", _lengths, _prots, st.none() | _map_addresses),
    _op("munmap", _map_addresses, _lengths),
    _op("mprotect", _map_addresses, _lengths, _prots),
    _op("sbrk", st.one_of(st.integers(-2 * PAGE_SIZE, 2 * PAGE_SIZE),
                          st.sampled_from((-PAGE_SIZE, PAGE_SIZE)))),
    _op("read", _addresses, _sizes),
    _op("write", _addresses, _data),
    _op("fill", _addresses, _sizes, st.integers(0, 255)),
    _op("check_read", _addresses, _sizes),
    _op("peek", _addresses, _sizes),
    _op("poke", _addresses, _data),
    _op("read_word", _addresses),
    _op("write_word", _addresses, _words),
    _op("read_word_pair", _addresses),
    _op("write_word_pair", _addresses, _words, _words),
    _op("read_words", _addresses,
        st.one_of(st.integers(-1, 8), st.just(PAGE_SIZE // 8 + 2))),
    _op("write_words", _addresses,
        st.one_of(st.lists(_words, max_size=6),
                  st.lists(_words64, max_size=6).map(
                      lambda values: array("Q", values)))),
    _op("write_word_scatter", st.lists(_addresses, max_size=4),
        st.lists(_words, max_size=4)),
    _op("read_word_gather", st.lists(_addresses, max_size=4)),
)


def _outcome(memory, name, args):
    """The op's result, or its fault as (type, address, access, size)."""
    try:
        return getattr(memory, name)(*args)
    except SegmentationFault as fault:
        return ("SegmentationFault", fault.address, fault.access,
                fault.size)
    except (MapError, OutOfMemoryError) as error:
        return (type(error).__name__,)


def _state(memory):
    return {
        "fault_count": memory.fault_count,
        "resident_pages": memory.resident_pages,
        "peak_resident_pages": memory.peak_resident_pages,
        "mprotect_count": memory.mprotect_count,
        "mappings": list(memory.iter_mappings()),
        "brk": memory.brk,
    }


class TestDifferential:
    """Random op sequences leave both address spaces indistinguishable
    after every step."""

    @given(st.lists(_ops, max_size=30))
    def test_random_op_sequences_agree(self, ops):
        fast, reference = _pair()
        _setup(fast)
        _setup(reference)
        for step, (name, *args) in enumerate(ops):
            expected = _outcome(reference, name, args)
            assert _outcome(fast, name, args) == expected, (step, name)
            assert _state(fast) == _state(reference), (step, name)
        for start, length, _ in reference.iter_mappings():
            assert fast.peek(start, length) == reference.peek(start,
                                                              length)
