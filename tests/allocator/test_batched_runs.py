"""Batched allocation runs: ``malloc_run``/``free_run`` equivalence.

The serving engine's request batches land on the allocators through the
batched entry points, whose uniform-shape fast paths (one size class,
one large length, all-plain metadata) must produce exactly the
addresses, stats and errors ``n`` scalar calls would.  Every test here
drives a batched allocator and a scalar twin and compares observables.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.allocator.libc import LibcAllocator
from repro.allocator.segregated import (
    MAX_CLASS,
    SegregatedAllocator,
)
from repro.defense.interpose import DefendedAllocator
from repro.defense.metadata import METADATA_SIZE, BufferMetadata
from repro.defense.patch_table import PatchTable
from repro.defense.structures import place_buffer, plan_request
from repro.fuzz.faults import FaultInjector
from repro.machine import DoubleFree, InvalidFree, PAGE_SIZE
from repro.machine.errors import MapError, OutOfMemoryError
from repro.machine.layout import page_align_up
from repro.machine.memory import PROT_NONE, VirtualMemory
from repro.patch.model import HeapPatch
from repro.program.context import ContextSource
from repro.program.cost import CycleMeter
from repro.vulntypes import VulnType

LARGE = MAX_CLASS + 1000


def twin_run(sizes, map_cache=0):
    """Batched and scalar twins over fresh, deterministic memory."""
    batched = SegregatedAllocator(map_cache=map_cache)
    scalar = SegregatedAllocator(map_cache=map_cache)
    got = batched.malloc_run(sizes)
    want = [scalar.malloc(size) for size in sizes]
    return batched, scalar, got, want


class TestSegregatedMallocRun:
    @pytest.mark.parametrize("sizes", [
        [48] * 10,                 # uniform small (one class)
        [48] * 2000,               # uniform small across slab refills
        [LARGE] * 6,               # uniform large
        [48, 48, 64, LARGE, 48],   # mixed: generic loop
        [0, 1, 16],                # zero-size and boundary
        [],                        # empty run
    ])
    def test_matches_scalar_twin(self, sizes):
        batched, scalar, got, want = twin_run(sizes)
        assert got == want
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        assert batched.live_buffer_count == scalar.live_buffer_count

    def test_negative_size_raises(self):
        with pytest.raises(ValueError):
            SegregatedAllocator().malloc_run([16, -1])

    def test_uniform_large_drains_map_cache_lifo(self):
        allocator = SegregatedAllocator(map_cache=8)
        first = allocator.malloc_run([LARGE] * 4)
        allocator.free_run(first)
        # The batched refill must reuse the cached mappings in the LIFO
        # order four scalar mallocs would (last freed first), then map
        # fresh for the remainder.
        again = allocator.malloc_run([LARGE] * 6)
        assert again[:4] == list(reversed(first))
        assert len(set(again)) == 6


class CountingMemory(VirtualMemory):
    """Counts ``mmap`` calls (the one-mapping run makes one)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.mmap_calls = 0

    def mmap(self, *args, **kwargs):
        self.mmap_calls += 1
        return super().mmap(*args, **kwargs)


def large_twins(map_cache=0, injector=None):
    """Two allocators over counting memories, optionally fault-injected
    with the same schedule."""
    return [SegregatedAllocator(
        CountingMemory(fault_injector=(FaultInjector(dict(injector))
                                       if injector else None)),
        map_cache=map_cache) for _ in range(2)]


def scalar_large(allocator, sizes):
    """The scalar oracle: one ``_alloc_large`` per size, stopping at the
    first error; returns (addresses, error)."""
    done = []
    try:
        for size in sizes:
            done.append(allocator._alloc_large(size))
    except (MapError, OutOfMemoryError) as error:
        return done, error
    return done, None


def next_mmap(memory):
    """The next cursor-placed one-page ``mmap``: its base, or its error."""
    try:
        return memory.mmap(PAGE_SIZE)
    except MapError as error:
        return str(error)


class TestOneMappingLargeRun:
    """A uniform large run maps its fresh buffers with one ``mmap``,
    observationally identical to ``k`` scalar ``_alloc_large`` calls."""

    @pytest.mark.parametrize("size", [LARGE, 4 * PAGE_SIZE, 16 * 1024 + 8])
    @pytest.mark.parametrize("k", [1, 2, 7, 64])
    def test_matches_scalar_calls(self, size, k):
        batched, scalar = large_twins()
        got = batched.malloc_run([size] * k)
        want, error = scalar_large(scalar, [size] * k)
        assert error is None
        assert got == want
        assert (list(batched.memory.iter_mappings())
                == list(scalar.memory.iter_mappings()))
        assert next_mmap(batched.memory) == next_mmap(scalar.memory)
        assert batched.memory.mmap_calls == 2
        assert scalar.memory.mmap_calls == k + 1

    def test_pieces_unmap_alone(self):
        batched, scalar = large_twins()
        got = batched.malloc_run([LARGE] * 5)
        want, _ = scalar_large(scalar, [LARGE] * 5)
        for allocator, addresses in ((batched, got), (scalar, want)):
            allocator.free(addresses[2])
            allocator.free(addresses[0])
        assert (list(batched.memory.iter_mappings())
                == list(scalar.memory.iter_mappings()))
        assert not batched.memory.is_mapped(got[2])
        assert batched.memory.is_mapped(got[1])

    @pytest.mark.parametrize("budget", [0, 1, 3])
    def test_injected_fault_lands_on_the_same_item(self, budget):
        k = 5
        batched, scalar = large_twins(injector={"mmap": budget})
        with pytest.raises((MapError, OutOfMemoryError)) as run_error:
            batched.malloc_run([LARGE] * k)
        done, loop_error = scalar_large(scalar, [LARGE] * k)
        assert len(done) == budget
        assert type(run_error.value) is type(loop_error)
        assert str(run_error.value) == str(loop_error)
        assert (list(batched.memory.iter_mappings())
                == list(scalar.memory.iter_mappings()))
        assert (batched.memory.fault_injector.passed
                == scalar.memory.fault_injector.passed)

    def test_planted_mapping_raises_after_the_same_prefix(self):
        length = page_align_up(LARGE)
        batched, scalar = large_twins()
        for allocator in (batched, scalar):
            # Plant a fixed mapping where the run's fourth piece goes
            # (the probe leaves the cursor one page past its base).
            probe = allocator.memory.mmap(PAGE_SIZE)
            allocator.memory.mmap(
                PAGE_SIZE, address=probe + PAGE_SIZE + 3 * length)
        with pytest.raises(MapError) as run_error:
            batched.malloc_run([LARGE] * 5)
        done, loop_error = scalar_large(scalar, [LARGE] * 5)
        assert isinstance(loop_error, MapError) and len(done) == 3
        assert str(run_error.value) == str(loop_error)
        assert (list(batched.memory.iter_mappings())
                == list(scalar.memory.iter_mappings()))
        # The failed mmap left both cursors on the planted page.
        assert next_mmap(batched.memory) == next_mmap(scalar.memory)
        assert "already mapped" in next_mmap(batched.memory)

    def test_cache_drain_then_one_mapping(self):
        batched, scalar = large_twins(map_cache=8)
        firsts = []
        for allocator in (batched, scalar):
            first = [allocator.malloc(LARGE) for _ in range(3)]
            for address in first:
                allocator.free(address)
            firsts.append(first)
        batched.memory.mmap_calls = 0
        got = batched.malloc_run([LARGE] * 7)
        want = [scalar.malloc(LARGE) for _ in range(7)]
        assert got == want
        assert got[:3] == list(reversed(firsts[0]))
        assert batched.memory.mmap_calls == 1
        assert (list(batched.memory.iter_mappings())
                == list(scalar.memory.iter_mappings()))
        assert batched.stats.snapshot() == scalar.stats.snapshot()


class TestSegregatedFreeRun:
    def test_uniform_slot_run_returns_slots_for_reuse(self):
        batched, scalar, got, want = twin_run([48] * 20)
        batched.free_run(got)
        for address in want:
            scalar.free(address)
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        # Freed slots are reusable in the same (stack) order.
        assert batched.malloc_run([48] * 20) \
            == [scalar.malloc(48) for _ in range(20)]

    def test_uniform_large_run_unmaps_eagerly(self):
        allocator = SegregatedAllocator()
        addresses = allocator.malloc_run([LARGE] * 4)
        allocator.free_run(addresses)
        for address in addresses:
            assert not allocator.memory.is_mapped(address)

    def test_uniform_large_run_respects_cache_limit(self):
        allocator = SegregatedAllocator(map_cache=2)
        addresses = allocator.malloc_run([LARGE] * 5)
        allocator.free_run(addresses)
        cached = [address for address in addresses
                  if allocator.memory.is_mapped(address)]
        assert len(cached) == 2

    def test_mixed_run_matches_scalar_twin(self):
        sizes = [48, LARGE, 64, 48, LARGE]
        batched, scalar, got, want = twin_run(sizes)
        batched.free_run(got)
        for address in want:
            scalar.free(address)
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        assert batched.live_buffer_count == scalar.live_buffer_count == 0

    def test_null_addresses_skipped(self):
        """``free(NULL)`` is a no-op and doesn't count — run included."""
        allocator = SegregatedAllocator()
        address = allocator.malloc(48)
        allocator.free_run([0, address, 0])
        assert allocator.live_buffer_count == 0
        allocator.free_run([0, 0])
        assert allocator.stats.snapshot()["free"] == 1

    def test_double_free_within_run_is_canonical(self):
        """A bad free inside one run raises exactly what the scalar loop
        raises, after releasing and recording the same prefix: equal
        stats snapshots on every allocator, the interposer's and its
        underlying's both."""
        for make in (LibcAllocator, SegregatedAllocator,
                     lambda: DefendedAllocator(SegregatedAllocator(),
                                               PatchTable.empty()),
                     lambda: DefendedAllocator(LibcAllocator(),
                                               PatchTable.empty())):
            for bad_run in (_run_after_free, _run_with_duplicate):
                outcomes = []
                for batched in (True, False):
                    allocator = make()
                    run = bad_run(allocator)
                    with pytest.raises(DoubleFree):
                        if batched:
                            allocator.free_run(run)
                        else:
                            for address in run:
                                allocator.free(address)
                    outcomes.append(_observables(allocator))
                assert outcomes[0] == outcomes[1], (make, bad_run)

    def test_free_of_retired_address_raises_double_free(self):
        allocator = SegregatedAllocator()
        a = allocator.malloc(48)
        allocator.free(a)
        b = allocator.malloc(4096 * 4)
        with pytest.raises(DoubleFree):
            allocator.free_run([b, a])
        # The prefix (b) was released before the error, as scalar would.
        assert allocator.live_buffer_count == 0

    def test_invalid_free_raises_and_restores_state(self):
        allocator = SegregatedAllocator()
        addresses = allocator.malloc_run([48] * 3)
        bogus = 0x5EAF00D000
        with pytest.raises(InvalidFree):
            allocator.free_run([bogus] + addresses)
        # Nothing was released before the faulting first element; every
        # allocation is still live and individually freeable.
        assert allocator.live_buffer_count == 3
        allocator.free_run(addresses)
        assert allocator.live_buffer_count == 0


def _run_after_free(allocator):
    """``[a, d, c, b]`` with ``c`` already freed (``d`` is large)."""
    a, b, c = (allocator.malloc(40) for _ in range(3))
    d = allocator.malloc(9000)
    allocator.free(c)
    return [a, d, c, b]


def _run_with_duplicate(allocator):
    """``[a, b, a]``: the second free of ``a`` is the bad one."""
    a, b = allocator.malloc(48), allocator.malloc(48)
    return [a, b, a]


def _observables(allocator):
    """Stats snapshots (the interposer's and its underlying's) and the
    live-buffer count."""
    underlying = getattr(allocator, "underlying", allocator)
    return (allocator.stats.snapshot(), underlying.stats.snapshot(),
            underlying.live_buffer_count)


class _FixedContext(ContextSource):
    def __init__(self, ccid=0x42):
        self.ccid = ccid

    def current_ccid(self):
        return self.ccid


def defended_pair(table=None, ccid=0x42):
    def make():
        return DefendedAllocator(SegregatedAllocator(),
                                 table or PatchTable.empty(),
                                 context_source=_FixedContext(ccid))
    return make(), make()


class TestDefendedRuns:
    @pytest.mark.parametrize("sizes", [
        [120] * 16,              # uniform: list-repeat stamp fast path
        [120, 120, 64, 120],     # mixed sizes: per-element stamps
    ])
    def test_malloc_run_matches_scalar_twin(self, sizes):
        batched, scalar = defended_pair()
        got = batched.malloc_run(sizes)
        want = [scalar.malloc(size) for size in sizes]
        assert got == want
        for address, size in zip(got, sizes):
            assert batched.malloc_usable_size(address) == size

    def test_all_plain_free_run_matches_scalar_twin(self):
        batched, scalar = defended_pair()
        got = batched.malloc_run([120] * 16)
        want = [scalar.malloc(120) for _ in range(16)]
        batched.free_run(got)
        for address in want:
            scalar.free(address)
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        assert batched.underlying.live_buffer_count \
            == scalar.underlying.live_buffer_count

    def test_mixed_guarded_and_plain_free_run(self):
        """Patched (guarded) and plain buffers freed in one run: the
        decoding frees take the scalar path, the plain remainder the
        batched one, and every buffer ends up released."""
        table = PatchTable([HeapPatch("malloc", 0x42, VulnType.OVERFLOW)])
        batched, _ = defended_pair(table=table)
        guarded = [batched.malloc(100) for _ in range(3)]
        batched.context_source.ccid = 0x43  # subsequent allocs unpatched
        plain = batched.malloc_run([100] * 5)
        batched.free_run([plain[0], guarded[0], plain[1], guarded[1],
                          plain[2], guarded[2], plain[3], plain[4]])
        assert batched.underlying.live_buffer_count == 0

    def test_quarantine_eviction_keeps_release_order(self):
        """A decoded (UAF) free that evicts from the quarantine releases
        the evicted chunk after the plain buffers freed before it in the
        run, exactly as scalar frees do: the next allocations land on
        the same addresses."""
        table = PatchTable([HeapPatch("malloc", 7, VulnType.USE_AFTER_FREE)])
        nexts = []
        for batched in (True, False):
            allocator = DefendedAllocator(SegregatedAllocator(), table,
                                          context_source=_FixedContext(7),
                                          quarantine_quota=64)
            evicted, uaf = allocator.malloc(40), allocator.malloc(40)
            allocator.context_source.ccid = 0
            plain = allocator.malloc(40)
            allocator.free(evicted)
            if batched:
                allocator.free_run([plain, uaf])
            else:
                allocator.free(plain)
                allocator.free(uaf)
            nexts.append([allocator.malloc(40) for _ in range(3)])
        assert nexts[0] == nexts[1]


# ----------------------------------------------------------------------
# Structure 2 run path: differential against scalar calls and the
# plan_request / place_buffer / BufferMetadata oracle
# ----------------------------------------------------------------------

OVERFLOW = VulnType.OVERFLOW
UAF = VulnType.USE_AFTER_FREE
UNINIT = VulnType.UNINIT_READ
#: CCIDs of the differential tests' contexts.
RUN_CCID, UAF_CCID, PLAIN_CCID = 0x42, 0x43, 0x44


class _PureContext(_FixedContext):
    """A settable CCID read as a pure register read, so ``malloc_run``
    hoists the patch probe and may take its run paths."""

    pure_ccid = True


def metered_twins(make_underlying, patches, context=_PureContext):
    """Two defended allocators over fresh, deterministic memory."""
    def make():
        return DefendedAllocator(make_underlying(), PatchTable(patches),
                                 context_source=context(RUN_CCID),
                                 meter=CycleMeter())
    return make(), make()


def layout(allocator, users):
    """Metadata words, guard size words and guard protections of live
    buffers (guards are read with ``peek``: they are sealed)."""
    memory = allocator.memory
    words = [memory.read_word(user - METADATA_SIZE) for user in users]
    guards = [BufferMetadata.decode(word).guard_page for word in words]
    return (words,
            [memory.peek(guard, 8) if guard else None for guard in guards],
            [memory.protection_of(guard) if guard else None
             for guard in guards])


def state(allocator):
    """Every allocator-level observable the run paths must preserve."""
    return {
        "mprotects": allocator.memory.mprotect_count,
        "stats": allocator.stats.snapshot(),
        "underlying": allocator.underlying.stats.snapshot(),
        "live": allocator.underlying.live_buffer_count,
        "enhanced": dict(allocator.enhanced_counts),
        "quarantine": allocator.quarantine.blocks(),
        "cycles": allocator.meter.snapshot(),
    }


def assert_matches_generic(make_underlying, sizes):
    """A Structure 2 run against the generic machinery it replaces.

    ``calloc`` under a calloc OVERFLOW patch lays the same Structure 2
    out through ``plan_request``/``place_buffer``/``BufferMetadata``
    (calloc zeroes natively, so no defense cost is added), and
    ``_free_decoded`` is the generic Figure 7.  Only the entry-point
    counters may differ.
    """
    run, generic = metered_twins(make_underlying, [
        HeapPatch("malloc", RUN_CCID, OVERFLOW),
        HeapPatch("calloc", RUN_CCID, OVERFLOW)])
    users = run.malloc_run(sizes)
    oracle = [generic.calloc(1, size) for size in sizes]
    assert users == oracle
    words, guard_words, protections = layout(run, users)
    assert (words, guard_words, protections) == layout(generic, oracle)
    for user, size, word in zip(users, sizes, words):
        placed = place_buffer(plan_request(OVERFLOW, False, 0, size),
                              user - METADATA_SIZE, size)
        assert word == BufferMetadata(OVERFLOW, False, 0, placed.guard,
                                      0).encode()
    assert guard_words == [size.to_bytes(8, "little") for size in sizes]
    assert protections == [PROT_NONE] * len(sizes)

    def compare():
        got, want = state(run), state(generic)
        assert got["stats"].pop("malloc") == want["stats"].pop("calloc")
        assert got["stats"].pop("calloc") == want["stats"].pop("malloc")
        assert got == want

    compare()
    run.free_run(users)
    for address in oracle:
        generic._charge_interposition()  # what ``free`` charges first
        generic._free_decoded(address)
    compare()
    assert run.meter.category("defense") == (
        2 * len(sizes) * run.meter.model.mprotect)


UNDERLYING = {"libc": LibcAllocator, "segregated": SegregatedAllocator}
MASKS = [OVERFLOW, UAF, UNINIT, OVERFLOW | UAF, OVERFLOW | UNINIT,
         UAF | UNINIT, OVERFLOW | UAF | UNINIT]
ALIGNED_FUNS = ("memalign", "aligned_alloc", "posix_memalign")
SIZE = st.integers(0, 3 * PAGE_SIZE)
RUN = st.one_of(
    st.tuples(SIZE, st.integers(1, 12)).map(lambda t: [t[0]] * t[1]),
    st.lists(SIZE, min_size=1, max_size=12))


class TestStructure2Runs:
    @given(underlying=st.sampled_from(sorted(UNDERLYING)),
           mask=st.sampled_from(MASKS), sizes=RUN,
           aligned_fun=st.sampled_from(ALIGNED_FUNS),
           aligned_mask=st.sampled_from([VulnType.NONE] + MASKS))
    def test_run_matches_scalar_calls(self, underlying, mask, sizes,
                                      aligned_fun, aligned_mask):
        patches = [HeapPatch("malloc", RUN_CCID, mask)]
        if aligned_mask:
            patches.append(HeapPatch(aligned_fun, RUN_CCID, aligned_mask))
        batched, scalar = metered_twins(UNDERLYING[underlying], patches)
        got = batched.malloc_run(sizes)
        want = [scalar.malloc(size) for size in sizes]
        assert got == want
        assert layout(batched, got) == layout(scalar, want)
        assert state(batched) == state(scalar)
        # A memalign-family buffer joins the free run (Structures 3/4
        # decode in place); frees then compare like the allocations.
        got.append(getattr(batched, aligned_fun)(64, 100))
        want.append(getattr(scalar, aligned_fun)(64, 100))
        assert got == want
        batched.free_run(got)
        for address in want:
            scalar.free(address)
        assert state(batched) == state(scalar)
        # Same release order, same allocator state: the next run lands
        # on the same addresses.
        assert batched.malloc_run(sizes) == [scalar.malloc(size)
                                             for size in sizes]

    @given(underlying=st.sampled_from(sorted(UNDERLYING)), sizes=RUN)
    def test_run_matches_the_generic_oracle(self, underlying, sizes):
        assert_matches_generic(UNDERLYING[underlying], sizes)

    @pytest.mark.parametrize("underlying", sorted(UNDERLYING))
    def test_buffer_ending_on_a_page_boundary(self, underlying):
        """A user buffer ending exactly on a page boundary gets the very
        next page as its guard (``page_align_up`` is the identity)."""
        make = UNDERLYING[underlying]
        probe, _ = metered_twins(make, [HeapPatch("malloc", RUN_CCID,
                                                  OVERFLOW)])
        first = probe.malloc_run([1])[0]
        size = -first % PAGE_SIZE or PAGE_SIZE
        assert_matches_generic(make, [size] * 3)

    @given(underlying=st.sampled_from(sorted(UNDERLYING)), sizes=RUN)
    def test_impure_context_runs_per_item(self, underlying, sizes):
        batched, scalar = metered_twins(
            UNDERLYING[underlying], [HeapPatch("malloc", RUN_CCID, OVERFLOW)],
            context=_FixedContext)
        got = batched.malloc_run(sizes)
        assert got == [scalar.malloc(size) for size in sizes]
        assert state(batched) == state(scalar)

    @given(underlying=st.sampled_from(sorted(UNDERLYING)),
           data=st.data())
    def test_mixed_free_run_matches_scalar_frees(self, underlying, data):
        """Plain, Structure 2, UAF-quarantined and multi-flag buffers,
        freed in one shuffled run: one partition loop, scalar results."""
        patches = [HeapPatch("malloc", RUN_CCID, OVERFLOW),
                   HeapPatch("malloc", UAF_CCID, UAF),
                   HeapPatch("malloc", UAF_CCID + 10, OVERFLOW | UAF)]
        batched, scalar = metered_twins(UNDERLYING[underlying], patches)
        ccids = (RUN_CCID, UAF_CCID, UAF_CCID + 10, PLAIN_CCID)
        runs = data.draw(st.lists(st.tuples(st.sampled_from(ccids), RUN),
                                  min_size=1, max_size=4))
        got, want = [], []
        for ccid, sizes in runs:
            batched.context_source.ccid = scalar.context_source.ccid = ccid
            got += batched.malloc_run(sizes)
            want += [scalar.malloc(size) for size in sizes]
        assert got == want
        order = data.draw(st.permutations(range(len(got))))
        batched.free_run([got[i] for i in order] + [0])
        for address in [want[i] for i in order] + [0]:
            scalar.free(address)
        assert state(batched) == state(scalar)
        assert batched.stats.live_buffers == 0

    @pytest.mark.parametrize("underlying", sorted(UNDERLYING))
    @pytest.mark.parametrize("budget", [0, 1, 3])
    def test_seal_fault_lands_on_the_same_item(self, underlying, budget):
        """Under an armed injector the run is served per item: it fails
        at the same item, with the same typed error, leaving the same
        allocator state as the scalar loop.  (Only the per-call charges
        differ: a run charges interposition for all of its entries on
        entry, the loop for the calls it got to.)"""
        batched, scalar = metered_twins(
            UNDERLYING[underlying], [HeapPatch("malloc", RUN_CCID, OVERFLOW)])
        injectors = []
        for allocator in (batched, scalar):
            injector = FaultInjector({"mprotect": budget})
            allocator.memory.fault_injector = injector
            injectors.append(injector)
        sizes = [100, 5000, 100, 100, 2 * PAGE_SIZE]
        with pytest.raises(MapError) as run_error:
            batched.malloc_run(sizes)
        done = []
        with pytest.raises(MapError) as loop_error:
            for size in sizes:
                done.append(scalar.malloc(size))
        assert len(done) == budget
        assert str(run_error.value) == str(loop_error.value)
        run_state, loop_state = state(batched), state(scalar)
        assert (run_state.pop("cycles").get("defense")
                == loop_state.pop("cycles").get("defense"))
        assert run_state == loop_state
        assert batched.stats.live_buffers == budget
        assert batched.underlying.live_buffer_count == budget
        assert injectors[0].passed == injectors[1].passed
        assert injectors[0].injected == injectors[1].injected
        for injector in injectors:
            injector.disarm()
        assert batched.malloc_run(sizes) == [scalar.malloc(size)
                                             for size in sizes]
        assert layout(batched, done) == layout(scalar, done)
