"""Batched allocation runs: ``malloc_run``/``free_run`` equivalence.

The serving engine's request batches land on the allocators through the
batched entry points, whose uniform-shape fast paths (one size class,
one large length, all-plain metadata) must produce exactly the
addresses, stats and errors ``n`` scalar calls would.  Every test here
drives a batched allocator and a scalar twin and compares observables.
"""

from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.allocator.base import ALLOCATION_FUNCTIONS
from repro.allocator.libc import LibcAllocator
from repro.allocator.segregated import (
    MAX_CLASS,
    SegregatedAllocator,
)
from repro.allocator.stats import AllocationStats
from repro.common.fifo import FreedBlock, FreedBlockQueue
from repro.defense.interpose import DEFAULT_ONLINE_QUOTA, DefendedAllocator
from repro.defense.metadata import METADATA_SIZE, BufferMetadata
from repro.defense.patch_table import PatchTable
from repro.defense.structures import buffer_start, place_buffer, plan_request
from repro.fuzz.faults import FaultInjector
from repro.machine import DoubleFree, InvalidFree, PAGE_SIZE
from repro.machine.errors import MapError, OutOfMemoryError
from repro.machine.layout import page_align_up
from repro.machine.memory import PROT_NONE, PROT_RW, VirtualMemory
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
# The interposer's run core: differential against scalar calls and the
# plan_request / place_buffer / BufferMetadata oracle
# ----------------------------------------------------------------------

OVERFLOW = VulnType.OVERFLOW
UAF = VulnType.USE_AFTER_FREE
UNINIT = VulnType.UNINIT_READ
#: CCIDs of the differential tests' contexts.
RUN_CCID, UAF_CCID, PLAIN_CCID, GUARD_CCID = 0x42, 0x43, 0x44, 0x45


class _PureContext(_FixedContext):
    """A settable CCID read as a pure register read, so ``malloc_run``
    hoists the patch probe and serves the run in one core call."""

    pure_ccid = True


def metered_twins(make_underlying, patches, context=_PureContext,
                  quota=DEFAULT_ONLINE_QUOTA):
    """Two defended allocators over fresh, deterministic memory."""
    def make():
        return DefendedAllocator(make_underlying(), PatchTable(patches),
                                 context_source=context(RUN_CCID),
                                 meter=CycleMeter(), quarantine_quota=quota)
    return make(), make()


class GenericOracle:
    """Table I and Figure 7 one buffer at a time, the reference way.

    Layout through ``plan_request``/``place_buffer``, the metadata word
    through ``BufferMetadata.encode``, ``free`` through
    ``BufferMetadata.decode``/``buffer_start``; the interposer's charges,
    stats, quarantine and underlying calls.  It has the scalar API the
    differential drives and what :func:`state`/:func:`layout` read.
    """

    def __init__(self, underlying, patches, quota=DEFAULT_ONLINE_QUOTA):
        self.underlying = underlying
        self.memory = underlying.memory
        self.table = PatchTable(patches)
        self.context_source = _PureContext(RUN_CCID)
        self.meter = CycleMeter()
        self.stats = AllocationStats()
        self.quarantine = FreedBlockQueue(quota)
        self.enhanced_counts = {OVERFLOW: 0, UAF: 0, UNINIT: 0}

    def _enter(self, lookup=False):
        model = self.meter.model
        self.meter.charge("interpose", model.interpose)
        self.meter.charge("metadata", model.metadata)
        if lookup:
            self.meter.charge("lookup", model.hash_lookup)

    def _protect(self, guard, prot):
        self.memory.mprotect(guard, PAGE_SIZE, prot)
        self.meter.charge("defense", self.meter.model.mprotect)

    def _allocate(self, fun, size, alignment=None, zero=False):
        """``alignment`` None: unaligned (Structures 1 and 2)."""
        self._enter(lookup=True)
        patch = self.table.lookup(fun, self.context_source.ccid)
        vuln = patch.vuln if patch is not None else VulnType.NONE
        aligned = alignment is not None
        plan = plan_request(vuln, aligned, alignment or 0, size)
        if plan.request_alignment:
            raw = self.underlying.memalign(plan.request_alignment,
                                           plan.request_size)
        else:
            raw = self.underlying.malloc(plan.request_size)
        placed = place_buffer(plan, raw, size)
        log2 = plan.user_alignment.bit_length() - 1 if aligned else 0
        self.memory.write_word(placed.metadata_address, BufferMetadata(
            vuln, aligned, log2, placed.guard,
            0 if placed.guard else size).encode())
        if placed.guard:
            self.memory.write_word(placed.guard, size)
            self._protect(placed.guard, PROT_NONE)
            self.enhanced_counts[OVERFLOW] += 1
        self.stats.record_alloc(fun, size)
        if zero or vuln & UNINIT:
            if size:
                self.memory.fill(placed.user, size, 0)
            if not zero:
                self.meter.charge(
                    "defense", self.meter.model.zero_fill_per_byte * size)
            if vuln & UNINIT:
                self.enhanced_counts[UNINIT] += 1
        if vuln & UAF:
            self.enhanced_counts[UAF] += 1
        return placed.user

    def malloc(self, size):
        return self._allocate("malloc", size)

    def calloc(self, nmemb, size):
        return self._allocate("calloc", nmemb * size, zero=True)

    def memalign(self, alignment, size):
        return self._allocate("memalign", size, alignment)

    def aligned_alloc(self, alignment, size):
        return self._allocate("aligned_alloc", size, alignment)

    def posix_memalign(self, alignment, size):
        return self._allocate("posix_memalign", size, alignment)

    def _decode(self, user):
        """Figure 7, step 1: the metadata, its chunk, and the user size
        (a guard is unsealed to read it)."""
        meta = BufferMetadata.decode(
            self.memory.read_word(user - METADATA_SIZE))
        raw = buffer_start(user, meta.aligned, meta.alignment)
        if meta.vuln & UAF and raw in self.quarantine:
            return meta, raw, None  # still quarantined: absorbed
        if not meta.has_guard:
            return meta, raw, meta.user_size
        self._protect(meta.guard_page, PROT_RW)
        return meta, raw, self.memory.read_word(meta.guard_page)

    def _release(self, user, decoded):
        meta, raw, size = decoded
        if size is None:
            return
        self.stats.record_free(size)
        if not meta.vuln & UAF:
            self.underlying.free(raw)
            return
        end = meta.guard_page + PAGE_SIZE if meta.has_guard else user + size
        self.meter.charge("defense", self.meter.model.quarantine_op)
        for block in self.quarantine.push(FreedBlock(raw, end - raw)):
            self.underlying.free(block.address)

    def free(self, user):
        self._enter()
        if user:
            self._release(user, self._decode(user))

    def realloc(self, user, size):
        if user == 0:
            return self._allocate("realloc", size)
        if size == 0:
            self.free(user)
            return 0
        self._enter()
        new_user = self._allocate("realloc", size)
        try:
            decoded = _, _, old_size = self._decode(user)
        except Exception:
            self.free(new_user)
            raise
        keep = min(old_size or 0, size)
        if keep:
            self.memory.write(new_user, self.memory.read(user, keep))
        self._enter()
        self._release(user, decoded)
        return new_user


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
    """Every allocator-level observable the run core must preserve."""
    return {
        "mprotects": allocator.memory.mprotect_count,
        "stats": allocator.stats.snapshot(),
        "underlying": allocator.underlying.stats.snapshot(),
        "live": allocator.underlying.live_buffer_count,
        "enhanced": dict(allocator.enhanced_counts),
        "quarantine": allocator.quarantine.blocks(),
        "cycles": allocator.meter.snapshot(),
    }


UNDERLYING = {"libc": LibcAllocator, "segregated": SegregatedAllocator,
              # Guarded large buffers drawn from (and freed into) cached
              # mappings, as the serving sessions deploy it.
              "segregated-map-cache": partial(SegregatedAllocator,
                                              map_cache=8)}
MASKS = [OVERFLOW, UAF, UNINIT, OVERFLOW | UAF, OVERFLOW | UNINIT,
         UAF | UNINIT, OVERFLOW | UAF | UNINIT]
ALIGNED_FUNS = ("memalign", "aligned_alloc", "posix_memalign")
SIZE = st.integers(0, 3 * PAGE_SIZE)
RUN = st.one_of(
    st.tuples(SIZE, st.integers(1, 12)).map(lambda t: [t[0]] * t[1]),
    st.lists(SIZE, min_size=1, max_size=12))
#: A realloc request the underlying allocator cannot serve.
HUGE = 1 << 47


def scalar_call(allocator, fun, size, alignment):
    """One scalar ``fun`` call for ``size`` bytes."""
    if fun in ALIGNED_FUNS:
        return getattr(allocator, fun)(alignment, size)
    if fun == "calloc":
        return allocator.calloc(1, size)
    if fun == "realloc":
        return allocator.realloc(0, size)
    return allocator.malloc(size)


def core_run(allocator, fun, sizes, alignment):
    """One run core call for ``sizes`` (``malloc_run`` for malloc)."""
    if fun == "malloc":
        return allocator.malloc_run(sizes)
    return allocator._allocate_run(
        fun, sizes, alignment if fun in ALIGNED_FUNS else None,
        zero=fun == "calloc")


def set_ccid(allocators, ccid):
    for allocator in allocators:
        allocator.context_source.ccid = ccid


def assert_matches_generic(make_underlying, sizes):
    """A Structure 2 run against the generic oracle, word by word."""
    patches = [HeapPatch("malloc", RUN_CCID, OVERFLOW)]
    run, _ = metered_twins(make_underlying, patches)
    oracle = GenericOracle(make_underlying(), patches)
    users = run.malloc_run(sizes)
    assert users == [oracle.malloc(size) for size in sizes]
    words, guard_words, protections = layout(run, users)
    assert (words, guard_words, protections) == layout(oracle, users)
    for user, size, word in zip(users, sizes, words):
        placed = place_buffer(plan_request(OVERFLOW, False, 0, size),
                              user - METADATA_SIZE, size)
        assert word == BufferMetadata(OVERFLOW, False, 0, placed.guard,
                                      0).encode()
    assert guard_words == [size.to_bytes(8, "little") for size in sizes]
    assert protections == [PROT_NONE] * len(sizes)
    assert state(run) == state(oracle)
    run.free_run(users)
    for user in users:
        oracle.free(user)
    assert state(run) == state(oracle)
    assert run.meter.category("defense") == (
        2 * len(sizes) * run.meter.model.mprotect)


class TestStructure2Runs:
    """The interposer's one run core, every Table I structure (the
    class name predates Structures 1, 3 and 4 joining the core)."""

    @given(underlying=st.sampled_from(sorted(UNDERLYING)),
           fun=st.sampled_from(ALLOCATION_FUNCTIONS),
           mask=st.sampled_from([VulnType.NONE] + MASKS), sizes=RUN,
           alignment=st.sampled_from([8, 64, PAGE_SIZE]),
           realloc_size=st.sampled_from([0, 24, 5000, HUGE]),
           data=st.data())
    def test_run_matches_scalar_calls(self, underlying, fun, mask, sizes,
                                      alignment, realloc_size, data):
        """The core, the scalar calls and the generic oracle agree on
        every mask, allocation function and underlying allocator: after
        the run, after a shuffled free run mixing it with plain, guarded
        (realloc'd, or left by a failed realloc), quarantined and NULL
        entries, and on the next run's addresses."""
        patches = [HeapPatch("malloc", UAF_CCID, UAF),
                   HeapPatch("malloc", GUARD_CCID, OVERFLOW | UNINIT)]
        if mask:
            patches.append(HeapPatch(fun, RUN_CCID, mask))
        make = UNDERLYING[underlying]
        trio = (*metered_twins(make, patches),
                GenericOracle(make(), patches))
        core = trio[0]
        extras = []
        for allocator in trio:
            # Two buffers already quarantined (their frees are absorbed),
            # a plain one, and a guarded one realloc'd under RUN_CCID.
            set_ccid([allocator], UAF_CCID)
            quarantined = [allocator.malloc(40) for _ in range(2)]
            for user in quarantined:
                allocator.free(user)
            set_ccid([allocator], PLAIN_CCID)
            plain = allocator.malloc(64)
            set_ccid([allocator], GUARD_CCID)
            guarded = allocator.malloc(100)
            allocator.memory.write(guarded, bytes(range(100)))
            set_ccid([allocator], RUN_CCID)
            try:
                guarded = allocator.realloc(guarded, realloc_size)
            except OutOfMemoryError:
                assert realloc_size == HUGE
            if guarded:
                kept = min(100, realloc_size)
                assert allocator.memory.read(guarded, kept) \
                    == bytes(range(kept))
            extras.append(quarantined + [plain, guarded, 0])
        assert extras[0] == extras[1] == extras[2]
        assert state(trio[0]) == state(trio[1]) == state(trio[2])

        got = core_run(core, fun, sizes, alignment)
        want = [scalar_call(trio[1], fun, size, alignment) for size in sizes]
        ref = [scalar_call(trio[2], fun, size, alignment) for size in sizes]
        assert got == want == ref
        assert layout(core, got) == layout(trio[1], want) \
            == layout(trio[2], ref)
        assert state(core) == state(trio[1]) == state(trio[2])

        addresses = got + extras[0]
        order = data.draw(st.permutations(range(len(addresses))))
        core.free_run([addresses[i] for i in order])
        for allocator in trio[1:]:
            for i in order:
                allocator.free(addresses[i])
        assert state(core) == state(trio[1]) == state(trio[2])
        assert core.stats.live_buffers == 0
        # Same release order, same allocator state: the next run lands
        # on the same addresses.
        assert core_run(core, fun, sizes, alignment) \
            == [scalar_call(trio[1], fun, size, alignment)
                for size in sizes] \
            == [scalar_call(trio[2], fun, size, alignment)
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
        freed in one shuffled run under a small quarantine quota, so
        pushes evict mid-run: scalar results."""
        patches = [HeapPatch("malloc", RUN_CCID, OVERFLOW),
                   HeapPatch("malloc", UAF_CCID, UAF),
                   HeapPatch("malloc", UAF_CCID + 10, OVERFLOW | UAF)]
        batched, scalar = metered_twins(UNDERLYING[underlying], patches,
                                        quota=4 * PAGE_SIZE)
        ccids = (RUN_CCID, UAF_CCID, UAF_CCID + 10, PLAIN_CCID)
        runs = data.draw(st.lists(st.tuples(st.sampled_from(ccids), RUN),
                                  min_size=1, max_size=4))
        got, want = [], []
        for ccid, sizes in runs:
            set_ccid((batched, scalar), ccid)
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
        allocator state as the scalar loop, cycles included."""
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
        assert state(batched) == state(scalar)
        assert batched.stats.live_buffers == budget
        assert batched.underlying.live_buffer_count == budget
        assert injectors[0].passed == injectors[1].passed
        assert injectors[0].injected == injectors[1].injected
        for injector in injectors:
            injector.disarm()
        assert batched.malloc_run(sizes) == [scalar.malloc(size)
                                             for size in sizes]
        assert layout(batched, done) == layout(scalar, done)

    def test_rejected_free_leaves_later_guards_sealed(self):
        """The underlying rejects entry 1 of a Structure 2 free run (its
        chunk was freed behind the interposer): the run stops there, as
        the scalar loop does, and the later buffers stay live with
        sealed guards, charged for nothing, and free normally later.
        Only the ``mprotect`` count differs: the run unsealed them
        before its one underlying release, then resealed them."""
        batched, scalar = metered_twins(
            LibcAllocator, [HeapPatch("malloc", RUN_CCID, OVERFLOW)])
        runs = []
        for allocator in (batched, scalar):
            users = allocator.malloc_run([100] * 4)
            allocator.underlying.free(users[1] - METADATA_SIZE)
            runs.append(users)
        with pytest.raises(InvalidFree):
            batched.free_run(runs[0])
        with pytest.raises(InvalidFree):
            for user in runs[1]:
                scalar.free(user)
        assert runs[0] == runs[1]
        assert layout(batched, runs[0][2:])[2] == [PROT_NONE] * 2
        got, want = state(batched), state(scalar)
        assert got.pop("mprotects") == want.pop("mprotects") + 2 * 2
        assert got == want
        batched.free_run(runs[0][2:])
        for user in runs[1][2:]:
            scalar.free(user)
        got, want = state(batched), state(scalar)
        assert got.pop("mprotects") == want.pop("mprotects") + 2 * 2
        assert got == want
        assert batched.stats.live_buffers == 0
        assert batched.underlying.live_buffer_count == 0

    @pytest.mark.parametrize("underlying", sorted(UNDERLYING))
    def test_stopped_free_run_charges_the_entries_reached(self, underlying):
        """A plain free run with NULL entries that stops at a bad free
        charges interposition for the entries up to it, not the rest."""
        batched, scalar = metered_twins(UNDERLYING[underlying], [])
        runs = []
        for allocator in (batched, scalar):
            a, b, c = allocator.malloc_run([48] * 3)
            allocator.free(b)
            runs.append([a, 0, b, c, 0])
        with pytest.raises(InvalidFree):
            batched.free_run(runs[0])
        with pytest.raises(InvalidFree):
            for address in runs[1]:
                scalar.free(address)
        assert state(batched) == state(scalar)
        # Three mallocs, the free of b, then a, NULL and b of the run.
        assert batched.meter.category("interpose") == (
            (3 + 1 + 3) * batched.meter.model.interpose)

    @pytest.mark.parametrize("underlying", sorted(UNDERLYING))
    def test_double_free_of_a_quarantined_buffer_is_absorbed(self,
                                                             underlying):
        """A second free of a buffer still in the UAF quarantine is a
        no-op: no second push, so a later eviction cannot release the
        chunk again once an unpatched buffer has reused it."""
        allocator = DefendedAllocator(
            UNDERLYING[underlying](),
            PatchTable([HeapPatch("malloc", UAF_CCID, UAF)]),
            context_source=_FixedContext(UAF_CCID), quarantine_quota=100)
        a = allocator.malloc(40)
        allocator.free(a)
        allocator.free(a)
        assert allocator.stats.live_buffers == 0
        assert allocator.quarantine.pushed == 1
        for _ in range(2):
            allocator.free(allocator.malloc(40))  # evicts a
        assert a - METADATA_SIZE not in allocator.quarantine
        allocator.context_source.ccid = PLAIN_CCID
        b = allocator.malloc(40)
        allocator.context_source.ccid = UAF_CCID
        for _ in range(4):
            allocator.free(allocator.malloc(40))
        allocator.context_source.ccid = PLAIN_CCID
        assert allocator.malloc(40) != b
        assert allocator.stats.live_buffers == 2
        assert allocator.underlying.live_buffer_count \
            == 2 + len(allocator.quarantine)
