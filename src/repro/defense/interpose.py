"""The Online Defense Generator (paper Section VI, Figures 5–7).

``DefendedAllocator`` is the reproduction of the ``LD_PRELOAD`` shared
library: it implements the public :class:`~repro.allocator.base.Allocator`
API, wraps *any* other allocator, and never touches that allocator's
internals — every piece of state it needs at ``free``/``realloc`` time is
self-maintained in the per-buffer metadata word (and, for guarded buffers,
the first word of the guard page).

Per allocation it does exactly what the paper describes:

1. read the current CCID from the encoding runtime (one register read),
2. look up ``(allocation function, CCID)`` in the read-only patch table —
   O(1),
3. lay the buffer out as Structure 1–4 and apply the matched enhancements:
   guard page (``mprotect``) against overflow, zero-fill against
   uninitialized read, deferred-free FIFO against use after free.

Unpatched buffers still pay interposition + metadata — that is the 4.3%
"zero patches" bar of Figure 8 — while enhancement cost is confined to
vulnerable contexts, which is the whole point of heap patches as
configuration.

One run core per direction serves every patch mask by integer
arithmetic on Figure 6's word: ``_allocate_run`` (``malloc_run``, and
every scalar allocation call as a run of one) and ``_free_words``
(Figure 7).  Only the scalar Structure 1 ``malloc`` and ``free`` keep a
short path.  ``plan_request``/``place_buffer``/``BufferMetadata`` are
the reference layout the tests compare the core against.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..allocator.base import Allocator
from ..allocator.stats import AllocationStats
from ..common.fifo import FreedBlock, FreedBlockQueue
from ..machine.errors import InvalidFree, MachineError, OutOfMemoryError
from ..machine.layout import PAGE_SHIFT, PAGE_SIZE, SIZE_MAX, is_power_of_two
from ..machine.memory import PROT_NONE, PROT_RW
from ..patch.model import HeapPatch
from ..program.context import ContextSource, NullContextSource
from ..program.cost import CycleMeter
from ..vulntypes import VulnType
from .metadata import (
    _ALIGN_MASK,
    _ALIGN_SHIFT_OVERFLOW,
    _ALIGN_SHIFT_PLAIN,
    _ALIGNED_BIT,
    _GUARD_MASK,
    _GUARD_SHIFT,
    _SIZE_MASK,
    _SIZE_SHIFT,
    _TYPE_MASK,
    METADATA_SIZE,
)
from .patch_table import PatchTable
from .structures import MIN_DEFENSE_ALIGNMENT, StructureError

_OVERFLOW = int(VulnType.OVERFLOW)
_UAF = int(VulnType.USE_AFTER_FREE)
_UNINIT = int(VulnType.UNINIT_READ)

#: Low nibble of a metadata word: the vulnerability bits and ALIGNED.
#: Zero means Structure 1, whose whole word is ``user_size << 4``.
_TAG_MASK = _TYPE_MASK | _ALIGNED_BIT

#: Request beyond metadata and user bytes that leaves room for a
#: page-aligned guard page after the user buffer (Structures 2 and 4).
_GUARD_SLACK = 2 * PAGE_SIZE - 1


def _decode(user: int, word: int) -> Tuple[int, int, int]:
    """Figure 7's ``pi`` (the underlying chunk), the guard page and the
    user size of the buffer at ``user`` with metadata ``word``.  A
    guarded buffer keeps its size in the guard page (size 0 here); an
    unguarded one has guard 0."""
    if word & _OVERFLOW:
        guard = (word >> _GUARD_SHIFT & _GUARD_MASK) << PAGE_SHIFT
        size, shift = 0, _ALIGN_SHIFT_OVERFLOW
    else:
        guard, shift = 0, _ALIGN_SHIFT_PLAIN
        size = word >> _SIZE_SHIFT & _SIZE_MASK
    if word & _ALIGNED_BIT:
        return user - (1 << (word >> shift & _ALIGN_MASK)), guard, size
    return user - METADATA_SIZE, guard, size


class _LookupView:
    """``ccid -> patch`` probe for tables without :meth:`per_fun`.

    The interposer only requires ``lookup``/``frozen``/``__len__`` of a
    table (e.g. :class:`~repro.defense.sealed_table.SealedPatchTable`);
    this adapter gives such tables the same ``.get(ccid)`` face the
    hot path uses for frozen per-function maps.
    """

    __slots__ = ("_lookup", "_fun")

    def __init__(self, lookup, fun: str) -> None:
        self._lookup = lookup
        self._fun = fun

    def get(self, ccid: int) -> Optional[HeapPatch]:
        return self._lookup(self._fun, ccid)

#: Default byte quota of the online deferred-free queue (paper: 2 GB,
#: customizable; only patched buffers ever enter it).
DEFAULT_ONLINE_QUOTA = 2 * 1024 * 1024 * 1024


class DefendedAllocator(Allocator):
    """Allocation-API interposer enforcing heap patches.

    Args:
        underlying: the real allocator; only its public API is used.
        table: the frozen patch table.
        context_source: where CCIDs come from (the encoding runtime).
        meter: cycle meter for the overhead decomposition; optional.
        quarantine_quota: byte quota for the deferred-free queue.
    """

    def __init__(self, underlying: Allocator, table: PatchTable,
                 context_source: Optional[ContextSource] = None,
                 meter: Optional[CycleMeter] = None,
                 quarantine_quota: int = DEFAULT_ONLINE_QUOTA) -> None:
        if not table.frozen:
            raise ValueError("patch table must be frozen before use")
        self.underlying = underlying
        self.memory = underlying.memory
        self.table = table
        self.context_source = (context_source if context_source is not None
                               else NullContextSource())
        self.meter = meter
        self.quarantine = FreedBlockQueue(quarantine_quota)
        self.stats = AllocationStats()
        # Hot-path bindings: the CCID read is the paper's "one register
        # read"; the per-function patch maps are frozen at table-freeze
        # time, so caching them turns the lookup into one dict probe.
        self._current_ccid = self.context_source.current_ccid
        #: True when even the CCID read may be elided for functions the
        #: frozen table provably never patches, and a run may share one
        #: probe: the read must be a pure register read (see
        #: :attr:`~repro.program.context.ContextSource.pure_ccid`).
        self._pure_ccid = bool(getattr(self.context_source,
                                       "pure_ccid", False))
        #: fun -> object with ``.get(ccid) -> Optional[HeapPatch]``:
        #: a frozen per-function map, or a :class:`_LookupView`.
        self._fun_patches: Dict[str, Any] = {}
        #: The table is frozen for this allocator's lifetime, so the
        #: short-path precondition (provably no malloc patches + pure
        #: CCID read) is one precomputed bool, and the hot calls the
        #: short paths make are prebound methods — malloc/free pay no
        #: attribute walks beyond one flag test each.
        self._fused_malloc = (not self._patches_for("malloc")
                              and self._pure_ccid)
        self._underlying_malloc = underlying.malloc
        self._underlying_free = underlying.free
        self._write_word = self.memory.write_word
        self._read_word = self.memory.read_word
        self._record_malloc = self.stats.record_malloc
        self._record_free = self.stats.record_free
        #: Buffers currently enhanced, by defense kind (for reports).
        self.enhanced_counts = {
            VulnType.OVERFLOW: 0,
            VulnType.USE_AFTER_FREE: 0,
            VulnType.UNINIT_READ: 0,
        }

    # ------------------------------------------------------------------
    # Cost helpers
    # ------------------------------------------------------------------

    def _charge(self, category: str, cycles: float) -> None:
        if self.meter is not None:
            self.meter.charge(category, cycles)

    def _protect(self, guard: int, prot: int) -> None:
        """``mprotect`` one guard page, charged as defense work."""
        self.memory.mprotect(guard, PAGE_SIZE, prot)
        self._charge("defense", self.meter.model.mprotect if self.meter else 0)

    def _charge_interposition(self, calls: int = 1) -> None:
        if self.meter is not None:
            model = self.meter.model
            self.meter.charge("interpose", model.interpose * calls)
            self.meter.charge("metadata", model.metadata * calls)

    # ------------------------------------------------------------------
    # Allocation family
    # ------------------------------------------------------------------

    def malloc(self, size: int) -> int:
        # Structure 1 short path, inlined: ``malloc`` is the hottest
        # entry point, and when the frozen table provably has no malloc
        # patches (empty per-fun map) and the CCID read is pure, the
        # whole interposition sequence collapses to one underlying call
        # plus the metadata-word stamp — ``_allocate_run`` of one,
        # without building its lists.
        if self._fused_malloc and size >= 0:
            meter = self.meter
            if meter is not None:
                model = meter.model
                meter.charge("interpose", model.interpose)
                meter.charge("metadata", model.metadata)
                meter.charge("lookup", model.hash_lookup)
            raw = self._underlying_malloc(METADATA_SIZE + size)
            self._write_word(raw, size << _SIZE_SHIFT)
            self._record_malloc(size)
            return raw + METADATA_SIZE
        return self._allocate_run("malloc", (size,))[0]

    def malloc_run(self, sizes: Sequence[int]) -> List[int]:
        """Batched ``malloc``: one same-call-site run of requests.

        Observation-identical to calling :meth:`malloc` per entry — same
        addresses, same stats, same cycles per category (``n`` per-call
        charges collapse into one ``n``-scaled charge) — because a run
        comes from a *single* call site: the CCID is the same for every
        entry, so the patch probe is hoisted out of the loop.
        """
        if not sizes:
            return []
        if (self._pure_ccid and self.memory.fault_injector is None
                and min(sizes) >= 0):
            return self._allocate_run("malloc", sizes)
        # Per call: an impure CCID read has effects and is made once per
        # allocation, an armed fault injector must fault on the same
        # item, and a negative size fails after the entries before it.
        malloc = self.malloc
        return [malloc(size) for size in sizes]

    def calloc(self, nmemb: int, size: int) -> int:
        if nmemb < 0 or size < 0:
            raise ValueError("calloc: negative argument")
        total = nmemb * size
        if total > SIZE_MAX:
            # glibc's overflow check, enforced before the request ever
            # reaches the underlying allocator.
            raise OutOfMemoryError(
                f"calloc: {nmemb} * {size} overflows size_t")
        return self._allocate_run("calloc", (total,), zero=True)[0]

    def memalign(self, alignment: int, size: int) -> int:
        return self._allocate_run("memalign", (size,), alignment)[0]

    def aligned_alloc(self, alignment: int, size: int) -> int:
        return self._allocate_run("aligned_alloc", (size,), alignment)[0]

    def posix_memalign(self, alignment: int, size: int) -> int:
        if alignment % 8 or not is_power_of_two(alignment):
            # POSIX: the alignment must be a power of two multiple of
            # sizeof(void*); EINVAL otherwise.
            raise ValueError("posix_memalign: alignment must be a "
                             "power-of-two multiple of sizeof(void*)")
        return self._allocate_run("posix_memalign", (size,), alignment)[0]

    def _patches_for(self, fun: str):
        patches = self._fun_patches.get(fun)
        if patches is None:
            per_fun = getattr(self.table, "per_fun", None)
            if per_fun is not None:
                patches = per_fun(fun)
            else:
                patches = _LookupView(self.table.lookup, fun)
            self._fun_patches[fun] = patches
        return patches

    def _allocate_run(self, fun: str, sizes: Sequence[int],
                      alignment: Optional[int] = None,
                      zero: bool = False) -> List[int]:
        """Table I for a run of ``fun`` requests from one call site.

        One patch probe picks the vulnerability mask; its OVERFLOW bit
        and ``alignment`` (None = unaligned, the memalign family passes
        one) pick the structure.  The underlying request is
        metadata word (or alignment padding) + user bytes, plus
        ``_GUARD_SLACK`` for a guard; the word is Figure 6's packing of
        the mask, ALIGNED, log2(alignment) and either the user size or
        the guard frame.  Zero-fill serves ``calloc`` (``zero``) and
        UNINIT_READ; only the latter is defense cost.
        """
        n = len(sizes)
        meter = self.meter
        if meter is not None:
            model = meter.model
            meter.charge("interpose", model.interpose * n)
            meter.charge("metadata", model.metadata * n)
            meter.charge("lookup", model.hash_lookup * n)
        patches = self._patches_for(fun)
        if patches or not self._pure_ccid:
            patch = patches.get(self._current_ccid())
        else:
            # The frozen per-function map is *empty* and the CCID read
            # is a pure register read: skip it.  (A lookup view can
            # never prove emptiness; it is always truthy.)
            patch = None
        vuln = int(patch.vuln) & _TYPE_MASK if patch is not None else 0
        if min(sizes) < 0:
            raise StructureError(f"negative size {min(sizes)}")
        guarded = vuln & _OVERFLOW
        slack = _GUARD_SLACK if guarded else 0
        first = sizes[0]
        uniform = sizes.count(first) == n
        if alignment is not None:
            if alignment and not is_power_of_two(alignment):
                raise StructureError(
                    f"alignment {alignment} is not a power of two")
            offset = max(alignment, MIN_DEFENSE_ALIGNMENT)
            tag = vuln | _ALIGNED_BIT | (offset.bit_length() - 1) << (
                _ALIGN_SHIFT_OVERFLOW if guarded else _ALIGN_SHIFT_PLAIN)
            slack += offset
            memalign = self.underlying.memalign
            raws = [memalign(offset, size + slack) for size in sizes]
        else:
            tag, offset = vuln, METADATA_SIZE
            slack += METADATA_SIZE
            # A run of one is a plain malloc: same chunk, less work.
            raws = ([self._underlying_malloc(first + slack)] if n == 1
                    else self.underlying.malloc_run(
                        [first + slack] * n if uniform
                        else [size + slack for size in sizes]))
        users = [raw + offset for raw in raws]
        stamps = (raws if offset == METADATA_SIZE
                  else [user - METADATA_SIZE for user in users])
        if guarded:
            guards = [(user + size + PAGE_SIZE - 1) & -PAGE_SIZE
                      for user, size in zip(users, sizes)]
            words = [tag | guard >> PAGE_SHIFT << _GUARD_SHIFT
                     for guard in guards]
        elif uniform:
            words = [tag | first << _SIZE_SHIFT] * n
        else:
            words = [tag | size << _SIZE_SHIFT for size in sizes]
        self.memory.write_word_scatter(stamps, words)
        if guarded:
            self._seal(fun, raws, guards, sizes)
        else:
            self._record(fun, sizes)
        if zero or vuln & _UNINIT:
            fill = self.memory.fill
            for user, size in zip(users, sizes):
                if size:
                    fill(user, size, 0)
            if not zero and meter is not None:
                meter.charge("defense",
                             meter.model.zero_fill_per_byte * sum(sizes))
            if vuln & _UNINIT:
                self.enhanced_counts[VulnType.UNINIT_READ] += n
        if vuln & _UAF:
            self.enhanced_counts[VulnType.USE_AFTER_FREE] += n
        return users

    def _record(self, fun: str, sizes: Sequence[int]) -> None:
        if fun == "malloc":
            self.stats.record_malloc_run(sizes)
        else:
            for size in sizes:
                self.stats.record_alloc(fun, size)

    def _seal(self, fun: str, raws: List[int], guards: List[int],
              sizes: Sequence[int]) -> None:
        """Store each size in its guard page, seal it, record the buffer;
        a failed seal releases the unsealed chunks."""
        self.memory.write_word_scatter(guards, sizes)
        sealed = 0
        try:
            for guard in guards:
                self._protect(guard, PROT_NONE)
                sealed += 1
        finally:
            if sealed < len(raws):
                self.underlying.free_run(raws[sealed:])
            if sealed:
                self.enhanced_counts[VulnType.OVERFLOW] += sealed
                self._record(fun, sizes[:sealed])

    # ------------------------------------------------------------------
    # Deallocation (Figure 7)
    # ------------------------------------------------------------------

    def free(self, address: int) -> None:
        if self.meter is not None:
            self._charge_interposition()
        if address == 0:
            return
        word = self._read_word(address - METADATA_SIZE)
        if not word & _TAG_MASK:
            # Structure 1 short path: vuln NONE + unaligned means no
            # guard page, no quarantine, align_log2 0 — the whole word
            # is ``user_size << 4``.  Free without decoding (Figure 7
            # collapses to its degenerate first row).
            self._record_free(word >> _SIZE_SHIFT)
            self._underlying_free(address - METADATA_SIZE)
            return
        self._free_words((address,), (word,))

    def free_run(self, addresses: Sequence[int]) -> None:
        """Batched ``free``: observation-identical to per-call frees."""
        if not addresses:
            return
        users = [address for address in addresses if address]
        words = None
        if len(set(users)) == len(users):
            try:
                words = self.memory.read_word_gather(
                    [user - METADATA_SIZE for user in users])
            except MachineError:
                pass
        if words is None:
            # A buffer freed twice in one run (which of its frees fails
            # depends on whether it was live before), or an unreadable
            # word: the scalar loop decides where the run stops.
            for address in addresses:
                self.free(address)
            return
        self._free_words(users, words, addresses)

    def _free_words(self, users: Sequence[int], words: Sequence[int],
                    run: Optional[Sequence[int]] = None,
                    unsealed: bool = False) -> None:
        """Figure 7 for ``users`` by their metadata ``words``, in order.

        A guard is unsealed (unless realloc did it) to read the user
        size.  A USE_AFTER_FREE buffer goes to the quarantine, unless it
        is still there (a double free, absorbed).  Every other chunk
        joins one underlying release, flushed before each quarantine
        push, so the underlying sees the scalar loop's order.  ``run``,
        the caller's addresses, asks to charge interposition for the
        entries reached: all, or those up to the one whose free raised.
        """
        chunks: List[int] = []
        sizes: List[int] = []
        head = 0  # index of chunks[0] in users
        k = 0
        done = False
        try:
            plain = 0  # start of the untagged span before entry k
            tagged = [i for i, word in enumerate(words) if word & _TAG_MASK]
            for k in tagged + [len(words)]:
                if plain < k:
                    chunks += [user - METADATA_SIZE for user in users[plain:k]]
                    sizes += [word >> _SIZE_SHIFT for word in words[plain:k]]
                if k == len(words):
                    break
                plain = k + 1
                user, word = users[k], words[k]
                raw, guard, size = _decode(user, word)
                uaf = word & _UAF
                if uaf:
                    if chunks:
                        self._release(chunks, sizes)
                        chunks, sizes = [], []
                    head = k + 1
                    if raw in self.quarantine:
                        continue  # still quarantined: a double free
                if guard:
                    if not unsealed:
                        try:
                            self._protect(guard, PROT_RW)
                        except MachineError:
                            if chunks:  # the scalar loop freed them first
                                self._release(chunks, sizes)
                            raise
                    size = self._read_word(guard)
                    end = guard + PAGE_SIZE
                else:
                    end = user + size
                if uaf:
                    self._record_free(size)
                    self._charge("defense", self.meter.model.quarantine_op
                                 if self.meter else 0)
                    evicted = self.quarantine.push(
                        FreedBlock(raw, end - raw, None))
                    if evicted:
                        self.underlying.free_run(
                            [block.address for block in evicted])
                    continue
                chunks.append(raw)
                sizes.append(size)
            if chunks:
                self._release(chunks, sizes)
            done = True
        except InvalidFree as exc:
            if exc.address in chunks:
                k = head + chunks.index(exc.address)
                # The scalar loop never reached the chunks after the bad
                # one: reseal the guards unsealed for them, uncharged,
                # so those buffers stay live as they were.
                for i in range(k + 1, head + len(chunks)):
                    guard = _decode(users[i], words[i])[1]
                    if guard:
                        self.memory.mprotect(guard, PAGE_SIZE, PROT_NONE)
                        self._charge("defense", -self.meter.model.mprotect
                                     if self.meter else 0)
            raise
        finally:
            if run is not None and self.meter is not None:
                self._charge_interposition(
                    len(run) if done else
                    [i for i, address in enumerate(run) if address][k] + 1)

    def _release(self, chunks: List[int], sizes: List[int]) -> None:
        """Release chunks in one underlying run and record their user
        sizes; a bad free records the frees through it, as scalar does."""
        try:
            self.underlying.free_run(chunks)
        except InvalidFree as exc:
            self.stats.record_free_run(
                sizes[:chunks.index(exc.address) + 1])
            raise
        self.stats.record_free_run(sizes)

    # ------------------------------------------------------------------
    # Patch-table swap (read-mostly shared tables, copy-on-write)
    # ------------------------------------------------------------------

    def swap_table(self, table: PatchTable) -> None:
        """Atomically replace the patch table (copy-on-write swap).

        The serving controller distributes new tables while workers keep
        allocating.  Publication order makes every lookup see one
        internally consistent table version, old or new, never a mix:

        1. clear :attr:`_fused_malloc` — readers stop skipping lookups;
        2. publish the new frozen table;
        3. drop the per-function probe cache — stale maps derived from
           the old table are unreachable after this store (probes that
           raced step 2 cached into the *old* dict, which dies here);
        4. recompute the fused-malloc precondition against the new table.

        Live enhanced buffers keep the structures their allocation-time
        table gave them — their self-describing metadata words make frees
        correct under any table version (the paper's patches-as-
        configuration property).
        """
        if not table.frozen:
            raise ValueError("patch table must be frozen before use")
        self._fused_malloc = False
        self.table = table
        self._fun_patches = {}
        self._fused_malloc = (not self._patches_for("malloc")
                              and self._pure_ccid)

    # ------------------------------------------------------------------
    # Realloc & queries
    # ------------------------------------------------------------------

    def realloc(self, address: int, size: int) -> int:
        if address == 0:
            return self._allocate_run("realloc", (size,))[0]
        if size == 0:
            self.free(address)
            return 0
        self._charge_interposition()
        word = self._read_word(address - METADATA_SIZE)
        _, guard, old_size = _decode(address, word)
        # Allocate before touching the old buffer: a failed allocation
        # leaves it live with its guard still sealed.
        new_user = self._allocate_run("realloc", (size,))[0]
        if guard:
            try:
                self._protect(guard, PROT_RW)
            except Exception:
                # The old buffer stays live and sealed; give the new one
                # back.  Should that release fail too, its error
                # propagates and the new buffer stays live and sealed
                # (it leaks).
                self.free(new_user)
                raise
            old_size = self._read_word(guard)
        keep = min(old_size, size)
        if keep:
            self.memory.write(new_user, self.memory.read(address, keep))
        self._charge_interposition()  # free the old buffer
        self._free_words((address,), (word,), unsealed=True)
        return new_user

    def malloc_usable_size(self, address: int) -> int:
        if address == 0:
            return 0
        word = self.memory.read_word(address - METADATA_SIZE)
        _, guard, size = _decode(address, word)
        if not guard:
            return size
        # Reading the size requires briefly unsealing the guard page.
        self.memory.mprotect(guard, PAGE_SIZE, PROT_RW)
        user_size = self.memory.read_word(guard)
        self.memory.mprotect(guard, PAGE_SIZE, PROT_NONE)
        return user_size
