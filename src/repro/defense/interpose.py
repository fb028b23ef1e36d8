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

Unpatched and overflow-only unaligned (Structure 2) buffers take integer
run paths; ``plan_request``/``place_buffer``/``BufferMetadata`` lay out
every other buffer and are those paths' oracle.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..allocator.base import Allocator
from ..allocator.stats import AllocationStats
from ..common.fifo import FreedBlock, FreedBlockQueue
from ..machine.errors import InvalidFree, OutOfMemoryError
from ..machine.layout import PAGE_SHIFT, PAGE_SIZE, SIZE_MAX, is_power_of_two
from ..machine.memory import PROT_NONE, PROT_RW
from ..patch.model import HeapPatch
from ..program.context import ContextSource, NullContextSource
from ..program.cost import CycleMeter
from ..vulntypes import VulnType
from .metadata import METADATA_SIZE, BufferMetadata
from .patch_table import PatchTable
from .structures import buffer_start, place_buffer, plan_request

#: Largest user size representable in the metadata word's 48-bit size
#: field; bigger requests take the generic (validating) path.
_MAX_INLINE_SIZE = (1 << 48) - 1

#: Bit position of the user-size field in the metadata word (Figure 6);
#: for an unpatched, unaligned buffer the whole word is ``size << 4``.
_METADATA_SIZE_SHIFT = 4

#: Low nibble of a Structure 2 (overflow-only, unaligned) metadata word.
_GUARD_TAG = int(VulnType.OVERFLOW)

#: Structure 2's request beyond the user size (``plan_request``).
_GUARD_SLACK = METADATA_SIZE + 2 * PAGE_SIZE - 1


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
        #: frozen table provably never patches (fused fast path): the
        #: read must be a pure register read (see
        #: :attr:`~repro.program.context.ContextSource.pure_ccid`).
        self._pure_ccid = bool(getattr(self.context_source,
                                       "pure_ccid", False))
        #: fun -> object with ``.get(ccid) -> Optional[HeapPatch]``:
        #: a frozen per-function map, or a :class:`_LookupView`.
        self._fun_patches: Dict[str, Any] = {}
        #: The table is frozen for this allocator's lifetime, so the
        #: fused-malloc precondition (provably no malloc patches + pure
        #: CCID read) is one precomputed bool, and the hot calls the
        #: fused paths make are prebound methods — malloc/free pay no
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

    def _charge_interposition(self) -> None:
        if self.meter is not None:
            model = self.meter.model
            self.meter.charge("interpose", model.interpose)
            self.meter.charge("metadata", model.metadata)

    # ------------------------------------------------------------------
    # Allocation family
    # ------------------------------------------------------------------

    def malloc(self, size: int) -> int:
        # Fused un-patched fast path, inlined: ``malloc`` is the hottest
        # entry point, and when the frozen table provably has no malloc
        # patches (empty per-fun map) and the CCID read is pure, the
        # whole interposition sequence collapses to one underlying call
        # plus the metadata-word stamp.  Observation-identical to
        # ``_allocate`` (which handles every other case).
        meter = self.meter
        if meter is not None:
            model = meter.model
            meter.charge("interpose", model.interpose)
            meter.charge("metadata", model.metadata)
            meter.charge("lookup", model.hash_lookup)
        if self._fused_malloc and 0 <= size <= _MAX_INLINE_SIZE:
            raw = self._underlying_malloc(METADATA_SIZE + size)
            self._write_word(raw, size << _METADATA_SIZE_SHIFT)
            self._record_malloc(size)
            return raw + METADATA_SIZE
        return self._allocate("malloc", size, _charged=meter is not None)

    def malloc_run(self, sizes: Sequence[int]) -> List[int]:
        """Batched ``malloc``: one same-call-site run of requests.

        Observation-identical to calling :meth:`malloc` per entry — same
        addresses, same stats, same cycles per category (``n`` per-call
        charges collapse into one ``n``-scaled charge) — because a run
        comes from a *single* call site: the CCID is the same for every
        entry, so the patch probe is hoisted out of the loop.  The hoist
        is only taken when the CCID read is pure (an impure source must
        be read once per allocation, exactly like the per-call path).
        """
        n = len(sizes)
        if n == 0:
            return []
        meter = self.meter
        if meter is not None:
            model = meter.model
            meter.charge("interpose", model.interpose * n)
            meter.charge("metadata", model.metadata * n)
            meter.charge("lookup", model.hash_lookup * n)
        if (self._pure_ccid and 0 <= min(sizes)
                and max(sizes) <= _MAX_INLINE_SIZE):
            patches = self._patches_for("malloc")
            patch = patches.get(self._current_ccid()) if patches else None
            if patch is None:
                # Whole-run fast path: one batched underlying request,
                # then stamp the metadata words in one scattered write.
                # Uniform runs (the request-batch shape) build their
                # size and stamp lists as C-speed repeats.
                first = sizes[0]
                if sizes.count(first) == n:
                    padded = [METADATA_SIZE + first] * n
                    stamps = [first << _METADATA_SIZE_SHIFT] * n
                else:
                    padded = [METADATA_SIZE + size for size in sizes]
                    stamps = [size << _METADATA_SIZE_SHIFT
                              for size in sizes]
                raws = self.underlying.malloc_run(padded)
                self.memory.write_word_scatter(raws, stamps)
                self.stats.record_malloc_run(sizes)
                return [raw + METADATA_SIZE for raw in raws]
            if (patch.vuln == VulnType.OVERFLOW
                    and self.memory.fault_injector is None):
                # Structure 2 for the run; under a fault injector it
                # goes per item, so faults land as in a scalar loop.
                raws = self.underlying.malloc_run(
                    [size + _GUARD_SLACK for size in sizes])
                return self._guard_run("malloc", raws, sizes)
        # Per entry: an impure CCID read (it has observable effects),
        # sizes outside the inline range, and every other patch.
        return [self._allocate("malloc", size, _charged=True)
                for size in sizes]

    def calloc(self, nmemb: int, size: int) -> int:
        if nmemb < 0 or size < 0:
            raise ValueError("calloc: negative argument")
        total = nmemb * size
        if total > SIZE_MAX:
            # glibc's overflow check, enforced before the request ever
            # reaches the underlying allocator.
            raise OutOfMemoryError(
                f"calloc: {nmemb} * {size} overflows size_t")
        return self._allocate("calloc", total, zero=True)

    def memalign(self, alignment: int, size: int) -> int:
        return self._allocate("memalign", size, aligned=True,
                              alignment=alignment)

    def aligned_alloc(self, alignment: int, size: int) -> int:
        return self._allocate("aligned_alloc", size, aligned=True,
                              alignment=alignment)

    def posix_memalign(self, alignment: int, size: int) -> int:
        if alignment % 8 or not is_power_of_two(alignment):
            # POSIX: the alignment must be a power of two multiple of
            # sizeof(void*); EINVAL otherwise.
            raise ValueError("posix_memalign: alignment must be a "
                             "power-of-two multiple of sizeof(void*)")
        return self._allocate("posix_memalign", size, aligned=True,
                              alignment=alignment)

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

    def _allocate(self, fun: str, size: int, aligned: bool = False,
                  alignment: int = 0, zero: bool = False,
                  _charged: bool = False) -> int:
        meter = self.meter
        if meter is not None and not _charged:
            model = meter.model
            meter.charge("interpose", model.interpose)
            meter.charge("metadata", model.metadata)
            meter.charge("lookup", model.hash_lookup)
        patches = self._fun_patches.get(fun)
        if patches is None:
            patches = self._patches_for(fun)
        if patches or not self._pure_ccid:
            ccid = self._current_ccid()
            patch = patches.get(ccid)
        else:
            # Fused precondition: the frozen per-function map is *empty*
            # — no CCID of ``fun`` can match a patch — and the CCID read
            # is a pure register read.  Skip it entirely.  (A lookup
            # view without ``per_fun`` can never prove emptiness; it is
            # always truthy and takes the read.)
            patch = None

        if (patch is None and not aligned and not zero
                and 0 <= size <= _MAX_INLINE_SIZE):
            # Structure 1 fast path — the "zero patches" common case:
            # no guard, no zero-fill, no alignment.  Request metadata
            # word + user bytes, stamp the word (vuln NONE, unaligned:
            # the encoding degenerates to ``size << 4``), done.
            raw = self.underlying.malloc(METADATA_SIZE + size)
            user = raw + METADATA_SIZE
            self.memory.write_word(user - METADATA_SIZE,
                                   size << _METADATA_SIZE_SHIFT)
            self.stats.record_alloc(fun, size)
            return user
        if (patch is not None and patch.vuln == VulnType.OVERFLOW
                and not (aligned or zero) and 0 <= size <= _MAX_INLINE_SIZE):
            raw = self.underlying.malloc(size + _GUARD_SLACK)
            return self._guard_run(fun, [raw], [size])[0]

        vuln = patch.vuln if patch is not None else VulnType.NONE
        plan = plan_request(vuln, aligned, alignment, size)
        if plan.request_alignment:
            raw = self.underlying.memalign(plan.request_alignment,
                                           plan.request_size)
        else:
            raw = self.underlying.malloc(plan.request_size)
        placed = place_buffer(plan, raw, size)

        metadata = BufferMetadata(
            vuln=vuln,
            aligned=aligned,
            align_log2=(plan.user_alignment.bit_length() - 1
                        if aligned else 0),
            guard_page=placed.guard,
            user_size=0 if placed.guard else size,
        )
        self.memory.write_word(placed.metadata_address, metadata.encode())

        if placed.guard:
            self._seal(fun, [raw], [placed.guard], [size])
        else:
            self.stats.record_alloc(fun, size)
        if zero or (vuln & VulnType.UNINIT_READ):
            if size:
                self.memory.fill(placed.user, size, 0)
            if not zero and self.meter is not None:
                # calloc zeroes natively; only patch-driven zeroing is
                # defense cost.
                self.meter.charge(
                    "defense", self.meter.model.zero_fill_per_byte * size)
            if vuln & VulnType.UNINIT_READ:
                self.enhanced_counts[VulnType.UNINIT_READ] += 1
        if vuln & VulnType.USE_AFTER_FREE:
            self.enhanced_counts[VulnType.USE_AFTER_FREE] += 1
        return placed.user

    def _guard_run(self, fun: str, raws: List[int],
                   sizes: Sequence[int]) -> List[int]:
        """Structure 2 on raw chunks of ``size + _GUARD_SLACK`` bytes:
        ``place_buffer`` and ``BufferMetadata.encode`` as arithmetic."""
        users = [raw + METADATA_SIZE for raw in raws]
        guards = [(user + size + PAGE_SIZE - 1) & -PAGE_SIZE
                  for user, size in zip(users, sizes)]
        self.memory.write_word_scatter(raws, [
            _GUARD_TAG | (guard >> PAGE_SHIFT) << _METADATA_SIZE_SHIFT
            for guard in guards])
        self._seal(fun, raws, guards, sizes)
        return users

    def _seal(self, fun: str, raws: List[int], guards: List[int],
              sizes: Sequence[int]) -> None:
        """Store each size in its guard page, seal it, record the buffer;
        a failed seal releases the unsealed chunks (runs are malloc)."""
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
                if fun == "malloc":
                    self.stats.record_malloc_run(sizes[:sealed])
                else:
                    self.stats.record_alloc(fun, sizes[0])

    # ------------------------------------------------------------------
    # Deallocation (Figure 7)
    # ------------------------------------------------------------------

    def _read_metadata(self, user: int) -> Tuple[BufferMetadata, int]:
        """Decode the metadata word; returns (metadata, user_size).

        For guarded buffers the guard page is made accessible first (the
        user size lives in its first word) — step (1) of Figure 7.
        """
        word = self.memory.read_word(user - METADATA_SIZE)
        metadata = BufferMetadata.decode(word)
        if metadata.has_guard:
            self._protect(metadata.guard_page, PROT_RW)
            user_size = self.memory.read_word(metadata.guard_page)
        else:
            user_size = metadata.user_size
        return metadata, user_size

    def free(self, address: int) -> None:
        if self.meter is not None:
            self._charge_interposition()
        if address == 0:
            return
        word = self._read_word(address - METADATA_SIZE)
        if not word & 0xF:
            # Fused un-patched fast path: vuln NONE + unaligned means no
            # guard page, no quarantine, align_log2 0 — the whole word
            # is ``user_size << 4``.  Free without decoding (Figure 7
            # collapses to its degenerate first row).
            self._record_free(word >> _METADATA_SIZE_SHIFT)
            self._underlying_free(address - METADATA_SIZE)
            return
        if word & 0xF == _GUARD_TAG:
            self._free_guarded([address - METADATA_SIZE], [word])
            return
        self._free_decoded(address)

    def _free_guarded(self, raws: List[int], words: List[int]) -> None:
        """Figure 7 for Structure 2 words: unseal each guard, gather the
        sizes, release the chunks (on a failed unseal, the prefix)."""
        guards = [word >> _METADATA_SIZE_SHIFT << PAGE_SHIFT for word in words]
        unsealed = 0
        try:
            for guard in guards:
                self._protect(guard, PROT_RW)
                unsealed += 1
        finally:
            if unsealed:
                guards = guards[:unsealed]
                self._release_run(raws[:unsealed],
                                  self.memory.read_word_gather(guards))

    def _release_run(self, raws: List[int], sizes: List[int]) -> None:
        """Release chunks in one underlying run and record their user
        sizes; a bad free records the frees through it, as scalar does."""
        try:
            self.underlying.free_run(raws)
        except InvalidFree as exc:
            self.stats.record_free_run(sizes[:raws.index(exc.address) + 1])
            raise
        self.stats.record_free_run(sizes)

    def _free_decoded(self, address: int, decoded: Optional[
            Tuple[BufferMetadata, int]] = None) -> None:
        """The decoding free path (guard unseal, quarantine, Figure 7).

        Interposition must already have been charged; shared by
        :meth:`free` and :meth:`free_run` for buffers whose metadata word
        carries flags; :meth:`realloc` passes its own ``decoded``.
        """
        metadata, user_size = decoded or self._read_metadata(address)
        raw = buffer_start(address, metadata.aligned, metadata.alignment)
        if metadata.has_guard:
            region_size = metadata.guard_page + PAGE_SIZE - raw
        else:
            region_size = (address - raw) + user_size
        self.stats.record_free(user_size)
        if metadata.vuln & VulnType.USE_AFTER_FREE:
            self._charge("defense", self.meter.model.quarantine_op
                         if self.meter else 0)
            evictions = self.quarantine.push(
                FreedBlock(raw, region_size, None))
            for block in evictions:
                self.underlying.free(block.address)
        else:
            self.underlying.free(raw)

    def free_run(self, addresses: Sequence[int]) -> None:
        """Batched ``free``: observation-identical to per-call frees."""
        n = len(addresses)
        if n == 0:
            return
        raws = [address - METADATA_SIZE for address in addresses if address]
        if len(set(raws)) < len(raws):
            # A buffer freed twice in one run: which of its frees fails
            # depends on whether it was live before, so go scalar.
            for address in addresses:
                self.free(address)
            return
        meter = self.meter
        if meter is not None:
            model = meter.model
            meter.charge("interpose", model.interpose * n)
            meter.charge("metadata", model.metadata * n)
        words = self.memory.read_word_gather(raws)
        # Consecutive plain words go out as one batch, consecutive
        # Structure 2 words as another; others decode in place.  The
        # underlying thus sees every release in run order, and a bad
        # free stops the run where the scalar loop would.
        pending: List[int] = []
        pending_words: List[int] = []
        pending_tag = 0
        for raw, word in zip(raws, words):
            tag = word & 0xF
            if tag != pending_tag:
                self._flush_frees(pending, pending_words, pending_tag)
                pending, pending_words = [], []
                if tag != _GUARD_TAG:
                    pending_tag = 0
                    self._free_decoded(raw + METADATA_SIZE)
                    continue
                pending_tag = tag
            pending.append(raw)
            pending_words.append(word)
        self._flush_frees(pending, pending_words, pending_tag)

    def _flush_frees(self, raws: List[int], words: List[int],
                     tag: int) -> None:
        """Release :meth:`free_run`'s pending batch of one tag (plain or
        Structure 2; possibly empty)."""
        if not raws:
            return
        if tag:
            self._free_guarded(raws, words)
        else:
            self._release_run(raws, [word >> _METADATA_SIZE_SHIFT
                                     for word in words])

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
            return self._allocate("realloc", size)
        if size == 0:
            self.free(address)
            return 0
        self._charge_interposition()
        decoded = metadata, old_size = self._read_metadata(address)
        try:
            new_user = self._allocate("realloc", size)
        except Exception:
            if metadata.has_guard:  # the old buffer stays live: reseal
                self._protect(metadata.guard_page, PROT_NONE)
            raise
        keep = min(old_size, size)
        if keep:
            self.memory.write(new_user, self.memory.read(address, keep))
        self._charge_interposition()  # free the old buffer
        self._free_decoded(address, decoded)
        return new_user

    def malloc_usable_size(self, address: int) -> int:
        if address == 0:
            return 0
        word = self.memory.read_word(address - METADATA_SIZE)
        metadata = BufferMetadata.decode(word)
        if not metadata.has_guard:
            return metadata.user_size
        # Reading the size requires briefly unsealing the guard page.
        self.memory.mprotect(metadata.guard_page, PAGE_SIZE, PROT_RW)
        user_size = self.memory.read_word(metadata.guard_page)
        self.memory.mprotect(metadata.guard_page, PAGE_SIZE, PROT_NONE)
        return user_size
