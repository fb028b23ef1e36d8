"""Columnar page-frame store: one arena, many pages.

Prior to this module every materialized page frame was its own
``bytearray`` — thousands of small heap objects.  ``PageStore`` keeps
all frames of one owner in a small number of large *segments*
(columnar layout) and hands out per-page ``memoryview`` windows:

* a **byte view** (``memoryview`` of the page's 4096 bytes) for slice
  reads/writes, and
* a **word view** (the same bytes cast to ``'Q'``) so aligned 64-bit
  loads and stores are single indexed operations instead of
  ``int.from_bytes``/``to_bytes`` round trips.

Segments never move or resize once created (growth appends new
segments), so handed-out views stay valid for the life of the store.
The store builds a slot's two views the first time it hands the slot
out and keeps them: a reused slot returns the very same objects, so a
long-lived arena (one per serving worker) recycles frames without
creating views.  :meth:`PageStore.close` releases them.

Stores are private to their process: each worker of a pool builds its
own, and no page frame ever crosses a process boundary.

The store keeps the set of slots it has handed out.  A free slot that
was handed out before (it has views) may hold data, so it is re-zeroed
on reuse and fresh frames always read as zero (the demand-paging
contract of :class:`~repro.machine.memory.VirtualMemory`); a slot never
handed out is still zero.  Freeing a slot that is not in the set
(already free, never handed out, or out of range) raises
:class:`SlotAlreadyFree`: handing one frame to two owners would alias
their pages.
"""
from __future__ import annotations

from typing import Any, Collection, List, Optional, Sequence, Set, Tuple

from .layout import PAGE_SIZE

#: Pages in a store's first segment.  Stores are created per
#: ``VirtualMemory`` — often thousands per run — so the first segment
#: is small and growth doubles from there.
PRIVATE_SEGMENT_PAGES = 16

#: Upper bound on segment growth (pages per segment).
PRIVATE_SEGMENT_CAP = 2048

_ZERO_PAGE = bytes(PAGE_SIZE)


class PageStoreClosed(RuntimeError):
    """Operation on a store whose segments have been released."""


class SlotAlreadyFree(ValueError):
    """``free`` of a slot that is not allocated: a double free, or a
    slot the store never handed out."""

    def __init__(self, slot: int) -> None:
        self.slot = slot
        super().__init__(f"page-store slot {slot} is not allocated")


class PageStore:
    """A growable arena of page frames with slot-based allocation."""

    def __init__(self) -> None:
        #: Per-segment byte views (windows are sliced out of these).
        self._segment_views: List[memoryview] = []
        #: Per-segment page capacity.
        self._segment_pages: List[int] = []
        #: Slot id of the first page of each segment.
        self._segment_base: List[int] = []
        self._free_slots: List[int] = []
        #: Slots handed out and not freed since.
        self._allocated: Set[int] = set()
        #: Per slot: its ``(byte view, word view)`` once handed out.
        self._slot_views: List[Optional[Tuple[memoryview, memoryview]]] = []
        self._total_slots = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Segment plumbing
    # ------------------------------------------------------------------

    def _next_segment_pages(self) -> int:
        if not self._segment_pages:
            return PRIVATE_SEGMENT_PAGES
        return min(self._segment_pages[-1] * 2, PRIVATE_SEGMENT_CAP)

    def _add_segment(self) -> None:
        if self._closed:
            raise PageStoreClosed("page store has been closed")
        pages = self._next_segment_pages()
        base = self._total_slots
        self._segment_views.append(memoryview(bytearray(pages * PAGE_SIZE)))
        self._segment_pages.append(pages)
        self._segment_base.append(base)
        self._slot_views.extend([None] * pages)
        self._total_slots += pages
        # Low slots first: freshly added slots are handed out in
        # ascending order for deterministic layouts.
        self._free_slots.extend(range(base + pages - 1, base - 1, -1))

    def _locate(self, slot: int) -> Tuple[int, int]:
        """Map a slot id to ``(segment index, page index in segment)``."""
        for seg, base in enumerate(self._segment_base):
            if base <= slot < base + self._segment_pages[seg]:
                return seg, slot - base
        raise ValueError(f"slot {slot} out of range")

    def _views_for(self, slot: int) -> Tuple[memoryview, memoryview]:
        """Build the views of a slot handed out for the first time."""
        seg, index = self._locate(slot)
        start = index * PAGE_SIZE
        window = self._segment_views[seg][start:start + PAGE_SIZE]
        views = self._slot_views[slot] = (window, window.cast("Q"))
        return views

    # ------------------------------------------------------------------
    # Slot allocation
    # ------------------------------------------------------------------

    def alloc(self) -> Tuple[int, memoryview, memoryview]:
        """Allocate one zeroed page frame.

        Returns ``(slot, byte view, word view)``.  Reused slots are
        re-zeroed here so a fresh frame always reads as zero.
        """
        if self._closed:
            raise PageStoreClosed("page store has been closed")
        if not self._free_slots:
            self._add_segment()
        slot = self._free_slots.pop()
        views = self._slot_views[slot]
        if views is None:
            window, words = self._views_for(slot)
        else:
            # The slot was handed out before and may hold data; restore
            # the zero-page contract.
            window, words = views
            window[:] = _ZERO_PAGE
        self._allocated.add(slot)
        return slot, window, words

    def alloc_copies(self, pages: Sequence[Any]
                     ) -> List[Tuple[int, memoryview, memoryview]]:
        """Allocate one frame per entry of ``pages`` (each ``PAGE_SIZE``
        bytes) holding a copy of it.

        Returns ``(slot, byte view, word view)`` per page, in order.  A
        reused slot is overwritten directly: the zero-fill :meth:`alloc`
        gives it would be overwritten anyway.
        """
        if self._closed:
            raise PageStoreClosed("page store has been closed")
        free_slots = self._free_slots
        while len(free_slots) < len(pages):
            self._add_segment()
        slot_views = self._slot_views
        out = []
        for contents in pages:
            slot = free_slots.pop()
            window, words = slot_views[slot] or self._views_for(slot)
            window[:] = contents
            out.append((slot, window, words))
        self._allocated.update(slot for slot, _, _ in out)
        return out

    def free(self, slot: int) -> None:
        """Return a slot to the free list (contents re-zeroed on reuse).

        Raises :class:`SlotAlreadyFree` if ``slot`` is not allocated.
        """
        if self._closed:
            return
        allocated = self._allocated
        if slot not in allocated:
            raise SlotAlreadyFree(slot)
        allocated.remove(slot)
        self._free_slots.append(slot)

    def free_many(self, slots: Collection[int]) -> None:
        """:meth:`free` every slot of ``slots``, in order, in one call.

        The slots join the free list in the order sequential ``free``
        calls would leave them, so later allocations hand out the same
        frames.  A slot that is not allocated, or named twice, raises
        :class:`SlotAlreadyFree` after the slots before it were freed,
        as sequential calls would.
        """
        if self._closed:
            return
        allocated = self._allocated
        freed = set(slots)
        if len(freed) != len(slots) or not freed <= allocated:
            for slot in slots:  # raises at the first bad free
                self.free(slot)
        allocated -= freed
        self._free_slots.extend(slots)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def allocated_pages(self) -> int:
        """Slots currently handed out."""
        return len(self._allocated)

    @property
    def capacity_pages(self) -> int:
        """Total slots across all segments."""
        return self._total_slots

    @property
    def segment_count(self) -> int:
        """Number of backing segments."""
        return len(self._segment_views)

    # ------------------------------------------------------------------
    # Cleanup
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release every view and segment.

        Safe to call more than once.  Every view the store handed out is
        released first (the store owns them), so a frame still held by a
        live ``VirtualMemory`` stops working instead of writing into a
        dead arena.
        """
        if self._closed:
            return
        self._closed = True
        for views in self._slot_views:
            if views is not None:
                views[1].release()
                views[0].release()
        self._slot_views.clear()
        for view in self._segment_views:
            view.release()
        self._segment_views.clear()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass
