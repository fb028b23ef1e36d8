"""Columnar page-frame store: one arena, many pages, optional sharing.

Prior to this module every materialized page frame was its own
``bytearray`` — thousands of small heap objects, each pickled separately
whenever page state crossed a process boundary.  ``PageStore`` keeps all
frames of one owner in a small number of large *segments* (columnar
layout) and hands out per-page ``memoryview`` windows:

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

With ``shared=True`` the segments are allocated in POSIX shared memory
(:mod:`multiprocessing.shared_memory`) instead of the private heap.  A
:class:`PageStoreHandle` — a tiny picklable descriptor of segment names —
lets another process :meth:`attach` to the same frames with zero
copying, which is how the diagnosis pool and the fuzz fan-out stop
pickling page state.

A slot is "dirty" exactly while it is allocated; freed slots are
re-zeroed lazily on reuse so fresh frames always read as zero (the
demand-paging contract of :class:`~repro.machine.memory.VirtualMemory`).
Freeing a slot that is already free raises :class:`SlotAlreadyFree`:
handing one frame to two owners would alias their pages.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from .layout import PAGE_SIZE

#: Pages in the first segment of a private (non-shared) store.  Private
#: stores are created per ``VirtualMemory`` — often thousands per run —
#: so the first segment is small and growth doubles from there.
PRIVATE_SEGMENT_PAGES = 16

#: Upper bound on private segment growth (pages per segment).
PRIVATE_SEGMENT_CAP = 2048

#: Pages per shared-memory segment (1 MiB).  Shared segments carry a
#: per-segment OS object, so they are created coarser than private ones.
SHARED_SEGMENT_PAGES = 256

_ZERO_PAGE = bytes(PAGE_SIZE)


class PageStoreClosed(RuntimeError):
    """Operation on a store whose segments have been released."""


class SlotAlreadyFree(ValueError):
    """``free`` of a slot that is not allocated (a double free)."""

    def __init__(self, slot: int) -> None:
        self.slot = slot
        super().__init__(f"page-store slot {slot} is already free")


class PageStoreHandle:
    """Picklable descriptor of a shared store's segments.

    Holds only segment *names* (plus geometry); :meth:`PageStore.attach`
    reopens the same shared memory in another process.
    """

    __slots__ = ("segment_names", "segment_pages")

    def __init__(self, segment_names: Tuple[str, ...],
                 segment_pages: Tuple[int, ...]) -> None:
        self.segment_names = segment_names
        self.segment_pages = segment_pages

    def __getstate__(self) -> Tuple[Tuple[str, ...], Tuple[int, ...]]:
        return (self.segment_names, self.segment_pages)

    def __setstate__(self, state: Tuple[Tuple[str, ...],
                                        Tuple[int, ...]]) -> None:
        self.segment_names, self.segment_pages = state


class PageStore:
    """A growable arena of page frames with slot-based allocation.

    Args:
        shared: allocate segments in ``multiprocessing.shared_memory``
            so other processes can :meth:`attach`.  Defaults to private
            in-process ``bytearray`` segments.
        name_prefix: prefix for shared-segment names (diagnosability;
            the pid and a counter are always appended).
    """

    _shared_counter = 0

    def __init__(self, shared: bool = False,
                 name_prefix: str = "repro-pages") -> None:
        self.shared = shared
        self._name_prefix = name_prefix
        #: Per-segment byte views (windows are sliced out of these).
        self._segment_views: List[memoryview] = []
        #: Per-segment page capacity (private segments grow, shared are
        #: fixed-size).
        self._segment_pages: List[int] = []
        #: Shared-memory objects (shared stores only), kept for cleanup.
        self._shm_blocks: List[object] = []
        #: Slot id of the first page of each segment.
        self._segment_base: List[int] = []
        self._free_slots: List[int] = []
        #: Freed slots whose contents were not re-zeroed yet.
        self._dirty_slots: set = set()
        #: Per slot: its ``(byte view, word view)`` once handed out.
        self._slot_views: List[Optional[Tuple[memoryview, memoryview]]] = []
        self._total_slots = 0
        self._allocated = 0
        self._closed = False
        #: True when this store attached to another process's segments
        #: (attached stores never unlink on close).
        self._attached = False

    # ------------------------------------------------------------------
    # Segment plumbing
    # ------------------------------------------------------------------

    def _next_segment_pages(self) -> int:
        if self.shared:
            return SHARED_SEGMENT_PAGES
        if not self._segment_pages:
            return PRIVATE_SEGMENT_PAGES
        return min(self._segment_pages[-1] * 2, PRIVATE_SEGMENT_CAP)

    def _add_segment(self) -> None:
        if self._closed:
            raise PageStoreClosed("page store has been closed")
        pages = self._next_segment_pages()
        if self.shared:
            from multiprocessing import shared_memory

            PageStore._shared_counter += 1
            name = (f"{self._name_prefix}-{os.getpid()}"
                    f"-{PageStore._shared_counter}")
            block = shared_memory.SharedMemory(
                create=True, size=pages * PAGE_SIZE, name=name)
            self._shm_blocks.append(block)
            view = memoryview(block.buf)
        else:
            view = memoryview(bytearray(pages * PAGE_SIZE))
        base = self._register_segment(view, pages)
        # Low slots first: freshly added slots are handed out in
        # ascending order for deterministic layouts.
        self._free_slots.extend(range(base + pages - 1, base - 1, -1))

    def _register_segment(self, view: memoryview, pages: int) -> int:
        """Append a segment's geometry; returns its first slot id."""
        base = self._total_slots
        self._segment_views.append(view)
        self._segment_pages.append(pages)
        self._segment_base.append(base)
        self._slot_views.extend([None] * pages)
        self._total_slots += pages
        return base

    def _locate(self, slot: int) -> Tuple[int, int]:
        """Map a slot id to ``(segment index, page index in segment)``."""
        for seg, base in enumerate(self._segment_base):
            if base <= slot < base + self._segment_pages[seg]:
                return seg, slot - base
        raise ValueError(f"slot {slot} out of range")

    def _views_for(self, slot: int) -> Tuple[memoryview, memoryview]:
        views = self._slot_views[slot]
        if views is None:
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
        window, words = self._slot_views[slot] or self._views_for(slot)
        if slot in self._dirty_slots:
            # The slot held data before; restore the zero-page contract.
            self._dirty_slots.discard(slot)
            window[:] = _ZERO_PAGE
        self._allocated += 1
        return slot, window, words

    def free(self, slot: int) -> None:
        """Return a slot to the free list (contents re-zeroed on reuse).

        Raises :class:`SlotAlreadyFree` if ``slot`` is already free.
        """
        if self._closed:
            return
        if slot in self._dirty_slots:
            raise SlotAlreadyFree(slot)
        self._free_slots.append(slot)
        self._dirty_slots.add(slot)
        self._allocated -= 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def allocated_pages(self) -> int:
        """Slots currently handed out (the store's dirty-page count)."""
        return self._allocated

    @property
    def capacity_pages(self) -> int:
        """Total slots across all segments."""
        return self._total_slots

    @property
    def segment_count(self) -> int:
        """Number of backing segments."""
        return len(self._segment_views)

    # ------------------------------------------------------------------
    # Sharing
    # ------------------------------------------------------------------

    def handle(self) -> PageStoreHandle:
        """Picklable descriptor another process can :meth:`attach` to."""
        if not self.shared:
            raise ValueError("handle() requires a shared PageStore")
        names = tuple(block.name  # type: ignore[attr-defined]
                      for block in self._shm_blocks)
        return PageStoreHandle(names, tuple(self._segment_pages))

    @classmethod
    def attach(cls, handle: PageStoreHandle) -> "PageStore":
        """Open another process's shared segments (no copying).

        The attached store exposes the same frames read-write; it never
        unlinks the segments on :meth:`close` — ownership stays with the
        creating process.
        """
        from multiprocessing import shared_memory

        store = cls(shared=True)
        store._attached = True
        for name, pages in zip(handle.segment_names, handle.segment_pages):
            block = shared_memory.SharedMemory(name=name)
            store._shm_blocks.append(block)
            store._register_segment(memoryview(block.buf), pages)
        # Attached stores are read/write windows over foreign frames;
        # they do not allocate, so no free slots are registered.
        return store

    # ------------------------------------------------------------------
    # Cleanup
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release views and segments; shared owners also unlink the OS
        objects.

        Safe to call more than once.  Every view the store handed out is
        released first (the store owns them), so a frame still held by a
        live ``VirtualMemory`` stops working instead of keeping a shared
        mapping pinned.
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
        for block in self._shm_blocks:
            try:
                block.close()  # type: ignore[attr-defined]
            except BufferError:
                # A slice of a frame is still alive somewhere; the
                # mapping persists until it is collected.
                pass
            if not self._attached:
                try:
                    block.unlink()  # type: ignore[attr-defined]
                except FileNotFoundError:  # pragma: no cover - racing
                    pass
        self._shm_blocks.clear()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass


#: Process-wide default store set by pool initializers: when not
#: ``None``, every ``VirtualMemory`` created without an explicit
#: ``page_store`` draws frames from it (e.g. a shared arena in a
#: diagnosis worker).  ``None`` keeps the historical behaviour of one
#: private store per VirtualMemory.
_DEFAULT_STORE: Optional[PageStore] = None


def set_default_store(store: Optional[PageStore]) -> None:
    """Install (or clear) the process-wide default page store."""
    global _DEFAULT_STORE
    _DEFAULT_STORE = store


def get_default_store() -> Optional[PageStore]:
    """The process-wide default page store, if one is installed."""
    return _DEFAULT_STORE


#: The shared arena installed by :func:`install_shared_worker_store`
#: (kept separate from ``_DEFAULT_STORE`` so cleanup only tears down
#: arenas this module itself created).
_WORKER_STORE: Optional[PageStore] = None


def install_shared_worker_store(name_prefix: str = "repro-pages"
                                ) -> PageStore:
    """Back this process's page frames with one shared-memory arena.

    Pool worker initializers call this so every ``VirtualMemory`` a
    worker creates draws frames from ``multiprocessing.shared_memory``
    segments instead of private ``bytearray`` heaps — page state then
    lives in OS-shared mappings that never transit pickle.

    Idempotent while the arena is open.  Cleanup runs on normal worker
    shutdown (pool exit, both ``fork`` and ``spawn`` start methods) so
    pools leave nothing behind in ``/dev/shm``.  Multiprocessing
    children exit through ``util._exit_function`` + ``os._exit`` —
    plain :mod:`atexit` handlers never fire there — so the unlink is
    registered as a :class:`multiprocessing.util.Finalize` finalizer
    (and with :mod:`atexit` too, for in-process callers).
    """
    global _WORKER_STORE
    if _WORKER_STORE is not None and not _WORKER_STORE._closed:
        return _WORKER_STORE
    import atexit
    from multiprocessing import util as mp_util

    store = PageStore(shared=True, name_prefix=name_prefix)
    _WORKER_STORE = store
    set_default_store(store)
    atexit.register(uninstall_shared_worker_store)
    mp_util.Finalize(store, uninstall_shared_worker_store,
                     exitpriority=100)
    return store


def uninstall_shared_worker_store() -> None:
    """Tear down the arena installed by
    :func:`install_shared_worker_store` (idempotent)."""
    global _WORKER_STORE
    store = _WORKER_STORE
    _WORKER_STORE = None
    if store is not None:
        if get_default_store() is store:
            set_default_store(None)
        store.close()
