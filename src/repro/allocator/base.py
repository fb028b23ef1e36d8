"""Abstract allocator interface.

HeapTherapy+'s key deployment property is that the online defense is
*transparent to the underlying heap allocator*: it interposes the public
allocation API and never reaches into allocator internals.  Expressing that
API as an abstract base class makes the property checkable — the defense
layer (:class:`repro.defense.interpose.DefendedAllocator`) is itself an
``Allocator`` that wraps any other ``Allocator``, and the test suite swaps
in a recording mock to prove only these methods are ever called.

The method set mirrors the allocation family the paper intercepts:
``malloc``, ``calloc``, ``realloc``, ``free``, ``memalign`` (and its ISO
spelling ``aligned_alloc``), plus ``malloc_usable_size`` as a query.
"""

from __future__ import annotations

import abc
from typing import List, Sequence

from ..machine.memory import VirtualMemory
from .stats import AllocationStats


class Allocator(abc.ABC):
    """The public heap-allocation API of a libc-style allocator."""

    #: The virtual memory this allocator serves buffers from.  The defense
    #: layer needs it to install guard pages with ``mprotect``.
    memory: VirtualMemory
    #: This allocator's own call counters.
    stats: AllocationStats

    @abc.abstractmethod
    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; return the user address (never 0)."""

    @abc.abstractmethod
    def calloc(self, nmemb: int, size: int) -> int:
        """Allocate and zero ``nmemb * size`` bytes."""

    @abc.abstractmethod
    def realloc(self, address: int, size: int) -> int:
        """Resize the buffer at ``address`` to ``size`` bytes.

        ``realloc(0, n)`` behaves as ``malloc(n)``; ``realloc(p, 0)`` frees
        and returns 0, matching classic glibc semantics.
        """

    @abc.abstractmethod
    def free(self, address: int) -> None:
        """Release the buffer at ``address``; ``free(0)`` is a no-op."""

    @abc.abstractmethod
    def memalign(self, alignment: int, size: int) -> int:
        """Allocate ``size`` bytes aligned to ``alignment`` (a power of 2)."""

    def aligned_alloc(self, alignment: int, size: int) -> int:
        """ISO C11 spelling of :meth:`memalign`."""
        return self.memalign(alignment, size)

    def posix_memalign(self, alignment: int, size: int) -> int:
        """POSIX spelling of :meth:`memalign` (returns the address).

        POSIX requires the alignment to be a power of two multiple of
        ``sizeof(void *)``; anything else is EINVAL, raised here before
        the request reaches the concrete allocator.
        """
        if alignment % 8 or alignment & (alignment - 1) or alignment <= 0:
            raise ValueError("posix_memalign: alignment must be a "
                             "power-of-two multiple of sizeof(void*)")
        return self.memalign(alignment, size)

    @abc.abstractmethod
    def malloc_usable_size(self, address: int) -> int:
        """Return the usable size of the buffer at ``address``."""

    # -- batched entry points ------------------------------------------
    #
    # The serving engine issues heap traffic in same-call-site runs (one
    # request batch allocates N same-shaped buffers back to back).  A
    # run is the loop over the per-call API below — same addresses, same
    # stats, same errors in the same order, and the same state when an
    # entry fails — unless an allocator overrides it with a fast path
    # that ``tests/allocator/test_batched_runs.py`` holds equal to this
    # loop.

    def malloc_run(self, sizes: Sequence[int]) -> List[int]:
        """Allocate one buffer per entry of ``sizes``, in order."""
        malloc = self.malloc
        return [malloc(size) for size in sizes]

    def free_run(self, addresses: Sequence[int]) -> None:
        """Release every buffer in ``addresses``, in order."""
        free = self.free
        for address in addresses:
            free(address)

    def fork(self, memory: VirtualMemory) -> "Allocator":
        """A copy of this allocator's state serving from ``memory``, a
        fork of :attr:`memory` (see :meth:`VirtualMemory.fork`).  The
        copy is built by the allocator's constructor and shares no
        mutable container with this one; an allocator that cannot be
        copied raises ``NotImplementedError``."""
        raise NotImplementedError(
            f"{type(self).__name__} cannot be forked")


#: Names of the allocation entry points, as they appear in patches
#: (the FUN field of a ``{FUN, CCID, T}`` patch tuple).
ALLOCATION_FUNCTIONS = (
    "malloc",
    "calloc",
    "realloc",
    "memalign",
    "aligned_alloc",
    "posix_memalign",
)
