"""Context-source protocol: who answers "what is the current CCID?".

The online system reads the current calling-context ID from the encoding
runtime (one thread-local integer); the offline analyzer may instead walk
the simulated call stack.  Both are :class:`ContextSource` implementations;
the :class:`~repro.program.process.Process` drives the hooks as the guest
program calls and returns, and the defense/analysis layers query
:meth:`current_ccid` at each allocation.

A :class:`RegisterContextSource` — the encoding runtime, or no tracking
at all — keeps its whole state in one register ``V``, so crossing a call
site is pure arithmetic on it.  The process binds each call site of such
a source once, to the step and cycle charges it applies, and updates
``V`` itself instead of invoking the hooks (DESIGN.md §10, "Bound call
sites").  The hooks remain the protocol for every other source, and for
any process under the lock-step thread scheduler.

Keeping the protocol here (rather than in :mod:`repro.ccencoding`) breaks
the import cycle between the program model and the encoders.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Optional, Tuple

from .callgraph import CallSite
from .cost import CycleMeter

#: How one crossing of a call site acts on ``V``: the fold
#: ``V = mix(t, step)`` (``mix`` is None when the site is not
#: instrumented and ``V`` becomes ``t``), and the encoding cycles the
#: site's update costs.
SiteBinding = Tuple[Optional[Callable[[int, Any], int]], Any, float]


class ContextSource(abc.ABC):
    """Provider of allocation-time calling-context identifiers."""

    #: True when :meth:`current_ccid` is a *pure read* — no counters, no
    #: cycle charges, no state changes.  Fused interposition fast paths
    #: may skip the read entirely for allocation functions that provably
    #: have no patches, but only when skipping it is unobservable.  A
    #: stack walker (whose walks are counted and charged) must leave
    #: this False.
    pure_ccid: bool = False

    @abc.abstractmethod
    def current_ccid(self) -> int:
        """The CCID to associate with an allocation happening now."""

    def enter_function(self, name: str) -> None:
        """The process entered function ``name``."""

    def exit_function(self, name: str) -> None:
        """The process is returning from function ``name``."""

    def at_call_site(self, site: CallSite, count: int = 1) -> None:
        """The process is about to call through ``site`` (``count``
        times in a row from the same frame, for a batched run)."""


class RegisterContextSource(ContextSource):
    """A context source whose state is the register ``V`` alone.

    Crossing a call site either folds the site's step into the frame's
    prologue value ``t`` or sets ``V`` back to ``t``, and reading the
    CCID reads ``V``.  None of that has an effect beyond ``V``, the two
    counters and the ``encoding`` cycles, so the process may apply a
    crossing itself from what :meth:`bind_site` and
    :meth:`prologue_cycles` return, once per call site.  A subclass
    whose hooks do more than that is not a register source.
    """

    pure_ccid = True

    def __init__(self, meter: Optional[CycleMeter] = None) -> None:
        #: Where encoding cycles go; None charges none.
        self.meter = meter
        #: The register ``V``: the CCID an allocation reads.
        self.value: int = self.seed()
        #: How many encoding updates actually executed (dynamic count).
        self.updates_executed: int = 0
        #: How many call sites were crossed in total (dynamic count).
        self.sites_crossed: int = 0

    def seed(self) -> int:
        """Value of ``V`` at program entry."""
        return 0

    def bind_site(self, site: CallSite) -> SiteBinding:
        """How crossing ``site`` acts on ``V`` (see :data:`SiteBinding`)."""
        return None, None, 0

    def prologue_cycles(self, name: str) -> float:
        """Encoding cycles charged on entering function ``name``."""
        return 0

    def current_ccid(self) -> int:
        return self.value


class NullContextSource(RegisterContextSource):
    """No context tracking at all (pure native execution): no site is
    instrumented, so ``V`` stays at the seed 0 and costs nothing."""

    def at_call_site(self, site: CallSite, count: int = 1) -> None:
        self.sites_crossed += count
