"""Context-source protocol: who answers "what is the current CCID?".

The online system reads the current calling-context ID from the encoding
runtime (one thread-local integer); the offline analyzer may instead walk
the simulated call stack.  Both are :class:`ContextSource` implementations;
the :class:`~repro.program.process.Process` drives the hooks as the guest
program calls and returns, and the defense/analysis layers query
:meth:`current_ccid` at each allocation.

Keeping the protocol here (rather than in :mod:`repro.ccencoding`) breaks
the import cycle between the program model and the encoders.
"""

from __future__ import annotations

import abc

from .callgraph import CallSite


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


class NullContextSource(ContextSource):
    """No context tracking at all (pure native execution)."""

    pure_ccid = True

    def current_ccid(self) -> int:
        return 0
