"""Program abstraction: code plus its static call graph.

A :class:`Program` plays the role of a compiled C program in the paper's
pipeline.  It declares its static call graph once (standing in for the
compiler's call-graph analysis in the LLVM instrumentation pass) and
provides ``main``, a Python method tree that executes against a
:class:`~repro.program.process.Process`.

The contract that makes the reproduction faithful: **every** dynamic call
in ``main`` goes through ``process.call`` naming a declared call site, and
every allocation goes through the process heap API naming its declared
allocation site.  The test suite checks graph/behaviour agreement for all
bundled workloads.

A program the serving engine can drive (a *service*) also defines
:meth:`Program.serve_round`, and may give its serving runs a startup
phase, :meth:`Program.serve_startup`, whose started state every round
runs against.  The engine runs the startup once per worker and patch
table and starts each batch from a copy of the result.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional

from .callgraph import CallGraph
from .process import Process


class Program(abc.ABC):
    """A guest program: static call graph + executable behaviour."""

    #: Human-readable program name (used in reports and benchmarks).
    name: str = "program"

    def __init__(self) -> None:
        self._graph: Optional[CallGraph] = None

    @abc.abstractmethod
    def build_graph(self) -> CallGraph:
        """Construct the static call graph (functions and call sites)."""

    @property
    def graph(self) -> CallGraph:
        """The static call graph, built once, cached, and frozen.

        Freezing closes a long-standing trap: the instrumentation plan,
        codec, and patch CCIDs all key off this graph's site-id
        numbering, but the cached instance used to stay mutable — an
        ``add_call_site`` after instrumentation would silently
        desynchronize every deployed CCID.  Mutation now raises
        :class:`~repro.program.callgraph.CallGraphError`; use
        :meth:`build_graph` for a fresh mutable copy.
        """
        if self._graph is None:
            self._graph = self.build_graph().freeze()
        return self._graph

    @abc.abstractmethod
    def main(self, p: Process, *args: Any, **kwargs: Any) -> Any:
        """The program body, executed as the graph's entry function."""

    # -- serving entry (repro.serving) ---------------------------------

    @property
    def serves(self) -> bool:
        """Whether the program defines a serving round."""
        return type(self).serve_round is not Program.serve_round

    def serve_startup(self, p: Process) -> Any:
        """The serving startup phase, run inside the entry function
        before a round; returns the started state :meth:`serve_round`
        gets.  The default starts nothing and makes no guest call.

        The serving engine runs it once per image and hands the same
        state object to every round started from a copy of that image,
        so a round must not change the state object itself (the guest
        memory it names is the round's own)."""
        return None

    def serve_round(self, p: Process, started: Any,
                    requests: List[Any]) -> Dict[str, Any]:
        """Serve one round of requests against the ``started`` state,
        then tear that state down.  Returns the round's ``outcomes``
        (one ``(status, bytes)`` per request), ``served`` and
        ``bytes_sent``."""
        raise NotImplementedError(f"{self.name} has no serving round")
