"""Call-graph coverage: do the declared graph and the behaviour agree?

The reproduction's fidelity contract (see :mod:`repro.program.program`)
is that a program's declared static call graph is a *superset* of its
dynamic behaviour — the undeclared direction is enforced at run time by
``Process.call``.  This module measures the other direction: which
declared call sites an input set actually exercises.  It serves two
masters:

* **workload QA** — a site no input ever crosses is either dead
  declaration or a missing test input (the bundled-workload test uses
  this);
* **the paper's instrumentation story** — coverage over the
  *instrumented* subset shows how much of the encoding machinery a
  given workload actually pays for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from .callgraph import CallGraph, CallSite
from .context import ContextSource


class CoverageTracker(ContextSource):
    """A context source that records every call site crossed.

    Stack it in front of another context source (usually the encoding
    runtime) when both coverage and CCIDs are needed.
    """

    def __init__(self, inner: Optional[ContextSource] = None) -> None:
        self.inner = inner
        self.executed: Dict[int, int] = {}
        #: Counting crossings has no effect on the CCID read.
        self.pure_ccid = inner is None or inner.pure_ccid

    def enter_function(self, name: str) -> None:
        if self.inner is not None:
            self.inner.enter_function(name)

    def exit_function(self, name: str) -> None:
        if self.inner is not None:
            self.inner.exit_function(name)

    def at_call_site(self, site: CallSite, count: int = 1) -> None:
        self.executed[site.site_id] = (
            self.executed.get(site.site_id, 0) + count)
        if self.inner is not None:
            self.inner.at_call_site(site, count)

    def current_ccid(self) -> int:
        if self.inner is not None:
            return self.inner.current_ccid()
        return 0


@dataclass(frozen=True)
class CoverageReport:
    """Executed-vs-declared call sites for one graph."""

    graph: CallGraph
    #: site id -> times crossed (absent = never).
    executed: Dict[int, int]
    #: Restrict reporting to this subset (e.g. an instrumentation plan's
    #: sites); ``None`` means all sites.
    subset: Optional[FrozenSet[int]] = None

    def _universe(self) -> List[CallSite]:
        if self.subset is None:
            return self.graph.sites
        return [self.graph.site_by_id(sid) for sid in sorted(self.subset)]

    @property
    def covered_sites(self) -> List[CallSite]:
        """Sites crossed at least once."""
        return [site for site in self._universe()
                if site.site_id in self.executed]

    @property
    def uncovered_sites(self) -> List[CallSite]:
        """Declared sites no input ever crossed."""
        return [site for site in self._universe()
                if site.site_id not in self.executed]

    @property
    def coverage(self) -> float:
        """Covered fraction of the (possibly subset) universe."""
        universe = self._universe()
        if not universe:
            return 1.0
        return len(self.covered_sites) / len(universe)

    def crossings(self, site: CallSite) -> int:
        """How many times ``site`` executed."""
        return self.executed.get(site.site_id, 0)

    def render(self) -> str:
        """Human-readable coverage summary with the gaps listed."""
        lines = [f"call-site coverage: {len(self.covered_sites)}/"
                 f"{len(self._universe())} ({self.coverage:.0%})"]
        for site in self.uncovered_sites:
            label = f"#{site.label}" if site.label else ""
            lines.append(f"  never executed: {site.caller}->"
                         f"{site.callee}{label}")
        return "\n".join(lines)


def merge_coverage(graph: CallGraph,
                   trackers: List[CoverageTracker],
                   subset: Optional[FrozenSet[int]] = None
                   ) -> CoverageReport:
    """Combine several runs' trackers into one report."""
    executed: Dict[int, int] = {}
    for tracker in trackers:
        for site_id, count in tracker.executed.items():
            executed[site_id] = executed.get(site_id, 0) + count
    return CoverageReport(graph, executed, subset)
