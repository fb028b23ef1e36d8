"""``Process.malloc_run`` context accounting equals the per-call loop.

A run of ``n`` allocations through one encoded call site must cost and
count exactly what ``n`` ``malloc`` calls do: encoding cycles, the
runtime's crossing and update counters, coverage hits, and — under an
impure (stack-walking) CCID source — one walk per allocation.
"""

import pytest

from repro.allocator.libc import LibcAllocator
from repro.ccencoding import SCHEMES, EncodingRuntime, InstrumentationPlan, Strategy
from repro.ccencoding.runtime import WalkedContextSource
from repro.program.callgraph import CallGraph
from repro.program.coverage import CoverageTracker
from repro.program.cost import CycleMeter
from repro.program.process import Process
from repro.program.program import Program

ITEMS = 5


class TwoContexts(Program):
    """main -> {parse, render} -> helper -> malloc#item, so the
    allocation site is encoded under every strategy that encodes it."""

    name = "two-contexts"
    batched = False

    def build_graph(self):
        graph = CallGraph()
        graph.add_call_site("main", "parse")
        graph.add_call_site("main", "render")
        graph.add_call_site("parse", "helper")
        graph.add_call_site("render", "helper")
        graph.add_call_site("helper", "malloc", "item")
        return graph

    def main(self, p):
        return (p.call("parse", self._mid) + p.call("render", self._mid))

    def _mid(self, p):
        return p.call("helper", self._helper)

    def _helper(self, p):
        if self.batched:
            return p.malloc_run([48] * ITEMS, site="item")
        return [p.malloc(48, site="item") for _ in range(ITEMS)]


class TwoContextsBatched(TwoContexts):
    batched = True


def _codec(program):
    plan = InstrumentationPlan.build(program.graph, ["malloc"], Strategy.FCS)
    site = program.graph.site("helper", "malloc", "item")
    assert site.site_id in plan.sites  # the run site is encoded
    return SCHEMES["pcc"].build(plan)


def _sources(kind, program, meter):
    """The context source under test and a function reading its
    counters."""
    if kind == "runtime":
        runtime = EncodingRuntime(_codec(program), meter)
        return runtime, lambda: (runtime.sites_crossed,
                                 runtime.updates_executed)
    if kind == "walker":
        walker = WalkedContextSource(meter)
        return walker, lambda: walker.walks_performed
    runtime = EncodingRuntime(_codec(program), meter)
    tracker = CoverageTracker(inner=runtime)
    return tracker, lambda: (dict(tracker.executed), runtime.sites_crossed,
                             runtime.updates_executed)


def _observe(program, kind):
    meter = CycleMeter()
    source, counters = _sources(kind, program, meter)
    process = Process(program.graph, heap=LibcAllocator(),
                      context_source=source, meter=meter)
    addresses = process.run(program)
    return {
        "addresses": addresses,
        "cycles": meter.snapshot(),
        "counters": counters(),
        "profile": dict(process.alloc_profile),
        "events": [(e.serial, e.ccid, e.address, e.context)
                   for e in process.allocations],
    }


@pytest.mark.parametrize("kind", ["runtime", "walker", "coverage"])
def test_run_equals_per_call_loop(kind):
    looped = _observe(TwoContexts(), kind)
    batched = _observe(TwoContextsBatched(), kind)
    assert batched == looped
    assert len(looped["addresses"]) == 2 * ITEMS
    assert looped["cycles"]["encoding"] > 0


def test_runtime_count_is_o1_and_exact():
    """``at_call_site(site, count)`` leaves the V one crossing does and
    charges ``count`` updates."""
    program = TwoContexts()
    site = program.graph.site("helper", "malloc", "item")
    meters = [CycleMeter(), CycleMeter()]
    once, many = (EncodingRuntime(_codec(program), meter)
                  for meter in meters)
    for runtime in (once, many):
        runtime.enter_function("main")
    for _ in range(ITEMS):
        once.at_call_site(site)
    many.at_call_site(site, ITEMS)
    assert many.current_ccid() == once.current_ccid()
    assert (many.sites_crossed, many.updates_executed) \
        == (once.sites_crossed, once.updates_executed) == (ITEMS, ITEMS)
    assert meters[0].snapshot() == meters[1].snapshot()
