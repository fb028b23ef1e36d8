"""Bound call sites: the process's own crossings equal the hook protocol.

A :class:`~repro.program.context.RegisterContextSource` (the encoding
runtime, the null source) is driven from per-process bound call sites:
the process folds the codec's step, restores ``V`` on return and counts
one charge record per call.  The oracle is the same runtime behind
a :class:`~repro.program.coverage.CoverageTracker`, which is not a
register source and so takes the hook path — the runtime's
``at_call_site`` / ``enter_function`` / ``exit_function``, step by step.
Every bundled program, under every scheme and strategy, must leave the
identical meter, profile, events, counters, final ``V`` and last
allocation site on both paths.
"""

from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro.allocator.libc import LibcAllocator
from repro.ccencoding import SCHEMES, Strategy
from repro.core.instrument import InstrumentedProgram, instrument
from repro.defense.interpose import DefendedAllocator
from repro.defense.patch_table import PatchTable
from repro.patch.model import HeapPatch
from repro.program.callgraph import CallGraph, CallGraphError
from repro.program.context import NullContextSource
from repro.program.coverage import CoverageTracker
from repro.program.cost import CycleMeter
from repro.program.monitor import DirectMonitor
from repro.program.process import Process
from repro.program.program import Program
from repro.vulntypes import VulnType
from repro.workloads.services.mysql import MySqlServer
from repro.workloads.services.nginx import NginxServer
from repro.workloads.spec import SPEC_PROFILES, SyntheticSpecProgram
from repro.workloads.vulnerable import table2_programs

#: Small inputs: every program still crosses all of its main paths.
SPEC_SCALE = 0.002


def _programs() -> Dict[str, Callable[[], Tuple[Program, Tuple[Any, ...]]]]:
    programs: Dict[str, Callable[[], Tuple[Program, Tuple[Any, ...]]]] = {
        "nginx": lambda: (NginxServer(), (12, 4)),
        "mysql": lambda: (MySqlServer(), (24,)),
    }
    for program in table2_programs():
        programs[program.name] = (
            lambda cls=type(program): (cls(), (cls.attack_input(),)))
    for profile in SPEC_PROFILES:
        programs[profile.name] = (
            lambda profile=profile: (
                SyntheticSpecProgram(profile, scale=SPEC_SCALE), ()))
    return programs


PROGRAMS = _programs()


def _hooks_fail(*args: Any, **kwargs: Any) -> None:
    raise AssertionError("a bound process invoked a context hook")


def _observe(process: Process, runtime: Any, result: Any) -> Dict[str, Any]:
    return {
        "result": result,
        "meter": process.meter.snapshot(),
        "alloc_profile": dict(process.alloc_profile),
        "events": [(e.serial, e.fun, e.ccid, e.address, e.size, e.context)
                   for e in process.allocations],
        "updates_executed": runtime.updates_executed,
        "sites_crossed": runtime.sites_crossed,
        "final_v": runtime.current_ccid(),
        "last_alloc_site": process.last_alloc_site,
    }


def _run(program: Program, args: Tuple[Any, ...],
         make_source: Callable[[CycleMeter], Any],
         hooked: bool) -> Dict[str, Any]:
    """Run ``program`` with a fresh heap, meter and source; ``hooked``
    puts the source behind a coverage tracker (the hook oracle), else
    the source's hooks are made to fail so only bound crossings run."""
    meter = CycleMeter()
    source = make_source(meter)
    if hooked:
        context: Any = CoverageTracker(inner=source)
    else:
        source.at_call_site = source.enter_function = \
            source.exit_function = _hooks_fail
        context = source
    process = Process(program.graph, heap=LibcAllocator(),
                      context_source=context, meter=meter,
                      record_allocations=True)
    result = process.run(program, *args)
    return _observe(process, source, result)


def _instrumented(name: str, scheme: str,
                  strategy: Strategy) -> Tuple[InstrumentedProgram,
                                               Tuple[Any, ...]]:
    program, args = PROGRAMS[name]()
    return instrument(program, strategy, scheme), args


@pytest.mark.parametrize("strategy", list(Strategy), ids=str)
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_bound_crossings_equal_hook_protocol(name, scheme, strategy):
    system, args = _instrumented(name, scheme, strategy)
    bound = _run(system.program, args, system.runtime, hooked=False)
    hooked = _run(system.program, args, system.runtime, hooked=True)
    assert bound == hooked
    assert bound["sites_crossed"] > 0
    assert bound["events"]


def test_null_source_meter_equals_hook_path():
    program, args = PROGRAMS["nginx"]()
    bound = _run(program, args, lambda meter: NullContextSource(),
                 hooked=False)
    hooked = _run(program, args, lambda meter: NullContextSource(),
                  hooked=True)
    assert bound == hooked
    assert bound["final_v"] == 0
    assert "encoding" not in bound["meter"]
    assert bound["meter"]["base"] > 0


def test_runtime_without_meter_charges_no_encoding():
    system, args = _instrumented("nginx", "pcc", Strategy.TCS)
    bound = _run(system.program, args, lambda meter: system.runtime(),
                 hooked=False)
    hooked = _run(system.program, args, lambda meter: system.runtime(),
                  hooked=True)
    assert bound == hooked
    assert bound["updates_executed"] > 0
    assert "encoding" not in bound["meter"]


# ---------------------------------------------------------------------------
# A small program whose every path matters
# ---------------------------------------------------------------------------


class Fanout(Program):
    """main -> {parse, render} -> helper -> heap calls of every kind.

    ``main`` reaches ``helper`` through two instrumented parents, and
    ``direct`` allocates from ``main`` itself, so uninstrumented sites
    follow instrumented ones from the same frame.
    """

    name = "fanout"

    def build_graph(self):
        graph = CallGraph()
        graph.add_call_site("main", "parse")
        graph.add_call_site("main", "render")
        graph.add_call_site("main", "log")
        graph.add_call_site("parse", "helper")
        graph.add_call_site("render", "helper")
        graph.add_call_site("helper", "malloc", "odd")
        graph.add_call_site("helper", "malloc", "run")
        graph.add_call_site("helper", "calloc", "table")
        graph.add_call_site("helper", "realloc", "grow")
        graph.add_call_site("main", "malloc", "direct")
        graph.add_call_site("main", "free")
        graph.add_call_site("helper", "free")
        return graph

    def main(self, p):
        first = p.call("parse", self._mid)
        p.call("log", self._log)
        direct = p.malloc(13, site="direct")
        second = p.call("render", self._mid)
        for address in first + second + [direct]:
            p.free(address)
        return len(first) + len(second)

    def _log(self, p):
        p.compute(7)

    def _mid(self, p):
        return p.call("helper", self._helper)

    def _helper(self, p):
        odd = p.malloc(13, site="odd")
        p.read(odd, 13)  # uninitialized bytes: a UNINIT_READ patch fills
        table = p.calloc(3, 7, site="table")
        grown = p.realloc(p.malloc(9, site="odd"), 29, site="grow")
        run = p.malloc_run([5, 11, 5], site="run")
        return [odd, table, grown] + run


def _fanout(scheme: str = "pcc",
            strategy: Strategy = Strategy.FCS) -> InstrumentedProgram:
    return instrument(Fanout(), strategy, scheme,
                      targets=["malloc", "calloc", "realloc"])


def _defended(system: InstrumentedProgram, patches: List[HeapPatch],
              hooked: bool) -> Dict[str, Any]:
    meter = CycleMeter()
    runtime = system.runtime(meter)
    underlying = LibcAllocator()
    defended = DefendedAllocator(underlying, PatchTable(patches),
                                 context_source=runtime, meter=meter)
    monitor = DirectMonitor(underlying.memory, defended, meter)
    if hooked:
        context: Any = CoverageTracker(inner=runtime)
    else:
        runtime.at_call_site = runtime.enter_function = \
            runtime.exit_function = _hooks_fail
        context = runtime
    process = Process(system.program.graph, monitor=monitor,
                      context_source=context, meter=meter)
    result = process.run(system.program)
    observed = _observe(process, runtime, result)
    observed["stats"] = (defended.stats.malloc_calls,
                         defended.stats.free_calls)
    return observed


@pytest.mark.parametrize("strategy", list(Strategy), ids=str)
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_fanout_equal_hook_protocol(scheme, strategy):
    system = _fanout(scheme, strategy)
    bound = _run(system.program, (), system.runtime, hooked=False)
    hooked = _run(system.program, (), system.runtime, hooked=True)
    assert bound == hooked


def test_uninit_read_defense_keeps_exact_category_totals():
    """Regrouped charges stay exact: the ``defense`` total is fractional
    (``zero_fill_per_byte`` 0.25 on 13- and 29-byte buffers) and must
    match the hook path to the last bit, as must every other total."""
    system = _fanout()
    probe = _run(system.program, (), system.runtime, hooked=True)
    patches = [HeapPatch(fun, ccid, VulnType.UNINIT_READ)
               for (fun, ccid) in probe["alloc_profile"]]
    bound = _defended(system, patches, hooked=False)
    hooked = _defended(system, patches, hooked=True)
    assert bound == hooked
    defense = bound["meter"]["defense"]
    assert defense != int(defense)  # fractional, so exactness is tested
    assert bound["meter"]["encoding"] > 0


def test_instrumented_call_charges_site_and_prologue():
    """One guest call through an instrumented site into an instrumented
    function costs ``call`` base cycles and ``encode_site +
    encode_prologue`` encoding cycles, plus the entry's prologue."""
    system = _fanout()
    plan = system.plan
    parse = system.program.graph.site("main", "parse")
    assert parse.site_id in plan.sites
    assert "parse" in plan.instrumented_functions
    meter = CycleMeter()
    runtime = system.runtime(meter)
    process = Process(system.program.graph, heap=LibcAllocator(),
                      context_source=runtime, meter=meter)
    model = meter.model

    class Probe:
        def main(self, p):
            return p.call("parse", lambda p: dict(meter.by_category))

    seen = process.run(Probe())
    assert seen["base"] == model.call
    assert seen["encoding"] == (model.encode_prologue  # main's prologue
                                + model.encode_site + model.encode_prologue)


def test_uninstrumented_site_resets_v_to_frame_t():
    """After an instrumented allocation leaves ``V`` at its mixed value,
    an uninstrumented crossing from the same frame sets ``V`` back to
    the frame's ``t``: the next allocation reads ``t``, not the mix."""
    system = instrument(Fanout(), Strategy.TCS, "pcc", targets=["calloc"])
    graph = system.program.graph
    assert graph.site("helper", "calloc", "table").site_id in system.plan.sites
    assert graph.site("helper", "malloc", "odd").site_id \
        not in system.plan.sites
    runtime = system.runtime(CycleMeter())
    process = Process(graph, heap=LibcAllocator(), context_source=runtime)
    process.run(system.program)
    by_site: Dict[str, set] = {}
    for event in process.allocations:
        site = graph.site_by_id(event.context[-1])
        by_site.setdefault(site.label, set()).add(event.ccid)
    # ``odd`` runs after ``table`` mixed V in the same helper frame.
    assert by_site["odd"] & by_site["table"] == set()
    hooked = _run(system.program, (), system.runtime, hooked=True)
    assert [e[2] for e in hooked["events"]] == \
        [e.ccid for e in process.allocations]


def test_malloc_run_counts_every_crossing():
    """A run of ``n`` allocations through an instrumented site counts
    ``n`` crossings and ``n`` updates and charges ``n`` site updates."""
    system = _fanout()
    meter = CycleMeter()
    runtime = system.runtime(meter)
    process = Process(system.program.graph, heap=LibcAllocator(),
                      context_source=runtime, meter=meter)
    sizes = [5, 11, 5, 40]

    class Probe:
        def main(self, p):
            return p.call("parse", lambda p: p.call("helper", self._helper))

        def _helper(self, p):
            before = (runtime.sites_crossed, runtime.updates_executed,
                      meter.category("encoding"))
            p.malloc_run(sizes, site="run")
            return before, (runtime.sites_crossed, runtime.updates_executed,
                            meter.category("encoding"))

    before, after = process.run(Probe())
    n = len(sizes)
    assert after[0] - before[0] == n
    assert after[1] - before[1] == n
    assert after[2] - before[2] == n * meter.model.encode_site


# ---------------------------------------------------------------------------
# Caching follows the graph's freeze
# ---------------------------------------------------------------------------


class Leaf:
    """main -> leaf -> malloc, each call naming no label: the graph
    resolves it while the pair has only one site."""

    def main(self, p):
        return p.call("leaf", lambda p: p.malloc(8))


@pytest.mark.parametrize("second_site", [("main", "leaf", "b"),
                                         ("leaf", "malloc", "b")])
def test_sites_resolve_afresh_while_graph_unfrozen(second_site):
    graph = CallGraph()
    graph.add_call_site("main", "leaf", "a")
    graph.add_call_site("leaf", "malloc", "a")
    assert not graph.frozen
    program = Leaf()
    process = Process(graph, heap=LibcAllocator(),
                      context_source=NullContextSource())
    process.run(program)
    # A second site to the same callee makes the unlabelled one
    # ambiguous; a crossing bound from the earlier graph would hide it.
    graph.add_call_site(*second_site)
    with pytest.raises(CallGraphError, match="ambiguous"):
        process.run(program)


def test_frozen_graph_sites_bind_once():
    system = _fanout()
    runtime = system.runtime(CycleMeter())
    process = Process(system.program.graph, heap=LibcAllocator(),
                      context_source=runtime)
    calls: List[Any] = []
    original = runtime.bind_site
    runtime.bind_site = lambda site: calls.append(site) or original(site)
    process.run(system.program)
    process.run(system.program)
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize("joint_first", [True, False],
                         ids=["joint-then-split", "split-then-joint"])
def test_fork_between_joint_and_split_encoding_meters(joint_first):
    """A bound call counts ``base`` and ``encoding`` as one record only
    when the runtime charges the process's own meter; a fork onto the
    other arrangement binds its sites afresh and charges as a process
    built that way would."""
    system = _fanout()
    graph = system.program.graph

    def layers(joint):
        meter = CycleMeter()
        runtime = system.runtime(meter if joint else CycleMeter())
        heap = LibcAllocator()
        return DirectMonitor(heap.memory, heap, meter), runtime, meter

    monitor, runtime, meter = layers(joint_first)
    first = Process(graph, monitor=monitor, context_source=runtime,
                    meter=meter)
    first.run(system.program)
    monitor, fresh_runtime, fresh_meter = layers(not joint_first)
    Process(graph, monitor=monitor, context_source=fresh_runtime,
            meter=fresh_meter).run(system.program)
    twin = first.fork(*layers(not joint_first))
    twin.run(system.program)
    assert twin.meter.snapshot() == fresh_meter.snapshot()
    assert (twin.context_source.meter.snapshot()
            == fresh_runtime.meter.snapshot())
