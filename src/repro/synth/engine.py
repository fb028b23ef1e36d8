"""The heap-layout search engine: LayoutPlans in, defeated attacks out.

PR 6's layout pass predicts adjacency and emits :class:`LayoutPlan`
records — abstract alloc/free interleavings naming sites, not addresses.
This engine turns the fuzz-validated subset of those plans into concrete,
minimized attacks and closes the loop against the defense:

1. **Ground truth.**  :func:`~repro.fuzz.adjacency.observe_adjacency`
   runs the seed's attack natively; only plans whose (source, victim,
   direction) triple matches the observed adjacency are attempted — the
   rest of the static graph is over-approximation by design and skipping
   it is not a gap (the skip count is reported).

2. **Symbolic solve.**  Each plan becomes a tiny
   :class:`~repro.analysis.symexec.Problem`: the source/victim request
   sizes range over their static intervals, the source *chunk* size is a
   monotone function application of allocator geometry
   (:func:`~repro.allocator.chunk.request_to_chunk_size`), and the
   overflow length ``l`` must reach the victim's payload
   (``l >= chunk - src + 1`` forward; ``l >= BACKWARD_MIN_LEN``
   backward) within the generator's :data:`ATTACK_SPAN`.  The solver
   minimizes ``l``; an abstention (unbounded site interval, blown
   budget) is recorded verbatim, never swallowed.

3. **Concrete simulation.**  The plan's interleaving is replayed against
   a *fresh* :class:`~repro.allocator.libc.LibcAllocator` through the
   same API the program uses (``malloc``/``calloc``/``memalign``/
   ``realloc``/``free``), and the solved ``l``-span is checked against
   the real chunk layout read back from boundary tags.  When the
   predicted geometry undershoots (e.g. a ``memalign`` split leaves
   slack between source and victim), the measured gap feeds back as one
   extra ``l >= gap`` constraint and the solve repeats — the
   search-refinement step that makes this a layout *search*, not a
   one-shot guess.

4. **Validate + defeat.**  Each concretized attack becomes an
   :class:`~repro.workloads.corpus.AttackCorpus` entry over the
   ``fuzz:<seed>`` workload; the native observation must cover the
   solved ``l`` (validation), and one diagnose → patch → re-run round
   (the exact construction of the fuzz oracle) must neutralize the
   attack (defeat).  ``repro synth`` fails when any concretized attack
   escapes either check.

Everything is deterministic: no randomness, no wall-clock data in
results, and the fan-out over :func:`~repro.parallel.fanout.fanout_map`
returns seed-order results, so ``--jobs N`` output is byte-identical to
``--jobs 1``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..allocator.chunk import HEADER_SIZE, read_chunk, request_to_chunk_size
from ..allocator.libc import LibcAllocator, hole_reusable
from ..analysis.intervals import Interval
from ..analysis.layout import (
    BACKWARD_MIN_LEN,
    AllocSiteId,
    LayoutPlan,
    analyze_layout,
)
from ..analysis.symexec import (
    LinExpr,
    Problem,
    Relation,
    SolveResult,
)
from ..core.instrument import instrument
from ..defense.interpose import DefendedAllocator
from ..defense.patch_table import PatchTable
from ..fuzz.adjacency import ObservedAdjacency, observe_adjacency
from ..fuzz.generator import (
    ATTACK_SPAN,
    FuzzSpec,
    build_program,
    spec_for_seed,
    spec_from_dict,
    spec_to_dict,
)
from ..machine.errors import MachineError
from ..parallel.fanout import fanout_map
from ..patch.generator import OfflinePatchGenerator
from ..program.cost import CycleMeter
from ..program.process import Process
from ..workloads.corpus import (
    AttackCorpus,
    CorpusEntry,
    fuzz_workload_key,
)
from .report import (
    STATUS_ABSTAINED,
    STATUS_CONCRETIZED,
    STATUS_UNREALIZED,
    InterleavingStep,
    PlanAttempt,
    SeedSynthesis,
    SynthAttack,
    SynthReport,
)

__all__ = [
    "PLAN_KINDS",
    "corpus_of",
    "synthesize_range",
    "synthesize_seed",
    "synthesize_spec",
    "synthesize_specs",
]

#: Plan kinds the layout pass emits (CLI ``--plan`` choices).
PLAN_KINDS: Tuple[str, ...] = ("sequential", "hole-reuse")


# ---------------------------------------------------------------------------
# Symbolic geometry problems
# ---------------------------------------------------------------------------


def _geometry_problem(direction: str, source_size: Interval,
                      victim_size: Interval,
                      extra_min_len: int = 0
                      ) -> Tuple[Problem, LinExpr]:
    """The constraint system for one plan; returns (problem, objective).

    Variables are declared inputs-first (``src``, ``vic``) so the
    enumerator prunes derived quantities (``chunk``, ``l``) early.
    ``extra_min_len`` is the simulation-feedback lower bound on ``l``
    (0 on the first solve).
    """
    problem = Problem()
    src = problem.add_var("src", source_size)
    problem.add_var("vic", victim_size)
    length = LinExpr.var("l")
    if direction == "forward":
        chunk = problem.add_var(
            "chunk", source_size.map(request_to_chunk_size))
        problem.define_monotone("chunk", request_to_chunk_size, src,
                                "request_to_chunk_size")
        problem.add_var("l", Interval(1, ATTACK_SPAN))
        # Reach the victim's payload: the first payload byte sits
        # chunk - src + 1 bytes past the source's last in-bounds byte.
        problem.require(length, Relation.GE,
                        chunk.sub(src).shift(1))
    else:
        problem.add_var("l", Interval(1, ATTACK_SPAN))
        problem.require(length, Relation.GE,
                        LinExpr.of(BACKWARD_MIN_LEN))
    if extra_min_len:
        problem.require(length, Relation.GE, LinExpr.of(extra_min_len))
    return problem, length


# ---------------------------------------------------------------------------
# Concrete simulation against the real allocator
# ---------------------------------------------------------------------------


class _SimulationError(Exception):
    """The interleaving could not be driven as planned."""


def _simulate_alloc(allocator: LibcAllocator, fun: str,
                    size: int) -> int:
    """Drive one allocation through the site's real API."""
    if fun == "malloc":
        return allocator.malloc(size)
    if fun == "calloc":
        return allocator.calloc(1, size)
    if fun == "memalign":
        # The generator's fixed alignment (see GeneratedProgram).
        return allocator.memalign(32, size)
    if fun == "realloc":
        # Mirror the generated program: half-size malloc, then grow.
        initial = allocator.malloc(size // 2)
        return allocator.realloc(initial, size)
    raise _SimulationError(f"unsupported allocation API {fun!r}")


def _simulate(plan: LayoutPlan, sizes: Mapping[AllocSiteId, int],
              overflow_len: int
              ) -> Tuple[Tuple[InterleavingStep, ...], int, int, int]:
    """Replay ``plan`` on a fresh allocator; measure the real geometry.

    Returns ``(steps, src_user, vic_user, required_len)`` where
    ``required_len`` is the overflow length the *simulated* layout
    actually needs to reach the victim's payload (the feedback bound for
    the refinement solve).  Raises :class:`_SimulationError` when a step
    cannot be driven.
    """
    allocator = LibcAllocator()
    live: Dict[AllocSiteId, List[int]] = {}
    steps: List[InterleavingStep] = []
    for step in plan.steps:
        site = step.site
        if step.action == "alloc":
            size = sizes[site]
            address = _simulate_alloc(allocator, site.fun, size)
            live.setdefault(site, []).append(address)
            steps.append(InterleavingStep("alloc", site.describe(),
                                          site.fun, size, address))
        elif step.action == "free":
            stack = live.get(site)
            if not stack:
                raise _SimulationError(
                    f"free of {site.describe()} with no live instance")
            address = stack.pop()
            allocator.free(address)
            steps.append(InterleavingStep("free", site.describe(),
                                          "free", sizes[site], address))
        elif step.action == "overflow":
            stack = live.get(site)
            if not stack:
                raise _SimulationError(
                    f"overflow through {site.describe()} with no live "
                    f"instance")
            steps.append(InterleavingStep(
                "overflow", site.describe(), "overflow", overflow_len,
                stack[-1]))
        else:  # pragma: no cover - plans only emit the three actions
            raise _SimulationError(f"unknown plan action {step.action!r}")

    src_stack = live.get(plan.source)
    vic_stack = live.get(plan.victim)
    if not src_stack or not vic_stack:
        raise _SimulationError("source or victim not live after the plan")
    src_user, vic_user = src_stack[-1], vic_stack[-1]
    # Real geometry from boundary tags, not predictions: memalign
    # splits, realloc growth and bin reuse all show up here.
    vic_chunk = read_chunk(allocator.memory, vic_user - HEADER_SIZE)
    if plan.direction == "forward":
        # First victim payload byte, measured from one past the
        # source's last in-bounds byte.
        required = vic_user - (src_user + sizes[plan.source]) + 1
    else:
        # Last victim payload byte, measured downward from the source's
        # first byte.
        payload_end = vic_chunk.base + vic_chunk.size
        required = src_user - payload_end + 1
    if required < 1:
        raise _SimulationError(
            f"victim is on the wrong side of the source "
            f"(src@{src_user:#x}, vic@{vic_user:#x})")
    return tuple(steps), src_user, vic_user, required


# ---------------------------------------------------------------------------
# Defeat: one diagnose -> patch -> re-run round
# ---------------------------------------------------------------------------


def _run_defended(program: Any,
                  table: PatchTable) -> Tuple[Optional[str], Any]:
    """Re-run the attack under ``table`` (interposed in front of a
    fresh libc heap); return (fault name, outcome)."""
    instrumented = instrument(program)
    meter = CycleMeter()
    runtime = instrumented.runtime(meter)
    defended = DefendedAllocator(LibcAllocator(), table,
                                 context_source=runtime, meter=meter)
    process = Process(program.graph, heap=defended,
                      context_source=runtime, meter=meter)
    try:
        return None, process.run(program, True)
    except MachineError as exc:
        return type(exc).__name__, None


def _defeat(program: Any) -> Tuple[bool, int, str]:
    """One diagnose round; returns (defeated, patch count, detail)."""
    instrumented = instrument(program)
    generator = OfflinePatchGenerator(program, instrumented.codec)
    diagnosis = generator.replay(True)
    if not diagnosis.patches:
        return False, 0, "diagnosis produced no patches"
    table = PatchTable(diagnosis.patches)
    fault, outcome = _run_defended(program, table)
    if fault == "SegmentationFault":
        # A guard-page fault is the defense *working*.
        return True, len(diagnosis.patches), "blocked by guard page"
    if fault is not None:
        return False, len(diagnosis.patches), (
            f"patched run died on {fault}")
    if program.attack_succeeded(outcome):
        return False, len(diagnosis.patches), (
            "attack still succeeded under its patches")
    return True, len(diagnosis.patches), "neutralized"


# ---------------------------------------------------------------------------
# Per-plan concretization
# ---------------------------------------------------------------------------


def _solve_reason(result: SolveResult) -> str:
    return f"solver: {result.describe()}"


def _concretize(spec: FuzzSpec, plan: LayoutPlan,
                site_sizes: Mapping[AllocSiteId, Interval],
                observed: ObservedAdjacency) -> PlanAttempt:
    """Solve, simulate (with one refinement round), and validate."""
    base = dict(plan_kind=plan.kind, direction=plan.direction,
                source=plan.source.describe(),
                victim=plan.victim.describe())
    src_interval = site_sizes.get(plan.source)
    vic_interval = site_sizes.get(plan.victim)
    if src_interval is None or vic_interval is None:
        return PlanAttempt(status=STATUS_UNREALIZED, reason=(
            "plan references a site the summaries do not cover"), **base)

    # The plan's step-1 placeholder: the chunk a hole-reuse plan frees
    # and re-occupies (forward plans allocate the source first).
    first_site = (plan.source if plan.direction == "forward"
                  else plan.victim)
    extra_min_len = 0
    steps: Tuple[InterleavingStep, ...] = ()
    solved = SolveResult(status="abstain", reason="not attempted")
    overflow_len = 0
    for round_no in range(2):
        problem, objective = _geometry_problem(
            plan.direction, src_interval, vic_interval, extra_min_len)
        solved = problem.solve(minimize=objective)
        if solved.abstained:
            return PlanAttempt(status=STATUS_ABSTAINED,
                               reason=_solve_reason(solved), **base)
        if not solved.sat:
            return PlanAttempt(status=STATUS_UNREALIZED,
                               reason=_solve_reason(solved), **base)
        sizes = {plan.source: solved.value("src"),
                 plan.victim: solved.value("vic")}
        overflow_len = solved.value("l")
        if plan.kind == "hole-reuse" and not hole_reusable(
                sizes[first_site], sizes[first_site]):
            return PlanAttempt(status=STATUS_UNREALIZED, reason=(
                "placeholder hole is not reusable (mmap-class "
                "request)"), **base)
        try:
            steps, _src, _vic, required = _simulate(
                plan, sizes, overflow_len)
        except _SimulationError as exc:
            return PlanAttempt(status=STATUS_UNREALIZED,
                               reason=str(exc), **base)
        if overflow_len >= required:
            break
        if round_no == 1 or required > ATTACK_SPAN:
            return PlanAttempt(status=STATUS_UNREALIZED, reason=(
                f"simulated layout needs l >= {required} "
                f"(span budget {ATTACK_SPAN}, solved {overflow_len})"),
                **base)
        # Feed the measured gap back into the constraint system.
        extra_min_len = required

    attack = SynthAttack(
        seed=spec.seed, plan_kind=plan.kind, direction=plan.direction,
        source=plan.source.describe(), victim=plan.victim.describe(),
        overflow_len=overflow_len,
        sizes=solved.assignment,
        steps=steps,
        entry_id=f"synth/{spec.seed}:{plan.kind}",
        workload=fuzz_workload_key(spec.seed))
    validated = observed.overflow_len >= overflow_len
    return PlanAttempt(status=STATUS_CONCRETIZED, attack=attack,
                       validated=validated, **base)


# ---------------------------------------------------------------------------
# Per-seed synthesis
# ---------------------------------------------------------------------------


def synthesize_spec(spec: FuzzSpec,
                    plan_kinds: Tuple[str, ...] = ()) -> SeedSynthesis:
    """Run the full synthesis loop for one spec.

    ``plan_kinds`` restricts which plan kinds are attempted (empty =
    all).  Deterministic: the result is a pure function of the spec.
    """
    program = build_program(spec)
    layout = analyze_layout(program)
    observed = observe_adjacency(spec)
    notes: List[str] = []
    if observed is None:
        return SeedSynthesis(
            seed=spec.seed, kind=spec.kind, alloc_fun=spec.alloc_fun,
            observed=False, plans_total=len(layout.plans),
            notes=("no ground-truth adjacency to synthesize against",))

    site_sizes = {summary.site: summary.size
                  for summary in layout.sites}
    validated_plans: List[LayoutPlan] = []
    skipped = 0
    for plan in layout.plans:
        if (plan.source != observed.source
                or plan.victim != observed.victim
                or plan.direction != observed.direction):
            skipped += 1
            continue
        if plan_kinds and plan.kind not in plan_kinds:
            skipped += 1
            continue
        validated_plans.append(plan)
    if skipped:
        notes.append(f"{skipped} plan(s) skipped (not fuzz-validated "
                     f"or filtered by kind)")

    attempts = [_concretize(spec, plan, site_sizes, observed)
                for plan in validated_plans]

    # One diagnose round per seed, shared across the seed's attacks:
    # they all drive the same program, so the patch set is identical.
    patches = 0
    if any(attempt.concretized for attempt in attempts):
        defeated, patches, detail = _defeat(program)
        notes.append(f"diagnose round: {patches} patch(es), {detail}")
        attempts = [
            PlanAttempt(plan_kind=attempt.plan_kind,
                        direction=attempt.direction,
                        source=attempt.source, victim=attempt.victim,
                        status=attempt.status, reason=attempt.reason,
                        attack=attempt.attack,
                        validated=attempt.validated,
                        defeated=defeated if attempt.concretized
                        else False)
            for attempt in attempts]

    return SeedSynthesis(
        seed=spec.seed, kind=spec.kind, alloc_fun=spec.alloc_fun,
        observed=True, plans_total=len(layout.plans),
        attempts=tuple(attempts), patches=patches, notes=tuple(notes))


def synthesize_seed(seed: int,
                    plan_kinds: Tuple[str, ...] = ()) -> SeedSynthesis:
    """Synthesize for the generator's spec of ``seed``."""
    return synthesize_spec(spec_for_seed(seed), plan_kinds)


def _synth_task(item: Tuple[Dict[str, Any], Tuple[str, ...]]
                ) -> SeedSynthesis:
    """Fan-out task (module-level: picklable for worker processes)."""
    spec_dict, plan_kinds = item
    return synthesize_spec(spec_from_dict(spec_dict), plan_kinds)


# ---------------------------------------------------------------------------
# Batch entry points
# ---------------------------------------------------------------------------


def synthesize_specs(specs: List[FuzzSpec], jobs: int = 1,
                     plan_kinds: Tuple[str, ...] = ()) -> SynthReport:
    """Synthesize every spec, sharded over ``jobs`` worker processes.

    Results come back in input order regardless of ``jobs`` — the
    byte-identity contract of ``repro synth --jobs N``.
    """
    items = [(spec_to_dict(spec), tuple(plan_kinds)) for spec in specs]
    results = tuple(fanout_map(_synth_task, items, jobs))
    return SynthReport(results=results, plan_kinds=tuple(plan_kinds))


def synthesize_range(start: int, count: int, jobs: int = 1,
                     plan_kinds: Tuple[str, ...] = ()) -> SynthReport:
    """Synthesize for the seed range ``[start, start + count)``."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    specs = [spec_for_seed(seed)
             for seed in range(start, start + count)]
    return synthesize_specs(specs, jobs=jobs, plan_kinds=plan_kinds)


def corpus_of(report: SynthReport) -> AttackCorpus:
    """The synthesized attack corpus: one entry per concretized attack.

    Entries reference the deterministic ``fuzz:<seed>`` workload (the
    spec rebuilds from the seed alone), so a saved synthesized corpus
    replays through ``repro diagnose --corpus`` like any hand-written
    one.
    """
    entries = tuple(
        CorpusEntry(attack.entry_id, attack.workload, "attack")
        for result in report.results
        for attack in result.attacks)
    return AttackCorpus(entries, source="synth")
