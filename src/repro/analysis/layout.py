"""Static heap-layout analysis: who can sit next to whom, and how far.

HeapTherapy+'s patches are keyed by allocation site, but knowing *which*
sites matter today requires replaying an attack.  This pass predicts,
with no attack input at all, which allocation-site pairs can become
heap-adjacent — the precondition for any overflow to corrupt a victim —
by composing three ingredients on top of the abstract interpreter from
:mod:`repro.analysis.staticvuln`:

1. **Size/extent intervals.**  Every allocation site gets a request-size
   :class:`~repro.analysis.intervals.Interval` (joined across abstract
   instances, widened after :data:`~repro.analysis.intervals.WIDEN_AFTER`
   joins so repeated joins terminate), and every memory access feeds the
   site's overflow potential: how far past the end (``forward``) or
   below the start (``backward``) its accesses may reach.

2. **Lifetime/co-liveness.**  Each abstract allocation records which
   other allocations are still live (not definitely freed) when it is
   created; two sites *may co-live* when any of their instances do.
   Each site also gets a may-live function range over the call graph:
   the guest functions observed active while an instance is live, plus
   the backward-reachable ancestors of the allocating function
   (:meth:`~repro.program.callgraph.CallGraph.reachable_to` — the
   functions the pointer can escape to by being returned upward).

3. **Allocator geometry.**  :class:`~repro.allocator.libc.LibcAllocator`
   tiles one heap with 16-byte-headed chunks; any two non-``mmap``
   chunks whose lifetimes overlap can be physical neighbours.  Chunk
   rounding (:func:`~repro.allocator.chunk.request_to_chunk_size`) gives
   the *minimal overflow length* ``l``: the fewest bytes past the
   source's bounds that can touch a neighbouring victim's chunk, and the
   fewest that reach its payload.  Requests at or above the ``mmap``
   threshold get dedicated mappings and are excluded from adjacency.

The output is a :class:`LayoutResult`: per-site summaries, the static
adjacency graph of :class:`AdjacentPair` records, and machine-checkable
:class:`LayoutPlan` records (candidate alloc/free interleavings) that a
layout-search engine can concretize.  Soundness contract (checked by the
fuzz cross-check harness in :mod:`repro.fuzz.adjacency`): every overflow
(source, victim) site pair observable at runtime is present in the
graph, with predicted minimal ``l`` no larger than the observed overflow
length.  Precision is best-effort — co-liveness without physical
adjacency produces false pairs, and the measured false-positive rate is
reported in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from ..allocator.chunk import CHUNK_ALIGN, HEADER_SIZE, request_to_chunk_size
from ..allocator.libc import bin_kind, small_bin_index
from ..program.program import Program
from .intervals import (
    WIDEN_AFTER,
    Interval,
    Num,
    may_exceed,
    reset_fresh_symbols,
)
from .staticvuln import FREED_YES, PointerVal, _Interp

__all__ = [
    "AdjacentPair",
    "AllocSiteId",
    "BACKWARD_MIN_LEN",
    "LayoutPlan",
    "LayoutResult",
    "PlanStep",
    "SiteSummary",
    "analyze_layout",
    "forward_min_lengths",
]

#: Minimal bytes below a buffer's start that touch the physically
#: preceding chunk (the 16 bytes directly below are the buffer's own
#: header; byte 17 is the neighbour's payload tail).
BACKWARD_MIN_LEN: int = HEADER_SIZE + 1


def forward_min_lengths(size: Interval) -> Tuple[int, int]:
    """Minimal forward overflow lengths for a source of ``size`` bytes.

    Returns ``(to_chunk, to_payload)``: the fewest bytes written past
    the request end that can touch the following chunk (its header) and
    its user payload.  For a request ``r`` with chunk size ``c``, the
    next header starts ``c - HEADER_SIZE - r`` bytes past the end and
    the payload ``c - r`` bytes past it; both are minimized over the
    size interval.  The expression is periodic in ``r`` with period
    ``CHUNK_ALIGN`` (plus the min-chunk plateau), so sampling a
    two-period window from the lower bound is exact even for unbounded
    intervals.
    """
    window_end = size.lo + 2 * CHUNK_ALIGN
    if size.hi is not None:
        window_end = min(size.hi, window_end)
    to_chunk: Optional[int] = None
    to_payload: Optional[int] = None
    for request in range(size.lo, window_end + 1):
        chunk = request_to_chunk_size(request)
        header_gap = chunk - HEADER_SIZE - request + 1
        payload_gap = chunk - request + 1
        if to_chunk is None or header_gap < to_chunk:
            to_chunk = header_gap
        if to_payload is None or payload_gap < to_payload:
            to_payload = payload_gap
    assert to_chunk is not None and to_payload is not None
    return to_chunk, to_payload


# ---------------------------------------------------------------------------
# Result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class AllocSiteId:
    """Identity of an allocation site: guest caller, API, site label."""

    caller: str
    fun: str
    label: str

    def describe(self) -> str:
        """Canonical ``caller->fun#label`` rendering."""
        return f"{self.caller}->{self.fun}#{self.label}"


@dataclass(frozen=True)
class SiteSummary:
    """Static facts about one allocation site."""

    site: AllocSiteId
    #: Request-size interval (bytes the site may ask for).
    size: Interval
    #: Chunk-size interval (allocator geometry applied).
    chunk: Interval
    #: Free-list class: ``small``, ``large``, ``mmap`` or a mixed
    #: ``lo..hi`` range when the interval spans classes.
    bin: str
    #: Exact-size small-bin index when the site always lands in one.
    small_bin: Optional[int]
    #: Abstract instances the interpreter created for this site.
    instances: int
    #: Guest functions that may execute while an instance is live.
    may_live_in: Tuple[str, ...]
    #: Overflow directions with potential (``forward``/``backward``).
    overflow: Tuple[str, ...]

    def describe(self) -> str:
        """One-line site summary."""
        parts = [f"size {self.size.describe()}",
                 f"chunk {self.chunk.describe()}", f"bin {self.bin}"]
        if self.overflow:
            parts.append("overflow " + "/".join(self.overflow))
        return f"{self.site.describe()}: " + ", ".join(parts)


@dataclass(frozen=True)
class AdjacentPair:
    """One edge of the static adjacency graph."""

    source: AllocSiteId
    victim: AllocSiteId
    #: ``forward`` (overflow past the end) or ``backward`` (underflow
    #: below the start).
    direction: str
    #: Minimal bytes past the source's bounds that touch the victim's
    #: chunk (interval lower bound — the soundness side of ``l``).
    min_overflow_len: int
    #: Minimal bytes past the source's bounds that reach the victim's
    #: user payload.
    min_payload_len: int
    reason: str

    def describe(self) -> str:
        """One-line pair rendering."""
        arrow = "=>" if self.direction == "forward" else "<="
        return (f"{self.source.describe()} {arrow} "
                f"{self.victim.describe()} [{self.direction}] "
                f"l>={self.min_overflow_len} "
                f"(payload {self.min_payload_len})")


@dataclass(frozen=True)
class PlanStep:
    """One abstract step of a layout plan."""

    #: ``alloc``, ``free`` or ``overflow``.
    action: str
    site: AllocSiteId
    note: str


@dataclass(frozen=True)
class LayoutPlan:
    """A candidate alloc/free interleaving realizing one adjacency.

    Machine-checkable seed for the future layout-search engine: the
    steps name sites, not addresses, and the engine's job is to find a
    concrete input driving the program through them.
    """

    source: AllocSiteId
    victim: AllocSiteId
    direction: str
    #: ``sequential`` (fresh chunks carved back to back) or
    #: ``hole-reuse`` (a freed same-class chunk is reoccupied).
    kind: str
    steps: Tuple[PlanStep, ...]

    def describe(self) -> str:
        """Multi-line plan rendering."""
        lines = [f"plan [{self.kind}] {self.source.describe()} "
                 f"-{self.direction}-> {self.victim.describe()}"]
        for index, step in enumerate(self.steps, 1):
            lines.append(f"  {index}. {step.action} "
                         f"{step.site.describe()}: {step.note}")
        return "\n".join(lines)


@dataclass
class LayoutResult:
    """Everything the layout pass derived for one program."""

    program_name: str
    sites: List[SiteSummary] = field(default_factory=list)
    pairs: List[AdjacentPair] = field(default_factory=list)
    plans: List[LayoutPlan] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def has_findings(self) -> bool:
        """True when the adjacency graph is non-empty."""
        return bool(self.pairs)

    def render(self, verbose: bool = False) -> str:
        """Human-readable report; ``verbose`` adds sites and plans."""
        lines = [f"layout {self.program_name}: {len(self.sites)} "
                 f"site(s), {len(self.pairs)} adjacent pair(s)"]
        if verbose:
            lines.extend("  site " + s.describe() for s in self.sites)
        lines.extend("  pair " + p.describe() for p in self.pairs)
        if verbose:
            for plan in self.plans:
                lines.append("  " + plan.describe().replace("\n", "\n  "))
        lines.extend("  note: " + n for n in self.notes)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic JSON form (stable ordering, no floats)."""
        def interval(value: Interval) -> List[Optional[int]]:
            return [value.lo, value.hi]

        return {
            "program": self.program_name,
            "sites": [{
                "site": s.site.describe(),
                "size": interval(s.size),
                "chunk": interval(s.chunk),
                "bin": s.bin,
                "small_bin": s.small_bin,
                "instances": s.instances,
                "may_live_in": list(s.may_live_in),
                "overflow": list(s.overflow),
            } for s in self.sites],
            "pairs": [{
                "source": p.source.describe(),
                "victim": p.victim.describe(),
                "direction": p.direction,
                "min_overflow_len": p.min_overflow_len,
                "min_payload_len": p.min_payload_len,
                "reason": p.reason,
            } for p in self.pairs],
            "plans": [{
                "source": plan.source.describe(),
                "victim": plan.victim.describe(),
                "direction": plan.direction,
                "kind": plan.kind,
                "steps": [{"action": step.action,
                           "site": step.site.describe(),
                           "note": step.note}
                          for step in plan.steps],
            } for plan in self.plans],
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# The recording interpreter
# ---------------------------------------------------------------------------


@dataclass
class _OverflowRecord:
    """Per-origin overflow potential; ``None`` reach means unbounded."""

    forward: bool = False
    forward_reach: Optional[int] = 0
    backward: bool = False
    backward_reach: Optional[int] = 0
    why: str = ""


class _LayoutInterp(_Interp):
    """The staticvuln interpreter plus layout-relevant event recording.

    Subclassing keeps one abstract semantics: whatever the vulnerability
    detector believes about sizes, frees and accesses, the layout pass
    sees identically — the two can never disagree about a program.
    """

    def __init__(self, program: Program) -> None:
        super().__init__(program)
        self._seq = 0
        #: origin -> sequence number of its allocation event.
        self.alloc_seq: Dict[int, int] = {}
        #: origin -> sequence number of its latest free event.
        self.free_seq: Dict[int, int] = {}
        #: origin -> origins not definitely freed when it was created.
        self.colive: Dict[int, FrozenSet[int]] = {}
        #: origin -> overflow potential of accesses through it.
        self.overflow: Dict[int, _OverflowRecord] = {}
        #: (sequence, guest stack snapshot) per heap event.
        self.heap_events: List[Tuple[int, Tuple[str, ...]]] = []

    def _tick(self) -> int:
        self._seq += 1
        self.heap_events.append((self._seq, tuple(self.guest_stack)))
        return self._seq

    # -- recording overrides ----------------------------------------------

    def _heap_alloc(self, fun: str, node: Any, env: Dict[str, Any],
                    depth: int) -> Any:
        pointer = super()._heap_alloc(fun, node, env, depth)
        if isinstance(pointer, PointerVal):
            origin = pointer.origin
            self.alloc_seq[origin] = self._tick()
            self.colive[origin] = frozenset(
                other for other, state in self.freed.items()
                if other != origin and state != FREED_YES)
        return pointer

    def _heap_free(self, pointer: Any, refree_ok: bool = False) -> None:
        if isinstance(pointer, PointerVal) \
                and pointer.origin in self.allocs:
            # Keep the *latest* free: may-live must over-approximate.
            self.free_seq[pointer.origin] = self._tick()
        super()._heap_free(pointer, refree_ok)

    def _access(self, pointer: Any, length: Num, writes: bool, why: str,
                leaks: bool = False) -> None:
        if isinstance(pointer, PointerVal):
            alloc = self.allocs.get(pointer.origin)
            if alloc is not None:
                self._record_reach(pointer, length, alloc.size, why)
        super()._access(pointer, length, writes, why, leaks)

    def _record_reach(self, pointer: PointerVal, length: Num,
                      size: Num, why: str) -> None:
        """Fold one access into the origin's overflow potential."""
        record = self.overflow.get(pointer.origin)
        if record is None:
            record = _OverflowRecord()
        offset = pointer.offset
        # Backward: the access may start below the buffer.  The
        # vulnerability detector does not model this (a negative-offset
        # extent never exceeds the size), so the layout pass must.
        if offset.concrete:
            if offset.lo < 0:
                record.backward = True
                depth = -offset.lo
                if record.backward_reach is not None:
                    record.backward_reach = max(record.backward_reach,
                                                depth)
                record.why = record.why or f"{why} at negative offset"
        elif offset.tainted or offset.lo < 0:
            record.backward = True
            record.backward_reach = None
            record.why = record.why or f"{why} at unproven offset"
        # Forward: reuse the detector's own overflow predicate.
        extent = offset.add(length)
        reason = may_exceed(extent, size)
        if reason is not None:
            record.forward = True
            diff = extent.sub(size)
            if diff.concrete and record.forward_reach is not None:
                record.forward_reach = max(record.forward_reach, diff.hi)
            else:
                record.forward_reach = None
            record.why = record.why or f"{why}: {reason}"
        if record.forward or record.backward:
            self.overflow[pointer.origin] = record


# ---------------------------------------------------------------------------
# Aggregation: origins -> sites -> adjacency graph -> plans
# ---------------------------------------------------------------------------


@dataclass
class _SiteAccum:
    """Mutable per-site aggregation state."""

    site: AllocSiteId
    size: Interval
    joins: int = 0
    origins: List[int] = field(default_factory=list)
    live_in: Set[str] = field(default_factory=set)
    forward: bool = False
    forward_reach: Optional[int] = 0
    backward: bool = False
    backward_reach: Optional[int] = 0
    why: str = ""

    def absorb_size(self, other: Interval) -> None:
        """Join (widening after :data:`WIDEN_AFTER` joins) a new size."""
        self.joins += 1
        joined = self.size.join(other)
        self.size = (self.size.widen(joined)
                     if self.joins > WIDEN_AFTER else joined)

    def absorb_overflow(self, record: _OverflowRecord) -> None:
        if record.forward:
            self.forward = True
            if record.forward_reach is None:
                self.forward_reach = None
            elif self.forward_reach is not None:
                self.forward_reach = max(self.forward_reach,
                                         record.forward_reach)
        if record.backward:
            self.backward = True
            if record.backward_reach is None:
                self.backward_reach = None
            elif self.backward_reach is not None:
                self.backward_reach = max(self.backward_reach,
                                          record.backward_reach)
        self.why = self.why or record.why


def _bin_label(chunk: Interval, size: Interval) -> Tuple[str, bool]:
    """Free-list class label and whether the site is *always* mmapped."""
    lo_kind = bin_kind(size.lo)
    hi_kind = "mmap" if size.hi is None else bin_kind(size.hi)
    label = lo_kind if lo_kind == hi_kind else f"{lo_kind}..{hi_kind}"
    return label, lo_kind == "mmap"


def _site_small_bin(size: Interval) -> Optional[int]:
    """The single exact-size small bin, when the whole interval maps
    to one."""
    lo_bin = small_bin_index(size.lo)
    hi_bin = (small_bin_index(size.hi)
              if size.hi is not None else None)
    return lo_bin if lo_bin is not None and lo_bin == hi_bin else None


def _live_functions(interp: _LayoutInterp, origin: int,
                    caller: str) -> FrozenSet[str]:
    """Guest functions that may execute while ``origin`` is live.

    Union of the guest-stack snapshots of every heap event inside the
    origin's [alloc, latest-free] window (unbounded when not definitely
    freed), extended by the call-graph ancestors of the allocating
    function — the functions the pointer may escape to by being
    returned upward (a backward reachability over the call graph).
    """
    start = interp.alloc_seq.get(origin, 0)
    if interp.freed.get(origin) == FREED_YES \
            and origin in interp.free_seq:
        end: float = interp.free_seq[origin]
    else:
        end = float("inf")
    functions: Set[str] = set()
    for seq, stack in interp.heap_events:
        if start <= seq <= end:
            functions.update(stack)
    functions.update(interp.graph.reachable_to([caller]))
    return frozenset(functions)


def analyze_layout(program: Program) -> LayoutResult:
    """Run the layout pass over ``program``.

    Deterministic: repeated calls produce identical results (including
    ``to_dict()`` serializations) for the same program.
    """
    reset_fresh_symbols()
    interp = _LayoutInterp(program)
    result = LayoutResult(program_name=program.name)
    try:
        interp.run()
    except RecursionError:
        result.notes.append("layout analysis aborted: recursion limit")
        return result

    # -- sites -------------------------------------------------------------
    accums: Dict[AllocSiteId, _SiteAccum] = {}
    origin_site: Dict[int, AllocSiteId] = {}
    for origin in sorted(interp.allocs):
        alloc = interp.allocs[origin]
        site = AllocSiteId(alloc.caller, alloc.fun, alloc.label)
        origin_site[origin] = site
        size = Interval.from_num(alloc.size)
        accum = accums.get(site)
        if accum is None:
            accum = _SiteAccum(site=site, size=size)
            accums[site] = accum
        else:
            accum.absorb_size(size)
        accum.origins.append(origin)
        accum.live_in.update(_live_functions(interp, origin,
                                             alloc.caller))
        record = interp.overflow.get(origin)
        if record is not None:
            accum.absorb_overflow(record)

    always_mmap: Set[AllocSiteId] = set()
    for site in sorted(accums):
        accum = accums[site]
        chunk = accum.size.map(request_to_chunk_size)
        bin_name, is_mmap = _bin_label(chunk, accum.size)
        if is_mmap:
            always_mmap.add(site)
        directions = []
        if accum.forward:
            directions.append("forward")
        if accum.backward:
            directions.append("backward")
        result.sites.append(SiteSummary(
            site=site, size=accum.size, chunk=chunk, bin=bin_name,
            small_bin=_site_small_bin(accum.size),
            instances=len(accum.origins),
            may_live_in=tuple(sorted(accum.live_in)),
            overflow=tuple(directions)))

    # -- adjacency ---------------------------------------------------------
    pairs: Dict[Tuple[AllocSiteId, AllocSiteId, str], AdjacentPair] = {}
    for s_origin in sorted(interp.overflow):
        record = interp.overflow[s_origin]
        source = origin_site[s_origin]
        if source in always_mmap:
            continue
        source_accum = accums[source]
        for v_origin in sorted(interp.allocs):
            if v_origin == s_origin:
                continue
            victim = origin_site[v_origin]
            if victim in always_mmap:
                continue
            if v_origin not in interp.colive.get(s_origin, frozenset()) \
                    and s_origin not in interp.colive.get(v_origin,
                                                          frozenset()):
                continue
            for direction in ("forward", "backward"):
                if direction == "forward":
                    if not record.forward:
                        continue
                    min_chunk, min_payload = forward_min_lengths(
                        source_accum.size)
                    reach = record.forward_reach
                else:
                    if not record.backward:
                        continue
                    min_chunk = min_payload = BACKWARD_MIN_LEN
                    reach = record.backward_reach
                if reach is not None and reach < min_chunk:
                    # The access provably cannot reach past its own
                    # chunk slack (or own header, backward).
                    continue
                key = (source, victim, direction)
                if key not in pairs:
                    pairs[key] = AdjacentPair(
                        source=source, victim=victim,
                        direction=direction,
                        min_overflow_len=min_chunk,
                        min_payload_len=min_payload,
                        reason=(record.why or "overflow potential")
                        + f"; co-live with {victim.describe()}")
    result.pairs = [pairs[key] for key in sorted(pairs)]

    # -- plans -------------------------------------------------------------
    for pair in result.pairs:
        result.plans.extend(_plans_for(pair, accums))
    if interp.notes:
        result.notes.extend(interp.notes)
    return result


def _plans_for(pair: AdjacentPair,
               accums: Dict[AllocSiteId, _SiteAccum]) -> List[LayoutPlan]:
    """Candidate interleavings realizing ``pair``'s adjacency."""
    source, victim = pair.source, pair.victim
    if pair.direction == "forward":
        first, second = source, victim
        overflow_note = (f"write >= {pair.min_overflow_len} byte(s) "
                         f"past the end of the source buffer")
    else:
        first, second = victim, source
        overflow_note = (f"write >= {pair.min_overflow_len} byte(s) "
                         f"below the start of the source buffer")
    sequential = LayoutPlan(
        source=source, victim=victim, direction=pair.direction,
        kind="sequential",
        steps=(
            PlanStep("alloc", first,
                     "carve a fresh chunk from the top region"),
            PlanStep("alloc", second,
                     "carve the physically following chunk"),
            PlanStep("overflow", source, overflow_note),
        ))
    plans = [sequential]
    src_chunk = accums[source].size.map(request_to_chunk_size)
    vic_chunk = accums[victim].size.map(request_to_chunk_size)
    if _intervals_intersect(src_chunk, vic_chunk):
        # Shared size class: a freed hole of one can be reoccupied by
        # the other, steering the source next to an existing victim.
        plans.append(LayoutPlan(
            source=source, victim=victim, direction=pair.direction,
            kind="hole-reuse",
            steps=(
                PlanStep("alloc", first,
                         "allocate a placeholder in the shared size "
                         "class"),
                PlanStep("alloc", second,
                         "carve the physically following chunk"),
                PlanStep("free", first,
                         "free the placeholder, leaving an exact-size "
                         "hole (LIFO bin)"),
                PlanStep("alloc", first,
                         "the next same-class request reoccupies the "
                         "hole"),
                PlanStep("overflow", source, overflow_note),
            )))
    return plans


def _intervals_intersect(a: Interval, b: Interval) -> bool:
    return ((b.hi is None or a.lo <= b.hi)
            and (a.hi is None or b.lo <= a.hi))
