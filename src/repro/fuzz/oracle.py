"""The three-way differential oracle (tentpole property checks).

For one :class:`~repro.fuzz.generator.FuzzSpec` the oracle executes the
generated program — attack input and benign twin — under three
configurations and cross-checks every observation:

1. **undefended** — :class:`~repro.allocator.libc.LibcAllocator`, the
   ground truth: the planted bug must actually fire (corrupt, leak, or
   fault) and the benign twin must compute its expected result;
2. **defended, empty patch table** — the transparency property: same
   completion status, same fault class, byte-identical response and
   facts, the same ``(fun, size, ccid)`` allocation sequence, and
   allocation addresses shifted only by metadata (16-byte multiples);
3. **diagnose → patch → re-run** — the efficacy property: the offline
   replay of the attack must emit at least one patch covering the
   planted vulnerability type, the benign twin's replay must emit *zero*
   patches, the patched re-run must neutralize the attack according to
   its type, and the benign twin must keep working under those patches.

Everything observed is reduced to deterministic, picklable values so a
campaign sharded over N worker processes reports byte-identically to a
serial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..allocator.libc import LibcAllocator
from ..core.instrument import InstrumentedProgram, instrument
from ..defense.interpose import DefendedAllocator
from ..defense.metadata import METADATA_SIZE
from ..defense.patch_table import PatchTable
from ..machine.errors import MachineError
from ..patch.generator import OfflinePatchGenerator
from ..patch.model import HeapPatch
from ..program.cost import CycleMeter
from ..program.process import Process
from ..vulntypes import VulnType
from .generator import (
    VICTIM_MAGIC,
    FuzzSpec,
    GeneratedProgram,
    build_program,
)


@dataclass(frozen=True)
class Observation:
    """Deterministic summary of one execution."""

    #: Fault class name (``"SegmentationFault"``, ``"DoubleFree"``, ...)
    #: or ``None`` when the run completed.
    fault: Optional[str]
    response: bytes
    #: The RunOutcome facts, as a sorted item tuple (hashable/picklable).
    facts: Tuple[Tuple[str, Any], ...]
    #: ``(fun, size, ccid)`` per allocation, in program order.
    events: Tuple[Tuple[str, int, int], ...]
    #: User address per allocation, in program order.
    addresses: Tuple[int, ...]

    @property
    def completed(self) -> bool:
        """True when the run finished without a machine fault."""
        return self.fault is None


@dataclass(frozen=True)
class CaseReport:
    """Verdict of the oracle on one generated case."""

    seed: int
    name: str
    kind: str
    alloc_fun: str
    ok: bool
    #: Human-readable property violations, empty when ``ok``.
    failures: Tuple[str, ...]
    #: Rendered patch lines the attack diagnosis produced.
    patches: Tuple[str, ...]
    #: Patch count of the benign twin's diagnosis (must be 0).
    benign_patches: int


def _observe(program: GeneratedProgram,
             instrumented: InstrumentedProgram,
             table: Optional[PatchTable],
             attack: bool) -> Tuple[Observation, Optional[Any]]:
    """Run once — undefended when ``table`` is None — and summarize."""
    meter = CycleMeter()
    runtime = instrumented.runtime(meter)
    underlying = LibcAllocator()
    heap = (underlying if table is None
            else DefendedAllocator(underlying, table,
                                   context_source=runtime, meter=meter))
    process = Process(program.graph, heap=heap, context_source=runtime,
                      meter=meter, record_allocations=True)
    fault: Optional[str] = None
    outcome = None
    try:
        outcome = process.run(program, attack)
    except MachineError as exc:
        fault = type(exc).__name__
    response = outcome.response if outcome is not None else b""
    facts = (tuple(sorted(outcome.facts.items()))
             if outcome is not None else ())
    events = tuple((event.fun, event.size, event.ccid)
                   for event in process.allocations)
    addresses = tuple(event.address for event in process.allocations)
    return (Observation(fault, response, facts, events, addresses),
            outcome)


def _compare(label: str, native: Observation, defended: Observation,
             failures: list) -> None:
    """The transparency property between two observations."""
    if native.fault != defended.fault:
        failures.append(
            f"{label}: fault diverged (native={native.fault}, "
            f"defended={defended.fault})")
    if native.response != defended.response:
        failures.append(f"{label}: response diverged")
    if native.facts != defended.facts:
        failures.append(
            f"{label}: facts diverged (native={native.facts}, "
            f"defended={defended.facts})")
    if native.events != defended.events:
        failures.append(
            f"{label}: allocation sequence diverged "
            f"(native={native.events}, defended={defended.events})")
    elif any((d - n) % METADATA_SIZE
             for n, d in zip(native.addresses, defended.addresses)):
        failures.append(
            f"{label}: allocation addresses shifted by a non-metadata "
            f"amount")


def evaluate_spec(spec: FuzzSpec) -> CaseReport:
    """Run the full differential oracle for one spec."""
    program = build_program(spec)
    instrumented = instrument(program)
    failures: list = []

    # 1. Ground truth: the planted bug fires natively, the twin works.
    native_attack, attack_outcome = _observe(program, instrumented,
                                             None, True)
    native_benign, benign_outcome = _observe(program, instrumented,
                                             None, False)
    if spec.kind == "double-free":
        if native_attack.fault not in ("DoubleFree", "InvalidFree"):
            failures.append(
                f"planted double free did not fault natively "
                f"(fault={native_attack.fault})")
    else:
        if not native_attack.completed:
            failures.append(
                f"native attack run faulted unexpectedly "
                f"({native_attack.fault})")
        elif not program.attack_succeeded(attack_outcome):
            failures.append("planted bug did not fire natively")
    if not native_benign.completed:
        failures.append(
            f"native benign run faulted ({native_benign.fault})")
    elif not program.benign_works(benign_outcome):
        failures.append("benign twin broken natively")

    # 2. Transparency: empty patch table changes nothing observable.
    empty = PatchTable.empty()
    defended_attack, _ = _observe(program, instrumented, empty, True)
    defended_benign, _ = _observe(program, instrumented, empty, False)
    _compare("transparency/attack", native_attack, defended_attack,
             failures)
    _compare("transparency/benign", native_benign, defended_benign,
             failures)

    # 3. Efficacy: diagnose, patch, re-run.
    generator = OfflinePatchGenerator(program, instrumented.codec)
    diagnosis = generator.replay(True)
    combined = VulnType.NONE
    for patch in diagnosis.patches:
        combined |= patch.vuln
    if not diagnosis.patches:
        failures.append("attack replay produced no patches")
    elif not combined & spec.expected_vuln:
        failures.append(
            f"diagnosis missed the planted type: expected "
            f"{spec.expected_vuln.describe()}, got {combined.describe()}")

    benign_diagnosis = generator.replay(False)
    if benign_diagnosis.patches:
        failures.append(
            f"benign twin produced {len(benign_diagnosis.patches)} "
            f"patches (expected 0)")
    if benign_diagnosis.crashed is not None:
        failures.append(
            f"benign replay crashed ({benign_diagnosis.crashed})")

    if diagnosis.patches:
        table = PatchTable(diagnosis.patches)
        patched_attack, patched_outcome = _observe(
            program, instrumented, table, True)
        _check_neutralized(spec, program, patched_attack,
                           patched_outcome, failures)
        patched_benign, patched_benign_outcome = _observe(
            program, instrumented, table, False)
        if not patched_benign.completed:
            failures.append(
                f"benign twin blocked under attack patches "
                f"({patched_benign.fault})")
        elif not program.benign_works(patched_benign_outcome):
            failures.append("benign twin broken under attack patches")

    return CaseReport(
        seed=spec.seed,
        name=spec.name,
        kind=spec.kind,
        alloc_fun=spec.alloc_fun,
        ok=not failures,
        failures=tuple(failures),
        patches=tuple(patch.render() for patch in diagnosis.patches),
        benign_patches=len(benign_diagnosis.patches),
    )


def _check_neutralized(spec: FuzzSpec, program: GeneratedProgram,
                       observation: Observation,
                       outcome: Optional[Any],
                       failures: list) -> None:
    """Per-type neutralization: what "the patch worked" means."""
    if observation.fault not in (None, "SegmentationFault"):
        failures.append(
            f"patched run died on {observation.fault} instead of "
            f"completing or being blocked by a guard page")
        return
    effective = outcome if observation.completed else None
    if program.attack_succeeded(effective):
        failures.append("attack still succeeded under its patch")
        return
    kind = spec.kind
    facts: Dict[str, Any] = dict(observation.facts)
    if kind in ("use-after-free", "double-free", "uninit-read"):
        # These defenses neutralize silently; the program must complete.
        if not observation.completed:
            failures.append(
                f"{kind} patch should absorb the attack, not block "
                f"the run ({observation.fault})")
            return
    if kind == "use-after-free":
        if facts.get("observed") != VICTIM_MAGIC:
            failures.append(
                "deferred free did not preserve the freed buffer "
                f"(observed={facts.get('observed')!r})")
    elif kind == "double-free":
        if facts.get("magic") != VICTIM_MAGIC:
            failures.append("double-free patch corrupted the buffer")
    elif kind == "uninit-read":
        expected = b"I" * 8 + b"\x00" * (spec.buffer_size - 8)
        if observation.response != expected:
            failures.append(
                "uninit patch did not zero-fill the leaked tail")
    elif observation.completed:
        # Overflow/underflow may be stopped silently (the guard layout
        # moved the victim out of reach) or by a fault; if the run
        # completed and reports the victim marker, it must be intact
        # (overflow-read cases observe the leak, not the marker).
        if facts.get("victim_magic", VICTIM_MAGIC) != VICTIM_MAGIC:
            failures.append(
                "overflow patch left the victim buffer corrupted")


def patches_of(report: CaseReport) -> Tuple[HeapPatch, ...]:
    """Parse a report's rendered patch lines back into patches."""
    from ..patch.config import HEADER, loads
    return tuple(loads("\n".join((HEADER,) + report.patches)))
