"""Campaign runner: seed sharding, shrinking, reproducer files.

A *campaign* evaluates the differential oracle over a contiguous seed
range, optionally sharded across worker processes through
:func:`repro.parallel.fanout.fanout_map`.  Reports come back in seed
order and contain no timing or host-dependent data, so a campaign's JSON
is byte-identical for any ``--jobs`` value — the same determinism
contract as the parallel diagnosis engine.

Failing seeds can be *shrunk*: :func:`minimize_spec` greedily removes
helpers, wrapper levels, and buffer bytes while the oracle still fails,
yielding the smallest program that reproduces the property violation.
The result is dumped as a ``fuzz-repro-<seed>.json`` file that
:func:`load_reproducer` turns back into a spec — committable as a
regression workload (see ``docs/TESTING.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..parallel.fanout import fanout_map
from .generator import (
    BUFFER_SIZES,
    FuzzSpec,
    spec_for_seed,
    spec_from_dict,
    spec_to_dict,
)
from .oracle import CaseReport, evaluate_spec

#: Reproducer file format version.
SCHEMA_VERSION = 1


def run_case(seed: int) -> CaseReport:
    """Evaluate one seed (module-level: picklable for the pool)."""
    return evaluate_spec(spec_for_seed(seed))


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one fuzz campaign."""

    seed: int
    count: int
    jobs: int
    reports: Tuple[CaseReport, ...]
    #: Paths of reproducer files written for failing seeds.
    reproducers: Tuple[str, ...] = ()

    @property
    def failures(self) -> Tuple[CaseReport, ...]:
        """The failing case reports, in seed order."""
        return tuple(report for report in self.reports if not report.ok)

    @property
    def ok(self) -> bool:
        """True when every case passed the oracle."""
        return not self.failures

    def to_json(self) -> Dict[str, Any]:
        """Canonical JSON document (identical for any jobs count)."""
        kinds: Dict[str, int] = {}
        for report in self.reports:
            kinds[report.kind] = kinds.get(report.kind, 0) + 1
        return {
            "schema": SCHEMA_VERSION,
            "seed": self.seed,
            "count": self.count,
            "cases": len(self.reports),
            "kinds": dict(sorted(kinds.items())),
            "failed": len(self.failures),
            "failures": [
                {
                    "seed": report.seed,
                    "name": report.name,
                    "kind": report.kind,
                    "alloc_fun": report.alloc_fun,
                    "failures": list(report.failures),
                }
                for report in self.failures
            ],
            "reproducers": list(self.reproducers),
        }

    def render(self) -> str:
        """Canonical serialized JSON report."""
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def run_campaign(seed: int, count: int, jobs: int = 1,
                 minimize: bool = False,
                 out_dir: Optional[Union[str, Path]] = None,
                 ) -> CampaignResult:
    """Evaluate seeds ``[seed, seed + count)``; report deterministically.

    Args:
        jobs: worker processes (``0`` = host CPU count); any value
            produces byte-identical reports.
        minimize: shrink each failing seed's spec before dumping it.
        out_dir: where to write ``fuzz-repro-<seed>.json`` files for
            failing seeds (no files are written when every seed passes).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    seeds = list(range(seed, seed + count))
    reports = tuple(fanout_map(run_case, seeds, jobs))
    reproducers: List[str] = []
    if out_dir is not None:
        directory = Path(out_dir)
        for report in reports:
            if report.ok:
                continue
            spec = spec_for_seed(report.seed)
            failures = report.failures
            if minimize:
                spec = minimize_spec(spec)
                failures = evaluate_spec(spec).failures
            path = save_reproducer(spec, failures, directory)
            reproducers.append(str(path))
    return CampaignResult(seed=seed, count=count, jobs=jobs,
                          reports=reports,
                          reproducers=tuple(reproducers))


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------

def _consistent_helpers(spec: FuzzSpec) -> FuzzSpec:
    """Drop helpers whose caller no longer exists (transitively)."""
    callers = {"main"}
    callers.update(f"wrapper{level}"
                   for level in range(1, spec.wrapper_depth + 1))
    helpers = []
    for helper in spec.helpers:
        if helper.caller in callers:
            helpers.append(helper)
            callers.add(helper.name)
    return FuzzSpec(spec.seed, spec.kind, spec.alloc_fun,
                    spec.buffer_size, spec.wrapper_depth, tuple(helpers))


def minimize_spec(spec: FuzzSpec,
                  still_fails: Optional[Callable[[FuzzSpec], bool]]
                  = None) -> FuzzSpec:
    """Greedy deterministic shrink while the oracle still fails.

    Three passes, repeated to a fixed point: drop one helper at a time,
    lower the wrapper depth, shrink the buffer size through the
    generator's size table.  ``still_fails`` defaults to "the
    differential oracle reports a failure"; tests inject predicates.
    """
    if still_fails is None:
        def still_fails(candidate: FuzzSpec) -> bool:
            return not evaluate_spec(candidate).ok
    if not still_fails(spec):
        return spec

    changed = True
    while changed:
        changed = False
        # Pass 1: drop helpers, last declared first (sub-helpers go
        # before the helper they hang off, keeping callers consistent).
        for index in reversed(range(len(spec.helpers))):
            helpers = spec.helpers[:index] + spec.helpers[index + 1:]
            candidate = _consistent_helpers(
                FuzzSpec(spec.seed, spec.kind, spec.alloc_fun,
                         spec.buffer_size, spec.wrapper_depth, helpers))
            if still_fails(candidate):
                spec = candidate
                changed = True
        # Pass 2: flatten the wrapper chain.
        while spec.wrapper_depth > 0:
            candidate = _consistent_helpers(
                FuzzSpec(spec.seed, spec.kind, spec.alloc_fun,
                         spec.buffer_size, spec.wrapper_depth - 1,
                         spec.helpers))
            if not still_fails(candidate):
                break
            spec = candidate
            changed = True
        # Pass 3: shrink the buffer through the generator's size table.
        for size in sorted(BUFFER_SIZES):
            if size >= spec.buffer_size:
                break
            candidate = FuzzSpec(spec.seed, spec.kind, spec.alloc_fun,
                                 size, spec.wrapper_depth, spec.helpers)
            if still_fails(candidate):
                spec = candidate
                changed = True
                break
    return spec


# ----------------------------------------------------------------------
# Reproducer files
# ----------------------------------------------------------------------

def save_reproducer(spec: FuzzSpec, failures: Tuple[str, ...],
                    out_dir: Union[str, Path]) -> Path:
    """Write a committable ``fuzz-repro-<seed>.json`` file."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"fuzz-repro-{spec.seed}.json"
    payload = {
        "schema": SCHEMA_VERSION,
        "seed": spec.seed,
        "spec": spec_to_dict(spec),
        "failures": list(failures),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_reproducer(path: Union[str, Path]
                    ) -> Tuple[FuzzSpec, Tuple[str, ...]]:
    """Read a reproducer file back into ``(spec, recorded failures)``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported reproducer schema {schema!r}")
    spec = spec_from_dict(payload["spec"])
    return spec, tuple(payload.get("failures", ()))
