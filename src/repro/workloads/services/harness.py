"""Service throughput measurement (paper §VIII-B2).

Runs a service program natively and under the online defense, computes
throughput as work units per simulated cycle, and reports the overhead —
the quantity the paper measures with Apache Benchmark (Nginx) and
``mysql-stress-test.pl`` (MySQL).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

from ...ccencoding import Strategy
from ...core.pipeline import HeapTherapy
from ...defense.patch_table import PatchTable
from ...patch.model import HeapPatch
from ...program.program import Program
from ...vulntypes import VulnType


@dataclass(frozen=True)
class ThroughputResult:
    """Native-vs-defended throughput for one configuration."""

    label: str
    work_units: int
    native_cycles: float
    defended_cycles: float

    def _require_cycles(self, field: str) -> float:
        cycles = getattr(self, field)
        if cycles == 0:
            raise ValueError(
                f"ThroughputResult({self.label!r}): {field} is 0 — the "
                f"measured run executed no costed work, so throughput "
                f"and overhead are undefined (did the meter run?)")
        return cycles

    @property
    def native_throughput(self) -> float:
        """Work units per million simulated cycles."""
        return self.work_units / self._require_cycles("native_cycles") * 1e6

    @property
    def defended_throughput(self) -> float:
        """Work units per million simulated cycles, defended."""
        return (self.work_units
                / self._require_cycles("defended_cycles") * 1e6)

    @property
    def overhead_pct(self) -> float:
        """Throughput loss in percent (defended vs native)."""
        return (self.defended_cycles
                / self._require_cycles("native_cycles") - 1) * 100


def median_frequency_patches(system: HeapTherapy, *profile_args: Any,
                             count: int = 1,
                             vuln: VulnType = VulnType.OVERFLOW,
                             **profile_kwargs: Any) -> List[HeapPatch]:
    """The Figure 8 methodology: profile a run, rank allocation CCIDs by
    frequency, and hypothesize the median-frequency ones as vulnerable."""
    from ...core.profiling import AllocationProfile

    profiling = system.run_native(*profile_args, **profile_kwargs)
    profile = AllocationProfile()
    profile.ingest(profiling.process)
    return profile.hypothesize_patches(vuln, "median", count)


def measure_throughput(program: Program, label: str, work_units: int,
                       run_args: Tuple[Any, ...],
                       patch_count: int = 0,
                       strategy: Strategy = Strategy.INCREMENTAL,
                       ) -> ThroughputResult:
    """Run ``program`` native and defended; return the comparison.

    ``patch_count`` defaults to 0 — the paper's service measurements
    reflect the deployed defense library (interposition + metadata +
    encoding) rather than any specific installed patch; pass a count to
    additionally enforce median-frequency hypothesized patches.
    """
    system = HeapTherapy(program, strategy=strategy)
    patches = median_frequency_patches(system, *run_args,
                                       count=patch_count)
    native = system.run_native(*run_args)
    defended = system.run_defended(PatchTable(patches), *run_args)
    if defended.blocked:
        raise RuntimeError(f"service run unexpectedly blocked: "
                           f"{defended.fault}")
    return ThroughputResult(
        label=label,
        work_units=work_units,
        native_cycles=native.meter.total,
        defended_cycles=defended.meter.total,
    )

