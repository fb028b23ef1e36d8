"""One workload's benchmark process (``python -m perf.child``).

``perf/run.py`` starts one child per workload, so set-up time and peak
RSS belong to that workload alone, and drives it over stdin/stdout with
one JSON object per line each way:

* ``{"cmd": "setup"}``: build the system from scratch and serve its
  first round; reply with the seconds that took.
* ``{"cmd": "cycles"}``: the last round's ``cycle_overhead_pct``.
* ``{"cmd": "round"}``: serve one round; reply with its seconds.
* ``{"cmd": "close"}``: stop the engine's pool; reply with peak RSS.
* ``{"cmd": "trace", "rounds": r}``: the traced pass (see
  :func:`traced_pass`); reply with the per-layer metrics.

Every timed reply carries the host's ``slowdown`` measured by
:class:`HostProbe` just before it; every reply carries the running
``attempted`` and ``failed`` request counts and the outcome digests
seen so far.  An untimed ``gc.collect()`` runs before every timed
round.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perf.trace import Span, Tracer, analyze, calibrate, write_spans
from perf.workloads import WORKLOADS, Checked, Workload


class HostProbe:
    """Times a fixed interpreter-bound kernel: how fast the CPUs run now.

    The 2-vCPU Intel Xeon VM that ``NOMINAL_S`` was measured on has
    epochs, seconds to minutes long, in which a CPU runs 15-120% slower,
    independently on each of its two CPUs.  Of the kernels tried
    (integer arithmetic, random lookups in a large dict, and this one:
    method calls and a small dict), this one's slowdown tracked the
    workloads' most closely.  It runs in the workload's own process
    just before each timed round, on the CPU the round will run on or,
    when the round also runs in pool workers, on every CPU in turn.
    Pool workers take batches as they drain, so their CPUs' speeds add
    up: the slowdown is then the harmonic mean over the CPUs.
    """

    #: The kernel's time on a quiet host: a 2-vCPU Intel Xeon VM at
    #: 2.0 GHz, Python 3.11.
    NOMINAL_S = 0.0005

    def __init__(self, cpus: Sequence[int] = ()) -> None:
        #: CPUs to probe in turn; empty: the one this process is on.
        self.cpus = tuple(cpus)

    def slowdown(self) -> float:
        """The CPUs' current slowdown against the nominal speed."""
        if not self.cpus:
            return self._seconds() / self.NOMINAL_S
        home = os.sched_getaffinity(0)
        try:
            times = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(self._seconds())
        finally:
            os.sched_setaffinity(0, home)
        return len(times) / sum(1 / t for t in times) / self.NOMINAL_S

    @staticmethod
    def _seconds() -> float:
        """The fastest of three timed runs of the kernel, after 10 ms of
        untimed runs: a CPU that was idle runs the first milliseconds
        slowly."""
        deadline = time.perf_counter() + 0.010
        while time.perf_counter() < deadline:
            _probe_kernel()
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            _probe_kernel()
            best = min(best, time.perf_counter() - start)
        return best


class _Counter:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, value: int) -> int:
        self.total += value
        return self.total & 1023


def _probe_kernel() -> int:
    counter = _Counter()
    table: Dict[int, int] = {}
    mixed = 0
    for i in range(3000):
        mixed += counter.add(i)
        table[i & 63] = mixed
        mixed ^= len(table)
    return mixed


@dataclass
class TracedPass:
    """The result of :func:`traced_pass`."""

    metrics: Dict[str, float]
    windows: List[Tuple[float, float]]
    #: The probe's slowdown before each recorded round (1.0 unprobed).
    slowdowns: List[float]
    checks: List[Checked]
    entries: List[Tuple[str, str]]
    processes: List[Tuple[int, List[Span]]]


def traced_pass(workload: Workload, spool: Path, rounds: int,
                probe: Optional[HostProbe] = None) -> TracedPass:
    """Serve ``rounds`` rounds with every layer wrapped.

    The system is rebuilt after the tracer is installed, so every
    instance binds the wrapped methods, and one warm-up round (which
    forks the engine's pool) runs before the recorded ones.  Closing the
    workload afterwards ends the pool workers, which flushes their
    spans into ``spool``.
    """
    wrapper_cost = calibrate()
    shutil.rmtree(spool, ignore_errors=True)
    tracer = Tracer(spool)
    windows: List[Tuple[float, float]] = []
    slowdowns: List[float] = []
    checks: List[Checked] = []
    with tracer:
        try:
            workload.build()
            for index in range(rounds + 1):
                slowdown = probe.slowdown() if probe is not None else 1.0
                gc.collect()
                start = time.perf_counter()
                raw = workload.serve()
                end = time.perf_counter()
                checks.append(workload.check(raw))
                if index:
                    windows.append((start, end))
                    slowdowns.append(slowdown)
                else:
                    tracer.clear()  # the warm-up's spans
        finally:
            workload.close()
    processes = tracer.collect()
    shutil.rmtree(spool, ignore_errors=True)
    metrics = analyze(tracer.entries, processes, windows, workload.workers,
                      wrapper_cost)
    return TracedPass(metrics, windows, slowdowns, checks, tracer.entries,
                      processes)


def peak_rss_mb() -> float:
    """Peak RSS of this process and its reaped children, in MiB."""
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024


class Child:
    """Runs ``run.py``'s commands against one workload."""

    def __init__(self, workload: Workload, out: Path,
                 probe: HostProbe) -> None:
        self.workload = workload
        self.out = out
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.digests: List[str] = []
        #: The raw result of the last round served.
        self.last: Any = None

    def _record(self, checked: Checked) -> None:
        self.attempted += checked.requests
        self.failed += checked.failed
        if checked.digest not in self.digests:
            self.digests.append(checked.digest)

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        command = request["cmd"]
        if command == "setup":
            self.workload.close()
            reply = self.timed_round(self.workload.build)
        elif command == "round":
            reply = self.timed_round()
        elif command == "cycles":
            reply = {"cycle_overhead_pct":
                     self.workload.cycle_overhead_pct(self.last)}
        elif command == "close":
            self.workload.close()
            reply = {"rss_mb": peak_rss_mb()}
        elif command == "trace":
            reply = self.trace(int(request["rounds"]))
        else:
            raise ValueError(f"unknown command {command!r}")
        reply.update(attempted=self.attempted, failed=self.failed,
                     digests=self.digests)
        return reply

    def timed_round(self, before: Optional[Callable[[], None]] = None
                    ) -> Dict[str, Any]:
        """Serve one round, timing ``before()`` (the set-up) with it."""
        slowdown = self.probe.slowdown()
        gc.collect()
        start = time.perf_counter()
        if before is not None:
            before()
        self.last = self.workload.serve()
        seconds = time.perf_counter() - start
        checked = self.workload.check(self.last)
        self._record(checked)
        return {"seconds": seconds, "requests": checked.requests,
                "slowdown": slowdown}

    def trace(self, rounds: int) -> Dict[str, Any]:
        spool = self.out / f"spool-{os.getpid()}"
        traced = traced_pass(self.workload, spool, rounds, self.probe)
        for checked in traced.checks:
            self._record(checked)
        write_spans(self.out / f"spans-{self.workload.name}.jsonl",
                    traced.entries, traced.processes, traced.windows)
        # Times at the reference host speed, like the untraced rounds'.
        slowdown = sum(traced.slowdowns) / len(traced.slowdowns)
        metrics = {key: value / slowdown if key.endswith("_ms") else value
                   for key, value in traced.metrics.items()}
        return {"metrics": metrics,
                "seconds": [end - start for start, end in traced.windows],
                "requests": [checked.requests
                             for checked in traced.checks[1:]],
                "slowdown": traced.slowdowns}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    # The protocol owns the original stdout; anything else printed to
    # fd 1 (by this process or its pool workers) goes to stderr.
    protocol = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    probe = HostProbe(sorted(os.sched_getaffinity(0))
                      if workload.workers > 1 else ())
    child = Child(workload, args.out, probe)
    try:
        for line in sys.stdin:
            reply = child.handle(json.loads(line))
            protocol.write(json.dumps(reply) + "\n")
            protocol.flush()
    finally:
        child.workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
