"""Seeded, interleaved end-to-end serving benchmark.

    PYTHONPATH=src python perf/run.py [--workload NAME ...] [--seed N]
        [--seconds 30] [--trace [0|1]] [--smoke] [--out DIR]
        [--calibrate N]

Each workload runs in its own child process (``python -m perf.child``),
so its set-up time and peak RSS are its own; this process never imports
``repro``.  Each child is set up in turn, then the workloads' measured
time is interleaved in slices of about five seconds, round-robin, so
that every workload sees the same host-noise epochs.  Load is one
closed-loop client per child, this process: it sends one fixed-size
round, waits for it to finish, and sends the next.

Times are reported at the reference host speed: just before every
round and set-up the child times a fixed probe kernel
(:class:`perf.child.HostProbe`), and the round's wall time is divided
by the probe's slowdown against its nominal time.  Shared VMs such as
the 2-vCPU Intel Xeon VM the nominal time was measured on have epochs
in which a CPU runs 15-120% slower; the probe slows by nearly the same
factor, so the scaled times stay put (see perf/README.md).

The report prints every metric by name and unit with its sample count;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace`` a separate traced pass follows the untimed one and the JSON
carries the per-layer metrics instead of the end-to-end ones.
``--calibrate N`` runs the whole benchmark ``N`` times and reports each
metric's largest relative deviation between runs.  The exit code is 0
only when every outcome matched its oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: Workloads in interleaving order; see perf/README.md for why each.
WORKLOADS = ("nginx-keepalive", "nginx-close", "nginx-immunize",
             "mysql-pool")
#: ``NginxServer.main`` fixes its own request stream.
UNSEEDED = ("nginx-close",)

#: Fresh set-ups per child; ``setup_s`` is their median.
SETUPS = 9
#: Target length of one interleaving slice, in seconds.
SLICE_SECONDS = 5.0
#: Rounds recorded by the traced pass (after one warm-up round).
TRACED_ROUNDS = 3
#: ``--smoke``: round sizes and measured seconds per workload.
SMOKE_SCALE = 0.125
SMOKE_SECONDS = 2.0

END_TO_END_UNITS = {"rps": "req/s", "setup_s": "s", "rss_mb": "MiB",
                    "cycle_overhead_pct": "%"}


class BenchmarkError(RuntimeError):
    """A child failed or broke the protocol."""


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


class Child:
    """One workload's child process and its line protocol."""

    def __init__(self, workload: str, seed: int, scale: float,
                 out: Path) -> None:
        self.workload = workload
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "perf.child", "--workload", workload,
             "--seed", str(seed), "--scale", repr(scale),
             "--out", str(out)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
            # Its own process group, so kill() also reaches pool workers.
            start_new_session=True)

    def ask(self, **request: Any) -> Dict[str, Any]:
        assert self.process.stdin and self.process.stdout
        try:
            self.process.stdin.write(json.dumps(request) + "\n")
            self.process.stdin.flush()
        except BrokenPipeError:
            pass  # reported below, with the exit code
        line = self.process.stdout.readline()
        if not line:
            raise BenchmarkError(
                f"{self.workload}: child exited with code "
                f"{self.process.wait()} during {request['cmd']!r}")
        return json.loads(line)

    def finish(self) -> None:
        """Close the protocol and wait for a clean exit."""
        assert self.process.stdin
        self.process.stdin.close()
        code = self.process.wait(timeout=60)
        if code:
            raise BenchmarkError(f"{self.workload}: child exited with "
                                 f"code {code}")

    def kill(self) -> None:
        """Stop the child and what is left of its process group (pool
        workers of a child that died), and reap the child."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group is empty: the child exited cleanly
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None and not stream.closed:
                try:
                    stream.close()
                except BrokenPipeError:
                    pass


def run_benchmark(workloads: Sequence[str], seed: int, seconds: float,
                  trace: bool, scale: float, out: Path
                  ) -> Dict[str, Dict[str, Any]]:
    """Run every workload once; the raw per-workload samples.

    Every timed sample is ``(requests, seconds, slowdown)``, with the
    host's slowdown probed by the child just before it.
    """
    out.mkdir(parents=True, exist_ok=True)
    children = {name: Child(name, seed, scale, out) for name in workloads}
    raw: Dict[str, Dict[str, Any]] = {
        name: {"setups": [], "rounds": []} for name in workloads}

    def timed(name: str, kind: str, **request: Any) -> None:
        reply = children[name].ask(**request)
        raw[name][kind].append((reply["requests"], reply["seconds"],
                                reply["slowdown"]))
        raw[name]["last"] = reply

    try:
        for name, child in children.items():
            for _ in range(SETUPS):
                timed(name, "setups", cmd="setup")
            raw[name]["cycles"] = child.ask(cmd="cycles")
        slices = max(1, round(seconds / SLICE_SECONDS))
        for _ in range(slices):
            for name in workloads:
                deadline = time.perf_counter() + seconds / slices
                while True:
                    timed(name, "rounds", cmd="round")
                    if time.perf_counter() >= deadline:
                        break
        for name, child in children.items():
            raw[name]["close"] = raw[name]["last"] = child.ask(cmd="close")
        if trace:
            for name, child in children.items():
                reply = child.ask(cmd="trace", rounds=TRACED_ROUNDS)
                raw[name]["trace"] = raw[name]["last"] = reply
                raw[name]["traced"] = list(zip(
                    reply["requests"], reply["seconds"],
                    reply["slowdown"]))
        for child in children.values():
            child.finish()
    finally:
        for child in children.values():
            child.kill()
    return raw


def summarize(name: str, raw: Dict[str, Any], seed: int,
              expected: Optional[str]) -> Dict[str, Any]:
    """Metrics and correctness of one workload's run."""
    rounds = raw["rounds"]
    rps = [requests * slowdown / seconds
           for requests, seconds, slowdown in rounds]
    round_ms = [seconds * 1000 / slowdown for _, seconds, slowdown in rounds]
    last = raw["last"]
    digests = set(last["digests"])
    problems = []
    if last["failed"]:
        problems.append(f"{last['failed']} of {last['attempted']} "
                        f"requests differ from the oracle")
    if len(digests) != 1:
        problems.append(f"outcome digests differ between rounds: "
                        f"{sorted(digests)}")
    elif expected is not None and digests != {expected}:
        problems.append(f"seed-{seed} digest {digests.pop()} differs "
                        f"from perf/expected.json {expected}")
    metrics = {
        "rps": statistics.median(rps),
        "setup_s": statistics.median(seconds / slowdown for _, seconds,
                                     slowdown in raw["setups"]),
        "rss_mb": raw["close"]["rss_mb"],
        "cycle_overhead_pct": raw["cycles"]["cycle_overhead_pct"],
    }
    layers: Dict[str, float] = {}
    if "trace" in raw:
        layers = dict(raw["trace"]["metrics"])
        traced = statistics.median(requests * slowdown / seconds
                                   for requests, seconds, slowdown
                                   in raw["traced"])
        layers["trace.overhead_pct"] = (metrics["rps"] / traced - 1) * 100
    return {
        "metrics": metrics, "layers": layers, "problems": problems,
        "attempted": last["attempted"], "failed": last["failed"],
        "rounds": len(rounds), "setups": len(raw["setups"]),
        "requests_per_round": rounds[0][0],
        "round_p50_ms": statistics.median(round_ms),
        "round_p90_ms": percentile(round_ms, 0.9),
        "wall_rps": statistics.median(requests / seconds
                                      for requests, seconds, _ in rounds),
        "slowdown": statistics.median(slowdown for _, _, slowdown in rounds),
    }


def render(name: str, summary: Dict[str, Any], seed: int) -> str:
    """The human-readable report of one workload."""
    m = summary["metrics"]
    attempted, failed = summary["attempted"], summary["failed"]
    seed_note = (" (--seed does not reach it: NginxServer.main fixes its "
                 "own request stream)" if name in UNSEEDED else "")
    lines = [
        f"{name}  seed {seed}{seed_note}",
        f"  rps                 {m['rps']:12.1f} req/s  median of "
        f"{summary['rounds']} rounds of {summary['requests_per_round']} "
        f"requests, at the reference host speed",
        f"  setup_s             {m['setup_s']:12.4f} s      median of "
        f"{summary['setups']} set-ups",
        f"  rss_mb              {m['rss_mb']:12.1f} MiB    peak of the "
        f"child and its pool workers",
        f"  cycle_overhead_pct  {m['cycle_overhead_pct']:12.4f} %      "
        f"defended vs native CycleMeter totals, one round",
        f"  fail_frac           {failed / attempted:12.4f}        "
        f"{failed} of {attempted} requests",
        f"  round time          p50 {summary['round_p50_ms']:.1f} ms  "
        f"p90 {summary['round_p90_ms']:.1f} ms  "
        f"(n={summary['rounds']}, not gated)",
        f"  wall-clock rps      {summary['wall_rps']:12.1f} req/s  "
        f"unscaled; median host slowdown {summary['slowdown']:.3f}",
    ]
    for key, value in summary["layers"].items():
        lines.append(f"  {key:26s} {value:14.4f} {layer_unit(key)}")
    lines.extend(f"  PROBLEM: {problem}" for problem in summary["problems"])
    return "\n".join(lines)


def result_line(summaries: Dict[str, Dict[str, Any]],
                trace: bool) -> Dict[str, Any]:
    """The final JSON object.  Metric names are bare for one workload
    and ``<workload>.<metric>`` for several."""
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, summary in summaries.items():
        values = summary["layers"] if trace else summary["metrics"]
        for key, value in values.items():
            unit = layer_unit(key) if trace else END_TO_END_UNITS[key]
            label = key if len(summaries) == 1 else f"{name}.{key}"
            metrics[label] = {"value": value, "unit": unit}
    return {
        "correct": not any(s["problems"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }


def load_expected(seed: int, scale: float) -> Dict[str, str]:
    """Committed outcome digests; they pin seed 0 at full scale."""
    if seed != 0 or scale != 1.0:
        return {}
    return json.loads((ROOT / "perf" / "expected.json").read_text())


def benchmark(workloads: Sequence[str], seed: int, seconds: float,
              trace: bool, scale: float, out: Path
              ) -> Dict[str, Dict[str, Any]]:
    """Run and summarize; prints each workload's report."""
    raw = run_benchmark(workloads, seed, seconds, trace, scale, out)
    expected = load_expected(seed, scale)
    summaries = {}
    for name in workloads:
        summaries[name] = summarize(name, raw[name], seed,
                                    expected.get(name))
        print(render(name, summaries[name], seed), flush=True)
    return summaries


def calibrate(runs: int, workloads: Sequence[str], seed: int,
              seconds: float, scale: float, out: Path) -> bool:
    """Run the whole benchmark ``runs`` times and write each metric's
    largest relative deviation between runs, ``(max - min) / median``,
    to ``calibration.json`` and ``calibration.txt``; True when every
    run was correct."""
    values: Dict[str, Dict[str, List[float]]] = {
        name: {} for name in workloads}
    correct = True
    for index in range(runs):
        print(f"== calibration run {index + 1} of {runs}", flush=True)
        summaries = benchmark(workloads, seed, seconds, True, scale, out)
        for name, summary in summaries.items():
            correct = correct and not summary["problems"]
            for key, value in {**summary["metrics"],
                               **summary["layers"]}.items():
                values[name].setdefault(key, []).append(value)
    deviation = {
        name: {key: ((max(vs) - min(vs)) / statistics.median(vs)
                     if statistics.median(vs) else 0.0)
               for key, vs in metrics.items()}
        for name, metrics in values.items()}
    (out / "calibration.json").write_text(json.dumps(
        {"runs": runs, "seed": seed, "seconds": seconds, "scale": scale,
         "correct": correct, "values": values, "deviation": deviation},
        indent=2, sort_keys=True) + "\n")
    lines = [f"largest relative deviation between {runs} runs "
             f"(seed {seed}, {seconds:g} s per workload), "
             f"(max - min) / median",
             f"  {'':26s} " + "  ".join(f"{name[:8]:>8s}"
                                         for name in workloads)]
    for key in values[workloads[0]]:
        lines.append(f"  {key:26s} " + "  ".join(
            f"{deviation[name][key] * 100:7.2f}%" for name in workloads))
    text = "\n".join(lines) + "\n"
    (out / "calibration.txt").write_text(text)
    print(text, end="")
    return correct


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Seeded, interleaved end-to-end serving benchmark.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable; "
                             "default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add the traced per-layer pass")
    parser.add_argument("--smoke", action="store_true",
                        help=f"rounds at {SMOKE_SCALE:g} size and "
                             f"{SMOKE_SECONDS:g} s per workload")
    parser.add_argument("--out", type=Path, default=ROOT / "perf" / "out",
                        help="results and spans-<workload>.jsonl")
    parser.add_argument("--calibrate", type=int, metavar="N",
                        help="run the whole benchmark N times and report "
                             "the spread of every metric")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workloads = tuple(dict.fromkeys(args.workload or WORKLOADS))
    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds = min(args.seconds, SMOKE_SECONDS) if args.smoke else args.seconds
    try:
        if args.calibrate:
            return 0 if calibrate(args.calibrate, workloads, args.seed,
                                  seconds, scale, args.out) else 1
        summaries = benchmark(workloads, args.seed, seconds,
                              bool(args.trace), scale, args.out)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = result_line(summaries, bool(args.trace))
    (args.out / "result.json").write_text(json.dumps(result, indent=2)
                                          + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
