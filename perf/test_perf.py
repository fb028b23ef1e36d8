"""Self-test of the benchmark: ``PYTHONPATH=src python -m pytest perf -q``.

Checks the parts of the benchmark its numbers rest on: every workload
serves a round its oracle accepts, the oracle notices a wrong outcome,
the tracer leaves the classes as it found them, spans nest, self times
fit inside the round, and traced call counts repeat exactly.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from perf.child import traced_pass
from perf.run import SMOKE_SCALE
from perf.trace import LAYERS, Tracer
from perf.workloads import WORKLOADS, NginxClose


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_serves_one_smoke_round(name):
    workload = WORKLOADS[name](0, SMOKE_SCALE)
    workload.build()
    try:
        checked = workload.check(workload.serve())
    finally:
        workload.close()
    assert checked.requests > 0
    assert checked.failed == 0


def _served_immunize_round_with(pick, outcome):
    """One smoke round of nginx-immunize with the outcome at
    ``pick(expected)`` replaced; returns the oracle's failure count."""
    workload = WORKLOADS["nginx-immunize"](0, SMOKE_SCALE)
    workload.build()
    raw = workload.serve()
    flat = [o for batch in raw.batches for o in batch.outcomes]
    flat[pick(workload.expected)] = outcome
    size = workload.batch_size
    raw.batches = [replace(batch,
                           outcomes=tuple(flat[i * size:(i + 1) * size]))
                   for i, batch in enumerate(raw.batches)]
    return workload.check(raw).failed


def test_oracle_flags_a_wrong_byte_count():
    assert _served_immunize_round_with(lambda expected: 0, ("ok", 0)) == 1


def test_oracle_flags_a_leak_after_the_swap():
    def first_blocked(expected):
        return expected.index(("blocked", 0))

    assert _served_immunize_round_with(first_blocked, ("leak", 4216)) == 1


def test_oracle_flags_a_tampered_close_result():
    workload = NginxClose(0, SMOKE_SCALE)
    workload.build()
    raw = workload.serve()
    assert workload.check(raw).failed == 0
    raw.result["bytes_sent"] += 1
    assert workload.check(raw).failed == workload.requests


def test_uninstall_restores_every_wrapped_class_attribute(tmp_path):
    before = {(cls, name): cls.__dict__[name]
              for targets in LAYERS.values()
              for cls, names in targets for name in names}
    tracer = Tracer(tmp_path).install()
    try:
        assert all(cls.__dict__[name] is not original
                   for (cls, name), original in before.items())
    finally:
        tracer.uninstall()
    assert all(cls.__dict__[name] is original
               for (cls, name), original in before.items())


def test_spans_nest_and_self_times_fit_in_the_round(tmp_path):
    traced = traced_pass(WORKLOADS["nginx-immunize"](0, SMOKE_SCALE),
                         tmp_path, rounds=2)
    spans = [span for _, spans in traced.processes for span in spans]
    assert spans
    for _, process_spans in traced.processes:
        for _, start, end, parent, _ in process_spans:
            assert start <= end
            if parent >= 0:
                _, parent_start, parent_end, _, _ = process_spans[parent]
                assert parent_start <= start and end <= parent_end
    metrics = traced.metrics
    wall_ms = 1000 * sum(end - start for start, end in traced.windows
                         ) / len(traced.windows)
    accounted_ms = metrics["serving.wait_ms"] + sum(
        value for key, value in metrics.items() if key.endswith("self_ms"))
    assert 0 < accounted_ms <= wall_ms


def test_layer_call_counts_repeat_exactly_across_traced_runs(tmp_path):
    counts = []
    for run in range(2):
        traced = traced_pass(WORKLOADS["nginx-keepalive"](0, SMOKE_SCALE),
                             tmp_path / str(run), rounds=1)
        # Both pool workers flushed their spans on exit.
        assert len(traced.processes) == 3
        counts.append({key: value for key, value in traced.metrics.items()
                       if key.endswith(("calls", "batches"))})
    assert counts[0] == counts[1]
    assert counts[0]["machine.calls"] > 0
