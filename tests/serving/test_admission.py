"""Bounded admission: the ``max_admitted`` window and its regression.

The knob must bound the admitted-batch high-water mark (the memory
regression this file pins) while leaving every observable outcome
byte-identical to eager admission — the lazy stream replays the exact
deterministic token sequence, attack injection included.
"""

import json
import pickle
from dataclasses import replace

import pytest

from repro.serving.engine import ServingError, ServingOptions, serve
from repro.serving.services import serving_registry
from repro.serving.stream import LazyRequestStream
from repro.workloads.services.nginx import (DOCUMENT_TREE, LEAK_BODY_SIZE,
                                            LEAK_EXTRA)

NGINX = serving_registry()["nginx"]

OPTIONS = ServingOptions(service="nginx", requests=120, batch_size=10,
                         attack_every=9)


def canonical(result):
    report = dict(result.report)
    report.pop("workers")
    report.pop("max_admitted")
    return json.dumps(report, sort_keys=True)


class TestBoundedAdmission:
    def test_peak_admitted_never_exceeds_the_knob(self):
        """The memory regression: a 12-batch run under ``max_admitted=2``
        must never hold more than 2 admitted batches at once."""
        result = serve(replace(OPTIONS, max_admitted=2))
        assert result.peak_admitted is not None
        assert 1 <= result.peak_admitted <= 2

    def test_window_of_one_still_serves_everything(self):
        result = serve(replace(OPTIONS, max_admitted=1))
        assert result.peak_admitted == 1
        assert result.report["served"] >= OPTIONS.requests

    def test_outcomes_identical_to_eager_admission(self):
        eager = serve(OPTIONS)
        assert eager.peak_admitted is None
        for window in (1, 2, 5):
            bounded = serve(replace(OPTIONS, max_admitted=window))
            assert canonical(bounded) == canonical(eager)

    def test_bounded_admission_across_workers(self):
        oracle = serve(replace(OPTIONS, max_admitted=2))
        parallel = serve(replace(OPTIONS, max_admitted=2, workers=2))
        assert canonical(parallel) == canonical(oracle)

    def test_pool_run_reports_no_controller_peak(self):
        """Pool workers window their own copies of the stream, so a
        parallel run has no controller-side high-water mark to report."""
        result = serve(ServingOptions(service="nginx", requests=120,
                                      batch_size=30, max_admitted=2,
                                      workers=2))
        assert result.peak_admitted is None

    def test_mysql_stream_is_boundable_too(self):
        options = ServingOptions(service="mysql", requests=90,
                                 batch_size=30)
        eager = serve(options)
        bounded = serve(replace(options, max_admitted=1))
        assert canonical(bounded) == canonical(eager)

    def test_negative_knob_rejected(self):
        with pytest.raises(ServingError):
            serve(replace(OPTIONS, max_admitted=-1))

    def test_report_records_the_knob(self):
        result = serve(replace(OPTIONS, max_admitted=3))
        assert result.report["max_admitted"] == 3

    def test_bounded_admission_serves_the_engines_own_service(self):
        """The lazy stream draws from the service the engine was given,
        not from the registry entry of the same key."""
        custom = replace(NGINX, stream=single_path_stream, stream_iter=None)
        eager = serve(OPTIONS, service=custom)
        assert eager.report["bytes_sent"] == single_path_bytes(eager)
        bounded = serve(replace(OPTIONS, max_admitted=1), service=custom)
        assert canonical(bounded) == canonical(eager)


def single_path_stream(count):
    """A custom nginx stream: every request fetches the same document."""
    return ["/index.html"] * count


def single_path_bytes(result):
    """Bytes a run of :func:`single_path_stream` must send."""
    leaks = result.report["outcomes"].get("leak", 0)
    return (OPTIONS.requests * DOCUMENT_TREE["/index.html"]
            + leaks * (LEAK_BODY_SIZE + LEAK_EXTRA))


class TestLazyStream:
    def test_tokens_match_eager_injection(self):
        from repro.serving.services import inject_attacks

        eager = inject_attacks(NGINX.stream(40), NGINX.attack_token, 7)
        stream = LazyRequestStream(NGINX, 40, 6, attack_every=7,
                                   max_admitted=2)
        lazy = [token for index in range(stream.n_batches)
                for token in stream.batch(index)]
        assert lazy == eager
        assert len(stream) == len(eager)

    def test_backward_access_replays_deterministically(self):
        stream = LazyRequestStream(NGINX, 40, 6, attack_every=7,
                                   max_admitted=1)
        forward = [stream.batch(index) for index in range(stream.n_batches)]
        assert stream.batch(0) == forward[0]  # evicted -> replay
        assert stream.restarts == 1
        assert stream.batch(3) == forward[3]

    def test_pickle_roundtrip_drops_window_state(self):
        stream = LazyRequestStream(NGINX, 40, 6, attack_every=7,
                                   max_admitted=2)
        stream.batch(2)
        clone = pickle.loads(pickle.dumps(stream))
        assert clone.peak_admitted == 0
        assert clone.batch(2) == stream.batch(2)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            LazyRequestStream(NGINX, 10, 5, max_admitted=0)
