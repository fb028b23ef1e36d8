"""Worker crash recovery: a SIGKILLed worker never changes the report.

Fault injection is env-gated inside the pool worker
(:func:`repro.serving.engine._maybe_inject_crash`): exactly one worker
SIGKILLs itself before serving a targeted batch (an ``O_EXCL`` flag
file makes the crash once-only), which breaks the whole
``ProcessPoolExecutor``.  The engine must reap the broken pool, refork,
resubmit only the unfinished batches, and still produce a report
byte-identical to the undisturbed ``workers=1`` oracle — batch
outcomes are pure functions of (batch, table version), so reruns are
exact.
"""

import json
import multiprocessing
import time
from dataclasses import replace

import pytest

from repro.serving.engine import (
    MAX_POOL_REBUILDS,
    ServingEngine,
    ServingError,
    ServingOptions,
    _WorkerServeState,
    serve,
)

#: Multi-batch shape with attacks on both sides of the crashed batch.
OPTIONS = ServingOptions(service="nginx", requests=80, batch_size=10,
                         workers=2, attack_every=9)


def canonical(result):
    report = dict(result.report)
    report.pop("workers")
    return json.dumps(report, sort_keys=True)


@pytest.fixture()
def crash_env(monkeypatch, tmp_path):
    """Arm the fault injection for batch 3; yields the flag path."""
    flag = tmp_path / "crash-once"
    monkeypatch.setenv("REPRO_SERVE_CRASH_BATCH", "3")
    monkeypatch.setenv("REPRO_SERVE_CRASH_FLAG", str(flag))
    return flag


class TestCrashRecovery:
    def test_sigkilled_worker_matches_sequential_oracle(self, crash_env):
        oracle = serve(replace(OPTIONS, workers=1))
        crashed = serve(OPTIONS)
        assert crash_env.exists(), "fault injection never fired"
        assert canonical(crashed) == canonical(oracle)

    def test_recovery_reserves_every_batch_exactly_once(self, crash_env):
        result = serve(OPTIONS)
        assert crash_env.exists()
        indices = [batch.index for batch in result.batches]
        assert indices == list(range(len(indices)))

    def test_crash_loop_fails_after_bounded_rebuilds(self, monkeypatch):
        """With no once-only flag, the targeted batch crashes on every
        attempt; the engine must give up after MAX_POOL_REBUILDS
        rebuilds with a ServingError instead of spinning forever."""
        monkeypatch.setenv("REPRO_SERVE_CRASH_BATCH", "0")
        monkeypatch.delenv("REPRO_SERVE_CRASH_FLAG", raising=False)
        with pytest.raises(ServingError) as excinfo:
            serve(OPTIONS)
        assert "giving up" in str(excinfo.value)
        assert str(MAX_POOL_REBUILDS) in str(excinfo.value)


@pytest.fixture()
def crash_queued_env(monkeypatch, tmp_path):
    """Arm the fault injection for batch 1: every batch is submitted at
    once, so at least six of OPTIONS' nine batches are still queued
    behind the crash."""
    flag = tmp_path / "crash-once"
    monkeypatch.setenv("REPRO_SERVE_CRASH_BATCH", "1")
    monkeypatch.setenv("REPRO_SERVE_CRASH_FLAG", str(flag))
    return flag


class TestCrashWhileQueued:
    def test_queued_batches_resubmitted_exactly_once(
            self, crash_queued_env):
        oracle = serve(replace(OPTIONS, workers=1))
        crashed = serve(OPTIONS)
        assert crash_queued_env.exists(), "fault injection never fired"
        assert canonical(crashed) == canonical(oracle)
        indices = [batch.index for batch in crashed.batches]
        assert indices == list(range(crashed.report["batches"]))
        assert len(indices) >= 8


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="workers inherit the patched method by fork")
class TestWorkerException:
    def test_exception_reraised_and_queued_batches_cancelled(
            self, monkeypatch, tmp_path):
        """A worker that raises (rather than dies) fails the serve with
        its own exception; the still-queued batches are cancelled, so
        closing the pool waits only for the batches already running."""
        served = tmp_path / "served"
        original = _WorkerServeState.serve_batch

        def serve_batch(self, index):
            if index == 0:
                raise ValueError("planted worker failure")
            with open(served, "a", encoding="utf-8") as handle:
                handle.write(f"{index}\n")
            time.sleep(0.1)
            return original(self, index)

        monkeypatch.setattr(_WorkerServeState, "serve_batch", serve_batch)
        options = ServingOptions(service="nginx", requests=400,
                                 batch_size=10, workers=2)
        engine = ServingEngine(options)
        try:
            with pytest.raises(ValueError, match="planted worker failure"):
                engine.serve()
        finally:
            start = time.perf_counter()
            engine.close()
            elapsed = time.perf_counter() - start
        n_batches = len(engine.plan.batch_versions)
        ran = served.read_text().split() if served.exists() else []
        assert len(ran) < n_batches // 2
        assert elapsed < 2.0
