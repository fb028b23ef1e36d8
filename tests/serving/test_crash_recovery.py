"""Worker crash recovery: a SIGKILLed worker never changes the report.

Fault injection patches ``_WorkerServeState.serve_batch``, which
fork-started pool workers inherit: exactly one worker SIGKILLs itself
before serving a targeted batch (an ``O_EXCL`` flag file makes the
crash once-only), which breaks the whole ``ProcessPoolExecutor``.  The
engine must reap the broken pool, refork, resubmit only the unfinished
batches, and still produce a report byte-identical to the undisturbed
``workers=1`` oracle — batch outcomes are pure functions of (batch,
table version), so reruns are exact.
"""

import json
import multiprocessing
import os
import signal
import time
from dataclasses import replace

import pytest

from repro.patch import config as patch_config
from repro.patch.model import HeapPatch
from repro.serving.engine import (
    MAX_POOL_REBUILDS,
    ServingEngine,
    ServingError,
    ServingOptions,
    _WorkerServeState,
    serve,
)
from repro.vulntypes import VulnType

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers inherit the patched methods by fork")

#: Multi-batch shape with attacks on both sides of the crashed batch.
OPTIONS = ServingOptions(service="nginx", requests=80, batch_size=10,
                         workers=2, attack_every=9)


def canonical(result):
    report = dict(result.report)
    report.pop("workers")
    return json.dumps(report, sort_keys=True)


def arm_crash(monkeypatch, target, flag=None, on_crash=None):
    """Make a pool worker SIGKILL itself before serving batch
    ``target``: once, when ``flag`` names a file for the crashing
    worker to create with ``O_EXCL``, else on every attempt.
    ``on_crash(index)`` runs in the worker just before it dies.  The
    test process itself, which serves the ``workers=1`` oracle, never
    crashes."""
    parent = os.getpid()
    serve_batch = _WorkerServeState.serve_batch

    def crashing_serve_batch(self, index):
        if index == target and os.getpid() != parent:
            try:
                if flag is not None:
                    os.close(os.open(
                        flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass  # the once-only crash already happened
            else:
                if on_crash is not None:
                    on_crash(index)
                os.kill(os.getpid(), signal.SIGKILL)
        return serve_batch(self, index)

    monkeypatch.setattr(_WorkerServeState, "serve_batch",
                        crashing_serve_batch)


@pytest.fixture()
def crash_env(monkeypatch, tmp_path):
    """Arm the fault injection for batch 3; yields the flag path."""
    flag = tmp_path / "crash-once"
    arm_crash(monkeypatch, 3, flag)
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
        arm_crash(monkeypatch, 0)
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
    arm_crash(monkeypatch, 1, flag)
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


def mysql_pool_patch_text():
    """mysql's ``pool_page`` patch (guard pages and zero-fill on every
    pool page) under the engine's deployed codec."""
    with ServingEngine(ServingOptions(service="mysql")) as engine:
        graph = engine.program.graph
        ccid = engine.codec.encode_path((
            graph.site("main", "startup", ""),
            graph.site("startup", "malloc", "pool_page")))
    return patch_config.dumps([HeapPatch(
        "malloc", ccid, VulnType.OVERFLOW | VulnType.UNINIT_READ)])


class TestCrashAcrossSwap:
    def test_rebuilt_pool_recaptures_the_new_version(self, monkeypatch,
                                                     tmp_path):
        """A worker dies on the first batch of a swapped-in table
        version, before any image of it exists in the rebuilt pool: the
        new workers capture that version's image themselves, and the
        report equals the ``workers=1`` oracle's byte for byte."""
        swap_batch = 3
        options = ServingOptions(
            service="mysql", requests=240, batch_size=30, workers=2,
            swap_schedule=((swap_batch, mysql_pool_patch_text()),))
        oracle = serve(replace(options, workers=1))
        assert oracle.report["table_versions"][swap_batch - 1:] == [0] + [
            1] * (oracle.report["batches"] - swap_batch)

        log = tmp_path / "log"
        flag = tmp_path / "crash-once"

        def note(line):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()} {line}\n")

        image = _WorkerServeState.image

        def logged_image(self, version):
            if version not in self._images:
                note(f"capture {version}")
            return image(self, version)

        monkeypatch.setattr(_WorkerServeState, "image", logged_image)
        arm_crash(monkeypatch, swap_batch, flag,
                  on_crash=lambda index: note(f"crash {index}"))
        crashed = serve(options)
        assert flag.exists(), "fault injection never fired"
        assert canonical(crashed) == canonical(oracle)

        lines = [line.split() for line in log.read_text().splitlines()]
        crash_at = lines.index(next(line for line in lines
                                    if line[1] == "crash"))
        before = {line[0] for line in lines[:crash_at + 1]}
        rebuilt_captures = {(pid, int(version))
                            for pid, event, version in lines[crash_at + 1:]
                            if event == "capture" and pid not in before}
        assert any(version == 1 for _, version in rebuilt_captures)
