"""The serving worker's page arena: recycled frames, isolated batches.

Each serving worker keeps one :class:`~repro.machine.pagestore.PageStore`
for its whole life and every batch borrows frames from it.  Only host
frame storage is recycled: every batch starts from its own copy of the
worker's startup image for its table version (its own ``VirtualMemory``,
allocator and process), a recycled frame holds exactly the image's
contents or reads as zero, and the images keep their pages outside the
arena.  So a batch's result must not depend on which batches the arena
served before it, and every batch must hand all its frames back.
"""

import glob
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.ccencoding import Strategy
from repro.core.instrument import instrument
from repro.patch import config as patch_config
from repro.patch.model import HeapPatch
from repro.serving.engine import (
    ServingEngine,
    ServingOptions,
    _WorkerServeState,
)
from repro.serving.services import nginx_body_patch
from repro.vulntypes import VulnType
from repro.workloads.services.nginx import NginxServer


@pytest.fixture(scope="module")
def nginx():
    program = NginxServer()
    codec = instrument(program,
                       strategy=Strategy.from_name("incremental")).codec
    return program, codec


@pytest.fixture(scope="module")
def patch_text(nginx):
    program, codec = nginx
    return patch_config.dumps([nginx_body_patch(program, codec)])


def _without_wall(result):
    return replace(result, wall=0.0)


def assert_batches_isolated(engine):
    """Serve every batch on one state in order, then reversed, then each
    on a fresh state: the results agree and the arena ends every batch
    empty."""
    plan = engine.plan
    indices = list(range(len(plan.batch_versions)))
    assert len(indices) > 2
    state = _WorkerServeState(plan)
    served = {}
    for order in (indices, indices[::-1]):
        for index in order:
            result = _without_wall(state.serve_batch(index))
            assert state.arena.allocated_pages == 0
            assert served.setdefault(index, result) == result
    state.close()
    for index in indices:
        fresh = _WorkerServeState(plan)
        assert _without_wall(fresh.serve_batch(index)) == served[index]
        fresh.close()
    return [served[index] for index in indices]


class TestRecycledArena:
    def test_nginx_guard_faults_mid_round(self, nginx, patch_text):
        program, codec = nginx
        engine = ServingEngine(
            ServingOptions(service="nginx", requests=90, batch_size=30,
                           attack_every=20, patches_text=patch_text),
            program=program, codec=codec)
        results = assert_batches_isolated(engine)
        statuses = {status for result in results
                    for status, _ in result.outcomes}
        assert statuses == {"ok", "blocked"}

    def test_mysql(self):
        engine = ServingEngine(ServingOptions(service="mysql", requests=90,
                                              batch_size=30))
        results = assert_batches_isolated(engine)
        assert all(status == "ok" for result in results
                   for status, _ in result.outcomes)

    @pytest.mark.parametrize("case", ["pool-patch", "swap", "libc"])
    def test_mysql_images(self, case):
        """The image variants: a ``pool_page`` patch gives the image
        guard pages, protections and zero-filled buffers, a swap gives
        the worker two images, and libc builds the pool from its heap."""
        engine = ServingEngine(ServingOptions(service="mysql"))
        graph = engine.program.graph
        ccid = engine.codec.encode_path((
            graph.site("main", "startup", ""),
            graph.site("startup", "malloc", "pool_page")))
        text = patch_config.dumps([HeapPatch(
            "malloc", ccid, VulnType.OVERFLOW | VulnType.UNINIT_READ)])
        options = {"pool-patch": {"patches_text": text},
                   "swap": {"swap_schedule": ((1, text),)},
                   "libc": {"allocator": "libc"}}[case]
        engine = ServingEngine(
            ServingOptions(service="mysql", requests=90, batch_size=30,
                           **options),
            program=engine.program, codec=engine.codec)
        results = assert_batches_isolated(engine)
        assert all(status == "ok" for result in results
                   for status, _ in result.outcomes)
        cycles = dict(results[-1].cycles)
        assert ("defense" in cycles) == (case != "libc")

    def test_libc_allocator(self, nginx, patch_text):
        program, codec = nginx
        engine = ServingEngine(
            ServingOptions(service="nginx", requests=90, batch_size=30,
                           allocator="libc", attack_every=20,
                           patches_text=patch_text),
            program=program, codec=codec)
        assert_batches_isolated(engine)


class TestWorkerTeardown:
    def test_cli_workers_exit_without_buffer_errors(self):
        """Workers close their arenas at exit without a ``BufferError``
        or any other teardown error (which they would print to the
        inherited stderr), and leave nothing in ``/dev/shm``."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--workers", "2",
             "--requests", "1024", "--batch-size", "256"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "Exception ignored" not in proc.stderr
        assert "Traceback" not in proc.stderr
        assert glob.glob("/dev/shm/repro-*") == []
