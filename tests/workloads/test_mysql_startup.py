"""mysql's run-batched buffer-pool startup equals the per-page loop.

``MySqlServer._startup`` allocates the pool as one ``malloc_run``,
initializes the page headers with one ``exec_block_run`` and
``_with_pool`` releases the pool with one ``free_run``.  The per-page
loop of ``malloc``/``fill``/``free`` it replaced is kept here as the
oracle (:class:`PerPageMySql`); both must produce the same pool
addresses, page headers, allocation events, cycles per category and
peak resident pages, natively and under every defense path the pool can
take, and the same (empty) shadow diagnosis.
"""

import hashlib
import json

import pytest

from repro.allocator.libc import LibcAllocator
from repro.allocator.segregated import SegregatedAllocator
from repro.core import pipeline
from repro.core.pipeline import HeapTherapy
from repro.patch.generator import OfflinePatchGenerator
from repro.patch.model import HeapPatch
from repro.program.process import Process
from repro.vulntypes import VulnType
from repro.workloads.services.mysql import (BUFFER_POOL_PAGES,
                                            POOL_PAGE_SIZE, MySqlServer)

QUERIES = 96

ALLOCATORS = {"libc": LibcAllocator, "segregated": SegregatedAllocator}

#: Defense setups: ``None`` is native; otherwise the ``pool_page``
#: patch mask (``NONE`` = the empty table).
SETUPS = {
    "native": None,
    "empty-table": VulnType.NONE,
    # Structure 2 (overflow only, unaligned malloc).
    "overflow": VulnType.OVERFLOW,
    # Structure 2 with zero-fill: the mask the real diagnosis emits.
    "overflow-uninit": VulnType.OVERFLOW | VulnType.UNINIT_READ,
}


class PerPageMySql(MySqlServer):
    """The oracle: the pool started and torn down one page at a time."""

    def _with_pool(self, p, loop, arg):
        pool, key_cache = p.call("startup", self._startup)
        stats = p.call("query_loop", loop, pool, arg)
        for page in pool:
            p.free(page)
        p.free(key_cache)
        return stats

    def _startup(self, p):
        pool = []
        for _ in range(BUFFER_POOL_PAGES):
            page = p.malloc(POOL_PAGE_SIZE, site="pool_page")
            p.fill(page, 512, 0)  # page header initialization
            pool.append(page)
        key_cache = p.malloc(128 * 1024, site="key_cache")
        p.fill(key_cache, 1024, 0)
        return pool, key_cache


def probed(cls):
    """``cls`` recording its pool and every page header right after
    startup (the query loop dirties headers, teardown frees them)."""

    class Probed(cls):
        def _startup(self, p):
            pool, key_cache = super()._startup(p)
            memory = p.monitor.memory
            self.pool = list(pool)
            self.headers = [memory.peek(page, 512) for page in pool]
            return pool, key_cache

    return Probed


class RecordingProcess(Process):
    """A :class:`Process` that always keeps the full event log."""

    def __init__(self, *args, **kwargs):
        kwargs.update(record_allocations=True)
        super().__init__(*args, **kwargs)


def pool_ccid(allocator):
    """The ``pool_page`` CCID under the deployed codec."""
    run = HeapTherapy(MySqlServer(),
                      allocator_factory=ALLOCATORS[allocator]).run_native(1)
    ccids = {e.ccid for e in run.process.allocations
             if e.size == POOL_PAGE_SIZE}
    assert len(ccids) == 1
    return ccids.pop()


def observe(cls, allocator, setup):
    """One ``main`` run of ``cls`` in ``setup``: every compared
    observable."""
    program = probed(cls)()
    system = HeapTherapy(program, allocator_factory=ALLOCATORS[allocator])
    mask = SETUPS[setup]
    if mask is None:
        run = system.run_native(QUERIES)
    else:
        patches = ([HeapPatch("malloc", pool_ccid(allocator), mask)]
                   if mask else [])
        run = system.run_defended(patches, QUERIES)
        assert not run.blocked
    events = [[e.serial, e.fun, e.ccid, e.address, e.size, list(e.context)]
              for e in run.process.allocations]
    return {
        "result": run.result,
        "pool": program.pool,
        "headers": program.headers,
        "events": hashlib.sha256(json.dumps(events).encode()).hexdigest(),
        "profile": sorted(run.process.alloc_profile.items()),
        "cycles": run.meter.snapshot(),
        "peak_resident_pages": run.allocator.memory.peak_resident_pages,
        "resident_pages": run.allocator.memory.resident_pages,
        "mappings": list(run.allocator.memory.iter_mappings()),
    }


@pytest.fixture(autouse=True)
def recording(monkeypatch):
    monkeypatch.setattr(pipeline, "Process", RecordingProcess)


@pytest.mark.parametrize("allocator", sorted(ALLOCATORS))
@pytest.mark.parametrize("setup", list(SETUPS))
def test_run_startup_matches_per_page_loop(allocator, setup):
    batched = observe(MySqlServer, allocator, setup)
    looped = observe(PerPageMySql, allocator, setup)
    assert batched == looped
    assert len(batched["pool"]) == BUFFER_POOL_PAGES
    assert batched["headers"] == [bytes(512)] * BUFFER_POOL_PAGES


@pytest.mark.parametrize("setup", ["overflow", "overflow-uninit"])
def test_patched_setups_enhance_every_pool_page(setup):
    """The patched setups really defend every pool page, so the
    comparison above covers both defense paths."""
    mask = SETUPS[setup]
    patch = HeapPatch("malloc", pool_ccid("libc"), mask)
    run = HeapTherapy(MySqlServer()).run_defended([patch], QUERIES)
    counts = run.allocator.enhanced_counts
    assert counts[VulnType.OVERFLOW] == BUFFER_POOL_PAGES
    assert counts[VulnType.UNINIT_READ] == (
        BUFFER_POOL_PAGES if mask & VulnType.UNINIT_READ else 0)
    # Each guard is sealed at startup and unsealed at teardown.
    assert run.allocator.memory.mprotect_count == 2 * BUFFER_POOL_PAGES


def test_shadow_diagnosis_matches_per_page_loop():
    codec = HeapTherapy(MySqlServer()).instrumented.codec
    results = [OfflinePatchGenerator(cls(), codec).replay(QUERIES)
               for cls in (MySqlServer, PerPageMySql)]
    batched, looped = results
    assert batched.patches == looped.patches == []
    assert batched.report.warnings == looped.report.warnings == []
    assert batched.crashed is looped.crashed is None
    assert batched.program_result == looped.program_result
    assert batched.meter.snapshot() == looped.meter.snapshot()
