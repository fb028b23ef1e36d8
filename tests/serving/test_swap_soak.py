"""Swap-while-serving soak: repeated hot-swaps under sustained load.

Every admitted batch must resolve to exactly one published
``TableVersion`` (no batch ever straddles a swap), versions are
monotone in admission order, and outcomes are consistent per version:
attacks admitted under a patched table fault into the guard page, while
attacks under an unpatched table leak — across multiple swaps in one
run, and byte-identically for any worker count.
"""

import json
from dataclasses import replace

import pytest

from repro.ccencoding import Strategy
from repro.core.instrument import instrument
from repro.patch import config as patch_config
from repro.patch.model import HeapPatch
from repro.serving.engine import ServingEngine, ServingOptions, serve
from repro.serving.services import nginx_body_patch
from repro.vulntypes import VulnType
from repro.workloads.services.nginx import NginxServer

#: Sustained-load shape: 180 benign requests in batches of 10 with an
#: attack after every 9 benign — two dozen batches, attacks throughout.
REQUESTS = 180
BATCH = 10
ATTACK_EVERY = 9


@pytest.fixture(scope="module")
def soak_schedule():
    """Three swaps mid-run: patch → widened patch → widened again.

    Each swap's table strictly contains the previous (the registry's
    grow-only lattice), so every version has a distinct canonical text
    and the handle publishes a strictly increasing version chain.
    """
    program = NginxServer()
    codec = instrument(program,
                       strategy=Strategy.from_name("incremental")).codec
    base = nginx_body_patch(program, codec)
    widened = HeapPatch(base.fun, base.ccid,
                        base.vuln | VulnType.USE_AFTER_FREE)
    extra = HeapPatch(base.fun, base.ccid,
                      widened.vuln | VulnType.UNINIT_READ)
    return (
        (5, patch_config.dumps([base])),
        (11, patch_config.dumps([widened])),
        (17, patch_config.dumps([extra])),
    )


@pytest.fixture(scope="module")
def soak(soak_schedule):
    options = ServingOptions(service="nginx", requests=REQUESTS,
                             batch_size=BATCH,
                             attack_every=ATTACK_EVERY,
                             swap_schedule=soak_schedule)
    return serve(options), options


class TestSoak:
    def test_every_batch_has_exactly_one_published_version(self, soak):
        result, options = soak
        engine = ServingEngine(options)
        try:
            published = {version for version, _ in engine.plan.tables}
        finally:
            engine.close()
        versions = [batch.table_version for batch in result.batches]
        assert set(versions) <= published
        assert len(set(versions)) == 1 + len(options.swap_schedule)

    def test_versions_monotone_in_admission_order(self, soak):
        result, _ = soak
        versions = [batch.table_version for batch in result.batches]
        assert versions == sorted(versions)

    def test_swaps_land_exactly_at_scheduled_batches(self, soak):
        result, options = soak
        versions = [batch.table_version for batch in result.batches]
        boundaries = [index for index in range(1, len(versions))
                      if versions[index] != versions[index - 1]]
        assert boundaries == [index for index, _
                              in options.swap_schedule]

    def test_outcomes_consistent_per_version(self, soak):
        """Unpatched batches leak; every patched version blocks —
        the patch's OVERFLOW bit survives each widening swap."""
        result, _ = soak
        first_patched = min(batch.table_version
                            for batch in result.batches
                            if batch.table_version > 0)
        for batch in result.batches:
            statuses = {status for status, _ in batch.outcomes}
            if batch.table_version == 0:
                assert "blocked" not in statuses
            else:
                assert "leak" not in statuses
        blocked = sum(1 for batch in result.batches
                      for status, _ in batch.outcomes
                      if status == "blocked"
                      and batch.table_version >= first_patched)
        leaked = sum(1 for batch in result.batches
                     for status, _ in batch.outcomes
                     if status == "leak")
        assert leaked > 0 and blocked > 0
        assert leaked + blocked == REQUESTS // ATTACK_EVERY

    def test_soak_byte_identical_across_workers(self, soak):
        result, options = soak
        reports = {}
        for workers in (1, 3):
            run = serve(replace(options, workers=workers))
            report = dict(run.report)
            assert report.pop("workers") == workers
            reports[workers] = json.dumps(report, sort_keys=True)
        baseline = dict(result.report)
        baseline.pop("workers")
        assert reports[1] == reports[3] == json.dumps(baseline,
                                                      sort_keys=True)
