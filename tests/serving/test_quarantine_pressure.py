"""Quarantine pressure through the serving engine.

A ``USE_AFTER_FREE`` patch on nginx's response body sends every freed
body to the interposer's deferred-free queue.  With a quota far below
one batch's bodies the queue evicts: the oldest quarantined bodies are
released to make room.  That is a documented degradation, not a fault:
a served request's outcome cannot depend on the quota, and the report
stays byte-identical across worker counts.
"""

import json
from dataclasses import replace

import pytest

from repro.ccencoding import Strategy
from repro.core.instrument import instrument
from repro.defense.interpose import DEFAULT_ONLINE_QUOTA
from repro.defense.patch_table import PatchTable
from repro.patch import config as patch_config
from repro.patch.model import HeapPatch
from repro.serving.engine import ServingOptions, serve
from repro.serving.services import nginx_body_patch, serving_registry
from repro.serving.session import ServingSession
from repro.vulntypes import VulnType
from repro.workloads.services.nginx import NginxServer

#: Far below one batch's response bodies (8–16 KiB documents).
SMALL_QUOTA = 32 * 1024


@pytest.fixture(scope="module")
def nginx():
    program = NginxServer()
    codec = instrument(program,
                       strategy=Strategy.from_name("incremental")).codec
    return program, codec


@pytest.fixture(scope="module")
def uaf_patch(nginx):
    program, codec = nginx
    body = nginx_body_patch(program, codec)
    return HeapPatch(body.fun, body.ccid, VulnType.USE_AFTER_FREE)


@pytest.fixture(scope="module")
def options(uaf_patch):
    return ServingOptions(service="nginx", requests=512, batch_size=128,
                          patches_text=patch_config.dumps([uaf_patch]),
                          quarantine_quota=SMALL_QUOTA)


def run(nginx, options):
    return serve(options, program=nginx[0], codec=nginx[1])


@pytest.fixture(scope="module")
def reports(nginx, options):
    return {workers: run(nginx, replace(options, workers=workers)).report
            for workers in (1, 2)}


def test_report_is_independent_of_workers(reports):
    assert (json.dumps({**reports[1], "workers": 2}, sort_keys=True)
            == json.dumps(reports[2], sort_keys=True))


def test_outcomes_equal_the_default_quota_run(nginx, options, reports):
    roomy = run(nginx, replace(options,
                               quarantine_quota=DEFAULT_ONLINE_QUOTA)).report
    for key in ("served", "bytes_sent", "outcomes", "outcomes_digest"):
        assert reports[1][key] == roomy[key]


def test_defense_cycles_are_charged(reports):
    assert reports[1]["cycles"]["defense"] > 0


def session_evictions(nginx, uaf_patch, quota):
    program, codec = nginx
    session = ServingSession(program, codec,
                             table=PatchTable([uaf_patch]),
                             quarantine_quota=quota)
    session.start()
    requests = serving_registry()["nginx"].stream(128)
    try:
        session.serve_batch(0, requests, None, 0)
        return session.heap.quarantine.evicted
    finally:
        session.memory.close()


def test_small_quota_evicts(nginx, uaf_patch):
    assert session_evictions(nginx, uaf_patch, SMALL_QUOTA) > 0
    assert session_evictions(nginx, uaf_patch, DEFAULT_ONLINE_QUOTA) == 0

