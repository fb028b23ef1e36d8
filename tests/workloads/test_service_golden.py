"""Golden pin of the nginx and mysql request bodies.

Every observable of both services' entry points is pinned here, so a
change to how a request body is written cannot move behaviour
unnoticed:

* ``main`` under ``run_native`` and ``run_defended`` (libc allocator,
  256 requests): the result, the per-category cycles, the allocation
  profile, and a SHA-256 of the ``(fun, ccid, address, size, context)``
  tuple of every :class:`~repro.program.process.AllocationEvent`;
* ``serve_main`` through a ``workers=1`` serving engine: every
  :class:`~repro.serving.session.BatchResult` field except ``wall``
  (nginx with planted leaks and the body patch swapped in at batch 1,
  and mysql).

The values are literals on purpose.  When one moves, the change that
moved it must say why, next to the value.
"""

import hashlib
import json

import pytest

from repro.core import pipeline
from repro.core.pipeline import HeapTherapy
from repro.defense.patch_table import PatchTable
from repro.patch import config as patch_config
from repro.program.process import Process
from repro.serving.engine import ServingEngine, ServingOptions
from repro.serving.services import nginx_body_patch
from repro.workloads.services.mysql import MySqlServer
from repro.workloads.services.nginx import (DOCUMENT_TREE, NginxServer,
                                            request_stream)

REQUESTS = 256


def sha256(value):
    return hashlib.sha256(json.dumps(
        value, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


class RecordingProcess(Process):
    """A :class:`Process` that always keeps the full event log."""

    def __init__(self, *args, **kwargs):
        kwargs.update(record_allocations=True, capture_context=True)
        super().__init__(*args, **kwargs)


def run_main(program_cls, mode, monkeypatch):
    """One ``main`` run of 256 requests: the system, the run and its
    pin."""
    monkeypatch.setattr(pipeline, "Process", RecordingProcess)
    system = HeapTherapy(program_cls())
    if mode == "native":
        run = system.run_native(REQUESTS)
    else:
        run = system.run_defended(PatchTable.empty(), REQUESTS)
        assert not run.blocked
    events = [[e.fun, e.ccid, e.address, e.size, list(e.context)]
              for e in run.process.allocations]
    pin = {
        "result": run.result,
        "cycles": dict(sorted(run.meter.by_category.items())),
        "profile": sorted([fun, ccid, count] for (fun, ccid), count
                          in run.process.alloc_profile.items()),
        "events": sha256(events),
    }
    return system, run, pin


def serve_batches(service, program=None, codec=None, **changes):
    """``serve_main`` through a ``workers=1`` engine: the engine and the
    pinned fields of every batch."""
    options = ServingOptions(service=service, workers=1,
                             requests=REQUESTS, batch_size=128, **changes)
    engine = ServingEngine(options, program=program, codec=codec)
    result = engine.serve()
    batches = [{
        "index": batch.index,
        "outcomes": sha256(batch.outcomes),
        "served": batch.served,
        "bytes_sent": batch.bytes_sent,
        "cycles": dict(batch.cycles),
        "profile": [[fun, ccid, count]
                    for (fun, ccid), count in batch.profile],
        "table_version": batch.table_version,
    } for batch in result.batches]
    return engine, result, batches


def nginx_patched_serve():
    """nginx with a leak every 64 requests and the body patch swapped in
    at batch 1: the pinned fields of every batch."""
    program = NginxServer()
    base = ServingEngine(ServingOptions(service="nginx"), program=program)
    text = patch_config.dumps([nginx_body_patch(program, base.codec)])
    return serve_batches("nginx", program=program, codec=base.codec,
                         attack_every=64, swap_schedule=((1, text),))[2]


#: The services' CCIDs under the incremental strategy, by call site.
CONN_CTX = 13647215125184110592
HEADER_BUF = 10905525725756348110
URI_BUF = 7958955049054603978
BODY_BUF = 11409396526365357622
ERROR_PAGE = 614480483733483466
POOL_PAGE = 3993609408047990222
KEY_CACHE = 4447918754603515867
SORT_BUF = 2092789425003139053

NGINX_MAIN_PROFILE = [["malloc", ERROR_PAGE, 8], ["malloc", URI_BUF, 256],
                      ["malloc", HEADER_BUF, 256], ["malloc", BODY_BUF, 248],
                      ["malloc", CONN_CTX, 256]]
MYSQL_MAIN_PROFILE = [["malloc", SORT_BUF, 11], ["malloc", POOL_PAGE, 64],
                      ["malloc", KEY_CACHE, 1]]

GOLDEN_MAIN = {
    ("nginx", "native"): {
        "result": {"served": 256, "bytes_sent": 1736960},
        # base was 7046205: parse_uri writes ``path + NUL`` (one store)
        # instead of copying the path out of the header buffer.
        "cycles": {"base": 7044471, "encoding": 3328},
        "profile": NGINX_MAIN_PROFILE,
        "events": "f788fa9b8c5c532ddd0384c7c32b038b"
                  "5902ec1378108d107224b667e7808c70",
    },
    ("nginx", "defended"): {
        "result": {"served": 256, "bytes_sent": 1736960},
        # base was 7046205: parse_uri's copy became a write (as above).
        "cycles": {"base": 7044471, "encoding": 3328, "interpose": 122880,
                   "lookup": 9216, "metadata": 133120},
        "profile": NGINX_MAIN_PROFILE,
        "events": "cca311806ffb1654037dcb7bed672920"
                  "20b4a49f03edd8688c0fee5cc79243ec",
    },
    ("mysql", "native"): {
        "result": {"rows": 256, "sorts": 11},
        "cycles": {"base": 534436, "encoding": 203},
        "profile": MYSQL_MAIN_PROFILE,
        "events": "2670bdaeba9b361ef4877e0e8c1ed5ea"
                  "30537dd84b325422538dc8a66df5037c",
    },
    ("mysql", "defended"): {
        "result": {"rows": 256, "sorts": 11},
        "cycles": {"base": 534436, "encoding": 203, "interpose": 9120,
                   "lookup": 684, "metadata": 9880},
        "profile": MYSQL_MAIN_PROFILE,
        "events": "c604af82246d3d24f769858a3354379b"
                  "766996473df5d0e3b8e8c155e4270227",
    },
}

GOLDEN_SERVE = {
    "nginx": [
        {"index": 0,
         "outcomes": "000e4fb120b50388a26c96b38a6e39d1"
                     "c53b3274a61f5f734778a8d4bc725b7b",
         "served": 128, "bytes_sent": 969336,
         # base was 3442957: -7 per leak request (1 leak), whose parse_uri
         # also writes ``path + NUL`` now instead of copying it.
         "cycles": {"base": 3442950, "encoding": 169, "interpose": 69360,
                    "lookup": 5202, "metadata": 75140},
         "profile": [["malloc", ERROR_PAGE, 2], ["malloc", URI_BUF, 127],
                     ["malloc", HEADER_BUF, 127], ["malloc", BODY_BUF, 194],
                     ["malloc", CONN_CTX, 128]],
         "table_version": 0},
        {"index": 1,
         "outcomes": "6022df2331dccc01aaa630cbfafc0f2f"
                     "4178e48f03e3ff2715af5df9dc01583b",
         "served": 128, "bytes_sent": 751104,
         # base was 3403276: -7 per leak request (2 leaks), whose parse_uri
         # also writes ``path + NUL`` now instead of copying it.
         "cycles": {"base": 3403262, "defense": 1134000, "encoding": 195,
                    "interpose": 69120, "lookup": 5832, "metadata": 74880},
         "profile": [["malloc", ERROR_PAGE, 6], ["malloc", URI_BUF, 128],
                     ["malloc", HEADER_BUF, 128], ["malloc", BODY_BUF, 258],
                     ["malloc", CONN_CTX, 128]],
         "table_version": 1},
        {"index": 2,
         "outcomes": "34c2789d951adbbc3dbdad297df5d0f1"
                     "7ced3b087e02e39b8204c48e3318c08d",
         "served": 4, "bytes_sent": 20736,
         # base was 112727: -7 per leak request (1 leak), whose parse_uri
         # also writes ``path + NUL`` now instead of copying it.
         "cycles": {"base": 112720, "defense": 225000, "encoding": 52,
                    "interpose": 5760, "lookup": 756, "metadata": 6240},
         "profile": [["malloc", URI_BUF, 4], ["malloc", HEADER_BUF, 4],
                     ["malloc", BODY_BUF, 72], ["malloc", CONN_CTX, 4]],
         "table_version": 1},
    ],
    "mysql": [
        {"index": 0,
         "outcomes": "a224028c862f281de5515fc6ad1fd227"
                     "1c08d1a975aff933e94071f6da55849b",
         "served": 128, "bytes_sent": 128,
         "cycles": {"base": 248704, "encoding": 203, "interpose": 8160,
                    "lookup": 612, "metadata": 8840},
         "profile": [["malloc", SORT_BUF, 3], ["malloc", POOL_PAGE, 64],
                     ["malloc", KEY_CACHE, 1]],
         "table_version": 0},
        {"index": 1,
         "outcomes": "a224028c862f281de5515fc6ad1fd227"
                     "1c08d1a975aff933e94071f6da55849b",
         "served": 128, "bytes_sent": 128,
         "cycles": {"base": 296914, "encoding": 203, "interpose": 8760,
                    "lookup": 657, "metadata": 9490},
         "profile": [["malloc", SORT_BUF, 8], ["malloc", POOL_PAGE, 64],
                     ["malloc", KEY_CACHE, 1]],
         "table_version": 0},
    ],
}


@pytest.mark.parametrize("mode", ["native", "defended"])
@pytest.mark.parametrize("service,program_cls",
                         [("nginx", NginxServer), ("mysql", MySqlServer)])
def test_main_pinned(service, program_cls, mode, monkeypatch):
    _, _, pin = run_main(program_cls, mode, monkeypatch)
    assert pin == GOLDEN_MAIN[(service, mode)]


def test_nginx_serve_main_pinned():
    assert nginx_patched_serve() == GOLDEN_SERVE["nginx"]


def test_mysql_serve_main_pinned():
    _, _, batches = serve_batches("mysql")
    assert batches == GOLDEN_SERVE["mysql"]


class TestBodyPatchCcid:
    """``nginx_body_patch`` encodes the CCID that every response-body
    allocation carries, whichever entry point serves the request."""

    def test_every_main_body_allocation(self, monkeypatch):
        system, run, _ = run_main(NginxServer, "native", monkeypatch)
        patch = nginx_body_patch(system.program, system.instrumented.codec)
        site = system.program.graph.site("send_response", "malloc",
                                         "body_buf").site_id
        ccids = [event.ccid for event in run.process.allocations
                 if event.context[-1] == site]
        assert len(ccids) == sum(path in DOCUMENT_TREE
                                 for path in request_stream(REQUESTS))
        assert set(ccids) == {patch.ccid}

    def test_every_served_body_allocation(self):
        engine, result, _ = serve_batches("nginx")
        patch = nginx_body_patch(engine.program, engine.codec)
        paths = request_stream(REQUESTS)
        for batch in result.batches:
            start = batch.index * engine.options.batch_size
            documents = sum(path in DOCUMENT_TREE for path in
                            paths[start:start + engine.options.batch_size])
            assert dict(batch.profile)[("malloc", patch.ccid)] == documents
