"""Serving-engine correctness: worker equivalence, swaps, validation.

The engine's central promise (see :mod:`repro.serving.engine`) is that
its report is a pure function of the admitted plan: a ``workers=N`` run
is byte-identical to the ``workers=1`` sequential oracle modulo the
``workers`` field.  These tests hold it to that across services, attack
configurations and mid-run copy-on-write table swaps, and check the
per-worker calling-context encoding agrees with the static codec.
"""

import os
from dataclasses import replace

import pytest

from repro.ccencoding import Strategy
from repro.core.instrument import instrument
from repro.parallel.fanout import resolve_jobs, usable_cpus
from repro.patch import config as patch_config
from repro.program.callgraph import CallGraph
from repro.program.program import Program
from repro.serving.engine import (
    ServingEngine,
    ServingError,
    ServingOptions,
    default_workers,
    serve,
)
from repro.serving.services import nginx_body_patch, serving_registry
from repro.serving.session import ServingSession
from repro.workloads.vulnerable.heartbleed import HeartbleedService
from repro.workloads.services.nginx import (DOCUMENT_TREE, LEAK_BODY_SIZE,
                                            LEAK_EXTRA, NginxServer)

#: Small but multi-batch run shape: 120 benign requests in batches of
#: 30; ``attack_every=40`` plants 3 leak attempts (one in batch 1, one
#: in batch 2, one in the final partial batch).
REQUESTS = 120
BATCH = 30
ATTACK_EVERY = 40


@pytest.fixture(scope="module")
def nginx():
    """One instrumented nginx program shared by every engine here."""
    program = NginxServer()
    codec = instrument(program,
                       strategy=Strategy.from_name("incremental")).codec
    return program, codec


@pytest.fixture(scope="module")
def patch_text(nginx):
    program, codec = nginx
    return patch_config.dumps([nginx_body_patch(program, codec)])


def run(options, nginx=None):
    kwargs = {}
    if nginx is not None:
        kwargs = {"program": nginx[0], "codec": nginx[1]}
    return serve(options, **kwargs)


def reports_identical_modulo_workers(options, nginx, counts=(1, 2)):
    reports = []
    for workers in counts:
        result = run(replace(options, workers=workers), nginx)
        report = dict(result.report)
        assert report.pop("workers") == workers
        reports.append(report)
    for other in reports[1:]:
        assert other == reports[0]
    return reports[0]


class TestWorkerEquivalence:
    def test_nginx_plain_run(self, nginx):
        options = ServingOptions(service="nginx", requests=REQUESTS,
                                 batch_size=BATCH)
        report = reports_identical_modulo_workers(options, nginx,
                                                  (1, 2, 3, 4))
        assert report["outcomes"] == {"ok": REQUESTS}
        assert report["served"] == REQUESTS
        assert report["batches"] == 4

    def test_nginx_attack_unpatched_leaks(self, nginx):
        options = ServingOptions(service="nginx", requests=REQUESTS,
                                 batch_size=BATCH,
                                 attack_every=ATTACK_EVERY)
        report = reports_identical_modulo_workers(options, nginx)
        assert report["outcomes"] == {"leak": 3, "ok": REQUESTS}

    def test_nginx_attack_patched_blocks(self, nginx, patch_text):
        options = ServingOptions(service="nginx", requests=REQUESTS,
                                 batch_size=BATCH,
                                 attack_every=ATTACK_EVERY,
                                 patches_text=patch_text)
        report = reports_identical_modulo_workers(options, nginx)
        assert report["outcomes"] == {"blocked": 3, "ok": REQUESTS}
        # Served work and bytes on the wire match the oracle too (the
        # blocked attacks still count their aborted request).
        assert report["served"] == REQUESTS + 3
        assert report["bytes_sent"] > 0

    def test_mysql_run(self):
        options = ServingOptions(service="mysql", requests=90,
                                 batch_size=30)
        report = reports_identical_modulo_workers(options, None)
        assert set(report["outcomes"]) == {"ok"}

    def test_native_run_leaks_without_defense(self, nginx):
        options = ServingOptions(service="nginx", requests=REQUESTS,
                                 batch_size=BATCH, defended=False,
                                 attack_every=ATTACK_EVERY)
        report = reports_identical_modulo_workers(options, nginx)
        assert report["outcomes"]["leak"] == 3

    def test_libc_allocator_equivalent_outcomes(self, nginx, patch_text):
        """Allocator independence: the defense blocks on libc too, and
        the worker-equivalence property is allocator-agnostic."""
        options = ServingOptions(service="nginx", requests=REQUESTS,
                                 batch_size=BATCH, allocator="libc",
                                 attack_every=ATTACK_EVERY,
                                 patches_text=patch_text)
        report = reports_identical_modulo_workers(options, nginx)
        assert report["outcomes"] == {"blocked": 3, "ok": REQUESTS}


class TestCallingContextEquivalence:
    def test_profile_contains_statically_encoded_ccid(self, nginx):
        """The runtime per-worker V register reaches the same CCID the
        codec computes statically for the response-body allocation —
        and every worker count reports the identical profile."""
        program, codec = nginx
        expected = nginx_body_patch(program, codec).ccid
        options = ServingOptions(service="nginx", requests=60,
                                 batch_size=20)
        profiles = []
        for workers in (1, 2):
            result = run(replace(options, workers=workers), nginx)
            profiles.append(result.report["profile"])
        assert profiles[0] == profiles[1]
        ccids = {(fun, ccid) for fun, ccid, _ in profiles[0]}
        assert ("malloc", expected) in ccids


class TestCopyOnWriteSwap:
    def test_swap_lands_at_batch_boundary(self, nginx, patch_text):
        """A table swap scheduled at batch 2 leaves earlier attacks
        leaking and later ones blocked — and the stamped versions show
        exactly one boundary, never a mixed batch."""
        options = ServingOptions(service="nginx", requests=REQUESTS,
                                 batch_size=BATCH,
                                 attack_every=ATTACK_EVERY,
                                 swap_schedule=((2, patch_text),))
        report = reports_identical_modulo_workers(options, nginx, (1, 2, 4))
        assert report["table_versions"] == [0, 0, 1, 1, 1]
        # Attacks in batches 0-1 ran under the empty table (leak); the
        # ones at and after the swap boundary hit the guard (blocked).
        assert report["outcomes"]["leak"] == 1
        assert report["outcomes"]["blocked"] == 2
        assert report["outcomes"]["ok"] == REQUESTS

    def test_swap_versions_resolvable_on_engine_handle(self, nginx,
                                                       patch_text):
        options = ServingOptions(service="nginx", requests=60,
                                 batch_size=20,
                                 swap_schedule=((1, patch_text),))
        with ServingEngine(options, program=nginx[0],
                           codec=nginx[1]) as engine:
            result = engine.serve()
            assert result.report["table_versions"] == [0, 1, 1]
            assert [e.version for e in engine.handle.history] == [0, 1]
            assert engine.handle.resolve(1).config_text \
                == engine.handle.entry.config_text


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ServingError, match="workers"):
            ServingEngine(ServingOptions(workers=0))

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ServingError, match="batch_size"):
            ServingEngine(ServingOptions(batch_size=0))

    def test_unknown_service_rejected(self):
        with pytest.raises(ServingError, match="unknown service"):
            ServingEngine(ServingOptions(service="apache"))

    def test_swap_beyond_run_rejected(self, nginx, patch_text):
        options = ServingOptions(service="nginx", requests=40,
                                 batch_size=20,
                                 swap_schedule=((9, patch_text),))
        with pytest.raises(ServingError, match="beyond"):
            ServingEngine(options, program=nginx[0], codec=nginx[1])

    def test_two_swaps_at_one_batch_rejected(self, nginx, patch_text):
        """Two swaps at one index would silently keep only the last."""
        options = ServingOptions(service="nginx", requests=40,
                                 batch_size=10,
                                 swap_schedule=((1, patch_text), (1, "")))
        with pytest.raises(ServingError, match="two swaps at batch index 1"):
            ServingEngine(options, program=nginx[0], codec=nginx[1])

    def test_negative_swap_index_rejected(self, nginx, patch_text):
        options = ServingOptions(service="nginx", requests=40,
                                 batch_size=10,
                                 swap_schedule=((-1, patch_text),))
        with pytest.raises(ServingError, match="negative batch index: -1"):
            ServingEngine(options, program=nginx[0], codec=nginx[1])

    @pytest.mark.parametrize("field,value", [("requests", -5),
                                             ("attack_every", -3)])
    def test_negative_counts_rejected(self, field, value):
        """A negative count is a usage error, not a silently empty run
        or an attack-free one."""
        options = replace(ServingOptions(requests=12, batch_size=4),
                          **{field: value})
        with pytest.raises(ServingError, match=field):
            ServingEngine(options)

    def test_attack_on_service_without_attack_path(self):
        with pytest.raises(ServingError, match="no attack path"):
            ServingEngine(ServingOptions(service="mysql",
                                         attack_every=10))

    def test_registry_lists_both_services(self):
        assert set(serving_registry()) == {"nginx", "mysql"}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_program_without_serving_entry_rejected(self, workers):
        """A program with no serving round is a usage error raised when
        the engine is built, not an ``AttributeError`` from a worker."""
        service = replace(serving_registry()["nginx"],
                          program_factory=HeartbleedService)
        with pytest.raises(ServingError, match="no serving entry"):
            with ServingEngine(ServingOptions(workers=workers, requests=8,
                                              batch_size=4),
                               service=service) as engine:
                engine.serve()


class TestAdmission:
    def test_engine_admits_from_its_own_service(self):
        """The engine draws requests from the ``stream`` of the service
        it was given, not from the registry entry of the same key."""
        options = ServingOptions(service="nginx", requests=120,
                                 batch_size=10, attack_every=9)
        custom = replace(serving_registry()["nginx"],
                         stream=lambda count: ["/index.html"] * count)
        result = serve(options, service=custom)
        leaks = result.report["outcomes"].get("leak", 0)
        assert leaks == options.requests // options.attack_every
        assert result.report["bytes_sent"] == (
            options.requests * DOCUMENT_TREE["/index.html"]
            + leaks * (LEAK_BODY_SIZE + LEAK_EXTRA))


class TestCpuAffinity:
    """CPU counts honour the affinity mask (``taskset``, cpusets), not
    the host's CPU count, and the pool never forks past it."""

    @pytest.fixture()
    def one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)

    def test_defaults_count_usable_cpus(self, one_cpu):
        assert usable_cpus() == 1
        assert default_workers() == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(3) == 3

    def test_host_count_without_affinity_support(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cpus() == 6

    def test_oversubscribed_engine_forks_one_process(self, one_cpu,
                                                     nginx):
        options = ServingOptions(service="nginx", requests=REQUESTS,
                                 batch_size=BATCH, workers=4,
                                 attack_every=ATTACK_EVERY)
        with ServingEngine(options, program=nginx[0],
                           codec=nginx[1]) as engine:
            result = engine.serve()
            assert engine._executor._max_workers == 1
            assert len(engine._executor._processes) == 1
        oracle = run(replace(options, workers=1), nginx)
        report = dict(result.report)
        assert report.pop("workers") == 4
        oracle.report.pop("workers")
        assert report == oracle.report


class _StartupFaults(Program):
    """A service whose second serving startup faults on an unmapped
    load; every round it serves marks each request ``ok``."""

    name = "startup-faults"

    def __init__(self):
        super().__init__()
        self.startups = 0

    def build_graph(self):
        graph = CallGraph()
        graph.add_call_site("main", "malloc", "buf")
        return graph

    def main(self, p):
        return 0

    def serve_startup(self, p):
        self.startups += 1
        if self.startups == 2:
            p.read(0, 8)
        return None

    def serve_round(self, p, started, requests):
        return {"outcomes": [("ok", 1)] * len(requests),
                "served": len(requests), "bytes_sent": len(requests)}


class TestRoundStartup:
    def test_startup_fault_blocks_its_round_and_leaves_main(self):
        """Every round after the first starts the session again; a fault
        in that startup is the round's ``blocked`` outcome, leaves the
        entry function, and the next round starts afresh."""
        program = _StartupFaults()
        codec = instrument(program,
                           strategy=Strategy.from_name("incremental")).codec
        session = ServingSession(program, codec, defended=False)
        session.start()
        outcomes, served, bytes_sent = session.serve_rounds(
            [["a", "b"], ["c"], ["d"]])
        assert outcomes == [("ok", 1), ("ok", 1), ("blocked", 0), ("ok", 1)]
        assert (served, bytes_sent) == (4, 3)
        assert program.startups == 3
        assert session.process.depth == 0
        assert not session.started
        assert session.memory.fault_count == 1
