"""nginx's run-batched leak attack equals the per-call heap spray.

``NginxServer._send_leak_response`` grooms the heap with one
``malloc_run`` of ``2 * LEAK_GROOM + 1`` body-sized buffers (the body
in the middle) and releases them with one ``free_run``, body first.
The per-call loop of ``malloc``/``free`` it replaced is kept here as the
oracle (:class:`PerCallSprayNginx`); both must produce the same leak
outcome or fault address, allocation events, cycles per category,
allocation profile, ``mprotect`` count and peak resident pages, on every
allocator the service runs on and under every defense the body's
context can get; the same serving batches across a table swap; and the
same shadow diagnosis.
"""

import hashlib
import json
from dataclasses import replace
from functools import partial

import pytest

from repro.allocator.libc import LibcAllocator
from repro.allocator.segregated import SegregatedAllocator
from repro.core import pipeline
from repro.core.instrument import instrument
from repro.core.pipeline import HeapTherapy
from repro.patch import config as patch_config
from repro.patch.generator import OfflinePatchGenerator
from repro.program.process import Process
from repro.serving.engine import ServingOptions, serve
from repro.serving.services import nginx_body_patch
from repro.serving.session import MAP_CACHE_MAPPINGS
from repro.vulntypes import VulnType
from repro.workloads.services.nginx import (LEAK_BODY_SIZE, LEAK_EXTRA,
                                            LEAK_GROOM, LEAK_REQUEST,
                                            NginxServer, request_stream)

ALLOCATORS = {
    "libc": LibcAllocator,
    "segregated": SegregatedAllocator,
    # What serving deploys: the guarded spray draws its mappings from
    # (and frees them into) the large-mapping cache.
    "segregated-map-cache": partial(SegregatedAllocator,
                                    map_cache=MAP_CACHE_MAPPINGS),
}

OVERFLOW = VulnType.OVERFLOW
UAF = VulnType.USE_AFTER_FREE

#: Defense setups: ``None`` is native; otherwise the ``body_buf`` patch
#: mask (``NONE`` = the empty table).
SETUPS = {
    "native": None,
    "empty-table": VulnType.NONE,
    "overflow": OVERFLOW,
    # The mask the real diagnosis emits for the leak.
    "overflow-uninit": OVERFLOW | VulnType.UNINIT_READ,
    # The spray's frees go through the quarantine.
    "uaf": UAF,
    "overflow-uaf": OVERFLOW | UAF,
}

#: Benign requests served before each attack (they fill the allocator,
#: and its map cache, around the spray).
BENIGN = request_stream(16)


class PerCallSprayNginx(NginxServer):
    """The oracle: the spray allocated and released one call at a time."""

    def _send_leak_response(self, p, path):
        content = self._documents[path]
        groom = [p.malloc(LEAK_BODY_SIZE, site="body_buf")
                 for _ in range(LEAK_GROOM)]
        body = p.malloc(LEAK_BODY_SIZE, site="body_buf")
        groom += [p.malloc(LEAK_BODY_SIZE, site="body_buf")
                  for _ in range(LEAK_GROOM)]
        p.write(body, content[:LEAK_BODY_SIZE])
        p.compute(8800 + LEAK_BODY_SIZE // 16)
        sent = p.syscall_out(body, LEAK_BODY_SIZE + LEAK_EXTRA)
        p.free(body)
        for address in groom:
            p.free(address)
        return len(sent)


def attacked(cls):
    """``cls`` whose ``main`` serves benign rounds and attack rounds in
    turn, through the batched entry point.  The second spray reuses the
    chunks the first one freed, so it lands where their release order
    put them."""

    class Attacked(cls):
        def main(self, p):
            return [self.serve_main(p, requests)["outcomes"]
                    for requests in (BENIGN, [LEAK_REQUEST]) * 2]

    return Attacked


class RecordingProcess(Process):
    """A :class:`Process` that always keeps the full event log."""

    def __init__(self, *args, **kwargs):
        kwargs.update(record_allocations=True, capture_context=True)
        super().__init__(*args, **kwargs)


@pytest.fixture(autouse=True)
def recording(monkeypatch):
    monkeypatch.setattr(pipeline, "Process", RecordingProcess)


def observe(cls, allocator, setup):
    """One attacked run of ``cls`` in ``setup``: every compared
    observable."""
    system = HeapTherapy(attacked(cls)(),
                         allocator_factory=ALLOCATORS[allocator])
    mask = SETUPS[setup]
    if mask is None:
        run = system.run_native()
        fault = None
        memory = run.allocator.memory
    else:
        body = nginx_body_patch(system.program, system.instrumented.codec)
        patches = [replace(body, vuln=mask)] if mask else []
        run = system.run_defended(patches)
        fault = run.fault
        memory = run.allocator.memory
    events = [[e.fun, e.ccid, e.address, e.size]
              for e in run.process.allocations]
    return {
        "result": run.result,
        "fault": fault,
        "events": hashlib.sha256(json.dumps(events).encode()).hexdigest(),
        "event_count": len(events),
        "profile": sorted(run.process.alloc_profile.items()),
        "cycles": run.meter.snapshot(),
        "mprotects": memory.mprotect_count,
        "peak_resident_pages": memory.peak_resident_pages,
    }


@pytest.mark.parametrize("allocator", list(ALLOCATORS))
@pytest.mark.parametrize("setup", list(SETUPS))
def test_run_spray_matches_per_call_spray(allocator, setup):
    batched = observe(NginxServer, allocator, setup)
    looped = observe(PerCallSprayNginx, allocator, setup)
    assert batched == looped
    if SETUPS[setup] is not None and SETUPS[setup] & OVERFLOW:
        # The guard sealed against the body stops the overread.
        assert batched["fault"] is not None and batched["result"] is None
    else:
        assert batched["fault"] is None
        leak = [("leak", LEAK_BODY_SIZE + LEAK_EXTRA)]
        assert batched["result"][1] == batched["result"][3] == leak


def test_guarded_spray_seals_a_guard_per_buffer():
    """Under the overflow patch every spray buffer gets a guard, so the
    comparison above covers the guarded run path; a blocked attack
    faults before any free, leaving all of them sealed."""
    system = HeapTherapy(attacked(NginxServer)())
    body = nginx_body_patch(system.program, system.instrumented.codec)
    run = system.run_defended([body])
    assert run.blocked
    spray = 2 * LEAK_GROOM + 1
    assert sum(1 for e in run.process.allocations
               if e.size == LEAK_BODY_SIZE) == spray
    # Every guarded buffer before the spray was sealed and unsealed;
    # the spray's guards were only sealed.
    guarded = run.allocator.enhanced_counts[OVERFLOW]
    assert run.allocator.memory.mprotect_count == 2 * guarded - spray


@pytest.fixture(scope="module")
def programs():
    """Both servers, each instrumented, with its body patch text."""
    out = {}
    for cls in (NginxServer, PerCallSprayNginx):
        program = cls()
        codec = instrument(program).codec
        out[cls] = (program, codec, patch_config.dumps(
            [nginx_body_patch(program, codec)]))
    return out


@pytest.mark.parametrize("allocator", ["libc", "segregated"])
def test_serving_batches_match_across_a_swap(programs, allocator):
    """Attacks before the swap leak, those after it are blocked, and
    every batch is the same for both sprays."""
    batches = []
    for cls in (NginxServer, PerCallSprayNginx):
        program, codec, text = programs[cls]
        options = ServingOptions(service="nginx", requests=240,
                                 batch_size=60, attack_every=40,
                                 allocator=allocator,
                                 swap_schedule=((2, text),))
        result = serve(options, program=program, codec=codec)
        batches.append([replace(batch, wall=0.0)
                        for batch in result.batches])
    assert batches[0] == batches[1]
    statuses = [status for batch in batches[0]
                for status, _ in batch.outcomes if status != "ok"]
    assert statuses == ["leak"] * 2 + ["blocked"] * 4


def test_shadow_diagnosis_matches_per_call_spray():
    """The leak request among benign requests, replayed under shadow
    memory as the fleet's diagnosis does: the same patches."""
    codec = HeapTherapy(NginxServer()).instrumented.codec
    requests = BENIGN[:8] + [LEAK_REQUEST] + BENIGN[8:]
    results = []
    for cls in (NginxServer, PerCallSprayNginx):
        class ServeMain(cls):
            def main(self, p, requests):
                return self.serve_main(p, requests)

        results.append(OfflinePatchGenerator(ServeMain(), codec)
                       .replay(requests))
    batched, looped = results
    [patch] = batched.patches
    assert patch.vuln == OVERFLOW | VulnType.UNINIT_READ
    assert batched.patches == looped.patches
    assert batched.crashed is looped.crashed is None
    assert batched.program_result == looped.program_result
    assert batched.meter.snapshot() == looped.meter.snapshot()
