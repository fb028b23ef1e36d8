"""Snapshot-started sessions equal sessions that start themselves.

A serving worker runs the service's startup once per table version,
freezes the started session as that version's image, and serves every
batch from a fork of it (:meth:`_WorkerServeState.serve_batch`).  The
oracle is a fresh session that serves every round of the batch with its
own startup (``ServingSession.start`` before each round).  Both must
return the same :class:`BatchResult` (``wall`` aside) and leave every
layer in the same state: memory contents and protections, fault and
residency counters, allocator and interposer stats, the quarantine and
the encoding runtime's counters.  Every batch is forked twice, in
forward and in reversed order, so a fork that shares mutable state
with its image (or a batch that leaks into the next) fails.
"""

import random
from dataclasses import replace

import pytest

from repro.defense.interpose import DefendedAllocator
from repro.defense.patch_table import PatchTable
from repro.machine.memory import VirtualMemory
from repro.patch import config as patch_config
from repro.patch.model import HeapPatch
from repro.serving.engine import (
    ServingEngine,
    ServingOptions,
    _WorkerServeState,
)
from repro.program.context import NullContextSource
from repro.program.cost import CycleMeter
from repro.serving.services import nginx_body_patch
from repro.serving.session import make_allocator
from repro.vulntypes import VulnType

#: Tables: the empty one, the service's patch from batch 0, and the
#: patch swapped in at batch 2 (two images).
TABLES = ("empty", "patched", "swap")

#: The patch mask: guard pages, protections and zero-filled buffers.
MASK = VulnType.OVERFLOW | VulnType.UNINIT_READ


def patch_text(engine):
    """The service's patch under the engine's deployed codec: mysql's
    ``pool_page`` buffers, or nginx's response body."""
    program, codec = engine.program, engine.codec
    if engine.options.service == "mysql":
        graph = program.graph
        ccid = codec.encode_path((graph.site("main", "startup", ""),
                                  graph.site("startup", "malloc",
                                             "pool_page")))
        patch = HeapPatch("malloc", ccid, MASK)
    else:
        patch = replace(nginx_body_patch(program, codec), vuln=MASK)
    return patch_config.dumps([patch])


def make_engine(service, allocator, defended, table):
    options = ServingOptions(
        service=service, requests=90, batch_size=30, allocator=allocator,
        defended=defended, attack_every=20 if service == "nginx" else 0)
    engine = ServingEngine(options)
    if table == "empty":
        return engine
    text = patch_text(engine)
    changes = ({"patches_text": text} if table == "patched"
               else {"swap_schedule": ((2, text),)})
    return ServingEngine(replace(options, **changes),
                         program=engine.program, codec=engine.codec)


def layer_state(session):
    """Every layer's observable state after a batch."""
    memory = session.memory
    heap = session.heap
    defended = isinstance(heap, DefendedAllocator)
    underlying = heap.underlying if defended else heap
    runtime = session.runtime
    state = {
        "pages": {pno: bytes(frame)
                  for pno, frame in memory._frames.items()},
        "mappings": list(memory.iter_mappings()),
        "brk": memory.brk,
        "fault_count": memory.fault_count,
        "mprotect_count": memory.mprotect_count,
        "peak_resident_pages": memory.peak_resident_pages,
        "allocator": underlying.stats.snapshot(),
        "runtime": (runtime.updates_executed, runtime.sites_crossed,
                    runtime.value),
        "stack": session.process.depth,
    }
    if defended:
        quarantine = heap.quarantine
        state["interposer"] = (heap.stats.snapshot(),
                               dict(heap.enhanced_counts))
        state["quarantine"] = ([(block.address, block.size)
                                for block in quarantine.blocks()],
                               quarantine.held_bytes, quarantine.pushed,
                               quarantine.evicted)
    return state


def serve(state, session, index):
    """Serve batch ``index`` on ``session``; its result without the
    wall stamp, and the layer state before the memory is closed."""
    plan = state.plan
    try:
        result = session.serve_batch(index, plan.batch(index),
                                     plan.attack_token,
                                     plan.batch_versions[index])
        return replace(result, wall=0.0), layer_state(session)
    finally:
        session.memory.close()


@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize("defended", [True, False],
                         ids=["defended", "native"])
@pytest.mark.parametrize("allocator", ["segregated", "libc"])
@pytest.mark.parametrize("service", ["mysql", "nginx"])
def test_forked_batches_equal_fresh_starts(service, allocator, defended,
                                           table):
    engine = make_engine(service, allocator, defended, table)
    state = _WorkerServeState(engine.plan)
    versions = engine.plan.batch_versions
    indices = list(range(len(versions)))
    try:
        fresh = {index: serve(state, state.session(versions[index]), index)
                 for index in indices}
        assert state.arena.allocated_pages == 0
        for order in (indices, indices[::-1]):
            for index in order:
                version = versions[index]
                forked = serve(state, state.session(
                    version, state.image(version)), index)
                assert forked == fresh[index]
                assert state.arena.allocated_pages == 0
        assert sorted(state._images) == sorted(set(versions))
    finally:
        state.close()
    if table == "swap":
        assert len(set(versions)) == 2
    if defended and table != "empty" and service == "mysql":
        _, layers = fresh[indices[-1]]
        assert layers["interposer"][1][VulnType.OVERFLOW] == 64
    if service == "nginx":
        statuses = {status for index in indices
                    for status, _ in fresh[index][0].outcomes}
        assert "leak" in statuses or "blocked" in statuses


def test_engine_serves_batches_from_images():
    """``serve_batch`` captures one image per table version and keeps no
    frame of the arena between batches."""
    engine = make_engine("mysql", "segregated", True, "swap")
    state = _WorkerServeState(engine.plan)
    try:
        for index in range(len(engine.plan.batch_versions)):
            state.serve_batch(index)
            assert state.arena.allocated_pages == 0
        images = state._images
        assert sorted(images) == [0, 1]
        assert all(image.started and image.memory.resident_pages > 0
                   for image in images.values())
    finally:
        state.close()


# -- the layer forks, on images with populated free lists ----------------
#
# The services' startups never free, so their images hold empty free
# lists, bins and quarantines.  This workout populates all of them
# before the image is taken, so a fork that shares one with its image
# changes what the next fork allocates.

#: Request sizes covering small classes and bins, large chunks and
#: dedicated mappings on both allocators.
SIZES = (24, 40, 100, 600, 3000, 5000, 20000, 200000)


def workout(memory, heap, seed, ops=160):
    """Seeded mallocs, callocs, writes and frees; the addresses
    returned, in order."""
    rng = random.Random(seed)
    live, returned = [], []
    for _ in range(ops):
        if live and rng.random() < 0.45:
            heap.free(live.pop(rng.randrange(len(live))))
            continue
        size = rng.choice(SIZES)
        address = (heap.calloc(1, size) if rng.random() < 0.2
                   else heap.malloc(size))
        memory.write(address, bytes([len(returned) % 251 + 1]) * 16)
        live.append(address)
        returned.append(address)
    return returned


def fork_state(memory, heap, returned):
    return {
        "returned": returned,
        "pages": {pno: bytes(frame)
                  for pno, frame in memory._frames.items()},
        "mappings": list(memory.iter_mappings()),
        "counters": (memory.brk, memory.fault_count, memory.mprotect_count,
                     memory.peak_resident_pages),
        "stats": (heap.stats.snapshot(), heap.underlying.stats.snapshot()),
        "quarantine": ([(block.address, block.size)
                        for block in heap.quarantine.blocks()],
                       heap.quarantine.held_bytes, heap.quarantine.pushed,
                       heap.quarantine.evicted),
        "enhanced": dict(heap.enhanced_counts),
        "meter": heap.meter.snapshot(),
        # The allocator's own bookkeeping: free lists, bins, caches.
        "internals": {name: sorted(value) if isinstance(value, set)
                      else value
                      for name, value in vars(heap.underlying).items()
                      if name not in ("memory", "stats")
                      and not callable(value)},
    }


@pytest.mark.parametrize("allocator", ["segregated", "libc"])
def test_layer_forks_share_no_mutable_state(allocator):
    memory = VirtualMemory()
    table = PatchTable([HeapPatch("malloc", 0, VulnType.USE_AFTER_FREE)])
    image = DefendedAllocator(make_allocator(allocator, map_cache=4,
                                             memory=memory),
                              table, meter=CycleMeter(),
                              quarantine_quota=64 * 1024)
    workout(memory, image, seed=1)
    assert len(image.quarantine) and image.quarantine.evicted
    memory.freeze()
    before = fork_state(memory, image, [])
    states = []
    for _ in range(2):
        twin_memory = memory.fork()
        twin = image.fork(twin_memory, NullContextSource(),
                          image.meter.fork())
        assert fork_state(twin_memory, twin, []) == before
        states.append(fork_state(twin_memory, twin,
                                 workout(twin_memory, twin, seed=2)))
        twin_memory.close()
    assert states[0] == states[1]
    assert fork_state(memory, image, []) == before
