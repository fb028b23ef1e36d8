"""The serving fault matrix's ``mmap`` row: a mapping fails mid-batch.

One batch of an nginx run is served on a forked session whose memory
fails its ``k``-th ``mmap``, for every ``k`` below the batch's mapping
count, on the defended stack and on the bare segregated allocator.  The
batch's large response bodies are one uniform ``malloc_run`` per chunk:
under a fault schedule the segregated allocator places that run's
mappings one call at a time, and the defended allocator runs it per
call, so the sweep cuts both the uniform large run and the per-call
path, as well as slab refills.

A failed mapping must surface as a typed :class:`OutOfMemoryError` out
of the batch (the engine does not retry it), hand every frame the batch
borrowed back to the worker's arena, and leave the worker serving its
other batches exactly as a worker that never faulted.
"""

import traceback
from dataclasses import replace
from pathlib import Path

import pytest

from repro.ccencoding import Strategy
from repro.core.instrument import instrument
from repro.fuzz.faults import FaultInjector
from repro.machine.errors import OutOfMemoryError
from repro.serving.engine import (
    ServingEngine,
    ServingOptions,
    _WorkerServeState,
    tally_outcomes,
)
from repro.workloads.services.nginx import NginxServer

#: The batch served under the fault schedule; the others run clean.
FAULTED = 1


@pytest.fixture(scope="module")
def nginx():
    program = NginxServer()
    codec = instrument(program,
                       strategy=Strategy.from_name("incremental")).codec
    return program, codec


def _plan(nginx, defended):
    program, codec = nginx
    return ServingEngine(
        ServingOptions(service="nginx", requests=90, batch_size=30,
                       defended=defended),
        program=program, codec=codec).plan


def _serve(state, index, injector=None):
    """``state.serve_batch(index)``, with ``injector`` armed on the
    forked session's memory."""
    plan = state.plan
    version = plan.batch_versions[index]
    session = state.session(version, state.image(version))
    session.memory.fault_injector = injector
    try:
        return replace(session.serve_batch(index, plan.batch(index),
                                           plan.attack_token, version),
                       wall=0.0)
    finally:
        session.memory.close()


def _path(error):
    """The allocator functions, as ``module.function``, that the failed
    ``mmap`` was reached through (comprehension frames left out: Python
    3.12 inlines them)."""
    path = []
    for frame in traceback.extract_tb(error.__traceback__):
        module = Path(frame.filename).stem
        if module in ("segregated", "interpose") and frame.name[0] != "<":
            path.append(f"{module}.{frame.name}")
    return tuple(path)


@pytest.mark.parametrize("defended", [True, False],
                         ids=["defended", "segregated"])
def test_mmap_failing_mid_batch(nginx, defended):
    plan = _plan(nginx, defended)
    indices = range(len(plan.batch_versions))
    clean = _WorkerServeState(plan)
    want = {index: _serve(clean, index) for index in indices}
    counter = FaultInjector({"mmap": 10 ** 6})
    assert _serve(clean, FAULTED, counter) == want[FAULTED]
    clean.close()
    mappings = counter.passed["mmap"]
    assert mappings > 4

    paths = set()
    for budget in range(mappings):
        state = _WorkerServeState(plan)
        with pytest.raises(OutOfMemoryError) as caught:
            _serve(state, FAULTED, FaultInjector({"mmap": budget}))
        paths.add(_path(caught.value))
        assert state.arena.allocated_pages == 0
        others = [_serve(state, index) for index in indices
                  if index != FAULTED]
        assert state.arena.allocated_pages == 0
        assert others == [want[index] for index in indices
                          if index != FAULTED]
        assert (tally_outcomes([o for batch in others
                                for o in batch.outcomes])
                == tally_outcomes([o for index in indices
                                   if index != FAULTED
                                   for o in want[index].outcomes]))
        state.close()

    # The sweep failed a body mapping inside the uniform large run (run
    # per call by the defended allocator), and a slab refill.
    large = ("segregated.malloc", "segregated._allocate",
             "segregated._alloc_large")
    large = (("interpose.malloc_run", "interpose.malloc") if defended
             else ("segregated.malloc_run",)) + large
    assert large in paths
    assert any(path[-1] == "segregated._refill" for path in paths)
