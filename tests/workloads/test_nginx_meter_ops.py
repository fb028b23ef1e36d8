"""How many cycle-meter operations one close-per-request nginx request
makes on the defended stack with an empty patch table.

Per request, ``NginxServer.main`` makes five guest calls, two block
runs, four ``malloc`` and four ``free`` calls.  Each guest call counts
one record (``base`` and ``encoding``), each block run charges
``base`` once, each heap call counts the monitor's ``base`` record and
the interposer's Structure 1 record: 5 + 2 + 8 + 8 = 23 operations,
where charging every category on its own took 40.
"""

from repro.core.pipeline import HeapTherapy
from repro.defense.interpose import DefendedAllocator
from repro.defense.patch_table import PatchTable
from repro.program.cost import CycleMeter
from repro.program.monitor import DirectMonitor
from repro.program.process import Process
from repro.workloads.services.nginx import NginxServer


class OperationCounter(CycleMeter):
    """A meter that counts its ``charge`` and ``count`` calls."""

    def __init__(self):
        super().__init__()
        self.operations = 0

    def charge(self, category, cycles):
        self.operations += 1
        super().charge(category, cycles)

    def count(self, record, times=1):
        self.operations += 1
        super().count(record, times)


def defended_run(system, requests):
    """``system.run_defended(PatchTable.empty(), requests)`` on a
    counting meter; returns the meter."""
    meter = OperationCounter()
    underlying = system.allocator_factory()
    runtime = system.instrumented.runtime(meter)
    heap = DefendedAllocator(underlying, PatchTable.empty(),
                             context_source=runtime, meter=meter)
    process = Process(system.program.graph,
                      monitor=DirectMonitor(underlying.memory, heap, meter),
                      context_source=runtime, meter=meter,
                      record_allocations=False)
    process.run(system.program, requests)
    return meter


def test_one_request_makes_23_meter_operations():
    system = HeapTherapy(NginxServer())
    small, large = defended_run(system, 10), defended_run(system, 20)
    assert (large.operations - small.operations) / 10 == 23
    # The counted meter reads what the pipeline's own run charges.
    reference = system.run_defended(PatchTable.empty(), 20).meter
    assert list(large.snapshot().items()) == list(
        reference.snapshot().items())
