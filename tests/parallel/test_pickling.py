"""Pickle round-trips for everything that crosses the pool boundary.

The parallel engine ships a :class:`DiagnosisPlan` to workers and gets
:class:`DiagnosisResult` objects back; both directions go through
pickle, so every record in the chain must survive a round-trip intact
(and, being frozen dataclasses, compare equal afterwards).  The serving
engine pickles its whole plan, program included, so a basic block that
has run must pickle too, and its copy must run like the original.
"""

import pickle

import pytest

from repro.allocator.libc import LibcAllocator
from repro.parallel import DiagnosisPool, DiagnosisResult
from repro.parallel.engine import DiagnosisPlan
from repro.patch.model import HeapPatch
from repro.program.blocks import BlockBuilder
from repro.program.callgraph import CallGraph
from repro.program.cost import CycleMeter
from repro.program.monitor import DirectMonitor
from repro.program.process import Process
from repro.shadow.report import BufferRecord, ReportSummary
from repro.vulntypes import VulnType
from repro.workloads.corpus import AttackCorpus, CorpusEntry, table2_corpus


def roundtrip(value):
    return pickle.loads(pickle.dumps(
        value, protocol=pickle.HIGHEST_PROTOCOL))


class TestRecordRoundTrips:
    def test_buffer_record(self):
        record = BufferRecord(serial=3, fun="malloc", ccid=0xDEAD,
                              address=0x1000, size=64,
                              context=(1, 2, 3))
        assert roundtrip(record) == record

    def test_heap_patch(self):
        patch = HeapPatch("calloc", 0xBEEF,
                          VulnType.OVERFLOW | VulnType.UNINIT_READ,
                          params=(("quota", "16"),))
        clone = roundtrip(patch)
        assert clone == patch
        assert clone.render() == patch.render()

    def test_report_summary(self):
        summary = ReportSummary(
            warnings=4, kinds=VulnType.USE_AFTER_FREE,
            buffers_implicated=2,
            candidates=(("malloc", 0x10, VulnType.USE_AFTER_FREE),))
        assert roundtrip(summary) == summary

    def test_corpus_entry(self):
        entry = CorpusEntry("hb:attack", "heartbleed", "attack")
        assert roundtrip(entry) == entry

    def test_diagnosis_result(self):
        summary = ReportSummary(warnings=1, kinds=VulnType.OVERFLOW,
                                buffers_implicated=1)
        result = DiagnosisResult(
            entry_id="hb:attack", workload="heartbleed",
            input_name="attack", expects_detection=True,
            patches=(HeapPatch("malloc", 0x10, VulnType.OVERFLOW),),
            vulns=VulnType.OVERFLOW, summary=summary, crashed=None,
            cycles=(("alloc", 120.0), ("encode", 30.5)), seconds=0.25)
        clone = roundtrip(result)
        assert clone == result
        assert clone.detected and clone.ok
        assert clone.cycle_total() == pytest.approx(150.5)


class TestLiveObjects:
    """The objects actually shipped in a real diagnosis pickle clean."""

    def test_built_plan_round_trips(self):
        corpus = AttackCorpus(
            (CorpusEntry("hb:attack", "heartbleed", "attack"),))
        plan = DiagnosisPool(jobs=1).build_plan(corpus)
        clone = roundtrip(plan)
        assert isinstance(clone, DiagnosisPlan)
        assert clone.entries == plan.entries
        assert [p.key for p in clone.programs] == ["heartbleed"]
        # The shipped codec must decode exactly like the original.
        assert (clone.programs[0].codec.__class__
                is plan.programs[0].codec.__class__)

    def test_real_diagnosis_results_round_trip(self):
        diagnosis = DiagnosisPool(jobs=1).diagnose(table2_corpus())
        for result in diagnosis.results:
            assert roundtrip(result) == result


def _run_block(block, rows):
    """Run ``block`` fused over ``rows`` (offsets into two fresh
    buffers, one page apart) on a fresh process whose meter uses the
    block's cost model; return the outputs, buffers and cycles."""
    heap = LibcAllocator()
    meter = CycleMeter(model=block.model)
    process = Process(CallGraph(), monitor=DirectMonitor(
        heap.memory, heap, meter), meter=meter)
    buffers = [heap.malloc(4096), heap.malloc(4096)]
    outputs = process.exec_block_run(
        block, [(buffers[0] + r, buffers[1] + r) for r in rows])
    return (outputs, [heap.memory.read(b, 4096) for b in buffers],
            meter.snapshot())


class TestBasicBlocks:
    def test_run_block_round_trips_and_regenerates(self):
        builder = BlockBuilder()
        builder.write(0, 0, b"pickled!")
        builder.fill(0, 8, 24, 0x5A)
        slot = builder.read(0, 0, 8)
        builder.write_value(1, 16, slot)
        builder.branch_on(slot)
        builder.syscall_out(1, 16, 8)
        block = builder.build()
        rows = (0, 64, 128)
        ran = _run_block(block, rows)
        assert block.fused is not None
        clone = roundtrip(block)
        assert clone.fused is None
        assert clone.ops == block.ops
        assert clone.cum_cycles == block.cum_cycles
        assert _run_block(clone, rows) == ran
        assert clone.fused is not None
        assert clone.fused is not block.fused
