"""Offline patch generation by attack replay."""

import pytest

from repro.ccencoding import SCHEMES, InstrumentationPlan, Strategy
from repro.machine.errors import SegmentationFault
from repro.patch.generator import OfflinePatchGenerator
from repro.program.callgraph import CallGraph
from repro.program.process import Process
from repro.program.program import Program
from repro.serving.services import nginx_body_patch
from repro.shadow.report import AnalysisReport, BufferRecord, ShadowWarning
from repro.vulntypes import VulnType
from repro.workloads.services.nginx import (LEAK_BODY_SIZE, LEAK_EXTRA,
                                            LEAK_REQUEST, NginxServer,
                                            request_stream)
from repro.workloads.vulnerable import HeartbleedService


def generator_for(program, strategy=Strategy.INCREMENTAL):
    plan = InstrumentationPlan.build(program.graph,
                                     program.graph.allocation_targets,
                                     strategy)
    codec = SCHEMES["pcc"].build(plan)
    return OfflinePatchGenerator(program, codec)


class TestReplay:
    def test_heartbleed_attack_yields_mixed_patch(self):
        program = HeartbleedService()
        generator = generator_for(program)
        result = generator.replay(HeartbleedService.attack_input())
        assert result.detected
        assert result.crashed is None
        mixed = [p for p in result.patches
                 if p.vuln & VulnType.UNINIT_READ
                 and p.vuln & VulnType.OVERFLOW]
        assert mixed, "Heartbleed is a UR+overread mix (paper §VIII-A)"

    def test_benign_input_yields_no_patches(self):
        program = HeartbleedService()
        generator = generator_for(program)
        result = generator.replay(HeartbleedService.benign_input())
        assert not result.detected
        assert result.patches == []

    def test_patch_ccids_match_encoding(self):
        """The patch CCID must be reproducible by statically encoding the
        vulnerable allocation context under the same codec."""
        program = HeartbleedService()
        generator = generator_for(program)
        result = generator.replay(HeartbleedService.attack_input())
        implicated = result.report.buffers_implicated()
        static = {generator.codec.encode_context_ids(buf.context)
                  for buf in implicated}
        assert {p.ccid for p in result.patches} <= static

    def test_same_attack_same_patches_across_replays(self):
        program = HeartbleedService()
        generator = generator_for(program)
        first = generator.replay(HeartbleedService.attack_input())
        second = generator.replay(HeartbleedService.attack_input())
        assert first.patches == second.patches

    def test_crash_still_yields_patches(self):
        class Crasher(Program):
            name = "crasher"

            def build_graph(self):
                graph = CallGraph()
                graph.add_call_site("main", "malloc")
                return graph

            def main(self, p):
                buf = p.malloc(8)
                p.write(buf, b"x" * 16)      # warned, resumed
                p.monitor.memory.read(0, 8)  # hard fault outside guest API

        generator = generator_for(Crasher())
        result = generator.replay()
        assert result.crashed is not None
        assert result.detected


class _ServeMain:
    """Runs nginx's batched entry point as the program's ``main``."""

    def __init__(self, server):
        self.server = server
        self.graph = server.graph

    def main(self, p, requests):
        return self.server.serve_main(p, requests)


class TestBlockGuestReplay:
    """Shadow analysis of a guest that runs its requests as basic blocks
    (``exec_block`` / ``exec_block_run``): the analyzer inherits the
    generic block path, so it sees every op of every request."""

    def test_nginx_leak_request_among_benign_requests(self):
        server = NginxServer()
        generator = generator_for(_ServeMain(server))
        benign = request_stream(16)
        requests = benign[:8] + [LEAK_REQUEST] + benign[8:]
        result = generator.replay(requests)
        assert result.crashed is None
        [patch] = result.patches
        expected = nginx_body_patch(server, generator.codec)
        assert (patch.fun, patch.ccid) == (expected.fun, expected.ccid)
        # The real diagnosis also flags the body's uninitialized tail,
        # which the hand-built serving patch leaves out.
        assert patch.vuln == VulnType.OVERFLOW | VulnType.UNINIT_READ
        outcomes = result.program_result["outcomes"]
        assert outcomes[8] == ("leak", LEAK_BODY_SIZE + LEAK_EXTRA) \
            == ("leak", 4216)
        assert all(status == "ok" for status, _ in
                   outcomes[:8] + outcomes[9:])


class TestReportPostprocessing:
    def test_patches_from_report_groups_and_sorts(self):
        report = AnalysisReport()
        buf_a = BufferRecord(0, "malloc", 0x2, 0x1000, 64)
        buf_b = BufferRecord(1, "calloc", 0x1, 0x2000, 64)
        report.add(ShadowWarning(VulnType.OVERFLOW, 0, "write", buf_a))
        report.add(ShadowWarning(VulnType.UNINIT_READ, 0, "use:syscall",
                                 buf_a))
        report.add(ShadowWarning(VulnType.USE_AFTER_FREE, 0, "read", buf_b))
        patches = OfflinePatchGenerator.patches_from_report(report)
        assert [p.fun for p in patches] == ["calloc", "malloc"]
        assert patches[1].vuln == VulnType.OVERFLOW | VulnType.UNINIT_READ
