"""GhostXPS-9.21-like uninitialized read (CVE-2017-9740).

The real bug: GhostXPS parses a crafted XPS document whose declared
resource length exceeds the bytes actually present; the renderer then
consumes the *whole* heap buffer, emitting never-initialized bytes into
the output — an information leak.

The simulation: a document is a sequence of glyph-run records, each
declaring how many bytes of glyph data follow.  The parser allocates the
declared size but copies only the available bytes; the renderer outputs
the declared range.  A malicious document declares more than it ships,
leaking stale heap contents (a planted font-cache secret) into the
rendered output.  The patch's zero-fill defense turns the leak into
zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...program.callgraph import CallGraph
from ...program.process import Process
from .base import RunOutcome, VulnerableProgram

#: Stale data a previous rendering job left in heap memory.
FONT_CACHE_SECRET = b"<<licensed-font-key:9f31aa02>>"

#: Size of the scratch buffer earlier jobs used.
SCRATCH_SIZE = 2048


@dataclass(frozen=True)
class XpsDocument:
    """One glyph-run record: declared data size vs. shipped bytes."""

    declared_size: int
    glyph_data: bytes


class GhostXpsRenderer(VulnerableProgram):
    """The vulnerable XPS renderer."""

    name = "GhostXPS 9.21"
    reference = "CVE-2017-9740"
    vulnerability = "UR"

    def build_graph(self) -> CallGraph:
        graph = CallGraph(entry="main")
        graph.add_call_site("main", "render_previous_job")
        graph.add_call_site("main", "parse_document")
        graph.add_call_site("main", "render_glyphs")
        graph.add_call_site("render_previous_job", "malloc", "scratch")
        graph.add_call_site("render_previous_job", "free", "scratch")
        graph.add_call_site("parse_document", "xps_alloc")
        graph.add_call_site("xps_alloc", "malloc", "glyph_buf")
        graph.add_call_site("main", "free", "glyph_buf")
        return graph

    @staticmethod
    def attack_input() -> XpsDocument:
        """Declares 1.5 KB of glyph data but ships only 24 bytes."""
        return XpsDocument(declared_size=1536,
                           glyph_data=b"GLYPHRUN-minimal-payload")

    @staticmethod
    def benign_input() -> XpsDocument:
        data = b"GLYPHRUN" * 24
        return XpsDocument(declared_size=len(data), glyph_data=data)

    def main(self, p: Process, document: XpsDocument) -> RunOutcome:
        p.call("render_previous_job", self._render_previous_job)
        glyph_buf = p.call("parse_document", self._parse_document, document)
        rendered = p.call("render_glyphs", self._render_glyphs, glyph_buf,
                          document.declared_size)
        p.free(glyph_buf)
        return RunOutcome(response=rendered)

    def _render_previous_job(self, p: Process) -> None:
        """An earlier job leaves secrets in freed heap memory."""
        scratch = p.malloc(SCRATCH_SIZE, site="scratch")
        p.fill(scratch, SCRATCH_SIZE, ord("f"))
        p.write(scratch + 512, FONT_CACHE_SECRET)
        p.compute(500)
        p.free(scratch)

    def _parse_document(self, p: Process, document: XpsDocument) -> int:
        return p.call("xps_alloc", self._xps_alloc, document)

    def _xps_alloc(self, p: Process, document: XpsDocument) -> int:
        """Allocates the declared size; copies only the shipped bytes."""
        glyph_buf = p.malloc(document.declared_size, site="glyph_buf")
        p.syscall_in(glyph_buf, document.glyph_data)
        return glyph_buf

    def _render_glyphs(self, p: Process, glyph_buf: int,
                       declared_size: int) -> bytes:
        """Emits the full declared range into the output device."""
        p.compute(declared_size // 4)
        return p.syscall_out(glyph_buf, declared_size)

    def attack_succeeded(self, outcome: Optional[RunOutcome]) -> bool:
        """Success = stale bytes beyond the shipped data leaked."""
        if outcome is None:
            return False
        if FONT_CACHE_SECRET in outcome.response:
            return True
        shipped = len(GhostXpsRenderer.attack_input().glyph_data)
        return any(byte != 0 for byte in outcome.response[shipped:])

    def benign_works(self, outcome: Optional[RunOutcome]) -> bool:
        if outcome is None:
            return False
        return outcome.response == self.benign_input().glyph_data
