"""Online encoding runtimes: the thread-local-V state machine.

:class:`EncodingRuntime` is what the inserted instrumentation *does* at run
time.  The process drives it from exactly the places compiled code would:

* function prologue → remember ``V`` as this frame's ``t``,
* instrumented call site → ``V = mix(t, c_site)``,
* return → restore ``V`` to the resumed frame's encoding.

Reading the current CCID is a single register read — that is the whole
point of encoding versus stack walking, and the cost model reflects it.

The runtime is a :class:`~repro.program.context.RegisterContextSource`:
:meth:`EncodingRuntime.bind_site` hands the process each site's codec
step and cycle charge once, and the process keeps ``t`` on its own
frames and writes ``V``, the counters and the charges itself — the
uninstrumented call stays a plain call, as in the compiled binary.  The
hooks below are the same state machine, step by step; they drive the
runtime when it sits behind another source (a
:class:`~repro.program.coverage.CoverageTracker`) or under the lock-step
thread scheduler, and they are the oracle the bound path is tested
against.

:class:`WalkedContextSource` is the expensive alternative the paper argues
against: obtaining the context by walking the simulated stack on every
allocation, charged per frame like a real unwinder.
"""

from __future__ import annotations

import zlib
from typing import List, Optional

from ..program.callgraph import CallSite
from ..program.context import ContextSource, RegisterContextSource, SiteBinding
from ..program.cost import CycleMeter
from .base import Codec


class EncodingRuntime(RegisterContextSource):
    """Drives one codec's V register along the dynamic call stack."""

    def __init__(self, codec: Codec, meter: Optional[CycleMeter] = None) -> None:
        self.codec = codec
        self.plan = codec.plan
        super().__init__(meter)
        self._t_stack: List[int] = []

    def seed(self) -> int:
        return self.codec.seed()

    def fork(self, meter: Optional[CycleMeter] = None) -> "EncodingRuntime":
        """A runtime over the same codec holding a copy of this one's
        ``V``, counters and hook stack, charging ``meter``."""
        twin = EncodingRuntime(self.codec, meter)
        twin.value = self.value
        twin.updates_executed = self.updates_executed
        twin.sites_crossed = self.sites_crossed
        twin._t_stack = list(self._t_stack)
        return twin

    def bind_site(self, site: CallSite) -> SiteBinding:
        if site.site_id not in self.plan.sites:
            return None, None, 0
        cycles = (self.meter.model.encode_site if self.meter is not None
                  else 0)
        return self.codec.mix_step, self.codec.site_step(site), cycles

    def prologue_cycles(self, name: str) -> float:
        if self.meter is None or name not in self.plan.instrumented_functions:
            return 0
        return self.meter.model.encode_prologue

    # -- ContextSource hooks -------------------------------------------

    def enter_function(self, name: str) -> None:
        self._t_stack.append(self.value)
        if self.meter is not None and name in self.plan.instrumented_functions:
            self.meter.charge("encoding", self.meter.model.encode_prologue)

    def exit_function(self, name: str) -> None:
        self._t_stack.pop()
        self.value = self._t_stack[-1] if self._t_stack else self.codec.seed()

    def at_call_site(self, site: CallSite, count: int = 1) -> None:
        # ``count`` crossings from one frame all mix the same ``t``, so
        # they leave the V one crossing would and cost ``count`` updates.
        self.sites_crossed += count
        t = self._t_stack[-1] if self._t_stack else self.codec.seed()
        if site.site_id in self.plan.sites:
            self.value = self.codec.mix(t, site)
            self.updates_executed += count
            if self.meter is not None:
                self.meter.charge("encoding",
                                  self.meter.model.encode_site * count)
        else:
            self.value = t

    # Restated here, not inherited: the per-layer tracer wraps the
    # encoding layer's entry points as they appear on this class.
    def current_ccid(self) -> int:
        """Read V — one register read, no extra cost category."""
        return self.value


class WalkedContextSource(ContextSource):
    """Stack walking instead of encoding (the expensive baseline, §II-B).

    The CCID is a CRC over the frame chain, recomputed on demand; the
    meter is charged per live frame, mirroring a frame-pointer unwinder
    touching every activation record.
    """

    #: Modeled cycles per frame visited during a walk.
    CYCLES_PER_FRAME: int = 40

    def __init__(self, meter: Optional[CycleMeter] = None) -> None:
        self.meter = meter
        #: Site ids of the frames on the stack (entry frame has none).
        self._site_stack: List[int] = []
        #: Site of a call announced but not yet entered (allocation calls
        #: never push a frame, so this is how the alloc site is captured).
        self._pending_site: Optional[int] = None
        self.walks_performed: int = 0

    def enter_function(self, name: str) -> None:
        if self._pending_site is not None:
            self._site_stack.append(self._pending_site)
            self._pending_site = None

    def exit_function(self, name: str) -> None:
        if self._site_stack:
            self._site_stack.pop()

    def at_call_site(self, site: CallSite, count: int = 1) -> None:
        self._pending_site = site.site_id

    def current_ccid(self) -> int:
        self.walks_performed += 1
        frames = list(self._site_stack)
        if self._pending_site is not None:
            frames.append(self._pending_site)
        if self.meter is not None:
            self.meter.charge(
                "encoding", self.CYCLES_PER_FRAME * max(1, len(frames)))
        payload = b",".join(str(s).encode() for s in frames)
        return zlib.crc32(payload)
