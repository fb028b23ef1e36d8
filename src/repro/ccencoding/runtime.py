"""Online encoding runtimes: the thread-local-V state machine.

:class:`EncodingRuntime` is what the inserted instrumentation *does* at run
time.  The process drives it from exactly the places compiled code would:

* function prologue → remember ``V`` as this frame's ``t``,
* instrumented call site → ``V = mix(t, c_site)``,
* return → restore ``V`` to the resumed frame's encoding.

Reading the current CCID is a single register read — that is the whole
point of encoding versus stack walking, and the cost model reflects it.

:class:`WalkedContextSource` is the expensive alternative the paper argues
against: obtaining the context by walking the simulated stack on every
allocation, charged per frame like a real unwinder.
"""

from __future__ import annotations

import zlib
from typing import List, Optional

from ..program.callgraph import CallSite
from ..program.context import ContextSource
from ..program.cost import CycleMeter
from .base import Codec


class EncodingRuntime(ContextSource):
    """Drives one codec's V register along the dynamic call stack."""

    #: Reading V is one register read with no side effect, so fused
    #: interposition paths may elide it for provably unpatched functions.
    pure_ccid = True

    def __init__(self, codec: Codec, meter: Optional[CycleMeter] = None) -> None:
        self.codec = codec
        self.plan = codec.plan
        self.meter = meter
        self._v: int = codec.seed()
        self._t_stack: List[int] = []
        #: How many encoding updates actually executed (dynamic count).
        self.updates_executed: int = 0
        #: How many call sites were crossed in total (dynamic count).
        self.sites_crossed: int = 0

    # -- ContextSource hooks -------------------------------------------

    def enter_function(self, name: str) -> None:
        self._t_stack.append(self._v)
        if self.meter is not None and name in self.plan.instrumented_functions:
            self.meter.charge("encoding", self.meter.model.encode_prologue)

    def exit_function(self, name: str) -> None:
        self._t_stack.pop()
        self._v = self._t_stack[-1] if self._t_stack else self.codec.seed()

    def at_call_site(self, site: CallSite, count: int = 1) -> None:
        # ``count`` crossings from one frame all mix the same ``t``, so
        # they leave the V one crossing would and cost ``count`` updates.
        self.sites_crossed += count
        t = self._t_stack[-1] if self._t_stack else self.codec.seed()
        if site.site_id in self.plan.sites:
            self._v = self.codec.mix(t, site)
            self.updates_executed += count
            if self.meter is not None:
                self.meter.charge("encoding",
                                  self.meter.model.encode_site * count)
        else:
            self._v = t

    def current_ccid(self) -> int:
        """Read V — one register read, no extra cost category."""
        return self._v


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
