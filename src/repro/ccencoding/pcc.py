"""Probabilistic Calling Context (PCC) encoding [Bond & McKinley, OOPSLA'07].

The scheme HeapTherapy+ adopts: at each instrumented call site the
thread-local value is updated as ``V = 3 * t + c`` (mod 2**64) where ``t``
is ``V`` read at the enclosing function's prologue and ``c`` is a per-site
constant.  The resulting CCID is a hash — probabilistically unique, not
decodable — and a collision merely means a non-vulnerable buffer gets
enhanced (extra overhead, never incorrectness), exactly the property the
paper relies on in Section IV.

Site constants are dispersed from dense site ids through SplitMix64 so
that structurally similar graphs do not produce clustered hashes; each
site's constant is computed once per codec.
"""

from __future__ import annotations

from typing import Dict

from ..program.callgraph import CallSite
from .base import Codec, EncodingScheme, MASK64, splitmix64
from .instrumentation import InstrumentationPlan


class PCCCodec(Codec):
    """``V = 3*t + c`` hashing codec."""

    scheme_name = "pcc"

    #: The multiplier from the PCC paper.
    MULTIPLIER = 3

    def __init__(self, plan: InstrumentationPlan) -> None:
        super().__init__(plan)
        #: site id -> constant ``c``, filled on first use.
        self._constants: Dict[int, int] = {}

    def seed(self) -> int:
        return 0

    def site_constant(self, site: CallSite) -> int:
        """The per-site constant ``c`` (unique per call site)."""
        constant = self._constants.get(site.site_id)
        if constant is None:
            constant = splitmix64(site.site_id)
            self._constants[site.site_id] = constant
        return constant

    site_step = site_constant

    def mix_step(self, value: int, step: int) -> int:
        return (self.MULTIPLIER * value + step) & MASK64

    def mix(self, value: int, site: CallSite) -> int:
        return (self.MULTIPLIER * value + self.site_constant(site)) & MASK64


class PCCScheme(EncodingScheme):
    """Factory for :class:`PCCCodec`."""

    name = "pcc"

    def build(self, plan: InstrumentationPlan) -> PCCCodec:
        return PCCCodec(plan)
