"""The guest process: executes a program against the simulated machine.

``Process`` is the reproduction's stand-in for a compiled C process.  A
:class:`~repro.program.program.Program` provides the code (Python methods
standing in for C functions) and the static call graph; the process
provides the execution context:

* a dynamic call stack (so true calling contexts are known at any moment),
* dispatch of every heap and memory operation through an
  :class:`~repro.program.monitor.ExecutionMonitor`,
* the calling-context encoding — a
  :class:`~repro.program.context.ContextSource` — exactly where
  instrumented code would run: function prologues and call sites,
* cycle accounting for the deterministic performance model, and
* an allocation profile (CCID → frequency) used by the Figure 8
  methodology of picking median-frequency CCIDs as hypothesized
  vulnerable ones.

Bound call sites: the first crossing of each ``(caller, callee, label)``
resolves it on the static graph to a :class:`BoundSite`, kept while the
graph is frozen, which carries what every later crossing does.  For a
:class:`~repro.program.context.RegisterContextSource` (the encoding
runtime, or no tracking) that is the codec's step for the site and the
summed ``base`` and ``encoding`` cycles, and the process applies the
crossing itself: an uninstrumented site sets ``V`` to the frame's ``t``,
an instrumented one folds in one step, and the call counts one
:class:`~repro.program.cost.ChargeRecord` of both categories on the
meter (the encoding goes apart when the source charges another meter).
Other sources, and every process under the lock-step scheduler, are
driven through the source's hooks instead — the protocol
the bound path is tested against (``tests/program/test_bound_sites.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..allocator.base import Allocator
from .blocks import BasicBlock
from .callgraph import CallGraph, CallSite
from .context import ContextSource, NullContextSource, RegisterContextSource
from .cost import ChargeRecord, CycleMeter
from .monitor import DirectMonitor, ExecutionMonitor
from .values import TaggedValue


class Frame:
    """One dynamic activation record.

    A plain ``__slots__`` class rather than a dataclass: frames are
    created and destroyed on every guest call, making this one of the
    hottest object types in the simulator.
    """

    __slots__ = ("function", "site", "t")

    def __init__(self, function: str, site: Optional[CallSite],
                 t: int = 0) -> None:
        self.function = function
        #: The site through which this frame was entered (None for entry).
        self.site = site
        #: ``V`` at this frame's prologue: what its bound crossings fold
        #: from, and what ``V`` returns to when a callee returns here.
        self.t = t

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Frame({self.function!r}, {self.site!r})"


@dataclass(frozen=True)
class AllocationEvent:
    """One recorded allocation, for profiling and offline grouping."""

    serial: int
    fun: str
    ccid: int
    address: int
    size: int
    #: True calling context as a tuple of site ids (entry -> alloc site).
    context: Tuple[int, ...]


class BoundSite:
    """One call site bound, once per process, to what crossing it does.

    ``mix`` and ``step`` are the codec's fold and this site's operand
    (``mix`` is None when the plan leaves the site uninstrumented);
    ``base`` is the call's own cycles (0 for a heap call, which the
    monitor charges) and ``encoding`` the site update plus, for a guest
    call, the callee's prologue — 0 when the source charges no cycles.
    A guest call's bound crossing counts ``charges``, one record of its
    ``base`` and, when the source charges the process's own meter, its
    ``encoding`` cycles; ``apart`` is the encoding it charges to the
    source's other meter instead (0 when there is none).
    """

    __slots__ = ("site", "mix", "step", "base", "encoding", "charges",
                 "apart")

    def __init__(self, site: CallSite,
                 mix: Optional[Callable[[int, Any], int]], step: Any,
                 base: float, encoding: float,
                 charges: Optional[ChargeRecord] = None,
                 apart: float = 0) -> None:
        self.site = site
        self.mix = mix
        self.step = step
        self.base = base
        self.encoding = encoding
        self.charges = charges
        self.apart = apart


class ProcessError(RuntimeError):
    """Guest-program structural error (bad call protocol, etc.)."""


#: Raised by every call-protocol entry point used outside :meth:`Process.run`.
_NO_FRAME = "no active frame; use run()"


def _charge_nothing(category: str, cycles: float) -> None:
    """The encoding charge of a source without a meter (never reached:
    such a source binds every site to 0 encoding cycles)."""


class Process:
    """Executes a program's functions with full context tracking.

    Args:
        graph: the program's static call graph.
        monitor: memory/heap dispatch; defaults to a
            :class:`DirectMonitor` over ``heap``.
        heap: allocator used when no explicit monitor is given.
        context_source: the encoding runtime (or stack walker); defaults
            to no tracking.
        meter: cycle meter; a fresh one is created when omitted.
        record_allocations: keep the :attr:`allocations` log, one
            :class:`AllocationEvent` with its true calling context per
            allocation (the offline analyzer and profiling runs need
            it; defaults on — the defended and native runs and serving
            sessions, which have no reader for it, turn it off).
    """

    def __init__(self, graph: CallGraph,
                 monitor: Optional[ExecutionMonitor] = None,
                 heap: Optional[Allocator] = None,
                 context_source: Optional[ContextSource] = None,
                 meter: Optional[CycleMeter] = None,
                 record_allocations: bool = True) -> None:
        self.graph = graph
        self.meter = meter if meter is not None else CycleMeter()
        if monitor is None:
            if heap is None:
                raise ProcessError("Process needs a monitor or a heap")
            monitor = DirectMonitor(heap.memory, heap, self.meter)
        self.monitor = monitor
        self.monitor.bind(self)
        self.context_source: ContextSource = (
            context_source if context_source is not None
            else NullContextSource())
        self.record_allocations = record_allocations

        # Hot-path bindings: the call/alloc protocol runs these on every
        # guest call; binding them once removes repeated attribute walks.
        source = self.context_source
        self._at_call_site = source.at_call_site
        self._enter_function = source.enter_function
        self._exit_function = source.exit_function
        self._current_ccid = source.current_ccid
        register = (source if isinstance(source, RegisterContextSource)
                    else None)
        #: Any other source has hooks with effects of their own, so
        #: every crossing goes through them.
        self._hooks_only = register is None
        #: The register this process writes at bound crossings; an idle
        #: null register (binding no steps, no cycles) for hooks-only
        #: sources.
        self._register: RegisterContextSource = (
            register if register is not None else NullContextSource())
        #: True while a run drives the hooks (a hooks-only source, or a
        #: lock-step scheduler); fixed when :meth:`run` starts.
        self._hooked = self._hooks_only
        encoding_meter = self._register.meter
        self._charge_encoding: Callable[[str, float], None] = (
            encoding_meter.charge if encoding_meter is not None
            else _charge_nothing)
        #: An impure CCID read (a counted, charged stack walk) must run
        #: once per allocation, so batched runs replay per call.
        self._pure_ccid = source.pure_ccid
        self._charge = self.meter.charge
        self._count = self.meter.count
        #: True when the source charges encoding to this process's
        #: meter, so a bound call counts one record for both categories.
        self._joint = encoding_meter is self.meter
        #: (caller, callee, label) -> BoundSite, for guest calls and for
        #: heap calls; populated only while the graph is frozen (site
        #: ids are stable then).
        self._calls: Dict[Tuple[str, str, str], BoundSite] = {}
        self._heap_calls: Dict[Tuple[str, str, str], BoundSite] = {}

        self._stack: List[Frame] = []
        #: The call site of the allocation currently being dispatched;
        #: monitors (the shadow analyzer) read it to reconstruct the true
        #: allocation context.
        self.last_alloc_site: Optional[CallSite] = None
        #: Lock-step scheduler hooks for multi-threaded guest execution
        #: (see :mod:`repro.program.threads`); unset for single-threaded
        #: runs.
        self.scheduler: Optional[Any] = None
        self.scheduler_thread_id: Optional[int] = None
        #: Every allocation, in order, when ``record_allocations`` is on;
        #: an event's serial is its index here.
        self.allocations: List[AllocationEvent] = []
        #: (fun, ccid) -> number of allocations observed.
        self.alloc_profile: Counter = Counter()

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------

    @property
    def current_function(self) -> str:
        """Name of the function currently executing."""
        if not self._stack:
            raise ProcessError(_NO_FRAME)
        return self._stack[-1].function

    @property
    def depth(self) -> int:
        """Current call-stack depth."""
        return len(self._stack)

    def current_context(self) -> Tuple[int, ...]:
        """The true calling context: site ids from the entry downward."""
        return tuple(frame.site.site_id for frame in self._stack
                     if frame.site is not None)

    def run(self, program: "ProgramLike", *args: Any, **kwargs: Any) -> Any:
        """Execute ``program.main`` as the entry function."""
        self.enter()
        try:
            return program.main(self, *args, **kwargs)
        finally:
            self.leave()

    def enter(self) -> None:
        """Enter the graph's entry function: :meth:`run`'s prologue,
        which :meth:`leave` undoes.  Between the two the process runs
        guest code as :meth:`run` would."""
        if self._stack:
            raise ProcessError("process is already running")
        entry = self.graph.entry
        self._hooked = self._hooks_only or self.scheduler is not None
        if self._hooked:
            self._stack.append(Frame(entry, None))
            self._enter_function(entry)
            return
        register = self._register
        cycles = register.prologue_cycles(entry)
        if cycles:
            self._charge_encoding("encoding", cycles)
        self._stack.append(Frame(entry, None, register.value))

    def leave(self) -> None:
        """Leave the entry function entered by :meth:`enter`."""
        if self._hooked:
            self._exit_function(self.graph.entry)
            self._stack.pop()
            return
        self._stack.pop()
        register = self._register
        register.value = register.seed()

    def fork(self, monitor: ExecutionMonitor, context_source: ContextSource,
             meter: CycleMeter) -> "Process":
        """A copy of this process over forked layers: ``monitor`` over
        forks of its memory and heap, ``context_source`` and ``meter``
        forks of its own.  The copy holds a copy of the stack, the
        allocation profile and log, and the last allocation site; it
        shares the bound call sites, which forked layers bind
        identically."""
        twin = Process(self.graph, monitor=monitor,
                       context_source=context_source, meter=meter,
                       record_allocations=self.record_allocations)
        if twin._joint == self._joint:
            twin._calls = self._calls
            twin._heap_calls = self._heap_calls
        twin._stack = list(self._stack)
        twin._hooked = self._hooked
        twin.last_alloc_site = self.last_alloc_site
        twin.allocations = list(self.allocations)
        twin.alloc_profile = self.alloc_profile.copy()
        return twin

    def _bind(self, bound: Dict[Tuple[str, str, str], BoundSite],
              caller: str, callee: str, label: str,
              enters: bool) -> BoundSite:
        """Resolve a call site and bind what crossing it does; kept in
        ``bound`` while the graph is frozen.  ``enters``: a guest call,
        which costs a call and runs the callee's prologue."""
        call_site = self.graph.site(caller, callee, label)
        mix, step, encoding = self._register.bind_site(call_site)
        if not enters:
            record = BoundSite(call_site, mix, step, 0, encoding)
        else:
            base = self.meter.model.call
            encoding += self._register.prologue_cycles(callee)
            if self._joint and encoding:
                charges = ChargeRecord(("base", base), ("encoding", encoding))
                apart = 0
            else:
                charges, apart = ChargeRecord(("base", base)), encoding
            record = BoundSite(call_site, mix, step, base, encoding,
                               charges, apart)
        if self.graph.frozen:
            bound[(caller, callee, label)] = record
        return record

    def call(self, callee: str, fn: Callable[..., Any], *args: Any,
             site: str = "", **kwargs: Any) -> Any:
        """Call ``fn`` as guest function ``callee`` through a call site.

        The site is resolved on the static graph from the current function;
        ``site=`` disambiguates multiple sites to the same callee.  This is
        where instrumented code would execute the encoding update.
        """
        stack = self._stack
        if not stack:
            raise ProcessError(_NO_FRAME)
        frame = stack[-1]
        record = self._calls.get((frame.function, callee, site))
        if record is None:
            record = self._bind(self._calls, frame.function, callee, site,
                                True)
        if self._hooked:
            self._charge("base", record.base)
            self._at_call_site(record.site)
            stack.append(Frame(callee, record.site))
            self._enter_function(callee)
            try:
                return fn(self, *args, **kwargs)
            finally:
                self._exit_function(callee)
                stack.pop()
        self._count(record.charges)
        register = self._register
        register.sites_crossed += 1
        t = frame.t
        mix = record.mix
        if mix is None:
            value = t
        else:
            value = mix(t, record.step)
            register.updates_executed += 1
        if record.apart:
            self._charge_encoding("encoding", record.apart)
        register.value = value
        stack.append(Frame(callee, record.site, value))
        try:
            return fn(self, *args, **kwargs)
        finally:
            stack.pop()
            register.value = t

    # ------------------------------------------------------------------
    # Heap API (each allocation flows through its declared call site)
    # ------------------------------------------------------------------

    def _checkpoint(self) -> None:
        """Preemption point for lock-step multi-threaded execution."""
        if self.scheduler is not None:
            self.scheduler.checkpoint(self.scheduler_thread_id)

    def _heap_crossing(self, fun: str, site: str,
                       count: int) -> Tuple[CallSite, int]:
        """Cross the heap call site ``site`` to ``fun`` from the current
        function ``count`` times in a row; returns it and the CCID the
        allocations read."""
        stack = self._stack
        if not stack:
            raise ProcessError(_NO_FRAME)
        frame = stack[-1]
        record = self._heap_calls.get((frame.function, fun, site))
        if record is None:
            record = self._bind(self._heap_calls, frame.function, fun, site,
                                False)
        call_site = record.site
        self.last_alloc_site = call_site
        if self._hooked:
            self._at_call_site(call_site, count)
            return call_site, self._current_ccid()
        register = self._register
        register.sites_crossed += count
        mix = record.mix
        if mix is None:
            ccid = frame.t
        else:
            ccid = mix(frame.t, record.step)
            register.updates_executed += count
            if record.encoding:
                self._charge_encoding("encoding", record.encoding * count)
        register.value = ccid
        return call_site, ccid

    def _alloc(self, fun: str, site: str, *args: int) -> int:
        if self.scheduler is not None:
            self.scheduler.checkpoint(self.scheduler_thread_id)
        call_site, ccid = self._heap_crossing(fun, site, 1)
        address = self.monitor.heap_alloc(fun, *args)
        self.alloc_profile[(fun, ccid)] += 1
        if self.record_allocations:
            size = args[-1] if fun != "calloc" else args[0] * args[1]
            self._log(fun, ccid, call_site, (address,), (size,))
        return address

    def _log(self, fun: str, ccid: int, call_site: CallSite,
             addresses: Sequence[int], sizes: Sequence[int]) -> None:
        """Append one :class:`AllocationEvent` per allocation of a run
        of ``fun`` through ``call_site``, numbered from the log's
        length."""
        log = self.allocations
        context = self.current_context() + (call_site.site_id,)
        log.extend(AllocationEvent(serial, fun, ccid, address, size, context)
                   for serial, (address, size)
                   in enumerate(zip(addresses, sizes), len(log)))

    def malloc(self, size: int, site: str = "") -> int:
        """Guest ``malloc`` through the declared call site."""
        return self._alloc("malloc", site, size)

    def calloc(self, nmemb: int, size: int, site: str = "") -> int:
        """Guest ``calloc``."""
        return self._alloc("calloc", site, nmemb, size)

    def memalign(self, alignment: int, size: int, site: str = "") -> int:
        """Guest ``memalign``."""
        return self._alloc("memalign", site, alignment, size)

    def aligned_alloc(self, alignment: int, size: int,
                      site: str = "") -> int:
        """Guest ISO C11 ``aligned_alloc`` (its own FUN in patches)."""
        return self._alloc("aligned_alloc", site, alignment, size)

    def posix_memalign(self, alignment: int, size: int,
                       site: str = "") -> int:
        """Guest ``posix_memalign`` (its own FUN in patches)."""
        return self._alloc("posix_memalign", site, alignment, size)

    def realloc(self, address: int, size: int, site: str = "") -> int:
        """Guest ``realloc``; retags the buffer's allocation context."""
        self._checkpoint()
        call_site, ccid = self._heap_crossing("realloc", site, 1)
        new_address = self.monitor.heap_alloc("realloc", address, size)
        self.alloc_profile[("realloc", ccid)] += 1
        if self.record_allocations and size > 0 and new_address:
            self._log("realloc", ccid, call_site, (new_address,), (size,))
        return new_address

    def free(self, address: int) -> None:
        """Guest ``free``."""
        self._checkpoint()
        self.monitor.heap_free(address)

    # ------------------------------------------------------------------
    # Batched heap API (same-call-site runs)
    # ------------------------------------------------------------------

    def malloc_run(self, sizes: List[int], site: str = "") -> List[int]:
        """Batched guest ``malloc``: many requests through *one* site.

        Context work (site resolution, the encoding update, the CCID
        read) happens once — valid because every allocation of the run
        flows through the same call site, so the per-call path would
        compute the identical CCID each time.  The crossing counts the
        entries the run reaches, so encoding cycles, update counters
        and coverage still count every crossing.  Profile counts and
        events match a per-call loop exactly.  Under a lock-step
        scheduler, or when the CCID read is impure, the run is replayed
        per call so every allocation stays a preemption point and reads
        its own CCID.

        A run that raises partway crosses and profiles the entries the
        loop reaches, the failing one's crossing included, counted off
        the heap's ``malloc_calls`` as the monitor counts its ``base``.
        The log cannot name the buffers made before the failure, so
        while it is kept, a run that may stop partway for a reason
        known up front (a negative size, an armed fault injector) is
        replayed per call.
        """
        if not sizes:
            return []
        monitor = self.monitor
        if (self.scheduler is not None or not self._pure_ccid
                or self.record_allocations and (
                    min(sizes) < 0
                    or monitor.memory.fault_injector is not None)):
            return [self.malloc(size, site=site) for size in sizes]
        # The first crossing sets the CCID the heap reads; the others
        # leave the same CCID, so they are counted once the run's
        # reach is known.
        call_site, ccid = self._heap_crossing("malloc", site, 1)
        stats = monitor.heap.stats
        made = stats.malloc_calls
        try:
            addresses = monitor.heap_alloc_run("malloc", sizes)
        except BaseException:
            made = stats.malloc_calls - made
            if made:
                self._heap_crossing("malloc", site, made)
                self.alloc_profile[("malloc", ccid)] += made
            raise
        n = len(sizes)
        if n > 1:
            self._heap_crossing("malloc", site, n - 1)
        self.alloc_profile[("malloc", ccid)] += n
        if self.record_allocations:
            self._log("malloc", ccid, call_site, addresses, sizes)
        return addresses

    def free_run(self, addresses: List[int]) -> None:
        """Batched guest ``free`` (see :meth:`malloc_run`)."""
        if not addresses:
            return
        if self.scheduler is not None:
            for address in addresses:
                self.free(address)
            return
        self.monitor.heap_free_run(addresses)

    # ------------------------------------------------------------------
    # Memory API
    # ------------------------------------------------------------------

    def read(self, address: int, size: int) -> TaggedValue:
        """Load bytes into a register value (no validity check)."""
        self._checkpoint()
        return self.monitor.read(address, size)

    def write(self, address: int, data: Any) -> None:
        """Store bytes or a :class:`TaggedValue` to memory."""
        self._checkpoint()
        if isinstance(data, TaggedValue):
            self.monitor.write(address, data)
        else:
            self.monitor.write(address, TaggedValue.of_bytes(data))

    def write_int(self, address: int, value: int, size: int = 8) -> None:
        """Store an immediate little-endian integer."""
        self.monitor.write(address, TaggedValue.of_int(value, size))

    def read_int(self, address: int, size: int = 8) -> TaggedValue:
        """Load an integer-sized value."""
        return self.monitor.read(address, size)

    def copy(self, dst: int, src: int, size: int) -> None:
        """Guest ``memcpy`` (propagates shadow state, never checks it)."""
        self._checkpoint()
        self.monitor.copy(dst, src, size)

    def fill(self, address: int, size: int, byte: int = 0) -> None:
        """Guest ``memset``."""
        self._checkpoint()
        self.monitor.fill(address, size, byte)

    def compute(self, cycles: int) -> None:
        """Charge ``cycles`` of pure computation to the baseline."""
        self.monitor.compute(cycles)

    def exec_block(self, block: BasicBlock, *args: int) -> Any:
        """Execute a pre-decoded straight-line run in one dispatch.

        Observationally identical to issuing the block's ops through the
        per-op methods above (``tests/program/test_block_equivalence.py``
        holds the batched path to that).  Under a lock-step scheduler the
        block is interpreted per-op so every op stays a preemption
        point; otherwise it goes to the monitor in one call (the
        :class:`~repro.program.monitor.DirectMonitor` fuses it).
        Returns the block outputs: one entry per value-use / syscall-out
        op, in op order.
        """
        if self.scheduler is not None:
            return block.interpret(self, args)
        return self.monitor.exec_block(block, args)

    def exec_block_run(self, block: BasicBlock,
                       rows: Sequence[Sequence[int]]) -> List[Any]:
        """Execute ``block`` once per argument row (a request batch).

        Equivalent to calling :meth:`exec_block` per row; the monitor
        fuses the loop.  Returns the per-row output lists in row order.
        """
        if self.scheduler is not None:
            return [block.interpret(self, row) for row in rows]
        return self.monitor.exec_block_run(block, rows)

    # ------------------------------------------------------------------
    # Value uses — the only validity check points (Fig. 4 discipline)
    # ------------------------------------------------------------------

    def branch_on(self, value: TaggedValue) -> int:
        """Use a value to decide control flow; returns it as an int."""
        self.monitor.use(value, "branch")
        return value.to_int()

    def use_as_address(self, value: TaggedValue) -> int:
        """Use a value as a memory address; returns it as an int."""
        self.monitor.use(value, "address")
        return value.to_int()

    def syscall_out(self, address: int, size: int) -> bytes:
        """Send a buffer to the outside world (kernel-visible use)."""
        self._checkpoint()
        return self.monitor.syscall_out(address, size)

    def syscall_in(self, address: int, data: bytes) -> None:
        """Receive external data into a buffer (initializes it)."""
        self._checkpoint()
        self.monitor.syscall_in(address, data)

    def sendfile(self, address: int, size: int) -> int:
        """Send a buffer zero-copy (``sendfile``): same access check and
        cycle charge as :meth:`syscall_out`, returns the byte count."""
        self._checkpoint()
        return self.monitor.sendfile(address, size)


class ProgramLike:
    """Structural typing helper for things with a ``main(process, ...)``."""

    def main(self, process: Process, *args: Any, **kwargs: Any) -> Any:
        """The program body; see :class:`repro.program.program.Program`."""
        raise NotImplementedError
