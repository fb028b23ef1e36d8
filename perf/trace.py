"""Layer spans for the traced benchmark pass.

:class:`Tracer` wraps each layer's public entry points *on the class*,
so it must be installed before the instances it should observe are
built: the hot paths prebind bound methods in ``__init__`` (the
defended allocator binds ``memory.write_word``, the process binds the
encoding hooks, ...), and a binding taken after installation resolves
to the wrapper.  Uninstalling puts every original class attribute back.

Every wrapped call appends one span ``(entry, start, end, parent, n)``
to an in-memory list: ``entry`` indexes :attr:`Tracer.entries`,
``parent`` is the index of the enclosing span in the same process (-1
at top level) and ``n`` is the number of requests the call carries
(the length of the batch for ``*_run`` entry points, else 1).  Pool
workers forked while the tracer is installed start with an empty list
and write their spans to ``<spool>/spans-part-<pid>.json`` when they
exit, through :class:`multiprocessing.util.Finalize`; :meth:`collect`
reads them back.  All clocks are ``time.perf_counter`` (the system-wide
monotonic clock on Linux), so spans of different processes share one
time axis.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from multiprocessing import util
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.allocator.libc import LibcAllocator
from repro.allocator.segregated import SegregatedAllocator
from repro.ccencoding.runtime import EncodingRuntime
from repro.defense.interpose import DefendedAllocator
from repro.fleet.registry import Subscriber
from repro.machine.memory import VirtualMemory
from repro.program.monitor import DirectMonitor
from repro.program.process import Process
from repro.serving.engine import ServingEngine
from repro.serving.handle import PatchTableHandle
from repro.serving.session import ServingSession

_ALLOCATOR_OPS = ("malloc", "calloc", "memalign", "realloc", "free",
                  "malloc_run", "free_run")

#: layer -> ((class, method names), ...).  The order is the order a
#: request crosses the layers, top down.
LAYERS: Dict[str, Tuple[Tuple[type, Tuple[str, ...]], ...]] = {
    "fleet": ((Subscriber, ("accept",)),
              (PatchTableHandle, ("swap",))),
    "serving": ((ServingEngine, ("serve",)),
                (ServingSession, ("__init__", "serve_rounds"))),
    "program": ((Process, ("run", "call", "malloc", "calloc", "realloc",
                           "free", "malloc_run", "free_run", "read",
                           "write", "copy", "fill", "compute",
                           "exec_block", "exec_block_run", "syscall_out",
                           "syscall_in", "sendfile")),
                (DirectMonitor, ("heap_alloc", "heap_free",
                                 "heap_alloc_run", "heap_free_run",
                                 "compute", "read", "write", "copy",
                                 "fill", "syscall_out", "syscall_in",
                                 "sendfile", "exec_block",
                                 "exec_block_run"))),
    "defense": ((DefendedAllocator, _ALLOCATOR_OPS + ("swap_table",)),),
    "ccencoding": ((EncodingRuntime, ("enter_function", "exit_function",
                                      "at_call_site", "current_ccid")),),
    "allocator": ((LibcAllocator, _ALLOCATOR_OPS),
                  (SegregatedAllocator, _ALLOCATOR_OPS)),
    "machine": ((VirtualMemory, ("mmap", "munmap", "mprotect", "sbrk",
                                 "check_read", "read", "write", "read_word",
                                 "write_word", "read_word_pair",
                                 "write_word_pair", "read_words",
                                 "write_words", "write_word_scatter",
                                 "read_word_gather", "fill", "peek",
                                 "poke")),),
}

#: Entry points whose call carries a batch: name -> index of the batch
#: argument in ``(self, *args)``.
_BATCH_ARG = {"malloc_run": 1, "free_run": 1, "exec_block_run": 2,
              "heap_alloc_run": 2, "heap_free_run": 1}

#: One recorded span: (entry index, start, end, parent index, requests).
Span = Tuple[int, float, float, int, int]


class Tracer:
    """Installs the layer wrappers and owns the spans they record."""

    def __init__(self, spool: Path) -> None:
        #: Where pool workers write their spans on exit.
        self.spool = Path(spool)
        #: ``(layer, "Class.method")`` per wrapped entry point.
        self.entries: List[Tuple[str, str]] = []
        self.spans: List[Optional[Span]] = []
        #: Open span indices; the sentinel -1 is the top-level parent.
        self._stack: List[int] = [-1]
        self._originals: List[Tuple[type, str, Any]] = []
        self._fork_hook_registered = False

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self) -> "Tracer":
        """Wrap every entry point in :data:`LAYERS` on its class."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        for layer, targets in LAYERS.items():
            for cls, names in targets:
                for name in names:
                    original = cls.__dict__[name]
                    key = len(self.entries)
                    self.entries.append((layer,
                                         f"{cls.__name__}.{name}"))
                    self._originals.append((cls, name, original))
                    setattr(cls, name, self._wrap(original, key,
                                                  _BATCH_ARG.get(name)))
        if not self._fork_hook_registered:
            # Runs in multiprocessing children after their bootstrap has
            # reset the finalizer registry, so the Finalize below sticks.
            util.register_after_fork(self, Tracer._after_fork)
            self._fork_hook_registered = True
        return self

    def uninstall(self) -> None:
        """Restore every wrapped class attribute (idempotent)."""
        while self._originals:
            cls, name, original = self._originals.pop()
            setattr(cls, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    def clear(self) -> None:
        """Drop the spans recorded so far in this process."""
        del self.spans[:]
        del self._stack[1:]

    def _wrap(self, fn: Callable[..., Any], key: int,
              batch_arg: Optional[int]) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        if batch_arg is None:
            def traced(*args: Any, **kwargs: Any) -> Any:
                index = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(index)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (key, start, end, parent, 1)
        else:
            def traced(*args: Any, **kwargs: Any) -> Any:
                index = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(index)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (key, start, end, parent,
                                    len(args[batch_arg]))
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", "traced")
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- pool workers --------------------------------------------------

    def _after_fork(self) -> None:
        """In a worker forked while installed: keep only its own spans,
        and write them out when it exits."""
        if not self.installed:
            return
        self.clear()
        util.Finalize(None, self._flush, exitpriority=100)

    def _flush(self) -> None:
        self.spool.mkdir(parents=True, exist_ok=True)
        path = self.spool / f"spans-part-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({
            "pid": os.getpid(),
            "spans": [span for span in self.spans if span is not None],
        }))
        tmp.replace(path)

    def collect(self) -> List[Tuple[int, List[Span]]]:
        """``[(pid, spans)]``: this process first, then every flushed
        worker (whose part files are consumed)."""
        processes: List[Tuple[int, List[Span]]] = [
            (os.getpid(), [span for span in self.spans
                           if span is not None])]
        for path in sorted(self.spool.glob("spans-part-*.json")):
            doc = json.loads(path.read_text())
            processes.append((int(doc["pid"]),
                              [tuple(span) for span in doc["spans"]]))
            path.unlink()
        return processes


def calibrate(repeat: int = 20000) -> Tuple[float, float]:
    """Per-span wrapper cost in seconds: ``(inner, outer)``.

    ``inner`` is the part of the wrapper inside a span's own interval
    (it inflates the span's duration); ``outer`` is the part outside it
    (it inflates the parent's self time).  Measured on an empty method
    as medians of several trials, on a private class.
    """
    class Empty:
        def op(self) -> None:
            pass

    tracer = Tracer(Path("."))
    traced = tracer._wrap(Empty.op, 0, None)
    empty = Empty()
    plain_calls = []
    traced_calls = []
    inner = []
    clock = time.perf_counter
    for _ in range(7):
        start = clock()
        for _ in range(repeat):
            Empty.op(empty)
        plain_calls.append((clock() - start) / repeat)
        tracer.clear()
        start = clock()
        for _ in range(repeat):
            traced(empty)
        traced_calls.append((clock() - start) / repeat)
        inner.append(sum(span[2] - span[1] for span in tracer.spans)
                     / repeat)
    tracer.clear()
    inner_s = statistics.median(inner)
    outer_s = max(0.0, statistics.median(traced_calls)
                  - statistics.median(plain_calls) - inner_s)
    return inner_s, outer_s


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

#: Process entry points that execute one guest operation per call; the
#: block entry points execute one fused row per request instead.
_PER_OP = frozenset(f"Process.{name}" for name in (
    "read", "write", "copy", "fill", "syscall_out", "syscall_in",
    "sendfile"))
_BLOCK = frozenset(("Process.exec_block", "Process.exec_block_run"))
_DEFENSE_ALLOC = frozenset(f"DefendedAllocator.{name}" for name in (
    "malloc", "calloc", "memalign", "realloc", "malloc_run"))
_SESSION = frozenset(("ServingSession.__init__",
                      "ServingSession.serve_rounds"))

#: Per-layer metric names, in report order.
LAYER_METRICS = (
    "machine.self_ms", "machine.calls", "machine.mmap_calls",
    "machine.mprotect_calls",
    "allocator.self_ms", "allocator.calls", "allocator.batched_frac",
    "ccencoding.self_ms", "ccencoding.calls",
    "defense.self_ms", "defense.calls", "defense.ccid_read_frac",
    "defense.guard_frac",
    "program.self_ms", "program.calls", "program.block_rows_frac",
    "serving.self_ms", "serving.batches", "serving.session_ms",
    "serving.wait_ms", "serving.worker_busy_frac",
    "fleet.verify_ms", "fleet.swap_ms",
    "unattributed.self_ms",
)


def analyze(entries: Sequence[Tuple[str, str]],
            processes: Sequence[Tuple[int, Sequence[Span]]],
            windows: Sequence[Tuple[float, float]],
            workers: int,
            wrapper_cost: Tuple[float, float] = (0.0, 0.0),
            ) -> Dict[str, float]:
    """Per-layer metrics, as means per round over ``windows``.

    ``processes[0]`` is the process that timed the rounds; ``windows``
    are its ``(start, end)`` round intervals.  Spans outside the
    recorded rounds (the warm-up) are ignored.  ``workers`` is the
    serving engine's worker count (0 for a workload without an engine).
    Self time is a span's duration minus its children's durations,
    minus the calibrated ``wrapper_cost`` of itself and of each child
    call.
    """
    inner, outer = wrapper_cost
    rounds = len(windows)
    first, last = windows[0][0], windows[-1][1]
    layer_of = [layer for layer, _ in entries]
    name_of = [name for _, name in entries]
    self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
    count: Dict[str, int] = {}
    alloc_items = alloc_batched = 0
    defense_items = ccid_reads = guards = 0
    block_rows = per_op = 0
    session_s = serve_s = wait_s = verify_s = swap_s = 0.0
    top_s = 0.0
    top_n = 0

    for position, (_, spans) in enumerate(processes):
        child_s = [0.0] * len(spans)
        children = [0] * len(spans)
        session_under = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
                children[parent] += 1
        for index in range(len(spans) - 1, -1, -1):
            # Children come after their parents, so one backward pass
            # sums the in-process session time under every span.
            key, start, end, parent, _ = spans[index]
            if parent >= 0:
                session_under[parent] += (
                    end - start if name_of[key] in _SESSION
                    else session_under[index])
        for index, (key, start, end, parent, n) in enumerate(spans):
            if start < first or end > last:
                continue
            layer = layer_of[key]
            name = name_of[key]
            duration = end - start
            own = max(0.0, duration - child_s[index] - inner
                      - children[index] * outer)
            self_s[layer] += own
            calls[layer] += 1
            count[name] = count.get(name, 0) + 1
            parent_layer = layer_of[spans[parent][0]] if parent >= 0 else ""
            parent_name = name_of[spans[parent][0]] if parent >= 0 else ""
            entry = parent_layer != layer
            if layer == "allocator" and entry:
                alloc_items += n
                if name.endswith("_run"):
                    alloc_batched += n
            elif name in _DEFENSE_ALLOC and entry:
                defense_items += n
            elif name == "EncodingRuntime.current_ccid":
                ccid_reads += parent_layer == "defense"
            elif name == "VirtualMemory.mprotect":
                guards += parent_name in _DEFENSE_ALLOC
            elif name in _BLOCK:
                block_rows += n
            elif name in _PER_OP:
                per_op += 1
            if name in _SESSION:
                session_s += duration
            elif name == "ServingEngine.serve":
                serve_s += duration
                if session_under[index] == 0.0:
                    # The batches ran in pool workers: the controller's
                    # own time in serve() is dispatch and waiting.
                    wait_s += own
            elif name == "Subscriber.accept":
                verify_s += duration
            elif name == "PatchTableHandle.swap":
                swap_s += duration
            if position == 0 and parent < 0:
                top_s += duration
                top_n += 1

    self_s["serving"] -= wait_s
    wall = sum(end - start for start, end in windows)
    per_round_ms = 1000.0 / rounds
    metrics: Dict[str, float] = {}
    for layer in ("machine", "allocator", "ccencoding", "defense",
                  "program", "serving"):
        metrics[f"{layer}.self_ms"] = self_s[layer] * per_round_ms
        if layer != "serving":
            metrics[f"{layer}.calls"] = calls[layer] / rounds
    metrics["machine.mmap_calls"] = count.get("VirtualMemory.mmap",
                                              0) / rounds
    metrics["machine.mprotect_calls"] = count.get(
        "VirtualMemory.mprotect", 0) / rounds
    metrics["allocator.batched_frac"] = _ratio(alloc_batched, alloc_items)
    metrics["defense.ccid_read_frac"] = _ratio(ccid_reads, defense_items)
    metrics["defense.guard_frac"] = _ratio(guards, defense_items)
    metrics["program.block_rows_frac"] = _ratio(block_rows,
                                                block_rows + per_op)
    metrics["serving.batches"] = count.get("ServingSession.serve_rounds",
                                           0) / rounds
    metrics["serving.session_ms"] = session_s * per_round_ms
    metrics["serving.wait_ms"] = wait_s * per_round_ms
    metrics["serving.worker_busy_frac"] = (
        _ratio(session_s, workers * serve_s) if workers else 0.0)
    metrics["fleet.verify_ms"] = verify_s * per_round_ms
    metrics["fleet.swap_ms"] = swap_s * per_round_ms
    metrics["unattributed.self_ms"] = max(
        0.0, wall - top_s - top_n * outer) * per_round_ms
    return {name: metrics[name] for name in LAYER_METRICS}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


#: Field order of the rows :func:`write_spans` writes.
SPAN_FIELDS = ("id", "parent", "pid", "name", "layer", "start_us",
               "end_us", "round", "batch", "n")


def write_spans(path: Path, entries: Sequence[Tuple[str, str]],
                processes: Sequence[Tuple[int, Sequence[Span]]],
                windows: Sequence[Tuple[float, float]]) -> None:
    """Write every span inside ``windows`` as JSON lines.

    The first line is a header naming the fields of the rows that
    follow (:data:`SPAN_FIELDS`); rows are arrays, to keep the file
    small.  ``id`` is the span's index in its process's recording order
    and ``parent`` the ``id`` of the enclosing span of the same ``pid``
    (-1 at top level).  Times are microseconds since the first window
    opened.  ``round`` is the window the span ran in; ``batch`` is the
    ordinal of the serving session the span ran in, counted per process
    (-1 outside any session).
    """
    origin = windows[0][0]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(json.dumps({"fields": SPAN_FIELDS,
                                 "origin_s": origin}) + "\n")
        for pid, spans in processes:
            batch = -1
            for index, (key, start, end, parent, n) in enumerate(spans):
                layer, name = entries[key]
                if name == "ServingSession.__init__":
                    batch += 1
                round_index = next(
                    (i for i, (lo, hi) in enumerate(windows)
                     if lo <= start and end <= hi), None)
                if round_index is None:
                    continue
                handle.write(json.dumps(
                    [index, parent, pid, name, layer,
                     round((start - origin) * 1e6, 2),
                     round((end - origin) * 1e6, 2), round_index, batch, n],
                    separators=(",", ":")) + "\n")
