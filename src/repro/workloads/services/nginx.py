"""Nginx-1.2-like static web server simulation.

The paper measures HeapTherapy+'s throughput overhead on Nginx with
Apache Benchmark at 20–200 concurrent requests (average overhead 4.2%).
The simulation reproduces the allocation character of serving static
files: per request a connection context, a header buffer, a URI copy and
a response body are heap-allocated, the file content is copied into the
response, and everything is freed at request end — several short-lived
allocations per request, which is why interposition overhead is visible
but small.
"""

from __future__ import annotations

import random
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from ...machine.layout import PAGE_SIZE
from ...program.blocks import BasicBlock, BlockBuilder
from ...program.callgraph import CallGraph
from ...program.process import Process
from ...program.program import Program

#: The server's document tree: path -> file size in bytes.
DOCUMENT_TREE: Dict[str, int] = {
    "/index.html": 4 * 1024,
    "/style.css": 2 * 1024,
    "/app.js": 8 * 1024,
    "/logo.png": 16 * 1024,
    "/api/status": 256,
}

#: Request mix: mostly documents, occasionally a missing path, which
#: exercises the (rare) error-page allocation context — the kind of
#: seldom-run code path real heap CVEs tend to live on.
MISSING_PATH = "/favicon.ico"
MISSING_PATH_WEIGHT = 0.03

#: Pre-rendered 404 body size.
ERROR_PAGE_SIZE = 512

#: Per-request connection-context size.
CONNECTION_CTX_SIZE = 424

#: Header buffer size (client request head).
HEADER_BUF_SIZE = 1024

#: Request token the serving engine injects to simulate a Heartbleed-
#: style overread attack: the response path sends ``LEAK_EXTRA`` bytes
#: past the body buffer.
LEAK_REQUEST = "!leak"

#: Response-body size the attack's crafted content-length provokes.
#: 120 bytes is chosen so the body lives in a size class no benign
#: request touches — natively (120 -> class 128) and under the
#: defense's inline-metadata fast path (128 -> class 128) — which makes
#: the grooming below deterministic.
LEAK_BODY_SIZE = 120

#: Bytes the leak attack overreads past the response body.  One full
#: page: a guarded buffer's slack between buffer end and guard page is
#: always < PAGE_SIZE, so a page-long overread provably reaches the
#: sealed guard under *any* placement.
LEAK_EXTRA = PAGE_SIZE

#: Grooming allocations the attack sprays on either side of the body.
#: The spray is one run of ``2 * LEAK_GROOM + 1`` same-size requests
#: through the body's call site, the body in the middle (entry
#: ``LEAK_GROOM``).  34 slots x 128 bytes > LEAK_BODY_SIZE + LEAK_EXTRA:
#: whichever direction the allocator hands out slots, the overread
#: stays inside live, mapped attacker allocations — so the *native*
#: server leaks heap bytes instead of crashing, exactly the Heartbleed
#: shape.  Only the patched defense (guard page sealed directly against
#: the body's context) turns the read into a fault.
LEAK_GROOM = 34

#: Path the leak attack requests.
LEAK_PATH = "/api/status"

#: Requests per fused serving chunk: bounds peak live buffers per group
#: and keeps freed response-body mappings flowing through the
#: allocator's large-mapping cache into the next chunk.
SERVE_CHUNK = 64

#: Keep-alive connections a serving chunk multiplexes its requests
#: over — Apache Benchmark's concurrency level in the paper's Nginx
#: experiments.  Connection context and header buffer are allocated
#: once per connection and reused across its requests.
SERVE_CONCURRENCY = 20


def request_stream(count: int) -> List[str]:
    """The benign request mix as an explicit token list.

    Draw-for-draw identical to the legacy worker loop's RNG use, so the
    serving engine and the sequential oracle serve the same requests in
    the same order.
    """
    rng = random.Random("nginx:requests")
    paths = sorted(DOCUMENT_TREE)
    return [MISSING_PATH if rng.random() < MISSING_PATH_WEIGHT
            else paths[rng.randrange(len(paths))]
            for _ in range(count)]


class Stage(NamedTuple):
    """One request stage, defined once for every entry point.

    The stage runs as guest function ``function``.  There it allocates
    its buffer through the ``site`` call site — once per keep-alive
    connection when ``per_connection``, else once per request — and
    runs ``setup`` on each new buffer (as arg 0).  ``ops`` are its
    per-request ops on that buffer; the stages' ops fuse into one block
    per request.  Heap calls stay in the frames, so every buffer's CCID
    is the same whichever entry point serves the request (blocks never
    allocate).
    """

    function: str
    site: str
    size: int
    per_connection: bool = False
    setup: Optional[BasicBlock] = None
    #: ``ops(b, arg, render)``: per-request ops on the stage's buffer;
    #: ``render`` is False when the response body is already rendered.
    ops: Optional[Callable[[BlockBuilder, int, bool], None]] = None


class RequestPlan(NamedTuple):
    """A path's stages and the blocks compiled from them."""

    stages: Tuple[Stage, ...]
    #: The request's fused ops over its stages' buffers (arg 0 = header
    #: buffer, 1 = URI buffer, 2 = response body), rendering the body.
    fill: BasicBlock
    #: The same, sending an already-rendered body.
    cached: BasicBlock
    #: The ops of every stage before the response (args 0, 1 as above).
    lead: BasicBlock


def request_block(stages: Sequence[Stage], render: bool) -> BasicBlock:
    """Fuse the per-request ops of ``stages``, in stage order; each
    stage with ops takes the next block argument."""
    b = BlockBuilder()
    ops = [stage.ops for stage in stages if stage.ops is not None]
    for arg, emit in enumerate(ops):
        emit(b, arg, render)
    return b.build()


class NginxServer(Program):
    """Request-loop worker process.

    Both entry points run the stages of :meth:`_stages` through
    :meth:`_serve_chunk`: ``main`` serves each request as a chunk of one
    on its own connection, in stream order (``ab`` without ``-k``);
    ``serve_round`` serves keep-alive chunks of up to :data:`SERVE_CHUNK`
    same-path requests over up to :data:`SERVE_CONCURRENCY` connections.
    """

    name = "nginx-1.2"

    def __init__(self) -> None:
        super().__init__()
        self._documents: Dict[str, bytes] = {
            path: bytes((i * 131 + len(path)) % 256 for i in range(size))
            for path, size in DOCUMENT_TREE.items()
        }
        self._plans: Dict[str, RequestPlan] = {}

    def build_graph(self) -> CallGraph:
        graph = CallGraph(entry="main")
        graph.add_call_site("main", "worker_loop")
        graph.add_call_site("worker_loop", "handle_request")
        graph.add_call_site("handle_request", "accept_connection")
        graph.add_call_site("accept_connection", "malloc", "conn_ctx")
        graph.add_call_site("handle_request", "read_headers")
        graph.add_call_site("read_headers", "malloc", "header_buf")
        graph.add_call_site("handle_request", "parse_uri")
        graph.add_call_site("parse_uri", "malloc", "uri_buf")
        graph.add_call_site("handle_request", "send_response")
        graph.add_call_site("send_response", "malloc", "body_buf")
        graph.add_call_site("handle_request", "send_error_page")
        graph.add_call_site("send_error_page", "malloc", "error_page")
        graph.add_call_site("handle_request", "free", "teardown")
        return graph

    # -- the request, stage by stage -----------------------------------

    def _stages(self, path: str) -> Tuple[Stage, ...]:
        """The request for ``path``: the one definition of its heap
        calls and ops."""
        head = (f"GET {path} HTTP/1.1\r\nHost: repro\r\n"
                f"Connection: keep-alive\r\n\r\n").encode()
        uri = path.encode() + b"\x00"
        content = self._documents.get(path)

        connect = BlockBuilder()
        connect.fill(0, 0, CONNECTION_CTX_SIZE, 0)
        connect.compute(6200)  # accept4 + epoll + connection setup

        def read_headers(b: BlockBuilder, arg: int, render: bool) -> None:
            b.syscall_in(arg, 0, head)
            b.compute(7400 + len(head) * 6)  # recv + header parsing

        def parse_uri(b: BlockBuilder, arg: int, render: bool) -> None:
            b.write(arg, 0, uri)
            b.compute(2100)  # uri normalization + location match

        respond: Stage
        if content is not None:
            def send_response(b: BlockBuilder, arg: int,
                              render: bool) -> None:
                if render:
                    b.write(arg, 0, content)
                b.compute(8800 + len(content) // 16)  # writev + logging
                b.sendfile(arg, 0, len(content))

            respond = Stage("send_response", "body_buf", len(content),
                            ops=send_response)
        else:
            message = (f"<html><body>404 Not Found: {path}</body></html>"
                       .encode()[:ERROR_PAGE_SIZE])

            def send_error_page(b: BlockBuilder, arg: int,
                                render: bool) -> None:
                """The rare path: a 404 rendered into its own buffer."""
                if render:
                    b.fill(arg, 0, ERROR_PAGE_SIZE, 0x20)
                    b.write(arg, 0, message)
                b.compute(7000)
                b.sendfile(arg, 0, ERROR_PAGE_SIZE)

            respond = Stage("send_error_page", "error_page",
                            ERROR_PAGE_SIZE, ops=send_error_page)
        return (
            Stage("accept_connection", "conn_ctx", CONNECTION_CTX_SIZE,
                  per_connection=True, setup=connect.build()),
            Stage("read_headers", "header_buf", HEADER_BUF_SIZE,
                  per_connection=True, ops=read_headers),
            Stage("parse_uri", "uri_buf", len(uri), ops=parse_uri),
            respond,
        )

    def _plan(self, path: str) -> RequestPlan:
        """:meth:`_stages` of ``path`` with its blocks, compiled once."""
        plan = self._plans.get(path)
        if plan is None:
            stages = self._stages(path)
            plan = RequestPlan(stages, request_block(stages, True),
                               request_block(stages, False),
                               request_block(stages[:-1], True))
            self._plans[path] = plan
        return plan

    @staticmethod
    def _allocate(p: Process, stage: Stage, k: int) -> List[int]:
        """A stage's heap calls: ``k`` buffers through its call site.
        (A run of one is a plain ``malloc``: same observations, less
        work.)"""
        if k == 1:
            buffers = [p.malloc(stage.size, site=stage.site)]
        else:
            buffers = p.malloc_run([stage.size] * k, site=stage.site)
        if stage.setup is not None:
            p.exec_block_run(stage.setup, [(buffer,) for buffer in buffers])
        return buffers

    def _serve_chunk(self, p: Process, path: str, n: int) -> int:
        """Serve ``n`` requests for ``path``; returns each one's reply
        length.

        The requests share ``C = min(n, SERVE_CONCURRENCY)`` keep-alive
        connections, whose context and header buffer are allocated once
        and reused: request ``i`` reads its head on connection
        ``i % C``.  Each request allocates its own URI and body buffers.
        The first request renders the response into its body buffer
        (the open-file-cache fill); the others send from that copy —
        nginx's sendfile shape, where hot content is not re-copied
        through the heap per request.  With ``n == 1`` this is one
        close-per-request request, rendering its own body.
        """
        plan = self._plan(path)
        c = min(n, SERVE_CONCURRENCY)
        buffers = [p.call(stage.function, self._allocate, stage,
                          c if stage.per_connection else n)
                   for stage in plan.stages]
        _, headers, uris, bodies = buffers
        sent = p.exec_block(plan.fill, headers[0], uris[0], bodies[0])[-1]
        if n > 1:
            body = bodies[0]
            p.exec_block_run(plan.cached, [(headers[i % c], uris[i], body)
                                           for i in range(1, n)])
        self._release(p, buffers)
        return sent

    @staticmethod
    def _release(p: Process, buffers: List[List[int]]) -> None:
        """Free every stage's buffers, in reverse stage order."""
        for run in reversed(buffers):
            if len(run) == 1:
                p.free(run[0])
            else:
                p.free_run(run)

    # -- close-per-request entry point ---------------------------------

    def main(self, p: Process, request_count: int,
             concurrency: int = 20) -> Dict[str, int]:
        return p.call("worker_loop", self._worker_loop, request_count,
                      concurrency)

    def _worker_loop(self, p: Process, request_count: int,
                     concurrency: int) -> Dict[str, int]:
        """One request at a time, in stream order (``concurrency``
        shapes admission, not behavior)."""
        served = 0
        bytes_sent = 0
        for path in request_stream(request_count):
            bytes_sent += p.call("handle_request", self._serve_chunk,
                                 path, 1)
            served += 1
        return {"served": served, "bytes_sent": bytes_sent}

    # ------------------------------------------------------------------
    # Serving mode (repro.serving): keep-alive same-path chunks
    # ------------------------------------------------------------------
    #
    # The serving engine drives request *rounds* through ``serve_round``.
    # Requests are grouped by path and each group is served in chunks of
    # :data:`SERVE_CHUNK` (bounding peak live buffers, and letting the
    # allocator's large-mapping cache recycle one chunk's bodies into
    # the next).  A round containing the attack token is a singleton
    # (the engine splits rounds at attacks), because its overread may
    # fault mid-request.

    def serve_round(self, p: Process, started: None,
                    requests: List[str]) -> Dict[str, Any]:
        """Serve one request round in batched mode (nginx has no
        serving startup: ``started`` is None)."""
        return p.call("worker_loop", self._serve_worker_loop, requests)

    def _serve_worker_loop(self, p: Process,
                           requests: List[str]) -> Dict[str, Any]:
        groups: Dict[str, List[int]] = {}
        for index, path in enumerate(requests):
            groups.setdefault(path, []).append(index)
        outcomes: List[Tuple[str, int]] = [("", 0)] * len(requests)
        bytes_sent = 0
        for path in sorted(groups):
            indices = groups[path]
            if path == LEAK_REQUEST:
                for index in indices:
                    sent = p.call("handle_request",
                                  self._handle_leak_request)
                    outcomes[index] = ("leak", sent)
                    bytes_sent += sent
                continue
            sent = p.call("handle_request", self._serve_keepalive, path,
                          len(indices))
            for index in indices:
                outcomes[index] = ("ok", sent)
            bytes_sent += sent * len(indices)
        return {"served": len(requests), "bytes_sent": bytes_sent,
                "outcomes": outcomes}

    def _serve_keepalive(self, p: Process, path: str, k: int) -> int:
        """Serve ``k`` requests for one path in keep-alive chunks."""
        sent = 0
        for start in range(0, k, SERVE_CHUNK):
            sent = self._serve_chunk(p, path, min(SERVE_CHUNK, k - start))
        return sent

    def __getstate__(self) -> Dict[str, Any]:
        # Plans are a per-process cache; workers rebuild them lazily,
        # keeping the shipped program plan pickle-clean.
        state = dict(self.__dict__)
        state["_plans"] = {}
        return state

    # -- the planted vulnerability (serving attack path) ---------------

    def _handle_leak_request(self, p: Process) -> int:
        """One attack request: the stages of a ``LEAK_PATH`` request up
        to the response, then an overread past the response body."""
        plan = self._plan(LEAK_PATH)
        buffers = [p.call(stage.function, self._allocate, stage, 1)
                   for stage in plan.stages[:-1]]
        _, (header,), (uri,) = buffers
        p.exec_block(plan.lead, header, uri)
        sent = p.call("send_response", self._send_leak_response, LEAK_PATH)
        self._release(p, buffers)
        return sent

    def _send_leak_response(self, p: Process, path: str) -> int:
        """A response whose body size and reply length are attacker-
        controlled (crafted content-length), after the attacker grooms
        the heap around the body: the reply reads ``LEAK_EXTRA`` bytes
        beyond the body buffer into the groomed neighbourhood — the
        Heartbleed shape.

        The spray is one ``malloc_run`` of ``2 * LEAK_GROOM + 1``
        buffers through the body's call site, the body being entry
        ``LEAK_GROOM``; the teardown is one ``free_run`` of the body,
        then the groom in allocation order.  Both are observationally
        the per-call loop (same addresses, CCIDs, cycles and guard
        pages).  A blocked attack faults in the send, before any free.
        """
        content = self._documents[path]
        spray = p.malloc_run([LEAK_BODY_SIZE] * (2 * LEAK_GROOM + 1),
                             site="body_buf")
        body = spray[LEAK_GROOM]
        p.write(body, content[:LEAK_BODY_SIZE])
        p.compute(8800 + LEAK_BODY_SIZE // 16)
        sent = p.syscall_out(body, LEAK_BODY_SIZE + LEAK_EXTRA)
        p.free_run([body] + spray[:LEAK_GROOM] + spray[LEAK_GROOM + 1:])
        return len(sent)
