"""MySQL-5.5.9-like storage-engine simulation.

The paper reports *no observable throughput overhead* for MySQL under
``mysql-stress-test.pl``.  The reason is structural: a database engine
front-loads its allocation work — the buffer pool, key cache and
per-connection arenas are allocated at startup and reused — so steady
state executes very few interposable heap calls per query.  The
simulation reproduces exactly that character: a startup phase builds the
buffer pool; each query then borrows pool pages and only occasionally
(e.g. large sorts) touches ``malloc``.

The pool is one batched run: one ``malloc_run`` of its pages, one
``exec_block_run`` of their header initialization and one ``free_run``
at teardown, observationally identical to the per-page loop of
``malloc``, ``fill`` and ``free`` (``tests/workloads/test_mysql_startup.py``
keeps that loop as the oracle).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Tuple

from ...program.blocks import BasicBlock, BlockBuilder
from ...program.callgraph import CallGraph
from ...program.process import Process
from ...program.program import Program

#: Pages in the buffer pool built at startup.
BUFFER_POOL_PAGES = 64

#: Bytes per pool page.
POOL_PAGE_SIZE = 16 * 1024

#: Fraction of queries that need a temporary sort buffer from malloc.
SORT_QUERY_FRACTION = 0.02


def request_stream(count: int) -> List[Tuple[int, bool]]:
    """The query mix as ``(page_index, needs_sort)`` tokens.

    Draw-for-draw identical to the legacy query loop's RNG use, so the
    serving engine and the sequential oracle execute the same queries
    in the same order.
    """
    rng = random.Random("mysql:queries")
    queries = []
    for _ in range(count):
        needs_sort = rng.random() < SORT_QUERY_FRACTION
        queries.append((rng.randrange(BUFFER_POOL_PAGES), needs_sort))
    return queries


def _query_block() -> BasicBlock:
    b = BlockBuilder()
    b.read(0, 256, 128)  # row lookup: a few cache lines of the page
    b.write(0, 64, b"\x01" * 16)  # dirty flag
    b.compute(1600)  # btree descent + row eval + net reply
    return b.build()


#: The point-query body (arg 0 = the borrowed pool page): the one
#: definition ``main``'s per-query frames and ``serve_main``'s fused
#: runs both execute.
QUERY_BLOCK = _query_block()


def _page_init_block() -> BasicBlock:
    b = BlockBuilder()
    b.fill(0, 0, 512, 0)  # page header initialization
    return b.build()


#: A pool page's startup body (arg 0 = the page), run once per page.
PAGE_INIT_BLOCK = _page_init_block()


class MySqlServer(Program):
    """Storage-engine worker with a startup-allocated buffer pool."""

    name = "mysql-5.5.9"

    def build_graph(self) -> CallGraph:
        graph = CallGraph(entry="main")
        graph.add_call_site("main", "startup")
        graph.add_call_site("startup", "malloc", "pool_page")
        graph.add_call_site("startup", "malloc", "key_cache")
        graph.add_call_site("main", "query_loop")
        graph.add_call_site("query_loop", "execute_query")
        graph.add_call_site("execute_query", "sort_rows")
        graph.add_call_site("sort_rows", "malloc", "sort_buf")
        graph.add_call_site("sort_rows", "free", "sort_buf")
        graph.add_call_site("main", "free", "teardown")
        return graph

    def main(self, p: Process, query_count: int) -> Dict[str, int]:
        return self._with_pool(p, self._query_loop, query_count)

    def _with_pool(self, p: Process, loop: Callable[..., Any],
                   arg: Any) -> Any:
        """Start up, run ``loop(pool, arg)`` as the query loop, tear
        down: the startup and teardown both entry points share.  The
        pool is released as one run, then the key cache, in the order a
        per-page loop of frees would release them."""
        pool, key_cache = p.call("startup", self._startup)
        stats = p.call("query_loop", loop, pool, arg)
        p.free_run(pool)
        p.free(key_cache)
        return stats

    def _startup(self, p: Process) -> Tuple[List[int], int]:
        """Allocate the buffer pool and key cache once.

        The pool pages come from one ``pool_page`` run and their headers
        are initialized by one block run; the key cache stays a scalar
        allocation.
        """
        pool = p.malloc_run([POOL_PAGE_SIZE] * BUFFER_POOL_PAGES,
                            site="pool_page")
        p.exec_block_run(PAGE_INIT_BLOCK, [(page,) for page in pool])
        key_cache = p.malloc(128 * 1024, site="key_cache")
        p.fill(key_cache, 1024, 0)
        return pool, key_cache

    def _query_loop(self, p: Process, pool: List[int],
                    query_count: int) -> Dict[str, int]:
        rows = 0
        sorts = 0
        for page_index, needs_sort in request_stream(query_count):
            rows += p.call("execute_query", self._execute_query, pool,
                           page_index, needs_sort)
            if needs_sort:
                sorts += 1
        return {"rows": rows, "sorts": sorts}

    def _execute_query(self, p: Process, pool: List[int], page_index: int,
                       needs_sort: bool) -> int:
        """One point query: touch a pool page; rare queries sort."""
        p.exec_block(QUERY_BLOCK, pool[page_index])
        if needs_sort:
            p.call("sort_rows", self._sort_rows)
        return 1

    def _sort_rows(self, p: Process) -> None:
        sort_buf = p.malloc(32 * 1024, site="sort_buf")
        p.fill(sort_buf, 4096, 0)
        p.compute(9000)  # filesort
        p.free(sort_buf)

    # ------------------------------------------------------------------
    # Serving mode (repro.serving): fused point-query blocks
    # ------------------------------------------------------------------

    def serve_main(self, p: Process,
                   queries: List[Tuple[int, bool]]) -> Dict[str, Any]:
        """Execute one query round in batched mode.

        Point queries replay as one fused basic block each (row read,
        dirty-flag write, compute); the rare sort queries keep the per-op
        ``execute_query`` frame chain so ``sort_buf`` allocations carry
        the exact sequential CCID.
        """
        return self._with_pool(p, self._serve_query_loop, queries)

    def _serve_query_loop(self, p: Process, pool: List[int],
                          queries: List[Tuple[int, bool]]) -> Dict[str, Any]:
        rows = 0
        sorts = 0
        point_rows: List[Tuple[int]] = []
        append_row = point_rows.append
        for page_index, needs_sort in queries:
            if needs_sort:
                if point_rows:
                    p.exec_block_run(QUERY_BLOCK, point_rows)
                    rows += len(point_rows)
                    point_rows = []
                    append_row = point_rows.append
                rows += p.call("execute_query", self._execute_query, pool,
                               page_index, True)
                sorts += 1
            else:
                append_row((pool[page_index],))
        if point_rows:
            p.exec_block_run(QUERY_BLOCK, point_rows)
            rows += len(point_rows)
        outcomes = [("ok", 1)] * len(queries)
        return {"rows": rows, "sorts": sorts, "served": len(queries),
                "bytes_sent": rows, "outcomes": outcomes}
