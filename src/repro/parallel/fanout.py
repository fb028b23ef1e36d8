"""Generic deterministic fan-out over the diagnosis process pool.

:class:`~repro.parallel.engine.DiagnosisPool` is specialized to corpus
diagnosis; :func:`fanout_map` is the reusable primitive underneath it —
"map a picklable function over items across N worker processes and
return the results in item order".  The fuzz campaign runner shards
seeds through it.

Determinism contract: results are returned in the order of ``items``
(``executor.map`` semantics), never in completion order, so ``jobs=N``
output is byte-identical to ``jobs=1`` as long as ``fn`` itself is a
pure function of its item.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Sequence, TypeVar

from .engine import _pool_context

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


def usable_cpus() -> int:
    """CPUs this process may run on (``taskset`` and cpusets count)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_jobs(jobs: int = 0) -> int:
    """Normalize a jobs count (``0``/negative = usable CPU count)."""
    if jobs < 1:
        return usable_cpus()
    return jobs


def fanout_map(fn: Callable[[_ItemT], _ResultT],
               items: Sequence[_ItemT],
               jobs: int = 1) -> List[_ResultT]:
    """Map ``fn`` over ``items`` across ``jobs`` worker processes.

    ``fn`` must be a module-level function and every item/result must be
    picklable (the :mod:`repro.parallel` rules).  ``jobs=1`` — or a
    single item — runs in-process through the identical code path, with
    no executor.
    """
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    chunksize = max(1, len(items) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs,
                             mp_context=_pool_context()) as executor:
        return list(executor.map(fn, items, chunksize=chunksize))
