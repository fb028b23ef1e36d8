"""Concurrent serving engine (paper Section VI deployment shape).

Multi-worker request dispatch over the defended allocator: per-worker
calling-context state, read-mostly patch tables with copy-on-write swap,
and batched request execution through the fused basic-block machinery.
"""

from .engine import (
    REPORT_SCHEMA,
    ServingEngine,
    ServingError,
    ServingOptions,
    ServingPlan,
    ServingResult,
    default_workers,
    serve,
)
from .handle import PatchTableHandle, SwapError, TableVersion
from .services import (
    ServedService,
    diagnose_nginx_leak,
    inject_attacks,
    nginx_body_patch,
    serving_registry,
    split_rounds,
)
from .session import ALLOCATORS, BatchResult, ServingSession, make_allocator

__all__ = [
    "ALLOCATORS",
    "BatchResult",
    "PatchTableHandle",
    "REPORT_SCHEMA",
    "ServedService",
    "ServingEngine",
    "ServingError",
    "ServingOptions",
    "ServingPlan",
    "ServingResult",
    "ServingSession",
    "SwapError",
    "TableVersion",
    "default_workers",
    "diagnose_nginx_leak",
    "inject_attacks",
    "make_allocator",
    "nginx_body_patch",
    "serve",
    "serving_registry",
    "split_rounds",
]
