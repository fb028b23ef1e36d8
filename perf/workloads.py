"""The benchmark's four serving workloads.

Each workload generates its inputs from the seed when it is created,
builds the system through public entry points only, serves one
fixed-size *round* per :meth:`Workload.serve` call and checks every
outcome of a round against an oracle derived from the inputs alone.
Every round of a workload serves the same inputs, so its outcome
digest must not change from round to round.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import DefendedRun, HeapTherapy
from repro.defense.patch_table import PatchTable
from repro.fleet.registry import PatchRegistry, SignedTable, Subscriber
from repro.serving import (ServedService, ServingEngine, ServingOptions,
                           ServingResult, nginx_body_patch)
from repro.workloads.services import mysql, nginx

#: Request outcome as the services report it: ``(status, bytes)``.
Outcome = Tuple[str, int]

#: Fleet key of the immunization workload's registry and subscribers.
FLEET_KEY = b"perf-fleet-key"

#: ``NginxServer.main``'s concurrency argument in the close-per-request
#: run (Apache Benchmark's concurrency in the paper's Nginx runs).
CLOSE_CONCURRENCY = 20


@dataclass(frozen=True)
class Checked:
    """A round's outcome after the oracle has seen it."""

    requests: int
    failed: int
    digest: str


def nginx_tokens(seed: int, count: int) -> List[str]:
    """The nginx request mix: documents, and the missing path at its
    published weight."""
    rng = random.Random(f"perf:nginx:{seed}")
    paths = sorted(nginx.DOCUMENT_TREE)
    return [nginx.MISSING_PATH if rng.random() < nginx.MISSING_PATH_WEIGHT
            else paths[rng.randrange(len(paths))] for _ in range(count)]


def mysql_tokens(seed: int, count: int) -> List[Tuple[int, bool]]:
    """The mysql query mix: ``(pool page, needs sort)`` tokens."""
    rng = random.Random(f"perf:mysql:{seed}")
    tokens = []
    for _ in range(count):
        needs_sort = rng.random() < mysql.SORT_QUERY_FRACTION
        tokens.append((rng.randrange(mysql.BUFFER_POOL_PAGES), needs_sort))
    return tokens


def nginx_benign(path: str) -> Outcome:
    """What a benign nginx request must return."""
    return ("ok", nginx.DOCUMENT_TREE.get(path, nginx.ERROR_PAGE_SIZE))


def mismatches(outcomes: Sequence[Outcome],
               expected: Sequence[Outcome]) -> int:
    """Requests whose outcome differs from the oracle's (a missing or
    extra request counts as one failure)."""
    differ = sum(got != want for got, want in zip(outcomes, expected))
    return differ + abs(len(outcomes) - len(expected))


def digest(value: Any) -> str:
    """SHA-256 of the canonical JSON of ``value``."""
    return hashlib.sha256(json.dumps(
        value, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


class Workload:
    """One workload: inputs, set-up, a round, and its oracle."""

    name = ""
    #: Serving-engine worker processes (0: no engine).
    workers = 0

    def build(self) -> None:
        """Set up the system: program, instrumentation, engine."""
        raise NotImplementedError

    def serve(self) -> Any:
        """Serve one round; the raw result, unchecked."""
        raise NotImplementedError

    def check(self, raw: Any) -> Checked:
        """Compare one round's result with the oracle."""
        raise NotImplementedError

    def cycle_overhead_pct(self, raw: Any) -> float:
        """Defended over native ``CycleMeter`` totals of ``raw``'s
        round, minus one, in percent."""
        raise NotImplementedError

    def close(self) -> None:
        """Release processes the set-up started (idempotent)."""


class EngineWorkload(Workload):
    """A workload served by :class:`ServingEngine` over generated
    tokens."""

    key = ""
    requests = 0
    batch_size = 0
    attack_every = 0
    #: Batch index at which the patched table is swapped in (None: the
    #: table stays empty).
    swap_batch: Optional[int] = None

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.requests = max(1, int(self.requests * scale))
        self.tokens = self.make_tokens(seed, self.requests)
        self.service = ServedService(
            key=self.key, program_factory=self.program_factory,
            stream=self.stream, attack_token=self.attack_token)
        self.expected = self.oracle()
        self.engine: Optional[ServingEngine] = None
        #: The instrumented program and its deployed codec (set up by
        #: :meth:`build`).
        self.program: Any = None
        self.codec: Any = None

    # -- what a subclass provides ---------------------------------------

    program_factory: Callable[[], Any]
    attack_token: Any = None

    def make_tokens(self, seed: int, count: int) -> List[Any]:
        raise NotImplementedError

    def benign(self, token: Any) -> Outcome:
        raise NotImplementedError

    # -- shared ---------------------------------------------------------

    def stream(self, count: int) -> List[Any]:
        return list(self.tokens[:count])

    def options(self, **changes: Any) -> ServingOptions:
        return replace(ServingOptions(
            service=self.key, workers=self.workers, requests=self.requests,
            batch_size=self.batch_size, attack_every=self.attack_every),
            **changes)

    def oracle(self) -> List[Outcome]:
        """Expected outcome of every admitted request, attacks included:
        an attack leaks before the swap batch and is blocked from it."""
        expected: List[Outcome] = []
        leak = ("leak", nginx.LEAK_BODY_SIZE + nginx.LEAK_EXTRA)
        for index, token in enumerate(self.tokens):
            expected.append(self.benign(token))
            if self.attack_every and (index + 1) % self.attack_every == 0:
                batch = len(expected) // self.batch_size
                patched = (self.swap_batch is not None
                           and batch >= self.swap_batch)
                expected.append(("blocked", 0) if patched else leak)
        return expected

    def build(self) -> None:
        self.close()
        self.engine = ServingEngine(self.options(), service=self.service,
                                    program=self.service.program_factory())
        self.program, self.codec = self.engine.program, self.engine.codec

    def serve(self) -> ServingResult:
        assert self.engine is not None, "build() first"
        return self.engine.serve()

    def check(self, raw: ServingResult) -> Checked:
        outcomes = [outcome for batch in raw.batches
                    for outcome in batch.outcomes]
        return Checked(len(outcomes), mismatches(outcomes, self.expected),
                       raw.report["outcomes_digest"])

    def native_options(self) -> ServingOptions:
        return self.options(defended=False, workers=1)

    def cycle_overhead_pct(self, raw: ServingResult) -> float:
        native = ServingEngine(self.native_options(), service=self.service,
                               program=self.program,
                               codec=self.codec).serve()
        return (raw.total_cycles / native.total_cycles - 1) * 100

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None


class NginxKeepAlive(EngineWorkload):
    """The engine's production mode: batched keep-alive requests with a
    cached body, empty table, two worker processes."""

    name = "nginx-keepalive"
    key = "nginx"
    workers = 2
    requests = 16384
    batch_size = 256
    program_factory = nginx.NginxServer
    attack_token = nginx.LEAK_REQUEST

    def make_tokens(self, seed: int, count: int) -> List[Any]:
        return nginx_tokens(seed, count)

    def benign(self, token: Any) -> Outcome:
        return nginx_benign(token)


class MysqlPool(EngineWorkload):
    """Point queries over the startup buffer pool: few heap calls per
    request, so allocator and defense work should not show."""

    name = "mysql-pool"
    key = "mysql"
    workers = 1
    requests = 16384
    batch_size = 256
    program_factory = mysql.MySqlServer

    def make_tokens(self, seed: int, count: int) -> List[Any]:
        return mysql_tokens(seed, count)

    def benign(self, token: Any) -> Outcome:
        return ("ok", 1)


class NginxImmunize(NginxKeepAlive):
    """The post-immunization steady state: every round accepts the
    registry's signed table and swaps it in at batch 1, so batch-0
    attacks leak, later ones hit the guard page, and every later body
    is guard-paged."""

    name = "nginx-immunize"
    workers = 1
    requests = 1536
    batch_size = 128
    attack_every = 64
    swap_batch = 1

    def build(self) -> None:
        self.close()
        # Instrument once through an engine with the empty table; the
        # rounds reuse its program and deployed codec.
        base = ServingEngine(self.options(attack_every=0),
                             service=self.service,
                             program=self.service.program_factory())
        self.program, self.codec = base.program, base.codec
        registry = PatchRegistry(FLEET_KEY)
        self.snapshot = registry.submit(
            [nginx_body_patch(self.program, self.codec)]).dumps()

    def serve(self) -> ServingResult:
        table = Subscriber(FLEET_KEY).accept(
            SignedTable.loads(self.snapshot))
        options = self.options(
            swap_schedule=((self.swap_batch, table.serialize()),))
        with ServingEngine(options, service=self.service,
                           program=self.program, codec=self.codec) as engine:
            return engine.serve()

    def native_options(self) -> ServingOptions:
        text = SignedTable.loads(self.snapshot).config_text
        return self.options(defended=False,
                            swap_schedule=((self.swap_batch, text),))


class NginxClose(Workload):
    """The per-op close-per-request loop on the libc allocator:
    ``HeapTherapy(NginxServer()).run_defended`` with an empty table.
    ``NginxServer.main`` draws its requests from its own fixed RNG
    stream, so the seed does not reach this workload."""

    name = "nginx-close"
    requests = 2048

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.requests = max(1, int(self.requests * scale))
        paths = nginx.request_stream(self.requests)
        self.expected = {"served": self.requests,
                         "bytes_sent": sum(nginx_benign(path)[1]
                                           for path in paths)}
        self.system: Optional[HeapTherapy] = None

    def build(self) -> None:
        self.system = HeapTherapy(nginx.NginxServer())

    def serve(self) -> DefendedRun:
        assert self.system is not None, "build() first"
        return self.system.run_defended(PatchTable.empty(), self.requests,
                                        CLOSE_CONCURRENCY)

    def check(self, raw: DefendedRun) -> Checked:
        result = None if raw.blocked else raw.result
        failed = 0 if result == self.expected else self.requests
        return Checked(self.requests, failed, digest(result))

    def cycle_overhead_pct(self, raw: DefendedRun) -> float:
        assert self.system is not None, "build() first"
        native = self.system.run_native(self.requests, CLOSE_CONCURRENCY)
        return (raw.meter.total / native.meter.total - 1) * 100


#: name -> workload class, in the order the benchmark interleaves them.
WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (NginxKeepAlive, NginxClose, NginxImmunize,
                              MysqlPool)}
