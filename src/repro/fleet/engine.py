"""Fleet-scale community immunization over N serving instances.

The end-to-end loop the companion paper sketches, run as one
deterministic experiment:

1. **Observe** — instance 0 serves its request mix with planted attacks
   under an *empty* patch table; the exploits land (``leak`` outcomes).
2. **Diagnose & publish** — the service's diagnosis hook emits the
   ``{FUN, CCID, T}`` patches for the observed attack; they are
   submitted to the :class:`~repro.fleet.registry.PatchRegistry`, which
   publishes a signed, content-addressed snapshot.
3. **Immunize** — every instance subscribes (HMAC verification plus
   replay protection), then hot-swaps the verified table into its
   running :class:`~repro.defense.interpose.DefendedAllocator` at a
   batch boundary mid-serve — no restart.  Attacks before the swap
   still leak (the instance was vulnerable); attacks after the swap
   fault into the guard page and are recorded ``blocked`` — the
   immunity proof, per instance.

The canonical fleet report is timing-free and a pure function of the
options, so runs with different ``jobs`` counts are byte-identical —
instance parallelism is unobservable, exactly like worker parallelism
in the serving engine.  Wall-clock telemetry (per-instance swap latency,
fleet immunization time from first observed attack to the last
instance's proven immunity) rides separately on
:attr:`FleetResult.telemetry`, sourced from the monotone
:attr:`~repro.serving.session.BatchResult.wall` stamps, which are
comparable across forked instance processes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Tuple

from ..parallel.fanout import fanout_map, resolve_jobs
from ..serving.engine import ServingEngine, ServingOptions
from ..serving.services import serving_registry
from .registry import PatchRegistry, SignedTable, sign_table

#: Fleet report schema identifier (bump on layout changes).
FLEET_REPORT_SCHEMA = "repro/fleet-report/v2"

#: Tamper modes the fault-injection path understands.
TAMPER_MODES = ("bitflip", "replay", "wrong-key")


class FleetError(RuntimeError):
    """Fleet run misconfiguration (picklable message)."""


@dataclass(frozen=True)
class FleetOptions:
    """Everything that shapes one fleet immunization run."""

    service: str = "nginx"
    instances: int = 4
    #: Attacks planted per instance stream (>= 2: the swap needs leaks
    #: on one side and blocks on the other to prove immunity).
    attacks: int = 4
    requests: int = 96
    batch_size: int = 8
    #: Instance-level parallelism (0 = host CPUs).  Unobservable in the
    #: canonical report.
    jobs: int = 1
    allocator: str = "segregated"
    strategy: str = "incremental"
    #: Fleet signing key material (UTF-8 text).
    key_text: str = "repro-fleet-demo-key"
    #: Fault injection on the distribution channel: "" (honest),
    #: "bitflip", "replay" or "wrong-key".  Any tampered snapshot is
    #: rejected by every subscriber with a typed RegistryError and no
    #: table is ever swapped in.
    tamper: str = ""


@dataclass(frozen=True)
class _InstanceJob:
    """One instance's picklable work order (fanout item)."""

    index: int
    snapshot_text: str
    key: bytes
    #: The fleet's serving run; the instance adds only the swap of the
    #: verified table at ``swap_batch``.
    serving: ServingOptions
    swap_batch: int


@dataclass(frozen=True)
class _InstanceResult:
    """One instance's picklable outcome (fanout result)."""

    index: int
    report: Dict[str, Any]
    #: Per-version outcome counts: (version, status) -> count.
    version_outcomes: Tuple[Tuple[int, str, int], ...]
    applied_version: int
    immune: bool
    #: Monotone wall stamps (telemetry only, never in the report).
    swap_latency: float
    immune_wall: float


@dataclass
class FleetResult:
    """One fleet run: canonical report plus wall-clock telemetry."""

    report: Dict[str, Any]
    #: Timing sidecar: ``swap_latency`` per instance (seconds),
    #: ``immunization_seconds`` (first observed attack at instance 0 to
    #: the last instance's proven immunity), ``attack_wall``/
    #: ``immune_walls`` raw monotone stamps, ``jobs`` actually used.
    telemetry: Dict[str, Any]
    snapshot: SignedTable

    @property
    def immune(self) -> bool:
        """Did every instance prove post-swap immunity?"""
        return bool(self.report["fleet_immune"])


def _subscriber_serve(job: _InstanceJob) -> _InstanceResult:
    """One fleet instance: verify the snapshot, serve, hot-swap mid-run.

    Runs in a fanout worker (module-level, picklable in and out).  The
    registry verification happens *here*, on the instance — a tampered
    snapshot raises the typed error out of the fanout and no serving
    engine is ever built, mirroring a site refusing a bad table.
    """
    from .registry import Subscriber

    snapshot = SignedTable.loads(job.snapshot_text)
    subscriber = Subscriber(job.key)
    subscriber.accept(snapshot)  # typed RegistryError on tamper/replay
    options = replace(
        job.serving,
        swap_schedule=((job.swap_batch, snapshot.config_text),))
    with ServingEngine(options) as engine:
        result = engine.serve()
    new_version = max(result.report["table_versions"])
    old_version = min(result.report["table_versions"])
    counts: Dict[Tuple[int, str], int] = {}
    last_old_wall = 0.0
    first_new_wall = 0.0
    immune_wall = 0.0
    for batch in result.batches:
        for status, _ in batch.outcomes:
            key = (batch.table_version, status)
            counts[key] = counts.get(key, 0) + 1
        if batch.table_version == old_version:
            last_old_wall = max(last_old_wall, batch.wall)
        elif not first_new_wall:
            first_new_wall = batch.wall
        if (not immune_wall and batch.table_version == new_version
                and any(status == "blocked"
                        for status, _ in batch.outcomes)):
            immune_wall = batch.wall
    post_leaks = counts.get((new_version, "leak"), 0)
    post_blocked = counts.get((new_version, "blocked"), 0)
    immune = new_version > old_version and post_leaks == 0 \
        and post_blocked > 0
    return _InstanceResult(
        index=job.index,
        report=result.report,
        version_outcomes=tuple(sorted(
            (version, status, count)
            for (version, status), count in counts.items())),
        applied_version=subscriber.applied_version,
        immune=immune,
        swap_latency=max(0.0, first_new_wall - last_old_wall),
        immune_wall=immune_wall,
    )


def _tamper_snapshot(snapshot: SignedTable, mode: str,
                     registry: PatchRegistry, key: bytes) -> SignedTable:
    """Corrupt the distribution channel for the fault-injection tests."""
    if mode == "bitflip":
        # One flipped byte in transit; the content address no longer
        # matches the table bytes.
        text = snapshot.config_text
        flipped = text[:-1] + chr(ord(text[-1]) ^ 0x01) if text \
            else "\x01"
        return SignedTable(version=snapshot.version,
                           content_hash=snapshot.content_hash,
                           config_text=flipped,
                           signature=snapshot.signature)
    if mode == "replay":
        # Re-send the pre-immunization snapshot (v0, empty table).
        return registry.history[0]
    if mode == "wrong-key":
        evil = key + b"-evil"
        return SignedTable(version=snapshot.version,
                           content_hash=snapshot.content_hash,
                           config_text=snapshot.config_text,
                           signature=sign_table(evil, snapshot.version,
                                                snapshot.config_text))
    raise FleetError(f"unknown tamper mode {mode!r}; choose from "
                     f"{', '.join(TAMPER_MODES)}")


def _attack_plan(requests: int, attacks: int,
                 batch_size: int) -> Tuple[int, int]:
    """Choose ``(attack_every, swap_batch)`` with attacks on both sides.

    The k-th planted attack (1-based) sits at stream position
    ``k * (attack_every + 1) - 1``; the swap lands at the batch holding
    the middle attack, so earlier attacks prove the vulnerability and
    later ones prove the immunity.
    """
    if attacks < 2:
        raise FleetError(
            f"attacks must be >= 2 (one to leak, one to block), "
            f"got {attacks}")
    every = requests // attacks
    if every < 1:
        raise FleetError(
            f"requests={requests} cannot fit {attacks} attacks")
    n_attacks = requests // every
    positions = [k * (every + 1) - 1 for k in range(1, n_attacks + 1)]
    batches = [pos // batch_size for pos in positions]
    swap_batch = batches[len(batches) // 2]
    if batches[0] >= swap_batch or batches[-1] < swap_batch:
        raise FleetError(
            f"cannot place the swap with attacks on both sides "
            f"(attack batches {batches}); raise requests or shrink "
            f"batch_size")
    return every, swap_batch


def run_fleet(options: FleetOptions) -> FleetResult:
    """Run the observe → diagnose → publish → immunize loop.

    Raises :class:`FleetError` on misconfiguration and lets the typed
    :class:`~repro.fleet.registry.RegistryError` family propagate when
    the distribution channel is tampered — callers map those to the
    usage-error exit convention.
    """
    if options.instances < 1:
        raise FleetError(
            f"instances must be >= 1, got {options.instances}")
    if options.requests < 1:
        raise FleetError(
            f"requests must be >= 1, got {options.requests}")
    if options.batch_size < 1:
        raise FleetError(
            f"batch_size must be >= 1, got {options.batch_size}")
    registry_entry = serving_registry().get(options.service)
    if registry_entry is None:
        raise FleetError(f"unknown service {options.service!r}")
    if registry_entry.attack_token is None \
            or registry_entry.diagnose is None:
        raise FleetError(
            f"service {options.service!r} has no attack path to "
            f"immunize against (needs attack_token and diagnose)")
    key = options.key_text.encode("utf-8")
    every, swap_batch = _attack_plan(options.requests, options.attacks,
                                     options.batch_size)

    serving = ServingOptions(
        service=options.service, workers=1, requests=options.requests,
        batch_size=options.batch_size, attack_every=every,
        allocator=options.allocator, strategy=options.strategy)

    # Phase A: instance 0 serves under the empty table and observes the
    # attacks landing.
    with ServingEngine(serving) as engine:
        observed = engine.serve()
        program, codec = engine.program, engine.codec
    attack_wall = 0.0
    for batch in observed.batches:
        if any(status == "leak" for status, _ in batch.outcomes):
            attack_wall = batch.wall
            break
    leaks = observed.report["outcomes"].get("leak", 0)
    if not leaks:
        raise FleetError(
            f"instance 0 observed no successful attacks under the "
            f"empty table — nothing to diagnose "
            f"(outcomes: {observed.report['outcomes']})")

    # Phase B: diagnose and publish the signed table.
    patches = registry_entry.diagnose(program, codec)
    registry = PatchRegistry(key)
    snapshot = registry.submit(patches)
    if snapshot.version == 0:
        raise FleetError("diagnosis produced an empty patch set")
    delivered = snapshot if not options.tamper else _tamper_snapshot(
        snapshot, options.tamper, registry, key)

    # Phase C: every instance verifies and hot-swaps mid-serve.
    jobs = [
        _InstanceJob(index=index, snapshot_text=delivered.dumps(),
                     key=key, serving=serving, swap_batch=swap_batch)
        for index in range(options.instances)
    ]
    instances = fanout_map(_subscriber_serve, jobs,
                           jobs=resolve_jobs(options.jobs))

    fleet_immune = all(inst.immune for inst in instances)
    report: Dict[str, Any] = {
        "schema": FLEET_REPORT_SCHEMA,
        "service": options.service,
        "instances": options.instances,
        "requests": options.requests,
        "batch_size": options.batch_size,
        "attacks": options.attacks,
        "attack_every": every,
        "swap_batch": swap_batch,
        "allocator": options.allocator,
        "strategy": options.strategy,
        "registry": {
            "version": snapshot.version,
            "content_hash": snapshot.content_hash,
            "signature": snapshot.signature,
        },
        "observed": {
            "outcomes": observed.report["outcomes"],
            "outcomes_digest": observed.report["outcomes_digest"],
        },
        "instance_reports": [
            {
                "index": inst.index,
                "applied_version": inst.applied_version,
                "table_versions": inst.report["table_versions"],
                "outcomes": inst.report["outcomes"],
                "outcomes_digest": inst.report["outcomes_digest"],
                "version_outcomes": [list(row)
                                     for row in inst.version_outcomes],
                "immune": inst.immune,
            }
            for inst in instances
        ],
        "immune_instances": sum(inst.immune for inst in instances),
        "fleet_immune": fleet_immune,
    }
    immune_walls = [inst.immune_wall for inst in instances]
    immunization = 0.0
    if fleet_immune and attack_wall and all(immune_walls):
        immunization = max(0.0, max(immune_walls) - attack_wall)
    telemetry: Dict[str, Any] = {
        "jobs": resolve_jobs(options.jobs),
        "attack_wall": attack_wall,
        "immune_walls": immune_walls,
        "swap_latency": [inst.swap_latency for inst in instances],
        "immunization_seconds": immunization,
    }
    return FleetResult(report=report, telemetry=telemetry,
                       snapshot=snapshot)
