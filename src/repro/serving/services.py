"""Served-workload adapters: what the engine needs to know per service.

A :class:`ServedService` binds a service program to the three hooks the
engine drives: a deterministic request stream, the batched entry point
(``serve_main``), and the attack token that marks a request as a planted
exploit (rounds split around it, because an exploited request may fault
mid-flight).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..ccencoding.base import Codec
from ..patch.model import HeapPatch
from ..program.program import Program
from ..vulntypes import VulnType
from ..workloads.services import mysql as mysql_mod
from ..workloads.services import nginx as nginx_mod


@dataclass(frozen=True)
class ServedService:
    """One service the engine can drive."""

    key: str
    program_factory: Callable[[], Program]
    #: count -> deterministic request-token list (the benign mix).
    stream: Callable[[int], List[Any]]
    #: The injectable attack request token (None: no attack path).
    attack_token: Optional[Any] = None
    #: Diagnosis hook: the patches a site's forensic analysis of the
    #: service's known attack would emit (None: nothing to diagnose).
    diagnose: Optional[
        Callable[[Program, Codec], List[HeapPatch]]] = None


def serving_registry() -> Dict[str, ServedService]:
    """The services ``repro serve`` knows about."""
    return {
        "nginx": ServedService(
            key="nginx",
            program_factory=nginx_mod.NginxServer,
            stream=nginx_mod.request_stream,
            attack_token=nginx_mod.LEAK_REQUEST,
            diagnose=diagnose_nginx_leak,
        ),
        "mysql": ServedService(
            key="mysql",
            program_factory=mysql_mod.MySqlServer,
            stream=mysql_mod.request_stream,
            attack_token=None,
        ),
    }


def split_rounds(requests: List[Any],
                 attack_token: Optional[Any]) -> List[List[Any]]:
    """Split a batch into rounds, isolating each attack request.

    A round is one ``serve_main`` run.  Benign requests group into
    maximal runs; every attack token becomes a singleton round so a
    guard-page fault aborts only the exploited request, never its batch
    neighbours.
    """
    if attack_token is None:
        return [requests] if requests else []
    rounds: List[List[Any]] = []
    benign: List[Any] = []
    for token in requests:
        if token == attack_token:
            if benign:
                rounds.append(benign)
                benign = []
            rounds.append([token])
        else:
            benign.append(token)
    if benign:
        rounds.append(benign)
    return rounds


def inject_attacks(requests: List[Any], attack_token: Any,
                   every: int) -> List[Any]:
    """Plant an attack token after every ``every`` benign requests."""
    if every <= 0:
        return list(requests)
    out: List[Any] = []
    for index, token in enumerate(requests):
        out.append(token)
        if (index + 1) % every == 0:
            out.append(attack_token)
    return out


def nginx_body_patch(program: Program, codec: Codec) -> HeapPatch:
    """The overflow patch defeating the nginx serving leak.

    Encodes the calling context of the response-body allocation —
    ``main → worker_loop → handle_request → send_response →
    malloc(body_buf)`` — under the deployed codec and returns the
    ``{malloc, CCID, OVERFLOW}`` patch a diagnosis of the leak would
    emit.  Used by tests and the swap demonstration.  The CCID is the
    same for ``main`` and ``serve_main``: both allocate the body in the
    one ``send_response`` stage of ``NginxServer._stages``.
    """
    graph = program.graph
    path = (
        graph.site("main", "worker_loop", ""),
        graph.site("worker_loop", "handle_request", ""),
        graph.site("handle_request", "send_response", ""),
        graph.site("send_response", "malloc", "body_buf"),
    )
    ccid = codec.encode_path(path)
    return HeapPatch("malloc", ccid, VulnType.OVERFLOW)


def diagnose_nginx_leak(program: Program, codec: Codec) -> List[HeapPatch]:
    """The fleet diagnosis hook for the nginx serving leak.

    What a site's offline forensic pass over an observed ``leaked``
    outcome would submit to the patch registry: the single
    ``{malloc, CCID, OVERFLOW}`` patch for the response-body allocation.
    """
    return [nginx_body_patch(program, codec)]
