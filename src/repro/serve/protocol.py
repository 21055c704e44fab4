"""JSON-lines wire protocol shared by the daemon and its clients.

One request, one response, one line of JSON each::

    -> {"op": "submit", "spec": {"environments": ["TS"], ...}, "priority": 0}
    <- {"ok": true, "job_id": "job-1"}
    -> {"op": "status", "job_id": "job-1"}
    <- {"ok": true, "state": "running", "cells": {...}, ...}

Specs cross the wire by *name*: environments by their Table 1 names
(:func:`repro.core.environments.by_name`), modes by their
:class:`~repro.core.environments.AdaptationMode` values, suite workloads
by their suite names.  Non-suite workloads — generated families and
ingested traces (:mod:`repro.workloads`) — ride *inline* as
their canonical :meth:`WorkloadProfile.to_wire` documents, so a daemon
rebuilds them bit-identically and the content-addressed cache keys still
hold.  Custom in-memory :class:`Environment` objects cannot be submitted
remotely — that is the price of a content-addressed, language-neutral
wire format.  Engine-level spec fields (``parallelism``,
``cache_dir``, ``use_cache``) are intentionally absent: server-side
policy governs them.

Suite summaries ride the existing :meth:`SuiteSummary.to_json` wire
format, nested per cell, so a socket result is rebuilt bit-identically.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.environments import AdaptationMode, by_name
from ..exps.engine import RunSpec
from ..exps.runner import SuiteSummary
from ..microarch.workloads import WorkloadProfile, spec2000_like_suite

#: The protocol major this build speaks.  Bumped on breaking wire-format
#: changes; every request and response carries it in a ``"v"`` field.
#: v2 added the explicit version handshake itself (requests may carry
#: ``"v"``; ``ping`` reports ``{"v", "__version__"}``).  v3 added
#: remote-worker operations that this build no longer has: v3 clients
#: keep working, and those operations get the ``unknown op`` error.
PROTOCOL_VERSION = 3

#: Majors this build still understands.  v1 requests (no ``"v"`` field,
#: or ``"v": 1``) predate the handshake and are accepted unchanged — the
#: client operation surface is identical across all three majors.
SUPPORTED_PROTOCOL_VERSIONS = (1, 2, 3)


class ProtocolError(ValueError):
    """A request/response line that cannot be decoded or resolved."""


class UnknownWorkloadError(ProtocolError):
    """A spec named workloads this daemon's suite does not contain.

    Carries the missing and the available names so the daemon can answer
    with a structured ``kind="workload"`` error (like version errors) and
    the client can correct the spec — or submit the profile inline.
    """

    def __init__(self, missing: Sequence[str], available: Sequence[str]):
        self.missing = list(missing)
        self.available = sorted(available)
        super().__init__(
            f"unknown workloads: {self.missing} "
            f"(available: {self.available}; non-suite profiles must be "
            f"submitted inline as to_wire() documents)"
        )


class ProtocolVersionError(ProtocolError):
    """A request whose protocol major this daemon does not speak."""

    def __init__(self, requested: Any):
        self.requested = requested
        super().__init__(
            f"unsupported protocol version {requested!r} "
            f"(supported: {list(SUPPORTED_PROTOCOL_VERSIONS)})"
        )


def check_version(request: Dict[str, Any]) -> int:
    """Validate a request's ``"v"`` field; returns the effective major.

    A missing field means a v1 client (the handshake did not exist yet).
    Anything that is not a supported integer major raises
    :class:`ProtocolVersionError` so the daemon answers with a structured
    error instead of a ``KeyError`` deep in dispatch.
    """
    requested = request.get("v", 1)
    if not isinstance(requested, int) or isinstance(requested, bool):
        raise ProtocolVersionError(requested)
    if requested not in SUPPORTED_PROTOCOL_VERSIONS:
        raise ProtocolVersionError(requested)
    return requested


# ----------------------------------------------------------------------
# Workloads: suite names or inline profile documents.
# ----------------------------------------------------------------------
def workloads_to_wire(
    workloads: Sequence[WorkloadProfile],
) -> List[Any]:
    """Encode workloads compactly: suite members by name, others inline.

    A profile is sent as a bare name string only when it is *structurally
    identical* to the suite profile of that name — a generated profile
    that merely reuses a suite name still rides inline, so the receiving
    side always rebuilds exactly what was submitted.
    """
    suite = {w.name: w for w in spec2000_like_suite()}
    return [
        w.name if suite.get(w.name) == w else w.to_wire() for w in workloads
    ]


def workloads_from_wire(
    items: Sequence[Any],
    suite: Optional[Sequence[WorkloadProfile]] = None,
) -> Tuple[WorkloadProfile, ...]:
    """Resolve a wire workload list (names and/or inline documents).

    Unknown names raise :class:`UnknownWorkloadError` listing the
    available suite names; malformed inline documents raise
    :class:`ProtocolError`.
    """
    pool = {w.name: w for w in (suite or spec2000_like_suite())}
    resolved: List[WorkloadProfile] = []
    missing: List[str] = []
    for item in items:
        if isinstance(item, str):
            if item in pool:
                resolved.append(pool[item])
            else:
                missing.append(item)
            continue
        if isinstance(item, dict):
            try:
                resolved.append(WorkloadProfile.from_wire(item))
            except ValueError as exc:
                raise ProtocolError(f"bad inline workload: {exc}") from exc
            continue
        raise ProtocolError(
            f"workload entries must be suite names or profile documents, "
            f"got {item!r}"
        )
    if missing:
        raise UnknownWorkloadError(missing, list(pool))
    return tuple(resolved)


# ----------------------------------------------------------------------
# Specs.
# ----------------------------------------------------------------------
def spec_to_wire(spec: RunSpec) -> Dict[str, Any]:
    """Encode a :class:`RunSpec` as JSON-safe names/documents."""
    return {
        "environments": [env.name for env in spec.environments],
        "modes": [mode.value for mode in spec.modes],
        "workloads": (
            workloads_to_wire(spec.workloads)
            if spec.workloads is not None
            else None
        ),
    }


def spec_from_wire(
    doc: Dict[str, Any],
    suite: Optional[Sequence[WorkloadProfile]] = None,
) -> RunSpec:
    """Resolve a wire spec back to a :class:`RunSpec`.

    ``suite`` is the workload universe names resolve against (default:
    the SPEC-2000-like suite); inline profile documents bypass it.
    Unknown names raise :class:`UnknownWorkloadError` (listing the
    available names) so the daemon can answer with a structured
    ``kind="workload"`` error instead of dying mid-decode.
    """
    try:
        environments = tuple(by_name(n) for n in doc["environments"])
        modes = tuple(AdaptationMode(v) for v in doc.get("modes") or ["Exh-Dyn"])
    except (KeyError, ValueError) as exc:
        raise ProtocolError(f"bad spec: {exc}") from exc
    workloads = None
    items = doc.get("workloads")
    if items is not None:
        workloads = workloads_from_wire(items, suite=suite)
    return RunSpec(environments=environments, modes=modes, workloads=workloads)


# ----------------------------------------------------------------------
# Results.
# ----------------------------------------------------------------------
def summaries_to_wire(
    summaries: Dict[Tuple[str, str], SuiteSummary],
) -> List[Dict[str, Any]]:
    """Encode a result's cell map as a list of tagged summary documents."""
    return [
        {
            "environment": env_name,
            "mode": mode_value,
            "summary": json.loads(summary.to_json()),
        }
        for (env_name, mode_value), summary in sorted(summaries.items())
    ]


def summaries_from_wire(
    cells: List[Dict[str, Any]],
) -> Dict[Tuple[str, str], SuiteSummary]:
    """Rebuild the cell map (floats round-trip bit-identically)."""
    return {
        (cell["environment"], cell["mode"]): SuiteSummary.from_json(
            json.dumps(cell["summary"])
        )
        for cell in cells
    }


# ----------------------------------------------------------------------
# Framing.
# ----------------------------------------------------------------------
def encode_line(doc: Dict[str, Any]) -> bytes:
    """One JSON document, newline-framed."""
    return (json.dumps(doc) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one frame; anything but a JSON object is a protocol error."""
    try:
        doc = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError(f"frame is not an object: {doc!r}")
    return doc


def ok(**payload: Any) -> Dict[str, Any]:
    """A success response envelope (stamped with the protocol major)."""
    return {"ok": True, "v": PROTOCOL_VERSION, **payload}


def error(message: str, **payload: Any) -> Dict[str, Any]:
    """A failure response envelope (the daemon never sends tracebacks)."""
    return {"ok": False, "v": PROTOCOL_VERSION, "error": message, **payload}
