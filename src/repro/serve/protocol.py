"""JSON-lines wire protocol shared by the daemon and its clients.

One request, one response, one line of JSON each::

    -> {"op": "submit", "spec": {"environments": ["TS"], ...}, "priority": 0}
    <- {"ok": true, "job_id": "job-1"}
    -> {"op": "status", "job_id": "job-1"}
    <- {"ok": true, "state": "running", "cells": {...}, ...}

Specs cross the wire by *name*: environments by their Table 1 names
(:func:`repro.core.environments.by_name`), modes by their
:class:`~repro.core.environments.AdaptationMode` values, suite workloads
by their suite names.  Non-suite workloads — generated families, ingested
traces, evolved adversaries (:mod:`repro.workloads`) — ride *inline* as
their canonical :meth:`WorkloadProfile.to_wire` documents, so a daemon or
fleet worker rebuilds them bit-identically and the content-addressed
cache keys still hold.  Custom in-memory :class:`Environment` objects
cannot be submitted remotely — that is the price of a content-addressed,
language-neutral wire format.  Engine-level spec fields (``parallelism``,
``cache_dir``, ``use_cache``) are intentionally absent: server-side
policy governs them.

Suite summaries ride the existing :meth:`SuiteSummary.to_json` wire
format, nested per cell, so a socket result is rebuilt bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.environments import AdaptationMode, by_name
from ..exps.engine import RunSpec
from ..exps.runner import SuiteSummary
from ..microarch.workloads import WorkloadProfile, spec2000_like_suite

#: The protocol major this build speaks.  Bumped on breaking wire-format
#: changes; every request and response carries it in a ``"v"`` field.
#: v2 added the explicit version handshake itself (requests may carry
#: ``"v"``; ``ping`` reports ``{"v", "__version__"}``).  v3 added the
#: worker-fleet surface (``register``/``lease``/``heartbeat``/
#: ``complete``/``fail``) — see :mod:`repro.serve.fleet`.
PROTOCOL_VERSION = 3

#: Majors this build still understands.  v1 requests (no ``"v"`` field,
#: or ``"v": 1``) predate the handshake and are accepted unchanged — the
#: client operation surface is identical across all three majors; only
#: the fleet operations are gated on :data:`FLEET_MIN_VERSION`.
SUPPORTED_PROTOCOL_VERSIONS = (1, 2, 3)

#: The first major that carries the fleet operations.  Older clients can
#: still submit jobs, ping, and shut the daemon down; a v1/v2 peer
#: sending ``fleet.*`` gets a structured ``kind="version"`` error.
FLEET_MIN_VERSION = 3


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
# Fleet (v3): execution context, leased units, result rows.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LeasedUnit:
    """A worker-side view of one leased (chip, core) unit.

    Everything a :class:`~repro.serve.worker.FleetWorker` needs to run
    the unit through :func:`~repro.serve.coalesce.run_block` — resolved
    objects, not wire
    names — plus the content-addressed keys it reports back with.
    """

    cell_key: str
    unit_key: str
    chip_index: int
    core_index: int
    env: Any
    mode: AdaptationMode
    workloads: Tuple[WorkloadProfile, ...]


def runner_context_to_wire(runner) -> Dict[str, Any]:
    """Encode an :class:`ExperimentRunner`'s physics context for workers.

    Ships the three frozen dataclasses that pin the content-addressed
    keys — :class:`~repro.exps.runner.RunnerConfig`,
    :class:`~repro.calibration.Calibration`,
    :class:`~repro.microarch.pipeline.CoreConfig` — as canonical JSON
    documents plus a :func:`~repro.exps.cache.stable_hash` fingerprint.
    A worker that rebuilds a context with a different fingerprint would
    silently poison the shared cache, so the decoder treats a mismatch
    as a protocol error, not a warning.
    """
    from ..exps.cache import jsonable, stable_hash

    docs = {
        "runner_config": jsonable(runner.config),
        "calibration": jsonable(runner.calib),
        "core_config": jsonable(runner.core_config),
    }
    return {**docs, "fingerprint": stable_hash(docs)}


def runner_context_from_wire(doc: Dict[str, Any]):
    """Rebuild ``(RunnerConfig, Calibration, CoreConfig)`` from the wire.

    Raises :class:`ProtocolError` if the documents are malformed or the
    rebuilt objects do not hash back to the advertised fingerprint
    (e.g. a field the daemon knows about but this worker build does not).
    """
    from ..calibration import Calibration
    from ..exps.cache import jsonable, stable_hash
    from ..exps.runner import RunnerConfig
    from ..microarch.pipeline import CoreConfig

    try:
        config = RunnerConfig(**doc["runner_config"])
        calibration = Calibration(**doc["calibration"])
        core_config = CoreConfig(**doc["core_config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad runner context: {exc}") from exc
    rebuilt = {
        "runner_config": jsonable(config),
        "calibration": jsonable(calibration),
        "core_config": jsonable(core_config),
    }
    fingerprint = stable_hash(rebuilt)
    if fingerprint != doc.get("fingerprint"):
        raise ProtocolError(
            "runner-context fingerprint mismatch "
            f"(daemon {doc.get('fingerprint')!r}, worker {fingerprint!r}) "
            "— daemon and worker builds disagree on the physics config"
        )
    return config, calibration, core_config


def unit_to_wire(cell, unit) -> Dict[str, Any]:
    """Encode one leased (chip, core) unit with its cell context."""
    return {
        "cell_key": cell.key,
        "unit_key": unit.key,
        "chip_index": unit.chip_index,
        "core_index": unit.core_index,
        "environment": cell.env.name,
        "mode": cell.mode.value,
        "workloads": workloads_to_wire(cell.workloads),
    }


def unit_from_wire(
    doc: Dict[str, Any],
    suite: Optional[Sequence[WorkloadProfile]] = None,
) -> "LeasedUnit":
    """Resolve a leased unit's names back to runnable objects."""
    try:
        env = by_name(doc["environment"])
        mode = AdaptationMode(doc["mode"])
        items = doc["workloads"]
        chip_index = int(doc["chip_index"])
        core_index = int(doc["core_index"])
        cell_key = doc["cell_key"]
        key = doc["unit_key"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad leased unit: {exc}") from exc
    return LeasedUnit(
        cell_key=cell_key,
        unit_key=key,
        chip_index=chip_index,
        core_index=core_index,
        env=env,
        mode=mode,
        workloads=workloads_from_wire(items, suite=suite),
    )


def rows_to_wire(rows: Sequence[Any]) -> List[Dict[str, Any]]:
    """Encode a unit's :class:`PhaseResult` rows (bit-identical floats)."""
    return [row.to_dict() for row in rows]


def rows_from_wire(docs: Sequence[Dict[str, Any]]) -> List[Any]:
    """Rebuild :class:`PhaseResult` rows from :func:`rows_to_wire`."""
    from ..exps.runner import PhaseResult

    try:
        return [PhaseResult.from_dict(doc) for doc in docs]
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad result rows: {exc}") from exc


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
