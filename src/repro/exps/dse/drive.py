"""Sweep execution: expand a :class:`SweepSpec` and drive it through the
campaign service.

Every point — locally or against a remote daemon — is submitted as a
one-cell :class:`~repro.exps.engine.RunSpec` to a
:class:`~repro.serve.service.CampaignService`, never run directly, so
the service's content-addressed machinery does the heavy lifting:

* points sharing an (environment, mode, workloads) cell under the same
  runner are **coalesced** (computed exactly once, delivered to every
  requesting point);
* cells already in the artifact cache are **served from disk**, which is
  also what makes sweeps resumable — re-running an interrupted or
  partially-overlapping sweep only computes the missing cells;
* submission is **windowed** to the service's admission limit
  (``service_max_jobs``), draining the oldest outstanding job before
  submitting past the window.

Runner-tier axes (``chips``/``cores``/``seed``/``n_instructions``/
``fc_examples``/``phi``/``pe_max``) group the points; each distinct
binding gets its own runner behind an ephemeral in-process service.
Those axes cannot cross the wire — a remote daemon's runner is fixed
server-side policy — so a remote sweep containing them is rejected with
:class:`RemoteSweepError` before anything is submitted.

Observability: the sweep publishes ``dse.points`` / ``dse.points_unique``
/ ``dse.cells_total`` / ``dse.cells_deduped`` / ``dse.cells_computed``
counters and one ``dse.point`` event per completed point.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ... import obs
from ...calibration import DEFAULT_CALIBRATION
from ...config import Settings
from ...core.environments import AdaptationMode, by_name
from ...microarch.workloads import spec2000_like_suite
from ..engine import RunSpec
from ..runner import ExperimentRunner, RunnerConfig, SuiteSummary
from .spec import SweepPoint, SweepSpec, dedupe_points

log = logging.getLogger("repro.exps.dse")

#: RunnerConfig field behind each runner-tier sweep parameter.
_CONFIG_FIELDS = {
    "chips": "n_chips",
    "cores": "cores_per_chip",
    "seed": "seed",
    "n_instructions": "n_instructions",
    "fc_examples": "fuzzy_examples",
    "phi": "phi",
}


class RemoteSweepError(ValueError):
    """A sweep with runner-tier axes was aimed at a remote daemon."""

    def __init__(self, params: Sequence[str]):
        self.params = list(params)
        super().__init__(
            f"runner-tier parameters {self.params} cannot be swept through "
            f"a remote campaign daemon: its population scale, seed and "
            f"calibration are fixed server-side policy.  Run the sweep "
            f"locally (drop --service) or restrict the spec to the cell "
            f"tier (environment/mode/workloads/workload_family)."
        )


def error_fraction(summary: SuiteSummary) -> float:
    """Phase-weighted fraction of observations that ended in ``Error``.

    The paper's timing-speculation recovery keeps the architectural
    error rate below ``PE_MAX``; this is the summary-level view of how
    often a phase's chosen operating point still crossed into the error
    regime (Figure 13's ``Error`` outcome).
    """
    total = sum(r.weight for r in summary.results)
    if total <= 0.0:
        return 0.0
    errored = sum(r.weight for r in summary.results if r.outcome == "Error")
    return errored / total


@dataclass
class SweepResult:
    """Everything one sweep produced, in expansion order.

    ``rows`` is the tidy results table: one dict per unique point with
    its parameter columns followed by the metric columns (``f_rel``,
    ``perf_rel``, ``power``, ``error_frac``) and provenance (``source``:
    ``computed`` / ``cache`` / ``coalesced``).
    """

    spec: SweepSpec
    points: List[SweepPoint]
    rows: List[Dict[str, Any]]
    summaries: Dict[str, SuiteSummary] = field(repr=False)
    stats: Dict[str, int] = field(default_factory=dict)

    def swept_params(self) -> List[str]:
        """Parameter columns that actually take more than one value."""
        from .report import swept_columns

        return swept_columns(self.rows)


# ----------------------------------------------------------------------
# Point -> RunSpec translation.
# ----------------------------------------------------------------------
def _point_runspec(point: SweepPoint) -> RunSpec:
    params = point.params
    env = by_name(params["environment"])
    mode = AdaptationMode(params["mode"])
    workloads = None
    names = params.get("workloads")
    if names is not None:
        pool = {w.name: w for w in spec2000_like_suite()}
        missing = [n for n in names if n not in pool]
        if missing:
            raise ValueError(
                f"unknown workloads {missing} (suite: {sorted(pool)})"
            )
        workloads = tuple(pool[n] for n in names)
    family_ref = params.get("workload_family")
    if family_ref is not None:
        if workloads is not None:
            raise ValueError(
                f"point {point.point_id} binds both 'workloads' and "
                f"'workload_family'"
            )
        # Deferred: repro.workloads imports this module for its
        # error-fraction objective.
        from ...workloads.families import generate_family_ref

        workloads = generate_family_ref(family_ref)
    return RunSpec(environments=(env,), modes=(mode,), workloads=workloads)


def _runner_args(
    settings: Settings, runner_params: Mapping[str, Any]
) -> Dict[str, Any]:
    """Runner config and calibration for a runner-tier binding
    (scale/seed/phi/pe_max); raises ``ValueError`` on a bad scale."""
    overrides = {
        _CONFIG_FIELDS[name]: value
        for name, value in runner_params.items()
        if name in _CONFIG_FIELDS
    }
    calib = DEFAULT_CALIBRATION
    if "pe_max" in runner_params:
        calib = dataclasses.replace(calib, pe_max=runner_params["pe_max"])
    return {
        "config": RunnerConfig.from_settings(settings, **overrides),
        "calib": calib,
    }


# ----------------------------------------------------------------------
# Windowed submission.
# ----------------------------------------------------------------------
def _run_points(
    client,
    points: Sequence[SweepPoint],
    window: int,
    collect: Callable[[SweepPoint, str], None],
) -> None:
    """Submit points through one client (a :class:`ServiceClient` or an
    in-process :class:`CampaignService`), at most ``window`` outstanding.

    Jobs are drained oldest-first, and an admission rejection (another
    tenant filled the daemon) degrades to waiting on our own oldest job
    — the sweep makes progress as long as the service does.
    """
    from ...serve.service import ServiceBusyError

    outstanding: List[Tuple[SweepPoint, str]] = []

    def drain_one() -> None:
        point, job_id = outstanding.pop(0)
        collect(point, job_id)

    for point in points:
        spec = _point_runspec(point)
        while True:
            if len(outstanding) >= window:
                drain_one()
            try:
                job_id = client.submit(spec)
                break
            except ServiceBusyError:
                if not outstanding:
                    raise
                drain_one()
        outstanding.append((point, job_id))
    while outstanding:
        drain_one()


# ----------------------------------------------------------------------
# The sweep driver.
# ----------------------------------------------------------------------
def run_sweep(
    spec: SweepSpec,
    settings: Optional[Settings] = None,
    *,
    service: Optional[str] = None,
) -> SweepResult:
    """Expand and execute a sweep; returns the tidy :class:`SweepResult`.

    Args:
        spec: The declarative sweep.
        settings: Engine/cache/service knobs (default:
            ``Settings()``).  Local sweeps build their runners and
            ephemeral services from it; a persistent ``cache_dir`` is
            what makes warm re-runs near-free.
        service: ``host:port`` of a running campaign daemon.  ``None``
            runs locally.  Remote sweeps must stay on the cell tier
            (:class:`RemoteSweepError` otherwise).
    """
    settings = settings if settings is not None else Settings()
    points = spec.expand()
    unique = dedupe_points(points)
    obs.inc("dse.points", len(points))
    obs.inc("dse.points_unique", len(unique))
    obs.inc("dse.points_deduped", len(points) - len(unique))

    summaries: Dict[str, SuiteSummary] = {}
    rows_by_id: Dict[str, Dict[str, Any]] = {}
    snapshots: Dict[str, Dict[str, Any]] = {}
    window = max(1, settings.service_max_jobs)

    def make_collector(client, remote: bool):
        def collect(point: SweepPoint, job_id: str) -> None:
            if remote:
                from ...serve.protocol import summaries_from_wire

                payload = client.result(job_id)
                cell_map = summaries_from_wire(payload["cells"])
            else:
                cell_map = client.result(job_id).summaries
            snapshot = client.status(job_id)
            cell = (point.params["environment"], point.params["mode"])
            summary = cell_map[cell]
            summaries[point.point_id] = summary
            snapshots[point.point_id] = snapshot
            rows_by_id[point.point_id] = _make_row(spec, point, summary, snapshot)
            row = rows_by_id[point.point_id]
            obs.emit_event(
                "dse.point",
                point=point.point_id,
                index=point.index,
                environment=cell[0],
                mode=cell[1],
                source=row["source"],
                f_rel=row["f_rel"],
                perf_rel=row["perf_rel"],
                power=row["power"],
                error_frac=row["error_frac"],
            )
            log.info(
                "dse point %s (%d/%d) %s via %s",
                point.point_id, len(rows_by_id), len(unique),
                cell, row["source"],
            )

        return collect

    with obs.span("dse.sweep", points=len(unique)):
        if service:
            runner_axes = sorted(
                {name for point in unique for name in point.runner_params()}
            )
            if runner_axes:
                raise RemoteSweepError(runner_axes)
            from ...serve.daemon import ServiceClient

            client = ServiceClient(service)
            _run_points(client, unique, window, make_collector(client, True))
        else:
            from ...serve.service import CampaignService

            groups: Dict[Tuple, List[SweepPoint]] = {}
            for point in unique:
                key = tuple(sorted(point.runner_params().items()))
                groups.setdefault(key, []).append(point)
            # Every group's scale is checked before any group computes.
            runner_args = {
                key: _runner_args(settings, dict(key)) for key in groups
            }
            for key, group_points in groups.items():
                runner = ExperimentRunner.from_settings(
                    settings, **runner_args[key]
                )
                log.info(
                    "dse runner group %s: %d points",
                    dict(key) or "(default)", len(group_points),
                )
                with CampaignService(runner, settings=settings) as svc:
                    _run_points(
                        svc, group_points, window,
                        make_collector(svc, False),
                    )

    cells_total = sum(s["cells"]["total"] for s in snapshots.values())
    cells_deduped = sum(
        s["cells"]["cached"] + s["cells"]["coalesced"]
        for s in snapshots.values()
    )
    stats = {
        "points": len(points),
        "points_unique": len(unique),
        "points_deduped": len(points) - len(unique),
        "cells_total": cells_total,
        "cells_deduped": cells_deduped,
        "cells_computed": cells_total - cells_deduped,
    }
    obs.inc("dse.cells_total", cells_total)
    obs.inc("dse.cells_deduped", cells_deduped)
    obs.inc("dse.cells_computed", cells_total - cells_deduped)
    return SweepResult(
        spec=spec,
        points=unique,
        rows=[rows_by_id[point.point_id] for point in unique],
        summaries=summaries,
        stats=stats,
    )


def _make_row(
    spec: SweepSpec,
    point: SweepPoint,
    summary: SuiteSummary,
    snapshot: Mapping[str, Any],
) -> Dict[str, Any]:
    """One tidy results-table row for a completed point."""
    row: Dict[str, Any] = {"point": point.point_id, "index": point.index}
    names = spec.param_names()
    names += [name for name in point.params if name not in names]
    for name in names:
        if name not in point.params:
            continue
        value = point.params[name]
        row[name] = "+".join(value) if isinstance(value, tuple) else value
    cells = snapshot["cells"]
    if cells["cached"]:
        source = "cache"
    elif cells["coalesced"]:
        source = "coalesced"
    else:
        source = "computed"
    row.update(
        f_rel=summary.f_rel,
        perf_rel=summary.perf_rel,
        power=summary.power,
        error_frac=error_fraction(summary),
        source=source,
    )
    return row
