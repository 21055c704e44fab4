"""The campaign service: submit/status/result/cancel over a shared runner.

:class:`CampaignService` turns the in-process ``ExperimentRunner.run``
API into an asynchronous, multi-tenant one.  A submission is decomposed
into (environment, mode) cells addressed by the artifact cache's
content-addressed :func:`~repro.exps.cache.summary_key`; cells already on
disk are delivered immediately, cells currently being computed for
another job are *followed* (request coalescing — each (chip, core) unit
is computed exactly once no matter how many jobs want it), and the rest
are decomposed into unit tasks and scheduled, by job priority, onto one
queue that the service's own threads (:mod:`repro.serve.scheduler`)
drain.

Failure is contained by construction: every failed attempt is charged
against one per-unit retry budget (``service_retries``) and re-queued;
a unit that exhausts it poisons only its cell, the cell fails only the
jobs following it (with a structured
:class:`~repro.serve.jobs.CellFailure` report), and the pool keeps
draining every other job's queue.  The service stays up.

Server-side policy wins over spec fields: a submitted spec's
``parallelism``, ``cache_dir`` and ``use_cache`` are ignored — the
daemon's worker pool and cache are shared, configured once via
:class:`repro.config.Settings` (``service_*`` knobs).

Admission costs O(cells of the job), whatever the service's history: a
cell's ``summary_key`` is memoised, live jobs are counted from their own
map, and at most :data:`MAX_FINISHED_JOBS` finished jobs are kept for
``status``/``progress``/``result``, those whose result was read retiring
first.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from .. import obs, variation
from ..config import Settings
from ..exps.cache import ExperimentCache, FactorStore, summary_key
from ..exps.engine import RunResult, RunSpec, UnitExecutionError
from ..exps.runner import ExperimentRunner, summarise
from .coalesce import CellTask, InFlightRegistry, UnitTask, build_cell, run_block
from .jobs import LIVE_STATES, CellFailure, Job, JobState
from .scheduler import CellScheduler

log = logging.getLogger("repro.serve.service")

#: Finished jobs kept for ``status``/``progress``/``result``.  Jobs whose
#: result a client has read retire first, oldest first; a job whose result
#: no client has read yet retires only when more than this many such
#: unread jobs are held.  A retired job's id is unknown
#: (:class:`UnknownJobError`) and its ``serve.job.<id>.*`` gauges are
#: dropped.
MAX_FINISHED_JOBS = 1024

#: Distinct cells whose ``summary_key`` the service memoises, oldest
#: evicted first.
MAX_KEY_MEMO_CELLS = 4096

#: The counter each terminal state increments.
_FINISH_COUNTERS = {
    JobState.DONE: "serve.jobs_completed",
    JobState.FAILED: "serve.jobs_failed",
    JobState.CANCELLED: "serve.jobs_cancelled",
}

#: The per-job gauges, under ``serve.job.<id>.``.
_JOB_GAUGES = ("cells_total", "cells_done", "cells_pending")


class ServiceError(RuntimeError):
    """Base class for campaign-service request failures."""


class ServiceBusyError(ServiceError):
    """Admission control: the live-job limit is reached."""


class UnknownJobError(ServiceError, KeyError):
    """No job with the requested id."""


class JobFailedError(ServiceError):
    """The awaited job hit a poisoned cell; ``failures`` has the report."""

    def __init__(self, job_id: str, failures: List[CellFailure]):
        self.job_id = job_id
        self.failures = list(failures)
        detail = "; ".join(str(f.to_dict()) for f in failures)
        super().__init__(f"{job_id} failed: {detail}")


class JobCancelledError(ServiceError):
    """The awaited job was cancelled."""


class _YieldingLock:
    """A re-entrant lock whose waiters retry instead of queueing on it.

    A thread blocked in ``RLock.acquire`` is handed the lock on release
    and must then wait for the GIL, so the releasing thread, coming
    back for the lock, blocks in turn: two clients then pass the lock
    through the OS scheduler on every request (a lock convoy), which
    took a cached read from about 0.05 to 0.2 ms on a 2-vCPU VM.  Here
    a waiter yields the GIL and retries with a pause that backs off to
    1 ms, so the lock is only ever taken by a running thread.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()

    def __enter__(self) -> None:
        pause = 0.0
        while not self._lock.acquire(blocking=False):
            time.sleep(pause)
            pause = min(2.0 * pause + 1e-5, 1e-3)

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


class CampaignService:
    """An async, coalescing, fault-tolerant front-end to one runner."""

    def __init__(
        self,
        runner: Optional[ExperimentRunner] = None,
        *,
        settings: Optional[Settings] = None,
        workers: Optional[int] = None,
        cache: Optional[ExperimentCache] = None,
    ):
        """Args:
            runner: The shared experiment runner; built from ``settings``
                scale knobs when omitted.
            settings: Service knobs (worker width via ``jobs``, admission
                limit, retry budget, cache).
            workers: Worker-thread override (default: ``settings.jobs``);
                must be >= 1, since nothing else runs the queued units.
            cache: Artifact-cache override (default: the runner's, else
                ``settings.build_cache()``).
        """
        settings = settings if settings is not None else Settings()
        # First, so a service without threads is refused (ValueError)
        # before a runner is built.
        self._scheduler = CellScheduler(
            self._run_local,
            workers=workers if workers is not None else settings.jobs,
            claim=self._claim_unit,
        )
        if runner is None:
            runner = ExperimentRunner.from_settings(settings)
        self.runner = runner
        self.cache = (
            cache if cache is not None
            else runner.cache if runner.cache is not None
            else settings.build_cache()
        )
        if self.cache is not None:
            # Durable factor storage for the process-wide memo: a daemon
            # restart reloads the Cholesky factor from the artifact cache
            # instead of re-factorising.
            variation.set_store(FactorStore(self.cache))
        self.max_jobs = settings.service_max_jobs
        self.retries = settings.service_retries
        self._lock = _YieldingLock()
        #: Every job still known: the live ones and the retained finished.
        self._jobs: Dict[str, Job] = {}
        self._live: Dict[str, Job] = {}
        #: Finished job ids, oldest first, whose result no client has
        #: read yet, and those it has; together at most
        #: MAX_FINISHED_JOBS.
        self._unread: Dict[str, None] = {}
        self._read: Dict[str, None] = {}
        #: The cells each live job follows (dropped when it finishes).
        self._job_cells: Dict[str, List[CellTask]] = {}
        #: {(env, mode, workload hashes): summary_key} for the runner
        #: objects in ``_key_scope``; see :meth:`_summary_key`.
        self._keys: Dict[tuple, str] = {}
        self._key_scope: tuple = (None, None, None)
        self._registry = InFlightRegistry()
        self._ids = itertools.count(1)
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> "CampaignService":
        with self._lock:
            if not self._started:
                self._scheduler.start()
                self._started = True
        return self

    def close(self) -> None:
        with self._lock:
            self._started = False
        self._scheduler.stop()

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Client-facing API.
    # ------------------------------------------------------------------
    def submit(self, spec: RunSpec, priority: int = 0) -> str:
        """Accept a campaign; returns a job id immediately.

        Raises :class:`ServiceBusyError` when ``service_max_jobs`` jobs
        are already live (admission control, not queueing — the priority
        queue orders *units*, admission bounds *jobs*).
        """
        self.start()
        with self._lock:
            live = len(self._live)
            if live >= self.max_jobs:
                obs.inc("serve.jobs_rejected")
                raise ServiceBusyError(
                    f"{live} live jobs >= service_max_jobs={self.max_jobs}"
                )
            job = Job(
                job_id=f"job-{next(self._ids)}", spec=spec, priority=priority
            )
            self._jobs[job.job_id] = self._live[job.job_id] = job
            self._job_cells[job.job_id] = []
            obs.inc("serve.jobs_submitted")
            self._admit(job)
            if job.pending_cells == 0:
                self._finish(job, JobState.DONE)
            else:
                self._update_job_gauges(job)
            self._update_service_gauges()
            log.info(
                "%s: %d cells (%d cached, %d coalesced, %d scheduled)",
                job.job_id, job.cells_total, job.cells_cached,
                job.cells_coalesced,
                job.cells_total - job.cells_cached - job.cells_coalesced,
            )
            return job.job_id

    def status(self, job_id: str) -> Dict[str, Any]:
        """A JSON-safe progress snapshot for one job."""
        with self._lock:
            return self._get(job_id).snapshot()

    def progress(self, job_id: str) -> Dict[str, Any]:
        """The status snapshot plus this job's slice of the obs registry."""
        with self._lock:
            job = self._get(job_id)
            return {
                **job.snapshot(),
                "metrics": obs.metrics_registry().to_dict(
                    prefix=f"serve.job.{job.job_id}."
                ),
            }

    def result(self, job_id: str, timeout: Optional[float] = None) -> RunResult:
        """Block until a job finishes; return its :class:`RunResult`.

        Raises :class:`TimeoutError` if the job is still running after
        ``timeout`` seconds, :class:`JobFailedError` with the structured
        cell reports if it hit a poisoned cell, and
        :class:`JobCancelledError` if it was withdrawn.  Once a finished
        job's outcome has been read here, it retires before every unread
        one (see :data:`MAX_FINISHED_JOBS`).
        """
        with self._lock:
            job = self._get(job_id)
        if not job.done_event.wait(timeout):
            raise TimeoutError(f"{job_id} still {job.state.value}")
        with self._lock:
            if job_id in self._unread:
                del self._unread[job_id]
                self._read[job_id] = None
        if job.state is JobState.DONE:
            return RunResult(spec=job.spec, summaries=dict(job.summaries))
        if job.state is JobState.FAILED:
            raise JobFailedError(job_id, job.failures)
        raise JobCancelledError(f"{job_id} was cancelled")

    def cancel(self, job_id: str) -> bool:
        """Withdraw a live job; returns ``False`` if it already finished.

        Units owned exclusively by this job are dropped when a worker
        reaches them; units shared with other jobs keep running.
        """
        with self._lock:
            job = self._get(job_id)
            if job.state not in LIVE_STATES:
                return False
            self._finish(job, JobState.CANCELLED)
            self._update_service_gauges()
            return True

    def stats(self) -> Dict[str, Any]:
        """A service-level snapshot (the daemon's ``ping`` payload).

        ``jobs`` counts the known jobs by state: the live ones and the
        retained finished ones (``finished_jobs``, at most
        ``max_finished_jobs``).
        """
        with self._lock:
            states = {state.value: 0 for state in JobState}
            for job in self._jobs.values():
                states[job.state.value] += 1
            return {
                "jobs": states,
                "live_jobs": len(self._live),
                "finished_jobs": len(self._unread) + len(self._read),
                "max_finished_jobs": MAX_FINISHED_JOBS,
                "queue_depth": self._scheduler.depth(),
                "inflight_cells": len(self._registry),
                "max_jobs": self.max_jobs,
            }

    # ------------------------------------------------------------------
    # Admission: cache check, coalescing, decomposition.
    # ------------------------------------------------------------------
    def _admit(self, job: Job) -> None:
        runner = self.runner
        spec = job.spec
        workloads = (
            tuple(spec.workloads)
            if spec.workloads is not None
            else tuple(runner.workloads)
        )
        hashes = tuple(workload.content_hash() for workload in workloads)
        seen: set = set()
        for env, mode in spec.pairs():
            cell_id = (env.name, mode.value)
            if cell_id in seen:
                continue
            seen.add(cell_id)
            job.cells_total += 1
            key = self._summary_key(env, mode, workloads, hashes)
            if self.cache is not None:
                cached = self.cache.load_summary(key)
                if cached is not None:
                    job.summaries[cell_id] = cached
                    job.cells_cached += 1
                    obs.inc("serve.cells_cached")
                    continue
            cell = self._registry.get(key)
            if cell is not None:
                # Coalesce: somebody is already computing exactly this
                # cell; follow it instead of duplicating its units.
                cell.followers.append(job)
                self._job_cells[job.job_id].append(cell)
                job.pending_cells += 1
                job.cells_coalesced += 1
                obs.inc("serve.cells_coalesced")
                obs.inc("serve.units_coalesced", len(cell.units))
                continue
            cell = build_cell(
                key, env, mode, workloads,
                runner.config.n_chips, runner.config.cores_per_chip,
            )
            cell.followers.append(job)
            self._job_cells[job.job_id].append(cell)
            job.pending_cells += 1
            self._registry.add(cell)
            obs.inc("serve.units_scheduled", len(cell.units))
            for unit in cell.units:
                self._scheduler.submit(job.priority, (cell, unit))

    def _summary_key(self, env, mode, workloads, hashes) -> str:
        """``summary_key`` of one cell, memoised (under the service lock).

        The memo holds the runner's ``calib``, ``config`` and
        ``core_config`` it was filled for, so their ids cannot be reused,
        and starts over when any of them is a different object (a
        ``replace()``d config, say).  Within it a cell is its environment,
        mode and workload content hashes, all of which ``summary_key``
        covers, so a hit equals a fresh key.
        """
        runner = self.runner
        scope = (runner.calib, runner.config, runner.core_config)
        if any(new is not old for new, old in zip(scope, self._key_scope)):
            self._key_scope = scope
            self._keys.clear()
        cell = (env, mode, hashes)
        key = self._keys.get(cell)
        if key is None:
            if len(self._keys) >= MAX_KEY_MEMO_CELLS:
                del self._keys[next(iter(self._keys))]
            key = summary_key(*scope, env, mode, list(workloads))
            self._keys[cell] = key
        return key

    # ------------------------------------------------------------------
    # Unit execution and settlement (service threads).
    # ------------------------------------------------------------------
    def _claim_unit(self, item: Tuple[CellTask, UnitTask]) -> bool:
        cell, unit = item
        with self._lock:
            if not cell.live:
                return False
            if unit.rows is not None:
                # Already delivered: a stale queue copy is dropped here, so
                # a unit is computed at most once.
                return False
            cell.started = True
            for job in cell.followers:
                if job.state is JobState.QUEUED:
                    job.state = JobState.RUNNING
            return True

    def _run_local(self, neg_priority: int,
                   item: Tuple[CellTask, UnitTask]) -> None:
        """Run one claimed unit on this thread as a one-unit
        :func:`run_block`."""
        cell, unit = item
        start = time.perf_counter()
        (outcome,) = run_block(
            self.runner, cell.env, cell.mode, cell.workloads,
            [(unit.chip_index, unit.core_index)],
        )
        if isinstance(outcome, UnitExecutionError):
            self._on_attempt_failed(neg_priority, item, outcome)
            return
        obs.observe("serve.unit_seconds", time.perf_counter() - start)
        self._on_unit_done(item, outcome)

    def _on_unit_done(self, item, rows) -> None:
        cell, unit = item
        with self._lock:
            if not cell.live:
                return
            if unit.rows is not None:
                # Idempotent delivery: this unit was already delivered.
                # Content-addressed keys make the two row lists identical,
                # so dropping the second copy loses nothing.
                obs.inc("serve.units_duplicate")
                return
            unit.rows = rows
            cell.pending_units -= 1
            obs.inc("serve.units_done")
            if cell.pending_units > 0:
                return
            rows_in_order = cell.rows_in_order()
        # Last unit in, taken by this thread alone: summarise in
        # decomposition order (bit-identical to the serial engine) and
        # persist once, outside the lock, so submits and claims do not
        # wait on the write.  The cell stays registered meanwhile: a job
        # admitted now follows it and is delivered below.
        summary = summarise(rows_in_order)
        if self.cache is not None:
            self.cache.save_summary(cell.key, summary)
        with self._lock:
            if not cell.live:
                return  # every follower left during the write
            cell.summary = summary
            self._registry.finish(cell.key)
            for job in cell.followers:
                if job.state not in LIVE_STATES:
                    continue
                job.summaries[cell.cell] = summary
                job.pending_cells -= 1
                if job.pending_cells == 0:
                    self._finish(job, JobState.DONE)
                else:
                    self._update_job_gauges(job)
            cell.followers.clear()
            self._update_service_gauges()

    def _on_attempt_failed(self, neg_priority: int, item,
                           error: BaseException) -> None:
        """Charge one failed attempt against the unit's retry budget.

        The unit is re-queued in its priority band while ``attempts <=
        service_retries`` — whichever thread drains the queue next retries
        it — and poisons its cell after that.
        """
        cell, unit = item
        with self._lock:
            if not cell.live or unit.rows is not None:
                return  # cancelled/poisoned cell, or a duplicate delivered
            unit.attempts += 1
            if unit.attempts <= self.retries:
                obs.inc("serve.retries")
                log.warning(
                    "unit %s attempt %d/%d failed (%s); re-queued",
                    unit.key, unit.attempts, self.retries + 1, error,
                )
                self._scheduler.requeue(neg_priority, item)
                return
            failure = CellFailure(
                environment=cell.env.name,
                mode=cell.mode.value,
                chip_index=unit.chip_index,
                core_index=unit.core_index,
                attempts=unit.attempts,
                error=str(error),
            )
            log.error("poisoned cell %s: %s", cell.cell, failure.error)
            cell.failure = failure
            cell.live = False
            self._registry.finish(cell.key)
            obs.inc("serve.cells_poisoned")
            for job in list(cell.followers):
                if job.state not in LIVE_STATES:
                    continue
                job.failures.append(failure)
                self._finish(job, JobState.FAILED)
            cell.followers.clear()
            self._update_service_gauges()

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    def _finish(self, job: Job, state: JobState) -> None:
        """Move a live job to a terminal state and into the finished table.

        A failed or cancelled job leaves its cells first (see
        :meth:`_detach`); every finished job drops its cell list.  The
        finished jobs past :data:`MAX_FINISHED_JOBS` are retired (read
        ones first, oldest first): forgotten, gauges and all.
        """
        job.finish(state)
        obs.inc(_FINISH_COUNTERS[state])
        del self._live[job.job_id]
        if state is not JobState.DONE:
            self._detach(job)
        del self._job_cells[job.job_id]
        self._update_job_gauges(job)
        self._unread[job.job_id] = None
        while len(self._unread) + len(self._read) > MAX_FINISHED_JOBS:
            table = self._read or self._unread
            retired = next(iter(table))
            del table[retired]
            del self._jobs[retired]
            for name in _JOB_GAUGES:
                obs.drop_gauge(f"serve.job.{retired}.{name}")

    def _detach(self, job: Job) -> None:
        """Drop a finished job from its cells; abandon now-orphaned ones."""
        for cell in self._job_cells[job.job_id]:
            if job in cell.followers:
                cell.followers.remove(job)
            if (
                not cell.followers
                and cell.summary is None
                and cell.failure is None
                and cell.live
            ):
                cell.live = False
                self._registry.finish(cell.key)
                obs.inc("serve.cells_abandoned")

    def _update_job_gauges(self, job: Job) -> None:
        prefix = f"serve.job.{job.job_id}"
        obs.set_gauge(f"{prefix}.cells_total", job.cells_total)
        obs.set_gauge(f"{prefix}.cells_done", len(job.summaries))
        obs.set_gauge(f"{prefix}.cells_pending", job.pending_cells)

    def _update_service_gauges(self) -> None:
        obs.set_gauge("serve.active_jobs", len(self._live))
        obs.set_gauge("serve.inflight_cells", len(self._registry))
