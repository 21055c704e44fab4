"""The remote fleet worker: lease, execute, report, heartbeat.

``python -m repro.serve worker --connect HOST:PORT`` runs one
:class:`FleetWorker`.  Its lifecycle::

    register -> (heartbeat ...)          # background thread
             -> lease -> execute -> complete/fail   # main loop
             -> idle  -> poll / exit after --max-idle

Registration ships the daemon's physics context — ``RunnerConfig``,
``Calibration``, ``CoreConfig`` — over the wire with a fingerprint
(:func:`~repro.serve.protocol.runner_context_from_wire` refuses a
mismatch), so the worker's locally-rebuilt
:class:`~repro.exps.runner.ExperimentRunner` produces bit-identical
rows and, crucially, *identical cache keys*: a fleet sharing one
artifact cache directory (``--cache-dir`` on a shared mount) reuses each
other's measurements and fuzzy banks instead of retraining per host.

The worker is expendable by design.  The daemon re-queues the leases of
a worker that stops heartbeating, and unit delivery is idempotent, so
``kill -9`` mid-unit costs one recompute, never a wrong result.  A
worker that learns it was presumed dead (``unknown-worker`` on any op)
simply re-registers under a fresh id and keeps going.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from typing import Any, Dict, List, Optional

from .. import obs
from ..exps.cache import ExperimentCache
from ..exps.engine import UnitExecutionError
from ..exps.runner import ExperimentRunner
from .coalesce import NOVAR_CHIP, run_block
from .daemon import ServiceClient
from .fleet import UnknownWorkerError
from .protocol import (
    LeasedUnit,
    rows_to_wire,
    runner_context_from_wire,
    unit_from_wire,
)

log = logging.getLogger("repro.serve.worker")


class FleetWorker:
    """One remote execution loop against a campaign-service daemon."""

    def __init__(
        self,
        address: str,
        *,
        cache: Optional[ExperimentCache] = None,
        poll_interval: float = 0.25,
        max_idle: Optional[float] = None,
        max_units_per_lease: int = 1,
        heartbeats: bool = True,
        meta: Optional[Dict[str, Any]] = None,
    ):
        """Args:
            address: The daemon's ``host:port``.
            cache: This worker's artifact cache — point every fleet
                member at the same root to share measurements/banks
                (results always flow back over the wire; the cache only
                saves recompute).
            poll_interval: Sleep between empty lease polls, seconds.
            max_idle: Exit after this long without work (``None``: poll
                until the daemon goes away).
            max_units_per_lease: Units requested per lease round trip.
            heartbeats: Disable only in tests that simulate a dead
                worker deterministically.
            meta: Extra registration metadata (shown in ``ping``).
        """
        self.client = ServiceClient(address)
        self.cache = cache
        self.poll_interval = float(poll_interval)
        self.max_idle = max_idle
        self.max_units_per_lease = int(max_units_per_lease)
        self.heartbeats = bool(heartbeats)
        self.meta = {
            "host": socket.gethostname(),
            "pid": os.getpid(),
            **(meta or {}),
        }
        self.worker_id: Optional[str] = None
        self.heartbeat_interval = 2.0
        self.runner: Optional[ExperimentRunner] = None
        self.units_done = 0
        self.units_failed = 0
        self._stop = threading.Event()
        self._reregister = threading.Event()
        self._beat_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def register(self) -> str:
        """Handshake: get an id and rebuild the daemon's runner locally."""
        response = self.client.request("fleet.register", meta=self.meta)
        self.worker_id = response["worker_id"]
        self.heartbeat_interval = float(response["heartbeat_interval"])
        # Beats must start before the runner rebuild below: sampling the
        # chip population can take longer than the daemon's heartbeat
        # deadline, and a worker reaped during its own startup would
        # re-register in a loop.
        self._start_beats()
        config, calib, core_config = runner_context_from_wire(
            response["context"]
        )
        # Rebuilding per registration is cheap relative to one unit and
        # keeps a re-registration after a daemon restart safe even if
        # the daemon came back with a different physics config.
        self.runner = ExperimentRunner(
            config, calib, core_config=core_config, cache=self.cache
        )
        obs.inc("worker.registrations")
        log.info("registered as %s with %s (heartbeat %.1fs)",
                 self.worker_id, self.client.host, self.heartbeat_interval)
        return self.worker_id

    def stop(self) -> None:
        """Ask the run loop (and heartbeat thread) to exit."""
        self._stop.set()

    def _start_beats(self) -> None:
        if not self.heartbeats or self._beat_thread is not None:
            return
        self._beat_thread = threading.Thread(
            target=self._beat_loop, name="fleet-heartbeat", daemon=True
        )
        self._beat_thread.start()

    def run(self) -> int:
        """Drain leases until stopped, idled out, or the daemon is gone.

        Returns the number of units completed (the CLI's exit report).
        """
        self.register()
        idle_since = time.monotonic()
        try:
            while not self._stop.is_set():
                if self._reregister.is_set():
                    self._reregister.clear()
                    self.register()
                try:
                    units = self._lease()
                except UnknownWorkerError:
                    self.register()
                    continue
                except (OSError, ConnectionError):
                    log.info("daemon unreachable; worker exiting")
                    break
                if not units:
                    if (
                        self.max_idle is not None
                        and time.monotonic() - idle_since > self.max_idle
                    ):
                        log.info("idle for %.1fs; worker exiting",
                                 self.max_idle)
                        break
                    self._stop.wait(self.poll_interval)
                    continue
                idle_since = time.monotonic()
                for block in self._blocks(units):
                    if self._stop.is_set():
                        break
                    self._run_block(block)
        finally:
            self._stop.set()
            if self._beat_thread is not None:
                self._beat_thread.join(timeout=5.0)
        return self.units_done

    # ------------------------------------------------------------------
    # One unit.
    # ------------------------------------------------------------------
    def _lease(self) -> List[LeasedUnit]:
        response = self.client.request(
            "fleet.lease",
            worker_id=self.worker_id,
            max_units=self.max_units_per_lease,
        )
        units = [unit_from_wire(doc) for doc in response.get("units", [])]
        obs.inc("worker.leases", 1.0 if units else 0.0)
        obs.inc("worker.leases_empty", 0.0 if units else 1.0)
        return units

    @staticmethod
    def _blocks(units: List[LeasedUnit]) -> List[List[LeasedUnit]]:
        """Group consecutive leased units that form one batchable cell.

        Units sharing (environment, mode, workloads) advance together
        through the population-batched path; NoVar pseudo-units always
        stand alone.  Grouping only ever merges *adjacent* leases, so
        completion reports arrive in lease order.
        """
        blocks: List[List[LeasedUnit]] = []
        key = None
        for unit in units:
            unit_key = (
                None
                if unit.chip_index == NOVAR_CHIP
                else (unit.env.name, unit.mode.value, unit.workloads)
            )
            if blocks and key is not None and unit_key == key:
                blocks[-1].append(unit)
            else:
                blocks.append([unit])
            key = unit_key
        return blocks

    def _run_block(self, block: List[LeasedUnit]) -> None:
        """Run one lease block through the service's block runner.

        :func:`~repro.serve.coalesce.run_block` — the same function the
        daemon's own threads run — returns every unit's rows or error,
        so each unit gets its own complete/fail report: a broken unit
        (NoVar and bank failures included) never takes its block-mates
        or this worker down with it.
        """
        runner = self.runner
        assert runner is not None, "_run_block() before register()"
        first = block[0]
        with obs.span("worker.unit_block", units=len(block),
                      env=first.env.name, mode=first.mode.value):
            outcomes = run_block(
                runner, first.env, first.mode, first.workloads,
                [(u.chip_index, u.core_index) for u in block],
            )
        for unit, outcome in zip(block, outcomes):
            self._settle(unit, outcome)

    def _settle(self, unit: LeasedUnit, outcome) -> None:
        """Report one unit's rows (``fleet.complete``) or error (``fleet.fail``)."""
        if isinstance(outcome, UnitExecutionError):
            self.units_failed += 1
            obs.inc("worker.units_failed")
            log.warning("unit %s failed: %s", unit.unit_key, outcome)
            self._report("fleet.fail", unit, error=str(outcome))
            return
        self.units_done += 1
        obs.inc("worker.units_done")
        self._report("fleet.complete", unit, rows=rows_to_wire(outcome))

    def _report(self, op: str, unit: LeasedUnit, **payload: Any) -> None:
        try:
            self.client.request(
                op, worker_id=self.worker_id, unit_key=unit.unit_key,
                **payload,
            )
        except UnknownWorkerError:
            # Presumed dead while computing: the unit was re-queued and
            # someone else owns it now.  Re-register and move on.
            log.warning("daemon retired this worker mid-unit; re-registering")
            self._reregister.set()
        except (OSError, ConnectionError) as exc:
            log.warning("could not report %s for %s: %s",
                        op, unit.unit_key, exc)

    # ------------------------------------------------------------------
    # Liveness.
    # ------------------------------------------------------------------
    def _beat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                self.client.request(
                    "fleet.heartbeat", worker_id=self.worker_id
                )
            except UnknownWorkerError:
                self._reregister.set()
            except (OSError, ConnectionError):
                # The main loop notices an unreachable daemon on its
                # next lease; heartbeats just keep trying until then.
                pass
            except Exception:  # pragma: no cover - liveness must survive
                log.exception("heartbeat failed; continuing")
