"""Worker-fleet registry: registration, heartbeats, leases, stealing.

:class:`FleetRegistry` is the daemon-side bookkeeping for remote
workers (``python -m repro.serve worker``).  It owns no execution and no
network: workers reach it through the daemon's ``fleet.*`` protocol ops
(v3), and it reaches the campaign service only through injected
callables — ``take``/``requeue`` against the :class:`~repro.serve.
scheduler.CellScheduler` queue and ``claim``/``deliver``/``fail``
against the service's unit callbacks — so this module imports neither
:mod:`repro.serve.service` nor :mod:`repro.serve.daemon`.

Liveness and exactly-once semantics:

* A worker heartbeats every ``heartbeat_interval`` seconds; one that
  misses :data:`MISSED_BEATS_DEAD` consecutive beats is declared dead
  and its undelivered leases are re-queued (``fleet.units_requeued``).
  The unit keys are content-addressed, and unit delivery is idempotent
  on the service side, so a presumed-dead worker that completes late
  cannot double-count a unit (``fleet.late_completions``).
* An idle worker whose lease request finds the queue empty may *steal*
  a unit from a slow peer: the oldest outstanding lease older than
  ``lease_timeout`` is duplicated (``fleet.units_stolen``), capped at
  :data:`MAX_DUPLICATE_LEASES` concurrent holders per unit.  Whichever
  copy finishes first wins; the loser's completion is dropped by the
  same idempotency guard.
* A failed attempt is handed to the ``fail`` callback, which charges
  the service's one per-unit retry budget (``UnitTask.attempts``) —
  shared with the in-process threads — and re-queues the unit or
  poisons its cell.

Lock ordering: the registry lock is acquired *before* the service lock
(which the ``claim``/``deliver``/``fail`` callbacks take internally),
never the other way around — the service must not call into the
registry while holding its own lock.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import obs

log = logging.getLogger("repro.serve.fleet")

#: Consecutive missed heartbeats after which a worker is declared dead.
MISSED_BEATS_DEAD = 3

#: Most concurrent leases (original + steals) per unit.  Two is enough
#: to cover one slow holder without letting a tail unit fan out to the
#: whole fleet.
MAX_DUPLICATE_LEASES = 2


class FleetError(RuntimeError):
    """Base class for fleet-registry request failures."""


class UnknownWorkerError(FleetError, KeyError):
    """No live worker with the requested id (never registered, retired
    after missed heartbeats, or a stale id from before a daemon restart).
    The worker's recovery is to re-register."""


@dataclass
class Lease:
    """One unit checked out to one worker."""

    unit_key: str
    item: Any  # the scheduler's (CellTask, UnitTask) pair
    neg_priority: int
    worker_id: str
    issued_at: float  # time.monotonic()

    @property
    def age(self) -> float:
        return time.monotonic() - self.issued_at


@dataclass
class WorkerInfo:
    """Daemon-side record of one registered worker."""

    worker_id: str
    meta: Dict[str, Any]
    registered_at: float
    last_beat: float
    alive: bool = True
    leases: Dict[str, Lease] = field(default_factory=dict)
    units_done: int = 0
    units_failed: int = 0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "alive": self.alive,
            "leases": sorted(self.leases),
            "units_done": self.units_done,
            "units_failed": self.units_failed,
            "meta": dict(self.meta),
        }


class FleetRegistry:
    """Registration, liveness and lease bookkeeping for remote workers."""

    def __init__(
        self,
        *,
        take: Callable[[], Optional[Tuple[int, Any]]],
        requeue: Callable[[int, Any], None],
        claim: Callable[[Any], bool],
        deliver: Callable[[Any, Any], None],
        fail: Callable[[int, Any, BaseException], None],
        heartbeat_interval: float = 2.0,
        lease_timeout: float = 60.0,
    ):
        """Args:
            take: Non-blocking queue pop -> ``(neg_priority, item)`` or
                ``None`` (:meth:`CellScheduler.take`).
            requeue: Reinsert a taken item (:meth:`CellScheduler.requeue`).
            claim: The service's claim predicate; ``False`` drops the
                item (cancelled/abandoned cell, already-delivered unit).
            deliver: The service's ``(item, rows)`` success callback —
                must be idempotent per unit.
            fail: The service's ``(neg_priority, item, error)``
                failed-attempt callback: it charges the unit's retry
                budget, then re-queues the unit or poisons its cell.
            heartbeat_interval: Expected worker beat period, seconds.
            lease_timeout: Lease age beyond which an idle worker may
                steal the unit from its holder.
        """
        self._take = take
        self._requeue = requeue
        self._claim = claim
        self._deliver = deliver
        self._fail = fail
        self.heartbeat_interval = float(heartbeat_interval)
        self.lease_timeout = float(lease_timeout)
        self._lock = threading.RLock()
        self._workers: Dict[str, WorkerInfo] = {}
        self._ids = itertools.count(1)
        #: unit_key -> live lease count (original + steals).
        self._holders: Dict[str, int] = {}
        self._reaper: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> "FleetRegistry":
        """Start the liveness reaper (idempotent) and touch the metrics
        so every fleet counter exists in every metrics document."""
        for name in (
            "fleet.workers_registered", "fleet.workers_dead",
            "fleet.units_leased", "fleet.units_stolen",
            "fleet.units_requeued", "fleet.units_completed",
            "fleet.late_completions",
        ):
            obs.inc(name, 0.0)
        self._update_gauges()
        with self._lock:
            if self._reaper is None:
                self._stop.clear()
                self._reaper = threading.Thread(
                    target=self._reap_loop, name="fleet-reaper", daemon=True
                )
                self._reaper.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        reaper, self._reaper = self._reaper, None
        if reaper is not None:
            reaper.join(timeout=10.0)

    # ------------------------------------------------------------------
    # Worker-facing operations (called from daemon handler threads).
    # ------------------------------------------------------------------
    def register(self, meta: Optional[Dict[str, Any]] = None) -> str:
        """Admit a worker; returns its fleet-unique id."""
        now = time.monotonic()
        with self._lock:
            worker = WorkerInfo(
                worker_id=f"w-{next(self._ids)}",
                meta=dict(meta or {}),
                registered_at=now,
                last_beat=now,
            )
            self._workers[worker.worker_id] = worker
            obs.inc("fleet.workers_registered")
            self._update_gauges()
            log.info("worker %s registered (%s)", worker.worker_id,
                     worker.meta or "no metadata")
            return worker.worker_id

    def heartbeat(self, worker_id: str) -> None:
        """Record one beat; unknown/retired ids raise so the worker
        knows to re-register."""
        with self._lock:
            self._live(worker_id).last_beat = time.monotonic()

    def lease(self, worker_id: str, max_units: int = 1) -> List[Lease]:
        """Check out up to ``max_units`` tasks for a worker.

        Drains the scheduler queue first; when the queue is dry, tries
        to steal the oldest over-age lease from a peer (tail latency:
        near the end of a cell the only pending units are on slow
        workers).  May return an empty list — the worker polls.
        """
        granted: List[Lease] = []
        with self._lock:
            worker = self._live(worker_id)
            worker.last_beat = time.monotonic()
            while len(granted) < max_units:
                taken = self._take()
                if taken is None:
                    break
                neg_priority, item = taken
                # claim() takes the service lock; registry lock is
                # already held (registry -> service, never reverse).
                if not self._claim(item):
                    continue
                granted.append(self._grant(worker, neg_priority, item))
            if not granted:
                stolen = self._steal_for(worker)
                if stolen is not None:
                    granted.append(stolen)
            self._update_gauges()
        return granted

    def complete(self, worker_id: str, unit_key: str, rows: Any) -> bool:
        """Deliver a finished unit.  Returns ``False`` for a *late*
        completion (lease revoked by the reaper, or a steal race already
        delivered the unit) — the rows are dropped, not double-counted."""
        with self._lock:
            worker = self._live(worker_id)
            worker.last_beat = time.monotonic()
            lease = worker.leases.pop(unit_key, None)
            if lease is None:
                obs.inc("fleet.late_completions")
                self._update_gauges()
                return False
            self._release(unit_key)
            _cell, unit = lease.item
            if unit.rows is not None:
                # A duplicate holder already delivered this unit.
                obs.inc("fleet.late_completions")
                self._update_gauges()
                return False
            worker.units_done += 1
            obs.inc("fleet.units_completed")
            self._update_gauges()
            # deliver() takes the service lock (registry -> service).
            self._deliver(lease.item, rows)
            return True

    def fail(self, worker_id: str, unit_key: str, message: str) -> bool:
        """Report a failed attempt; the ``fail`` callback charges it to
        the unit's retry budget (re-queue, or poison the cell).  Returns
        ``False`` for a late/unknown lease (nothing charged)."""
        with self._lock:
            worker = self._live(worker_id)
            worker.last_beat = time.monotonic()
            lease = worker.leases.pop(unit_key, None)
            if lease is None:
                self._update_gauges()
                return False
            self._release(unit_key)
            worker.units_failed += 1
            self._update_gauges()
            log.warning("unit %s failed on %s: %s", unit_key, worker_id,
                        message)
            # fail() takes the service lock (registry -> service).
            self._fail(lease.neg_priority, lease.item, FleetError(message))
            return True

    def stats(self) -> Dict[str, Any]:
        """A JSON-safe snapshot (rides in the daemon's ``ping``)."""
        with self._lock:
            workers = [w.snapshot() for w in self._workers.values()]
            return {
                "workers": workers,
                "alive": sum(1 for w in self._workers.values() if w.alive),
                "leased_units": sum(self._holders.values()),
                "heartbeat_interval": self.heartbeat_interval,
                "lease_timeout": self.lease_timeout,
            }

    # ------------------------------------------------------------------
    # Internals (registry lock held).
    # ------------------------------------------------------------------
    def _live(self, worker_id: str) -> WorkerInfo:
        worker = self._workers.get(worker_id)
        if worker is None or not worker.alive:
            raise UnknownWorkerError(worker_id)
        return worker

    def _grant(self, worker: WorkerInfo, neg_priority: int,
               item: Any) -> Lease:
        _cell, unit = item
        lease = Lease(
            unit_key=unit.key,
            item=item,
            neg_priority=neg_priority,
            worker_id=worker.worker_id,
            issued_at=time.monotonic(),
        )
        worker.leases[unit.key] = lease
        self._holders[unit.key] = self._holders.get(unit.key, 0) + 1
        obs.inc("fleet.units_leased")
        return lease

    def _release(self, unit_key: str) -> None:
        count = self._holders.get(unit_key, 0) - 1
        if count > 0:
            self._holders[unit_key] = count
        else:
            self._holders.pop(unit_key, None)

    def _steal_for(self, thief: WorkerInfo) -> Optional[Lease]:
        """Duplicate the oldest over-age lease of a (slow) peer."""
        candidates = [
            lease
            for worker in self._workers.values()
            if worker.alive and worker.worker_id != thief.worker_id
            for lease in worker.leases.values()
            if lease.age > self.lease_timeout
            and self._holders.get(lease.unit_key, 0) < MAX_DUPLICATE_LEASES
            and lease.item[1].rows is None
        ]
        if not candidates:
            return None
        victim = min(candidates, key=lambda lease: lease.issued_at)
        obs.inc("fleet.units_stolen")
        log.info("worker %s steals unit %s from %s (lease age %.1fs)",
                 thief.worker_id, victim.unit_key, victim.worker_id,
                 victim.age)
        return self._grant(thief, victim.neg_priority, victim.item)

    # ------------------------------------------------------------------
    # Liveness.
    # ------------------------------------------------------------------
    def _reap_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                self.reap()
            except Exception:  # pragma: no cover - reaper must survive
                log.exception("fleet reaper pass failed; continuing")

    def reap(self, now: Optional[float] = None) -> List[str]:
        """One liveness pass: retire workers whose last beat is older
        than :data:`MISSED_BEATS_DEAD` intervals and re-queue their
        undelivered leases.  Returns the retired worker ids (tests call
        this directly with a pinned ``now``)."""
        now = time.monotonic() if now is None else now
        deadline = MISSED_BEATS_DEAD * self.heartbeat_interval
        retired: List[str] = []
        with self._lock:
            for worker in self._workers.values():
                if not worker.alive or now - worker.last_beat <= deadline:
                    continue
                worker.alive = False
                retired.append(worker.worker_id)
                obs.inc("fleet.workers_dead")
                leases, worker.leases = worker.leases, {}
                for lease in leases.values():
                    self._release(lease.unit_key)
                    _cell, unit = lease.item
                    if unit.rows is not None:
                        continue  # already delivered by a duplicate
                    if self._holders.get(lease.unit_key, 0) > 0:
                        continue  # a duplicate holder is still on it
                    obs.inc("fleet.units_requeued")
                    self._requeue(lease.neg_priority, lease.item)
                log.warning(
                    "worker %s presumed dead (%.1fs since last beat); "
                    "%d lease(s) processed",
                    worker.worker_id, now - worker.last_beat, len(leases),
                )
            if retired:
                self._update_gauges()
        return retired

    def _update_gauges(self) -> None:
        obs.set_gauge("fleet.workers_alive",
                      sum(1 for w in self._workers.values() if w.alive))
        obs.set_gauge("fleet.units_leased_now", sum(self._holders.values()))
