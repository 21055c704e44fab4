"""The unit scheduler: a prioritised queue drained by N worker threads.

Worker threads pop (priority, sequence) unit tasks off a shared
:class:`queue.PriorityQueue`, drop the ones the claim predicate rejects
(cancelled or abandoned cells, already-delivered units), and hand the
rest to a caller-supplied execute function.  The scheduler owns no
failure policy: the campaign service settles every outcome itself — a
failed attempt goes back into this queue through :meth:`requeue`.  An
execute function that raises is logged and the thread moves on to the
next task: the pool must outlive any single poisoned unit.

Threads (not processes) carry the service's concurrency: units spend
their time inside numpy, the task objects are shared by reference with
the coalescing layer, and a daemon restart is cheap.  ``--jobs`` style
process sharding stays the engine's business
(:class:`repro.exps.engine.SupervisedExecutor`).
"""

from __future__ import annotations

import itertools
import logging
import queue
import threading
from typing import Any, Callable, Optional

from .. import obs

log = logging.getLogger("repro.serve.scheduler")

#: Queue entries sort by (-priority, sequence): higher priority first,
#: FIFO within a priority band.
_SENTINEL = object()


class CellScheduler:
    """N worker threads draining a priority queue of unit tasks."""

    def __init__(
        self,
        execute: Callable[[int, Any], None],
        *,
        workers: int = 2,
        claim: Optional[Callable[[Any], bool]] = None,
    ):
        """Args:
            execute: Runs one claimed task as ``(neg_priority, item)`` —
                the stored (negated) priority rides along so a failed
                attempt can :meth:`requeue` in its original band.
            workers: Worker-thread count, at least one: nothing else
                drains the queue.
            claim: Optional predicate consulted when an item is popped;
                returning ``False`` drops it (a cancelled/abandoned cell).
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._execute = execute
        self._workers = workers
        self._claim = claim
        self._queue: "queue.PriorityQueue" = queue.PriorityQueue()
        self._seq = itertools.count()
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._threads:
            return
        for index in range(self._workers):
            thread = threading.Thread(
                target=self._loop, name=f"serve-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        """Stop workers after their current unit; pending tasks are dropped."""
        for _ in self._threads:
            # Sentinels sort behind nothing that matters: workers exit as
            # soon as they reach one.
            self._queue.put((float("inf"), next(self._seq), _SENTINEL))
        for thread in self._threads:
            thread.join(timeout=30.0)
        self._threads.clear()

    def submit(self, priority: int, item: Any) -> None:
        """Enqueue one unit task; higher priority runs first."""
        self._queue.put((-priority, next(self._seq), item))
        obs.set_gauge("serve.queue_depth", self._queue.qsize())

    def depth(self) -> int:
        return self._queue.qsize()

    def requeue(self, neg_priority: int, item: Any) -> None:
        """Reinsert a task whose attempt failed.

        A fresh sequence number puts it behind live submissions of the
        same priority band — re-queued work should not overtake work
        that never failed.
        """
        self._queue.put((neg_priority, next(self._seq), item))
        obs.set_gauge("serve.queue_depth", self._queue.qsize())

    # ------------------------------------------------------------------
    # Worker loop.
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            neg_priority, _, item = self._queue.get()
            obs.set_gauge("serve.queue_depth", self._queue.qsize())
            if item is _SENTINEL:
                return
            try:
                if self._claim is not None and not self._claim(item):
                    obs.inc("serve.units_skipped")
                    continue
                self._execute(neg_priority, item)
            except Exception:  # pragma: no cover - callback bug backstop
                log.exception("scheduler callback failed; worker continues")
