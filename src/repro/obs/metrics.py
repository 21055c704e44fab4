"""Metrics registry: counters, gauges, and percentile histograms.

The experiment engine is a fan-out of identical Monte-Carlo units over
worker processes, so the registry is built around *mergeability*: every
metric serialises to a JSON-safe dict (:meth:`MetricsRegistry.to_dict`)
and merges losslessly for counters/gauges and approximately for
histograms (a bounded sample reservoir keeps percentile estimates
meaningful after a merge).  Workers drain their registry per unit of
work (:meth:`MetricsRegistry.drain`) and the parent folds the deltas in,
so ``--jobs N`` runs report totals merged across the workers, with the
same metric names as a serial run.

Instrumented call sites use the module-level helpers :func:`inc`,
:func:`observe` and :func:`set_gauge`, which write into the *active*
registry — the top of a small stack that :func:`scoped` pushes a
campaign-local registry onto.  When observability is disabled
(:func:`disable`) every helper is a single boolean check, which is what
keeps the instrumented warm path within noise of the bare one.

The registry is process-local.  Counters and histograms may be
updated from several threads at once (the campaign service's worker
threads, the optimiser's sweep helper): every update holds one
module-wide lock, and a metric is created at most once per name.  The
enabled/disabled switch and the active-registry stack are not
per-thread: a thread writes into whichever registry is active.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

#: Raw observations retained per histogram for percentile estimates;
#: beyond this the histogram keeps exact count/total/min/max only.
RESERVOIR_SIZE = 512

#: Percentiles reported by :meth:`Histogram.summary`.
PERCENTILES = (50.0, 90.0, 99.0)

#: Held by every counter increment and histogram observation, so
#: concurrent updates from several threads are never lost.  Taken with
#: ``acquire``/``try``/``finally``: a ``with`` block costs about twice as
#: much, on a path every instrumented call site pays.
_UPDATE_LOCK = threading.Lock()


class Counter:
    """A monotonically increasing total (float so it can carry seconds)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        _UPDATE_LOCK.acquire()
        try:
            self.value += amount
        finally:
            _UPDATE_LOCK.release()


class Gauge:
    """A last-write-wins instantaneous value (e.g. worker-pool size)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = value

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A distribution: exact count/total/min/max + a bounded reservoir.

    The reservoir keeps the first :data:`RESERVOIR_SIZE` observations
    (deterministic — no sampling RNG), which is plenty for the engine's
    per-unit and per-phase timings; percentiles over a truncated
    reservoir are approximate but the moments stay exact.
    """

    __slots__ = ("count", "total", "vmin", "vmax", "values")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        _UPDATE_LOCK.acquire()
        try:
            self.count += 1
            self.total += value
            if self.vmin is None or value < self.vmin:
                self.vmin = value
            if self.vmax is None or value > self.vmax:
                self.vmax = value
            if len(self.values) < RESERVOIR_SIZE:
                self.values.append(value)
        finally:
            _UPDATE_LOCK.release()

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile over the retained reservoir."""
        if not self.values:
            return 0.0
        return float(np.percentile(self.values, q))

    def summary(self) -> Dict[str, Any]:
        """JSON-safe summary including the reservoir (for later merging)."""
        doc: Dict[str, Any] = {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.vmin,
            "max": self.vmax,
        }
        for q in PERCENTILES:
            doc[f"p{q:g}"] = self.percentile(q)
        doc["values"] = list(self.values)
        return doc

    def merge_dict(self, doc: Dict[str, Any]) -> None:
        """Fold another histogram's :meth:`summary` document into this one."""
        self.count += int(doc["count"])
        self.total += float(doc["total"])
        for bound, pick in (("min", min), ("max", max)):
            other = doc.get(bound)
            if other is not None:
                ours = self.vmin if bound == "min" else self.vmax
                merged = float(other) if ours is None else pick(ours, float(other))
                if bound == "min":
                    self.vmin = merged
                else:
                    self.vmax = merged
        room = RESERVOIR_SIZE - len(self.values)
        if room > 0:
            self.values.extend(float(v) for v in doc.get("values", [])[:room])


class MetricsRegistry:
    """A named collection of counters, gauges and histograms."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- access (create on first use; ``setdefault`` is atomic, so two
    # threads creating one name get the same metric) ---------------------
    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters.setdefault(name, Counter())
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges.setdefault(name, Gauge())
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms.setdefault(name, Histogram())
        return metric

    def __bool__(self) -> bool:
        return bool(self.counters or self.gauges or self.histograms)

    # -- wire format ----------------------------------------------------
    def to_dict(self, prefix: Optional[str] = None) -> Dict[str, Any]:
        """JSON-safe snapshot: the ``--metrics-out`` document.

        ``prefix`` restricts the snapshot to metrics whose name starts
        with it — how the campaign service carves one job's gauges
        (``serve.job.<id>.``) out of the shared registry for progress
        snapshots.
        """

        def keep(name: str) -> bool:
            return prefix is None or name.startswith(prefix)

        return {
            "counters": {
                n: c.value for n, c in sorted(self.counters.items()) if keep(n)
            },
            "gauges": {
                n: g.value for n, g in sorted(self.gauges.items()) if keep(n)
            },
            "histograms": {
                n: h.summary()
                for n, h in sorted(self.histograms.items())
                if keep(n)
            },
        }

    def merge_dict(self, doc: Dict[str, Any]) -> None:
        """Fold a :meth:`to_dict` document in: the cross-process merge."""
        for name, value in doc.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in doc.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, hdoc in doc.get("histograms", {}).items():
            self.histogram(name).merge_dict(hdoc)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (counters add, gauges last-write)."""
        self.merge_dict(other.to_dict())

    def clear(self) -> None:
        """Drop every metric (worker initialisation after fork)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    def drain(self) -> Dict[str, Any]:
        """Snapshot and reset: the per-unit delta workers send back."""
        doc = self.to_dict()
        self.clear()
        return doc


# ----------------------------------------------------------------------
# Active-registry stack and the global on/off switch.
# ----------------------------------------------------------------------
_AMBIENT = MetricsRegistry()
_STACK: List[MetricsRegistry] = [_AMBIENT]
_ENABLED = True


def metrics_registry() -> MetricsRegistry:
    """The registry instrumented call sites currently write into."""
    return _STACK[-1]


@contextmanager
def scoped(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Make ``registry`` the active one for the duration of the block."""
    _STACK.append(registry)
    try:
        yield registry
    finally:
        _STACK.pop()


def enabled() -> bool:
    return _ENABLED


def enable() -> None:
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn all instrumentation into cheap no-ops (see module docstring)."""
    global _ENABLED
    _ENABLED = False


# -- call-site helpers: one branch when disabled ------------------------
def inc(name: str, amount: float = 1.0) -> None:
    """Increment a counter in the active registry."""
    if _ENABLED:
        _STACK[-1].counter(name).inc(amount)


def observe(name: str, value: float) -> None:
    """Record one histogram observation in the active registry."""
    if _ENABLED:
        _STACK[-1].histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge in the active registry."""
    if _ENABLED:
        _STACK[-1].gauge(name).set(value)


def drop_gauge(name: str) -> None:
    """Forget a gauge in the active registry (no-op if it is absent)."""
    _STACK[-1].gauges.pop(name, None)
