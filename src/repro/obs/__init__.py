"""Structured observability for the experiment engine.

Three cooperating pieces (each in its own module):

* :mod:`repro.obs.metrics` — a mergeable registry of counters, gauges
  and percentile histograms.  Workers drain per-unit deltas; the parent
  merges them, so ``--jobs N`` campaigns report totals merged across
  the workers.
* :mod:`repro.obs.spans` — nesting span timers that record into
  ``span.<name>_seconds`` histograms and compile to no-ops when
  observability is disabled.
* :mod:`repro.obs.events` — an optional JSON-lines event sink for
  discrete occurrences (span completions, cache-served cells).

Plus :func:`configure_logging` for the ``repro.*`` logger hierarchy
(plain text or JSON lines).

Typical use::

    from repro import obs

    obs.configure_logging("INFO")
    with obs.span("my.campaign"):
        run_experiments()
    print(obs.metrics_registry().to_dict())
"""

from .events import (
    EventSink,
    emit_event,
    get_event_sink,
    set_event_sink,
)
from .logsetup import JsonLogFormatter, configure_logging
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disable,
    drop_gauge,
    enable,
    enabled,
    inc,
    metrics_registry,
    observe,
    scoped,
    set_gauge,
)
from .spans import Span, current_span, span

__all__ = [
    "Counter",
    "EventSink",
    "Gauge",
    "Histogram",
    "JsonLogFormatter",
    "MetricsRegistry",
    "Span",
    "configure_logging",
    "current_span",
    "disable",
    "drop_gauge",
    "emit_event",
    "enable",
    "enabled",
    "get_event_sink",
    "inc",
    "metrics_registry",
    "observe",
    "scoped",
    "set_event_sink",
    "set_gauge",
    "span",
]
