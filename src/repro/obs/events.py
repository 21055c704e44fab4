"""JSON-lines event sink: one structured record per line.

Spans (:mod:`repro.obs.spans`) and the engine emit discrete events —
span completions, campaign cells served from cache, metric snapshots —
through a process-global sink.  With no sink installed (the default)
:func:`emit_event` is a single ``None`` check, so library users pay
nothing; installing an :class:`EventSink` turns the stream on.

The format is deliberately plain JSONL so any log shipper or ``jq`` can
consume it.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import IO, Any, Dict, Optional, Union


class EventSink:
    """Append structured events to a file (or any writable text stream)."""

    def __init__(self, target: Union[str, Path, IO[str]]):
        if isinstance(target, (str, Path)):
            self._file: IO[str] = open(target, "a", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self._lock = threading.Lock()

    def emit(self, kind: str, **fields: Any) -> None:
        """Write one event line; ``kind`` names the event type.

        Threads may emit at once: each line is written whole.
        """
        record: Dict[str, Any] = {"event": kind, "ts": time.time()}
        record.update(fields)
        line = json.dumps(record) + "\n"
        with self._lock:
            self._file.write(line)
            self._file.flush()

    def close(self) -> None:
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


_SINK: Optional[EventSink] = None


def set_event_sink(sink: Optional[EventSink]) -> None:
    """Install (or with ``None`` remove) the process-global sink."""
    global _SINK
    _SINK = sink


def get_event_sink() -> Optional[EventSink]:
    return _SINK


def emit_event(kind: str, **fields: Any) -> None:
    """Emit to the global sink; a no-op when none is installed."""
    if _SINK is not None:
        _SINK.emit(kind, **fields)
