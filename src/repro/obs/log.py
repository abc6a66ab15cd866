"""Structured, leveled, trace-correlated event log.

The serve→ingest loop previously handled its operational events —
supervisor restarts, dead-letter writes, retries, load shedding —
silently (a counter bump at best). This module gives every subsystem a
cheap structured logger::

    _log = get_logger("ingest.pipeline")
    _log.error("batch_dead_lettered", batch_id=..., tile=..., reason=...)

Events are key-value dicts with a wall-clock stamp, a level, the logger
name, and — when emitted inside an active trace span — the trace/span
ids, so a trace dump and the event log can be joined on ``trace_id``.
Storage is a bounded in-memory ring (thread-safe, no I/O on the hot
path) plus an optional JSONL sink; per-level counters live on the log's
own :class:`~repro.obs.metrics.MetricsRegistry` as ``log.events.<level>``.

Import discipline: imports only sibling ``repro.obs`` modules; the
serving/ingest layers import it, never the reverse.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.trace import TRACER

DEBUG = 10
INFO = 20
WARNING = 30
ERROR = 40

_LEVEL_NAMES = {DEBUG: "debug", INFO: "info", WARNING: "warning",
                ERROR: "error"}


class EventLog:
    """Bounded, thread-safe, structured event store."""

    #: events the ring keeps
    CAPACITY = 4096

    def __init__(self, jsonl_path: Optional[str] = None) -> None:
        #: events below this level are dropped
        self.level = INFO
        self.jsonl_path = jsonl_path
        self._lock = threading.Lock()
        self._events: Deque[Dict[str, object]] = deque(maxlen=self.CAPACITY)
        self.registry = MetricsRegistry()
        self.counts_by_level: Dict[str, Counter] = {
            name: self.registry.counter(f"log.events.{name}")
            for name in _LEVEL_NAMES.values()}

    def log(self, level: int, event: str, logger: str = "",
            **fields: object) -> Optional[Dict[str, object]]:
        """Record one event; returns the entry (None when filtered)."""
        if level < self.level:
            return None
        entry: Dict[str, object] = {
            "ts": time.time(),
            "level": _LEVEL_NAMES.get(level, str(level)),
            "logger": logger,
            "event": event,
        }
        ctx = TRACER.current()
        if ctx is not None:
            entry["trace_id"] = ctx.trace_id
            if ctx.span_id is not None:
                entry["span_id"] = ctx.span_id
        entry.update(fields)
        self.counts_by_level[entry["level"]].add()
        with self._lock:
            self._events.append(entry)
        if self.jsonl_path is not None:
            line = json.dumps(entry, sort_keys=True, default=str)
            with self._lock:
                with open(self.jsonl_path, "a", encoding="utf-8") as f:
                    f.write(line + "\n")
        return entry

    def drain(self, max_events: Optional[int] = None
              ) -> List[Dict[str, object]]:
        """Pop up to ``max_events`` oldest entries out of the ring.

        The telemetry-harvest path: a shard ships its event tail to the
        router in bounded batches instead of re-sending the whole ring
        on every ``events`` poll. Draining is destructive by design —
        each event is harvested exactly once.
        """
        out: List[Dict[str, object]] = []
        with self._lock:
            while self._events and (max_events is None
                                    or len(out) < max_events):
                out.append(self._events.popleft())
        return out

    def ingest(self, entries: List[Dict[str, object]]) -> int:
        """Append harvested entries (from another process's log) as-is.

        Wall-clock ``ts`` stamps are comparable across processes on one
        host, so no rebasing happens here; per-level counters are bumped
        so ``log.events.<level>`` reflects the merged stream.
        """
        n = 0
        with self._lock:
            for entry in entries:
                counter = self.counts_by_level.get(str(entry.get("level")))
                if counter is not None:
                    counter.add()
                self._events.append(entry)
                n += 1
        return n

    # -- introspection --------------------------------------------------
    def events(self, min_level: int = DEBUG,
               event: Optional[str] = None) -> List[Dict[str, object]]:
        """Surviving events, optionally filtered by level and event name."""
        names = {name for lvl, name in _LEVEL_NAMES.items()
                 if lvl >= min_level}
        with self._lock:
            out = list(self._events)
        return [e for e in out
                if e["level"] in names and (event is None
                                            or e["event"] == event)]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()


#: Process-wide event log; ``get_logger`` binds names onto this one.
EVENT_LOG = EventLog()


class BoundLogger:
    """A named front end over an :class:`EventLog`."""

    __slots__ = ("name", "_log")

    def __init__(self, name: str, log: Optional[EventLog] = None) -> None:
        self.name = name
        self._log = log if log is not None else EVENT_LOG

    def info(self, event: str, **fields: object) -> None:
        self._log.log(INFO, event, self.name, **fields)

    def warning(self, event: str, **fields: object) -> None:
        self._log.log(WARNING, event, self.name, **fields)

    def error(self, event: str, **fields: object) -> None:
        self._log.log(ERROR, event, self.name, **fields)


def get_logger(name: str, log: Optional[EventLog] = None) -> BoundLogger:
    """A structured logger writing into the global (or given) event log."""
    return BoundLogger(name, log)

