"""Request/observation tracing: contextvars propagation + span recording.

One :class:`TraceContext` (trace id, span id, sampled bit) rides a
``contextvars.ContextVar`` through the synchronous parts of a request
and is carried *explicitly* across thread boundaries (a serve work item,
an ingest observation) so a single fleet request — or one observation's
journey from ``ObservationBus.enqueue`` through the stage pipeline to
``PatchPublisher`` and ``ChangesSince`` visibility — can be
reconstructed as a span tree afterwards.

Cost model, in order of importance:

1. **Disabled tracing is one attribute check** per instrumentation
   point (``Tracer.span`` returns the no-op singleton immediately).
2. **Unsampled traces allocate nothing**: the sampling decision is made
   once at the root; children of a no-op context are no-ops.
3. **Sampled spans append lock-free**: the :class:`SpanRecorder` ring
   buffer is written with a single CPython list-slot store (atomic
   under the GIL); only the optional JSONL sink takes a lock, and only
   for sampled spans.

Import discipline: stdlib-only, imported by hot-path modules — must
never import back into ``repro``.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    TextIO)


@dataclass(frozen=True)
class TraceContext:
    """Propagated identity of the active trace position.

    ``span_id`` is ``None`` for a context that names a trace but no
    parent span yet (a sampled root decision carried across a thread
    boundary before any span has opened).
    """

    trace_id: str
    span_id: Optional[str]
    sampled: bool = True


_ACTIVE: "contextvars.ContextVar[Optional[TraceContext]]" = \
    contextvars.ContextVar("repro_obs_trace", default=None)


class Span:
    """One timed, attributed operation; records itself on ``__exit__``."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_s",
                 "end_s", "attrs", "_tracer", "_token")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 span_id: str, parent_id: Optional[str],
                 start_s: float, attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.attrs = attrs
        self._token: Optional[contextvars.Token] = None

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id, True)

    def set(self, key: str, value: object) -> None:
        self.attrs[key] = value

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def end(self, t: Optional[float] = None) -> None:
        if self.end_s is None:
            self.end_s = self._tracer._clock() if t is None else t

    def __enter__(self) -> "Span":
        self._token = _ACTIVE.set(self.context)
        return self

    def detach(self) -> None:
        """Deactivate without ending: for spans that outlive the thread's
        activation window and are finished later (e.g. a shard-side span
        closed from a worker future's callback). Must run in the thread
        that entered the span."""
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.attrs["error"] = f"{exc_type.__name__}: {exc}"
        self.end()
        self._tracer._record(self)
        return False

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
        }


class _NoopSpan:
    """Do-nothing stand-in returned on every unsampled/disabled path."""

    __slots__ = ()
    context = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, key: str, value: object) -> None:
        pass

    def end(self, t: Optional[float] = None) -> None:
        pass

    def detach(self) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class SpanRecorder:
    """Bounded ring buffer of finished spans + optional JSONL sink.

    Appends are a counter increment plus one list-slot store — no lock —
    so recording in a serving worker never serializes against other
    workers. ``spans()`` reorders by append sequence; when the ring has
    wrapped, the oldest spans are gone (bounded memory by design).
    """

    def __init__(self, capacity: int = 4096,
                 jsonl_path: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._ring: List[Optional[tuple]] = [None] * capacity
        self._seq = itertools.count()
        self.jsonl_path = jsonl_path
        self._sink_lock = threading.Lock()
        self.dropped = 0  # overwritten ring slots since last clear

    def record(self, span: Span) -> None:
        seq = next(self._seq)
        slot = seq % self.capacity
        if self._ring[slot] is not None:
            self.dropped += 1
        self._ring[slot] = (seq, span)
        if self.jsonl_path is not None:
            line = json.dumps(span.as_dict(), sort_keys=True)
            with self._sink_lock:
                with open(self.jsonl_path, "a", encoding="utf-8") as f:
                    f.write(line + "\n")

    def drain(self, max_spans: Optional[int] = None
              ) -> List[Dict[str, object]]:
        """Take up to ``max_spans`` oldest spans out of the ring as dicts.

        The telemetry-harvest path: a shard drains its own ring in
        bounded batches and ships the dicts over RPC. Each slot is
        cleared only if it still holds the drained entry (an identity
        check, atomic under the GIL), so a concurrent ``record`` into
        the same slot is never lost — the newer span just ships with the
        next drain.
        """
        entries = [e for e in self._ring if e is not None]
        entries.sort(key=lambda e: e[0])
        if max_spans is not None:
            entries = entries[:max_spans]
        out: List[Dict[str, object]] = []
        for entry in entries:
            seq, span = entry
            slot = seq % self.capacity
            if self._ring[slot] is entry:
                self._ring[slot] = None
            out.append(span.as_dict())
        return out

    def ingest(self, spans: Iterable[Dict[str, object]]) -> int:
        """Record span dicts harvested from another process's recorder.

        Rebuilds lightweight :class:`Span` objects (already finished, so
        they never touch a tracer clock) and records them normally —
        including into the JSONL sink, so a merged dump contains the
        whole cross-process tree.
        """
        n = 0
        for d in spans:
            span = Span(None, str(d["name"]), str(d["trace_id"]),
                        str(d["span_id"]), d.get("parent_id"),
                        float(d["start_s"]), dict(d.get("attrs") or {}))
            end_s = d.get("end_s")
            span.end_s = None if end_s is None else float(end_s)
            self.record(span)
            n += 1
        return n

    # -- introspection --------------------------------------------------
    def spans(self) -> List[Span]:
        """Recorded spans in append order (oldest surviving first)."""
        entries = [e for e in self._ring if e is not None]
        entries.sort(key=lambda e: e[0])
        return [span for _, span in entries]

    def trace_ids(self) -> List[str]:
        seen: Dict[str, None] = {}
        for span in self.spans():
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def trace(self, trace_id: str) -> List[Span]:
        return [s for s in self.spans() if s.trace_id == trace_id]

    def dump_jsonl(self, out: TextIO) -> int:
        """Write every surviving span to the text stream ``out`` as one
        JSON object per line."""
        spans = self.spans()
        for span in spans:
            out.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")
        return len(spans)

    def clear(self) -> None:
        self._ring = [None] * self.capacity
        self._seq = itertools.count()
        self.dropped = 0


class Tracer:
    """Sampling span factory bound to a recorder and a clock.

    Sampling is deterministic (every ``round(1/sample_rate)``-th root),
    which keeps benchmarks reproducible and the overhead measurable.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.recorder = SpanRecorder()
        self.enabled = False
        self._clock = clock
        self._ids = itertools.count(1)
        self._sample_seq = itertools.count()
        self._every = 1
        #: Span-id namespace. Each process merging spans into a shared
        #: recorder must mint ids in its own namespace (shard workers use
        #: ``s<index>-<pid>-``) — per-process counters would otherwise
        #: collide when telemetry harvesting merges the rings.
        self.id_prefix = ""
        self.set_sample_rate(1.0)

    # -- configuration --------------------------------------------------
    def set_sample_rate(self, rate: float) -> None:
        if rate <= 0.0:
            self._every = 0  # sample nothing
        else:
            self._every = max(1, int(round(1.0 / min(rate, 1.0))))
        self.sample_rate = rate

    def configure(self, enabled: Optional[bool] = None,
                  sample_rate: Optional[float] = None,
                  capacity: Optional[int] = None,
                  jsonl_path: Optional[str] = None,
                  reset: bool = False) -> "Tracer":
        """Reconfigure in place (the global tracer is shared by import)."""
        if capacity is not None:
            self.recorder = SpanRecorder(capacity, jsonl_path)
        elif jsonl_path is not None:
            self.recorder.jsonl_path = jsonl_path
        if reset:
            self.recorder.clear()
            self._sample_seq = itertools.count()
        if sample_rate is not None:
            self.set_sample_rate(sample_rate)
        if enabled is not None:
            self.enabled = enabled
        return self

    # -- internals ------------------------------------------------------
    def _sample(self) -> bool:
        if self._every == 0:
            return False
        return next(self._sample_seq) % self._every == 0

    def _new_id(self) -> str:
        return f"{self.id_prefix}{next(self._ids):012x}"

    def _record(self, span: Span) -> None:
        self.recorder.record(span)

    def _span(self, name: str, trace_id: str, parent_id: Optional[str],
              start_s: Optional[float], attrs: Dict[str, object]) -> Span:
        return Span(self, name, trace_id, self._new_id(), parent_id,
                    self._clock() if start_s is None else start_s, attrs)

    # -- public API -----------------------------------------------------
    def current(self) -> Optional[TraceContext]:
        """The active trace context of this thread/task, if sampled."""
        return _ACTIVE.get()

    def start_trace(self, name: str, **attrs):
        """Open a root span, making the sampling decision for the trace."""
        if not self.enabled or not self._sample():
            return NOOP_SPAN
        return self._span(name, f"t{self._new_id()}", None, None, attrs)

    def span(self, name: str, **attrs):
        """Open a child span of the current context (no-op outside one)."""
        if not self.enabled:
            return NOOP_SPAN
        ctx = _ACTIVE.get()
        if ctx is None:
            return NOOP_SPAN
        return self._span(name, ctx.trace_id, ctx.span_id, None, attrs)

    def propagate(self) -> Optional[TraceContext]:
        """Context to carry across a thread/queue boundary.

        Inside an active trace this is the current context. Outside one,
        a *new* sampled trace may start here (the sampling decision is
        made now, so the receiving thread only opens a span if this
        returns non-None). Returns None when tracing is off or the
        sampler says no.
        """
        if not self.enabled:
            return None
        ctx = _ACTIVE.get()
        if ctx is not None:
            return ctx
        if not self._sample():
            return None
        return TraceContext(f"t{self._new_id()}", None, True)

    def continue_from(self, ctx: Optional[TraceContext], name: str,
                      start_s: Optional[float] = None, **attrs):
        """Open a span under an explicitly carried context (cross-thread).

        ``start_s`` backdates the span (e.g. a queue-wait span whose
        start is the producer's enqueue stamp — same clock required).
        """
        if not self.enabled or ctx is None or not ctx.sampled:
            return NOOP_SPAN
        return self._span(name, ctx.trace_id, ctx.span_id, start_s, attrs)


#: Process-wide tracer; instrumentation points attach to this one.
TRACER = Tracer()


def configure_tracing(enabled: Optional[bool] = None,
                      sample_rate: Optional[float] = None,
                      capacity: Optional[int] = None,
                      jsonl_path: Optional[str] = None,
                      reset: bool = False) -> Tracer:
    """Convenience front door for the global :data:`TRACER`."""
    return TRACER.configure(enabled=enabled, sample_rate=sample_rate,
                            capacity=capacity, jsonl_path=jsonl_path,
                            reset=reset)


# -- offline span-tree tooling (CLI `obs trace`, smoke checks) ----------
def load_spans_jsonl(path: str) -> List[Dict[str, object]]:
    """Read a span dump written by :meth:`SpanRecorder.dump_jsonl`."""
    spans: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def build_tree(spans: Sequence[Dict[str, object]]
               ) -> List[Dict[str, object]]:
    """Nest span dicts by parent id; returns the roots.

    Spans whose parent is missing from the set (evicted from the ring,
    or genuinely unparented) surface as roots so nothing is silently
    dropped — :func:`verify_spans` is the strict check.
    """
    by_id = {s["span_id"]: dict(s, children=[]) for s in spans}
    roots: List[Dict[str, object]] = []
    for span in by_id.values():
        parent = span.get("parent_id")
        if parent is not None and parent in by_id:
            by_id[parent]["children"].append(span)
        else:
            roots.append(span)
    for span in by_id.values():
        span["children"].sort(key=lambda s: s["start_s"])
    roots.sort(key=lambda s: s["start_s"])
    return roots


def format_trace(spans: Sequence[Dict[str, object]]) -> str:
    """Render one trace's spans as an indented tree with durations."""
    if not spans:
        return "(no spans)"
    t0 = min(float(s["start_s"]) for s in spans)
    lines: List[str] = []

    def render(span: Dict[str, object], depth: int) -> None:
        offset = 1e3 * (float(span["start_s"]) - t0)
        duration = 1e3 * float(span.get("duration_s") or 0.0)
        attrs = span.get("attrs") or {}
        extra = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        lines.append(f"{'  ' * depth}{span['name']:<28} "
                     f"+{offset:8.2f}ms {duration:9.3f}ms"
                     f"{('  ' + extra) if extra else ''}")
        for child in span["children"]:
            render(child, depth + 1)

    for root in build_tree(spans):
        render(root, 0)
    return "\n".join(lines)


def verify_spans(spans: Iterable[Dict[str, object]]) -> List[str]:
    """Invariant check for a span dump (the CI obs-smoke gate).

    Every span must be finished (``end_s`` set, non-negative duration)
    and every non-root span's parent must exist within the same trace.
    Returns human-readable violations (empty = clean).
    """
    spans = list(spans)
    by_trace: Dict[str, Dict[str, Dict[str, object]]] = {}
    for span in spans:
        by_trace.setdefault(str(span["trace_id"]), {})[
            str(span["span_id"])] = span
    problems: List[str] = []
    for span in spans:
        label = f"{span['name']} ({span['trace_id']}/{span['span_id']})"
        if span.get("end_s") is None:
            problems.append(f"unfinished span: {label}")
        elif float(span["end_s"]) < float(span["start_s"]):
            problems.append(f"negative duration: {label}")
        parent = span.get("parent_id")
        if parent is not None and \
                str(parent) not in by_trace[str(span["trace_id"])]:
            problems.append(f"unparented span: {label} "
                            f"(parent {parent} not in trace)")
    return problems
