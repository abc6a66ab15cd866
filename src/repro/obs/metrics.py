"""Shared metric primitives and the :class:`MetricsRegistry`.

This module is the single home of the thread-safe primitives
(:class:`Counter`, :class:`Gauge`, :class:`LatencyHistogram`) and of the
:class:`MetricsRegistry`. Every component that counts something —
``MapService``, ``ClusterRouter``, ``IngestPipeline`` and its bus,
``PackReader``, ``EventLog`` — owns one registry as ``.registry`` and
creates each instrument on it once, under its canonical dotted name
(``serve.requests.GetTile.ok``, ``ingest.freshness``, ``pack.reads`` …).
A caller that wants one export composes registries with
``register_collector(component.registry.collect)``. Exports are one
consistent point-in-time ``snapshot()`` (or its :meth:`nested` view for
summaries), Prometheus text exposition format and JSON.

Import discipline: this module is stdlib-only and must never import
back into the rest of ``repro`` — the serving, ingest, and perf layers
all import it.
"""

from __future__ import annotations

import json
import re
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union


class Counter:
    """A thread-safe monotonically increasing counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def add(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A thread-safe last-value gauge (queue depths, in-flight counts)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def set(self, value: int) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


#: Log-spaced bucket upper bounds (seconds): 0.1 ms .. 10 s, then +inf.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0,
)

#: Wider bounds for map-freshness lag (observation enqueue -> served
#: version): 10 ms .. 60 s, then +inf.
FRESHNESS_BOUNDS: Tuple[float, ...] = (
    0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 60.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with quantile estimates.

    Quantiles are resolved to the upper bound of the containing bucket
    (a conservative estimate), which is what fleet SLO reporting wants —
    but the exact observed min/max are tracked alongside the buckets, and
    every quantile is clamped to the observed max so sparse data (one
    sample per bucket) is not overstated by a whole bucket width.
    """

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds or DEFAULT_BOUNDS)
        if list(self.bounds) != sorted(self.bounds) or not self.bounds:
            raise ValueError("histogram bounds must be sorted and non-empty")
        self._lock = threading.Lock()
        self._counts: List[int] = [0] * (len(self.bounds) + 1)
        self._total_s = 0.0
        self._count = 0
        self._min_s = float("inf")
        self._max_s = 0.0

    def record(self, seconds: float) -> None:
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if seconds <= bound:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            self._total_s += seconds
            self._count += 1
            if seconds < self._min_s:
                self._min_s = seconds
            if seconds > self._max_s:
                self._max_s = seconds

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other``'s samples into this histogram (cross-worker
        aggregation). Bounds must match exactly, or the merged quantiles
        would silently be nonsense — a mismatch raises ``ValueError``.
        """
        if tuple(other.bounds) != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} != {other.bounds}")
        # Copy under the source lock, fold under ours: no nested locking,
        # so concurrent a.merge(b) / b.merge(a) cannot deadlock.
        with other._lock:
            counts = list(other._counts)
            total_s = other._total_s
            count = other._count
            min_s = other._min_s
            max_s = other._max_s
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._total_s += total_s
            self._count += count
            if count:
                if min_s < self._min_s:
                    self._min_s = min_s
                if max_s > self._max_s:
                    self._max_s = max_s
        return self

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def mean_s(self) -> float:
        with self._lock:
            return self._total_s / self._count if self._count else 0.0

    @property
    def sum_s(self) -> float:
        """Total of all recorded latencies (the Prometheus ``_sum``)."""
        with self._lock:
            return self._total_s

    @property
    def min_s(self) -> float:
        """Exact smallest recorded latency (0.0 when empty)."""
        with self._lock:
            return self._min_s if self._count else 0.0

    @property
    def max_s(self) -> float:
        """Exact largest recorded latency (0.0 when empty)."""
        with self._lock:
            return self._max_s

    def bucket_counts(self) -> List[int]:
        """Per-bucket counts (one extra overflow bucket past ``bounds``)."""
        with self._lock:
            return list(self._counts)

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket containing the q-th percentile,
        clamped to the exact observed maximum."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            counts = list(self._counts)
            total = self._count
            max_s = self._max_s
        if total == 0:
            return 0.0
        rank = q / 100.0 * total
        running = 0
        for i, c in enumerate(counts):
            running += c
            if running >= rank:
                bound = self.bounds[i] if i < len(self.bounds) \
                    else float("inf")
                return min(bound, max_s)
        return max_s

    def snapshot(self) -> Dict[str, float]:
        """Point-in-time export: count, mean, quantiles, exact min/max."""
        return {
            "count": self.count,
            "mean_s": self.mean_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
            "p50_s": self.percentile(50.0),
            "p95_s": self.percentile(95.0),
            "p99_s": self.percentile(99.0),
        }

    def __getstate__(self) -> Dict[str, object]:
        """Picklable state (lock dropped): histograms cross the shard
        process boundary and are folded with :meth:`merge` on arrival."""
        with self._lock:
            return {
                "bounds": self.bounds,
                "counts": list(self._counts),
                "total_s": self._total_s,
                "count": self._count,
                "min_s": self._min_s,
                "max_s": self._max_s,
            }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.bounds = tuple(state["bounds"])  # type: ignore[arg-type]
        self._lock = threading.Lock()
        self._counts = list(state["counts"])  # type: ignore[arg-type]
        self._total_s = float(state["total_s"])  # type: ignore[arg-type]
        self._count = int(state["count"])  # type: ignore[arg-type]
        self._min_s = float(state["min_s"])  # type: ignore[arg-type]
        self._max_s = float(state["max_s"])  # type: ignore[arg-type]


Metric = Union[Counter, Gauge, LatencyHistogram, int, float,
               Callable[[], float]]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.:\-]*$")
_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Canonical dotted name -> Prometheus metric name."""
    out = _PROM_BAD.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def prom_type(metric: Metric) -> str:
    """The Prometheus ``# TYPE`` a metric exports as."""
    if isinstance(metric, Counter):
        return "counter"
    if isinstance(metric, LatencyHistogram):
        return "histogram"
    return "gauge"


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return format(value, "g")


class MetricsRegistry:
    """One component's metrics, under canonical dotted names.

    - :meth:`counter` / :meth:`gauge` / :meth:`histogram` create (or
      return) the instrument of a name; a component calls them once per
      name, or per request kind for families minted lazily;
    - :meth:`register_collector` adds a callback invoked at export time
      that returns a ``{name: metric-or-value}`` mapping: for values
      computed on export (merged histograms, cache hit rate) and for
      composing another component's registry.

    Exports are :meth:`snapshot` (plain values), :meth:`nested`,
    :meth:`to_json`, and :meth:`to_prometheus` (text exposition format:
    counters, gauges, and cumulative-bucket histograms).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}
        self._collectors: List[Callable[[], Dict[str, Metric]]] = []

    # -- registration ---------------------------------------------------
    def register_collector(
            self, collect: Callable[[], Dict[str, Metric]]) -> None:
        """Add a callback contributing dynamically named metrics."""
        with self._lock:
            self._collectors.append(collect)

    def _get_or_create(self, name: str, kind, *args) -> Metric:
        # A dict read is atomic under the GIL, so a hit (every call after
        # the first for a name) takes no lock; creation does.
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    if not _NAME_RE.match(name):
                        raise ValueError(f"invalid metric name {name!r}")
                    metric = self._metrics[name] = kind(*args)
        if not isinstance(metric, kind):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None
                  ) -> LatencyHistogram:
        return self._get_or_create(name, LatencyHistogram, bounds)

    # -- export ---------------------------------------------------------
    def collect(self) -> Dict[str, Metric]:
        """Merged static + collector-provided metrics (statics win)."""
        with self._lock:
            statics = dict(self._metrics)
            collectors = list(self._collectors)
        out: Dict[str, Metric] = {}
        for collect in collectors:
            out.update(collect())
        out.update(statics)
        return out

    def names(self) -> List[str]:
        return sorted(self.collect())

    @staticmethod
    def _value_of(metric: Metric):
        if isinstance(metric, (Counter, Gauge)):
            return metric.value
        if isinstance(metric, LatencyHistogram):
            return metric.snapshot()
        if callable(metric):
            return float(metric())
        return metric

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time view: name -> number or histogram snapshot."""
        return {name: self._value_of(metric)
                for name, metric in sorted(self.collect().items())}

    def nested(self, prefix: str, keys: Dict[str, str]) -> Dict[str, object]:
        """:meth:`snapshot` of the names under ``prefix.`` as a summary.

        ``<prefix>.<section>.<rest>`` lands at ``out[section][rest]`` and
        ``<prefix>.<name>`` at ``out[name]``. ``keys`` renames a leading
        part of a name first, dots in the new key nesting one level each
        (``{"verify.constraint": "verify.by_constraint"}``); whatever
        follows the renamed part is again one key.
        """
        head = prefix + "."
        out: Dict[str, object] = {}
        for name, value in self.snapshot().items():
            if not name.startswith(head):
                continue
            rest = name[len(head):]
            path, _, key = rest.partition(".")
            for old, new in keys.items():
                if rest == old or rest.startswith(old + "."):
                    path, key = new, rest[len(old) + 1:]
                    break
            parts = path.split(".") + ([key] if key else [])
            node = out
            for part in parts[:-1]:
                node = node.setdefault(part, {})  # type: ignore[assignment]
            node[parts[-1]] = value
        return out

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name, metric in sorted(self.collect().items()):
            pname = _prom_name(name)
            kind = prom_type(metric)
            lines.append(f"# TYPE {pname} {kind}")
            if kind == "histogram":
                cumulative = 0
                counts = metric.bucket_counts()
                for bound, bucket in zip(metric.bounds, counts):
                    cumulative += bucket
                    lines.append(f'{pname}_bucket{{le="{_fmt(bound)}"}} '
                                 f"{cumulative}")
                cumulative += counts[-1]
                lines.append(f'{pname}_bucket{{le="+Inf"}} {cumulative}')
                lines.append(f"{pname}_sum {_fmt(metric.sum_s)}")
                lines.append(f"{pname}_count {cumulative}")
            elif kind == "counter":
                lines.append(f"{pname} {metric.value}")
            else:
                lines.append(f"{pname} {_fmt(float(self._value_of(metric)))}")
        return "\n".join(lines) + "\n"


def register_perf_registry(registry: MetricsRegistry,
                           perf_registry) -> None:
    """Surface a :class:`repro.perf.instrument.PerfRegistry`'s per-kernel
    call/ns counters in ``registry`` under ``perf.<kernel>.calls`` /
    ``.total_ns``. Duck-typed on ``snapshot()`` so this module never has
    to import ``repro.perf`` (kernels import the perf instrumenter at
    module load; an import edge back would be a cycle).
    """

    def collect() -> Dict[str, Metric]:
        out: Dict[str, Metric] = {}
        for kernel, entry in perf_registry.snapshot().items():
            out[f"perf.{kernel}.calls"] = int(entry["calls"])
            out[f"perf.{kernel}.total_ns"] = float(entry["total_ns"])
        return out

    registry.register_collector(collect)


# -- Prometheus text validation ----------------------------------------
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"            # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""   # first label
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"  # further labels
    r" (-?[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|[+-]Inf|NaN)"  # value
    r"( -?[0-9]+)?$")                         # optional timestamp
_TYPE_RE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) "
    r"(counter|gauge|histogram|summary|untyped)$")
_LE_RE = re.compile(r'le="([^"]*)"')


def validate_prometheus_text(text: str) -> List[str]:
    """Best-effort grammar + histogram-consistency check.

    Returns a list of human-readable problems (empty = valid): malformed
    sample lines, duplicate TYPE declarations, histograms without an
    ``+Inf`` bucket, non-monotone cumulative buckets, and ``_count``
    samples disagreeing with the ``+Inf`` bucket.
    """
    problems: List[str] = []
    typed: Dict[str, str] = {}
    buckets: Dict[str, List[Tuple[float, float]]] = {}
    counts: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if line.startswith("# TYPE"):
                m = _TYPE_RE.match(line)
                if m is None:
                    problems.append(f"line {lineno}: malformed TYPE: {line}")
                elif m.group(1) in typed:
                    problems.append(
                        f"line {lineno}: duplicate TYPE for {m.group(1)}")
                else:
                    typed[m.group(1)] = m.group(2)
            continue  # HELP/comments are free-form
        m = _SAMPLE_RE.match(line)
        if m is None:
            problems.append(f"line {lineno}: malformed sample: {line}")
            continue
        name, labels, value = m.group(1), m.group(2) or "", m.group(4)
        if name.endswith("_bucket"):
            le = _LE_RE.search(labels)
            if le is None:
                problems.append(
                    f"line {lineno}: histogram bucket without le label")
                continue
            bound = float("inf") if le.group(1) == "+Inf" \
                else float(le.group(1))
            buckets.setdefault(name[:-len("_bucket")], []).append(
                (bound, float(value)))
        elif name.endswith("_count"):
            counts[name[:-len("_count")]] = float(value)
    for base, series in buckets.items():
        series.sort(key=lambda bv: bv[0])
        if not series or series[-1][0] != float("inf"):
            problems.append(f"{base}: histogram missing +Inf bucket")
            continue
        cumulative = [v for _, v in series]
        if any(b > a for a, b in zip(cumulative[1:], cumulative)):
            problems.append(f"{base}: bucket counts are not cumulative")
        if base in counts and counts[base] != cumulative[-1]:
            problems.append(
                f"{base}: _count {counts[base]} != +Inf bucket "
                f"{cumulative[-1]}")
    return problems
