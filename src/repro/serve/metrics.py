"""Serving metrics: the per-service :class:`ServiceMetrics` aggregate.

The primitives (:class:`~repro.obs.metrics.Counter`,
:class:`~repro.obs.metrics.LatencyHistogram`, the shared bucket bounds)
live in :mod:`repro.obs.metrics` — the unified observability layer; this
module keeps only the serving-specific aggregate. The service keeps
one :class:`LatencyHistogram` and a counter per request kind plus global
admission counters, which together give the per-request-type latency
distribution, QPS, and error/shed rates of a run, and the whole
aggregate can be registered into a
:class:`~repro.obs.metrics.MetricsRegistry` under canonical
``serve.*`` names via :meth:`ServiceMetrics.register_into`.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

from repro.obs.metrics import (
    FRESHNESS_BOUNDS,
    Counter,
    LatencyHistogram,
    MetricsRegistry,
)


class ServiceMetrics:
    """Per-request-type latency/outcome metrics plus admission counters.

    ``freshness`` is the map-freshness lag histogram. The cluster router
    feeds it via :meth:`record_freshness` (write accepted -> visible to
    ``ChangesSince``); it stays empty on a single-node service, whose
    freshness lives on the ingest side (``ingest.freshness``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latency: Dict[str, LatencyHistogram] = {}
        self._outcomes: Dict[Tuple[str, str], Counter] = {}
        self.rejected = Counter()   # backpressure at submit
        self.shed = Counter()       # stale low-priority dropped by workers
        self.errors = Counter()
        self.freshness = LatencyHistogram(FRESHNESS_BOUNDS)
        self._cache = None

    def attach_cache(self, cache) -> None:
        """Surface a tile cache's counters in :meth:`snapshot`."""
        self._cache = cache

    # Pickling crosses the shard RPC boundary: locks are rebuilt on the
    # receiving side and the attached cache (live object, process-local)
    # is dropped — only the counters/histograms travel.
    def __getstate__(self) -> Dict[str, object]:
        with self._lock:
            return {
                "latency": dict(self._latency),
                "outcomes": dict(self._outcomes),
                "rejected": self.rejected,
                "shed": self.shed,
                "errors": self.errors,
                "freshness": self.freshness,
            }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._lock = threading.Lock()
        self._latency = dict(state["latency"])  # type: ignore[arg-type]
        self._outcomes = dict(state["outcomes"])  # type: ignore[arg-type]
        self.rejected = state["rejected"]
        self.shed = state["shed"]
        self.errors = state["errors"]
        self.freshness = state["freshness"]
        self._cache = None

    def record_freshness(self, lag_s: float) -> None:
        """Record one observation-enqueue -> served-version lag."""
        self.freshness.record(lag_s)

    def _histogram(self, kind: str) -> LatencyHistogram:
        with self._lock:
            hist = self._latency.get(kind)
            if hist is None:
                hist = self._latency[kind] = LatencyHistogram()
            return hist

    def _outcome(self, kind: str, status: str) -> Counter:
        with self._lock:
            counter = self._outcomes.get((kind, status))
            if counter is None:
                counter = self._outcomes[(kind, status)] = Counter()
            return counter

    def record(self, kind: str, status: str, latency_s: float) -> None:
        self._outcome(kind, status).add()
        if status == "ok":
            self._histogram(kind).record(latency_s)
        elif status == "error":
            self.errors.add()
        elif status == "shed":
            self.shed.add()
        elif status == "rejected":
            self.rejected.add()

    def latency_histograms(self) -> Dict[str, LatencyHistogram]:
        """Live per-request-kind latency histograms (plus ``freshness``).

        Histograms are picklable, so a shard process can ship this dict
        over the cluster RPC and the router can fold each one into its
        cluster-wide aggregate with :meth:`LatencyHistogram.merge`.
        """
        with self._lock:
            out = dict(self._latency)
        out["freshness"] = self.freshness
        return out

    def outcome_counts(self) -> Dict[str, int]:
        """``{"<kind>.<status>": count}`` for cross-process aggregation."""
        with self._lock:
            return {f"{kind}.{status}": counter.value
                    for (kind, status), counter in self._outcomes.items()}

    def completed(self) -> int:
        """Requests answered OK across all kinds."""
        with self._lock:
            counters = [c for (_, status), c in self._outcomes.items()
                        if status == "ok"]
        return sum(c.value for c in counters)

    def throughput(self, elapsed_s: float) -> float:
        """OK responses per second over ``elapsed_s``."""
        return self.completed() / elapsed_s if elapsed_s > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            kinds = sorted(self._latency)
            outcomes = {f"{kind}.{status}": counter.value
                        for (kind, status), counter in
                        sorted(self._outcomes.items())}
        out: Dict[str, object] = {
            "latency": {kind: self._histogram(kind).as_dict()
                        for kind in kinds},
            "outcomes": outcomes,
            "rejected": self.rejected.value,
            "shed": self.shed.value,
            "errors": self.errors.value,
        }
        if self.freshness.count:
            out["freshness"] = self.freshness.snapshot()
        return out

    def snapshot(self) -> Dict[str, object]:
        """as_dict() plus the attached cache's counters.

        The ``cache`` section carries the serving cache's decoded-tile
        counters (``hits`` / ``misses`` / ``evictions`` / ``hit_rate`` /
        ``resident``).
        """
        out = self.as_dict()
        if self._cache is not None:
            out["cache"] = self._cache.as_dict()
        return out

    # -- unified registry ----------------------------------------------
    def register_into(self, registry: MetricsRegistry,
                      prefix: str = "serve") -> None:
        """Register this aggregate under canonical ``<prefix>.*`` names.

        Static admission counters and the freshness histogram register
        directly; per-request-kind latency histograms and outcome
        counters (minted lazily on first request of a kind) and the
        attached cache's counters are contributed through a collector,
        so the export always reflects the kinds actually served:

        - ``serve.rejected`` / ``serve.shed`` / ``serve.errors``
        - ``serve.freshness``
        - ``serve.latency.<kind>`` (histogram per request kind)
        - ``serve.requests.<kind>.<status>`` (outcome counters)
        - ``serve.cache.hits|misses|evictions|hit_rate|resident``
        """
        registry.register(f"{prefix}.rejected", self.rejected)
        registry.register(f"{prefix}.shed", self.shed)
        registry.register(f"{prefix}.errors", self.errors)
        registry.register(f"{prefix}.freshness", self.freshness)

        def collect() -> Dict[str, object]:
            with self._lock:
                latency = dict(self._latency)
                outcomes = dict(self._outcomes)
            out: Dict[str, object] = {}
            for kind, hist in latency.items():
                out[f"{prefix}.latency.{kind}"] = hist
            for (kind, status), counter in outcomes.items():
                out[f"{prefix}.requests.{kind}.{status}"] = counter
            if self._cache is not None:
                for name, value in self._cache.as_dict().items():
                    out[f"{prefix}.cache.{name}"] = value
            return out

        registry.register_collector(collect)
