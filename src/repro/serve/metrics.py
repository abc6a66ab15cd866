"""Serving metrics: the per-request-kind :class:`ServiceMetrics` view.

The primitives and the registry live in :mod:`repro.obs.metrics`. A
``MapService`` (names under ``serve.``) and a ``ClusterRouter`` (names
under ``cluster.``) each own a :class:`~repro.obs.metrics.MetricsRegistry`
and hand it to one :class:`ServiceMetrics`, which creates the standard
serving instruments on it:

- ``<prefix>.rejected`` / ``.shed`` / ``.errors`` (admission counters)
- ``<prefix>.freshness`` (map-freshness lag histogram)
- ``<prefix>.latency.<kind>`` (histogram per request kind, minted on the
  first OK answer of a kind)
- ``<prefix>.requests.<kind>.<status>`` (outcome counters)
"""

from __future__ import annotations

from typing import Dict

from repro.obs.metrics import (
    FRESHNESS_BOUNDS,
    LatencyHistogram,
    Metric,
    MetricsRegistry,
)


class ServiceMetrics:
    """Per-request-type latency/outcome metrics plus admission counters.

    ``freshness`` is the map-freshness lag histogram. The cluster router
    feeds it via :meth:`record_freshness` (write accepted -> visible to
    ``ChangesSince``); it stays empty on a single-node service, whose
    freshness lives on the ingest side (``ingest.freshness``).
    """

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self.registry = registry
        self._prefix = prefix
        self.rejected = registry.counter(f"{prefix}.rejected")
        self.shed = registry.counter(f"{prefix}.shed")
        self.errors = registry.counter(f"{prefix}.errors")
        self.freshness = registry.histogram(f"{prefix}.freshness",
                                            FRESHNESS_BOUNDS)

    def record_freshness(self, lag_s: float) -> None:
        """Record one observation-enqueue -> served-version lag."""
        self.freshness.record(lag_s)

    def record(self, kind: str, status: str, latency_s: float) -> None:
        self.registry.counter(
            f"{self._prefix}.requests.{kind}.{status}").add()
        if status == "ok":
            self.registry.histogram(
                f"{self._prefix}.latency.{kind}").record(latency_s)
        elif status == "error":
            self.errors.add()
        elif status == "shed":
            self.shed.add()
        elif status == "rejected":
            self.rejected.add()

    def _family(self, family: str) -> Dict[str, Metric]:
        head = f"{self._prefix}.{family}."
        return {name[len(head):]: metric
                for name, metric in self.registry.collect().items()
                if name.startswith(head)}

    def latency_histograms(self) -> Dict[str, LatencyHistogram]:
        """Live per-request-kind latency histograms (plus ``freshness``).

        Histograms are picklable, so a shard process can ship this dict
        over the cluster RPC and the router can fold each one into its
        cluster-wide aggregate with :meth:`LatencyHistogram.merge`.
        """
        out = self._family("latency")
        out["freshness"] = self.freshness
        return out

    def outcome_counts(self) -> Dict[str, int]:
        """``{"<kind>.<status>": count}`` for cross-process aggregation."""
        return {key: counter.value
                for key, counter in self._family("requests").items()}

    def as_dict(self) -> Dict[str, object]:
        """The registry's ``<prefix>.*`` snapshot as one summary:
        ``latency``/``outcomes`` keyed by kind, the admission counters,
        ``freshness``, and whatever else the owner created under the
        prefix (``cache``, ``spatial``; the router's counters)."""
        return {"latency": {}, "outcomes": {},
                **self.registry.nested(self._prefix,
                                       {"requests": "outcomes"})}
