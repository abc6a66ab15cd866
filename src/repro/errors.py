"""Exception hierarchy for the hdmaps reproduction library.

All library-raised exceptions derive from :class:`HDMapError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class HDMapError(Exception):
    """Base class for all errors raised by the hdmaps library."""


class GeometryError(HDMapError):
    """Invalid geometric input (degenerate polyline, bad dimensions, ...)."""


class MapModelError(HDMapError):
    """Violation of the HD-map data model (unknown ids, layer mismatch)."""


class MapValidationError(MapModelError):
    """A map failed an integrity/validation check."""


class UnknownElementError(MapModelError):
    """Lookup of a map element id that does not exist in the map."""

    def __init__(self, element_id: object) -> None:
        super().__init__(f"unknown map element id: {element_id!r}")
        self.element_id = element_id


class StorageError(HDMapError):
    """Serialization or deserialization failure."""


class PackError(StorageError):
    """A tile pack file is corrupt, truncated, or misused."""


class PlanningError(HDMapError):
    """Route or trajectory planning failure (e.g. unreachable goal)."""


class NoRouteError(PlanningError):
    """No route exists between the requested endpoints."""


class LocalizationError(HDMapError):
    """A localization filter diverged or received inconsistent input."""


class UpdateError(HDMapError):
    """A map maintenance/update pipeline failed."""


class IngestError(HDMapError):
    """An observation or batch failed ingestion (validation, staging)."""


class ClusterError(HDMapError):
    """A sharded-cluster operation failed (routing, failover, rebalance)."""
