"""WGS-84 geodesy: lat/lon <-> local east-north (ENU) metres.

HD maps are geo-referenced; probe data (FCD), GNSS fixes, and aerial imagery
arrive in geographic coordinates while all map computation happens in a
local metric frame. ``LocalProjector`` provides the equirectangular local
tangent-plane projection that is standard for the city-scale extents HD
maps cover (error < 1 cm over a 10 km extent at mid latitudes, far below
sensor noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

# WGS-84 ellipsoid constants.
WGS84_A = 6378137.0  # semi-major axis, metres
WGS84_F = 1.0 / 298.257223563  # flattening
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)  # first eccentricity squared


def meridian_radius(lat_rad: float) -> float:
    """Radius of curvature in the meridian at a geodetic latitude."""
    s = math.sin(lat_rad)
    return WGS84_A * (1.0 - WGS84_E2) / (1.0 - WGS84_E2 * s * s) ** 1.5


def prime_vertical_radius(lat_rad: float) -> float:
    """Radius of curvature in the prime vertical at a geodetic latitude."""
    s = math.sin(lat_rad)
    return WGS84_A / math.sqrt(1.0 - WGS84_E2 * s * s)


@dataclass(frozen=True)
class LocalProjector:
    """Project WGS-84 lat/lon (degrees) to local east-north metres.

    The projection is a local tangent plane anchored at ``(lat0, lon0)``;
    east = +x, north = +y.
    """

    lat0: float
    lon0: float

    def _radii(self) -> Tuple[float, float]:
        lat_rad = math.radians(self.lat0)
        return meridian_radius(lat_rad), prime_vertical_radius(lat_rad) * math.cos(lat_rad)

    def to_local(self, lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
        """Convert lat/lon degrees to ``(N, 2)`` east-north metres."""
        r_m, r_p = self._radii()
        lat = np.asarray(lat, dtype=float)
        lon = np.asarray(lon, dtype=float)
        east = np.radians(lon - self.lon0) * r_p
        north = np.radians(lat - self.lat0) * r_m
        return np.stack([east, north], axis=-1)


MILE_METRES = 1609.344

