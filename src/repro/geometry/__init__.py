"""Geometric substrate: vectors, transforms, polylines, Frenet frames,
geodesy, rasterization, and spatial indexing.

Everything in the library that touches coordinates goes through this
subpackage, so HD-map elements, sensors, and estimators share one set of
conventions:

- 2-D east-north planar coordinates in metres (a local ENU frame),
- headings in radians, counter-clockwise, zero along +x (east),
- polylines as ``(N, 2)`` float arrays ordered along the direction of travel.
"""

from repro.geometry.vec import (
    norm,
    perp_left,
    rotate2d,
    unit,
    wrap_angle,
)
from repro.geometry.transform import SE2, SE3
from repro.geometry.polyline import Polyline
from repro.geometry.frenet import FrenetFrame
from repro.geometry.geodesy import LocalProjector, WGS84_A, WGS84_F
from repro.geometry.raster import BitmaskRaster, RasterGrid
from repro.geometry.index import GridIndex

__all__ = [
    "SE2",
    "SE3",
    "Polyline",
    "FrenetFrame",
    "LocalProjector",
    "WGS84_A",
    "WGS84_F",
    "BitmaskRaster",
    "RasterGrid",
    "GridIndex",
    "norm",
    "perp_left",
    "rotate2d",
    "unit",
    "wrap_angle",
]
