"""Raster grids over a metric extent.

Two raster types back several surveyed systems:

- :class:`RasterGrid` — a float grid used for LiDAR evidence grids
  (Zhao et al. [32]), aerial-image surrogates (Mátyus et al. [27]), and
  Diff-Net-style rasterized map comparison [46].
- :class:`BitmaskRaster` — an 8-bit-per-cell label raster where each *bit*
  marks one element class, the exact representation HDMI-Loc [23] uses to
  shrink vector maps into matchable top-view images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import GeometryError


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a raster: origin (min corner), resolution, and shape."""

    origin_x: float
    origin_y: float
    resolution: float  # metres per cell
    width: int  # cells in x
    height: int  # cells in y

    @staticmethod
    def from_bounds(bounds: Tuple[float, float, float, float],
                    resolution: float, padding: float = 0.0) -> "GridSpec":
        min_x, min_y, max_x, max_y = bounds
        min_x -= padding
        min_y -= padding
        max_x += padding
        max_y += padding
        if resolution <= 0:
            raise GeometryError("resolution must be positive")
        width = max(1, int(np.ceil((max_x - min_x) / resolution)))
        height = max(1, int(np.ceil((max_y - min_y) / resolution)))
        return GridSpec(min_x, min_y, resolution, width, height)

    def world_to_cell(self, points: np.ndarray) -> np.ndarray:
        """Map world points to integer ``(col, row)`` cells (may be out of range)."""
        pts = np.asarray(points, dtype=float)
        cols = np.floor((pts[..., 0] - self.origin_x) / self.resolution).astype(int)
        rows = np.floor((pts[..., 1] - self.origin_y) / self.resolution).astype(int)
        return np.stack([cols, rows], axis=-1)

    def cell_to_world(self, cells: np.ndarray) -> np.ndarray:
        """Centre of each ``(col, row)`` cell in world coordinates."""
        c = np.asarray(cells, dtype=float)
        x = self.origin_x + (c[..., 0] + 0.5) * self.resolution
        y = self.origin_y + (c[..., 1] + 0.5) * self.resolution
        return np.stack([x, y], axis=-1)

    def in_range(self, cells: np.ndarray) -> np.ndarray:
        c = np.asarray(cells)
        return (
            (c[..., 0] >= 0)
            & (c[..., 0] < self.width)
            & (c[..., 1] >= 0)
            & (c[..., 1] < self.height)
        )


class RasterGrid:
    """A float-valued raster over a metric extent."""

    def __init__(self, spec: GridSpec, fill: float = 0.0,
                 dtype: np.dtype = np.float64) -> None:
        self.spec = spec
        self.data = np.full((spec.height, spec.width), fill, dtype=dtype)

    @property
    def resolution(self) -> float:
        return self.spec.resolution

    def set_points(self, points: np.ndarray, value: float = 1.0) -> int:
        """Set the cells containing ``points`` to ``value``; returns #cells hit."""
        cells = self.spec.world_to_cell(points)
        ok = self.spec.in_range(cells)
        cells = cells[ok]
        self.data[cells[:, 1], cells[:, 0]] = value
        return int(cells.shape[0])

    def add_points(self, points: np.ndarray, value: float = 1.0) -> None:
        """Accumulate ``value`` into the cells containing ``points``."""
        cells = self.spec.world_to_cell(points)
        ok = self.spec.in_range(cells)
        cells = cells[ok]
        np.add.at(self.data, (cells[:, 1], cells[:, 0]), value)

    def sample(self, points: np.ndarray, outside: float = 0.0) -> np.ndarray:
        """Value of the cell containing each point (``outside`` if out of range)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        cells = self.spec.world_to_cell(pts)
        ok = self.spec.in_range(cells)
        out = np.full(pts.shape[0], outside, dtype=float)
        sel = cells[ok]
        out[ok] = self.data[sel[:, 1], sel[:, 0]]
        return out

    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def copy(self) -> "RasterGrid":
        clone = RasterGrid(self.spec, dtype=self.data.dtype)
        clone.data = self.data.copy()
        return clone


class BitmaskRaster:
    """An 8-bit label raster: each bit flags the presence of one class.

    This is the HDMI-Loc [23] map representation: the full vector map is
    collapsed to one byte per cell, one bit per semantic class, making
    storage tiny and matching a cheap bitwise AND.
    """

    MAX_CLASSES = 8

    def __init__(self, spec: GridSpec, class_names: Sequence[str]) -> None:
        if not 0 < len(class_names) <= self.MAX_CLASSES:
            raise GeometryError(
                f"BitmaskRaster supports 1..{self.MAX_CLASSES} classes, "
                f"got {len(class_names)}"
            )
        if len(set(class_names)) != len(class_names):
            raise GeometryError("class names must be unique")
        self.spec = spec
        self.class_names = tuple(class_names)
        self._bit = {name: 1 << i for i, name in enumerate(class_names)}
        self.data = np.zeros((spec.height, spec.width), dtype=np.uint8)

    def bit_of(self, class_name: str) -> int:
        try:
            return self._bit[class_name]
        except KeyError:
            raise GeometryError(f"unknown raster class {class_name!r}") from None

    def mark_points(self, class_name: str, points: np.ndarray) -> None:
        bit = self.bit_of(class_name)
        cells = self.spec.world_to_cell(points)
        ok = self.spec.in_range(cells)
        cells = cells[ok]
        self.data[cells[:, 1], cells[:, 0]] |= bit

    def shifted(self, dx_cells: int, dy_cells: int) -> "BitmaskRaster":
        """Copy of the raster translated by whole cells (zeros shifted in)."""
        out = BitmaskRaster(self.spec, self.class_names)
        h, w = self.data.shape
        src_y = slice(max(0, -dy_cells), min(h, h - dy_cells))
        src_x = slice(max(0, -dx_cells), min(w, w - dx_cells))
        dst_y = slice(max(0, dy_cells), min(h, h + dy_cells))
        dst_x = slice(max(0, dx_cells), min(w, w + dx_cells))
        out.data[dst_y, dst_x] = self.data[src_y, src_x]
        return out

    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def occupied_nbytes(self, tile: int = 64) -> int:
        """Bytes when stored as non-empty ``tile``-sized blocks + index.

        Corridor maps occupy a thin band of a huge bounding box; shipping
        the raster as sparse tiles (as HDMI-Loc's image database does) is
        the honest storage figure.
        """
        h, w = self.data.shape
        total = 0
        n_tiles = 0
        for r0 in range(0, h, tile):
            for c0 in range(0, w, tile):
                block = self.data[r0:r0 + tile, c0:c0 + tile]
                n_tiles += 1
                if block.any():
                    total += block.size  # one byte per cell
        return total + n_tiles  # plus a 1-byte presence index per tile
