"""Frenet frames, geodesy, rasters, and the grid index."""

import math

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry.geodesy import LocalProjector
from repro.geometry.index import GridIndex
from repro.geometry.raster import BitmaskRaster, GridSpec, RasterGrid


class TestGeodesy:
    def test_one_degree_latitude_is_about_111km(self):
        proj = LocalProjector(0.0, 0.0)
        local = proj.to_local(np.array([1.0]), np.array([0.0]))
        assert local[0, 1] == pytest.approx(110574.0, rel=0.01)

class TestRasterGrid:
    def test_spec_from_bounds(self):
        spec = GridSpec.from_bounds((0, 0, 10, 5), 0.5)
        assert spec.width == 20
        assert spec.height == 10

    def test_spec_rejects_bad_resolution(self):
        with pytest.raises(GeometryError):
            GridSpec.from_bounds((0, 0, 1, 1), 0.0)

    def test_world_cell_roundtrip(self):
        spec = GridSpec.from_bounds((0, 0, 10, 10), 1.0)
        cells = spec.world_to_cell(np.array([[2.4, 7.9]]))
        assert tuple(cells[0]) == (2, 7)
        centre = spec.cell_to_world(cells)
        assert np.allclose(centre[0], [2.5, 7.5])

    def test_set_points_and_sample(self):
        grid = RasterGrid(GridSpec.from_bounds((0, 0, 10, 10), 1.0))
        n = grid.set_points(np.array([[1.5, 1.5], [50.0, 50.0]]), 2.0)
        assert n == 1  # out-of-range point ignored
        assert grid.sample(np.array([[1.5, 1.5]]))[0] == 2.0
        assert grid.sample(np.array([[50.0, 50.0]]), outside=-1.0)[0] == -1.0

    def test_add_points_accumulates(self):
        grid = RasterGrid(GridSpec.from_bounds((0, 0, 4, 4), 1.0))
        pts = np.array([[0.5, 0.5], [0.6, 0.6]])
        grid.add_points(pts)
        assert grid.data[0, 0] == 2.0

class TestBitmaskRaster:
    def setup_method(self):
        spec = GridSpec.from_bounds((0, 0, 20, 10), 0.5)
        self.raster = BitmaskRaster(spec, ["marking", "edge"])

    def test_class_limit(self):
        with pytest.raises(GeometryError):
            BitmaskRaster(self.raster.spec, [f"c{i}" for i in range(9)])

    def test_duplicate_classes_rejected(self):
        with pytest.raises(GeometryError):
            BitmaskRaster(self.raster.spec, ["a", "a"])

    def test_bits_are_independent(self):
        self.raster.mark_points("marking", np.array([[5.0, 5.0]]))
        self.raster.mark_points("edge", np.array([[5.0, 5.0]]))
        cell = self.raster.data[10, 10]
        assert cell & self.raster.bit_of("marking")
        assert cell & self.raster.bit_of("edge")

    def test_unknown_class(self):
        with pytest.raises(GeometryError):
            self.raster.bit_of("nope")

class TestGridIndex:
    def test_insert_query_point(self):
        idx = GridIndex(10.0)
        idx.insert("a", (0, 0, 5, 5))
        idx.insert("b", (20, 20, 30, 30))
        assert idx.query_box((2, 2, 2, 2)) == ["a"]
        assert idx.query_box((50, 50, 50, 50)) == []

    def test_query_box_intersection(self):
        idx = GridIndex(10.0)
        idx.insert("a", (0, 0, 5, 5))
        idx.insert("b", (8, 8, 12, 12))
        hits = set(idx.query_box((4, 4, 9, 9)))
        assert hits == {"a", "b"}

    def test_remove(self):
        idx = GridIndex(10.0)
        idx.insert("a", (0, 0, 5, 5))
        idx.remove("a")
        assert "a" not in idx
        assert idx.query_box((2, 2, 2, 2)) == []

    def test_reinsert_updates_bounds(self):
        idx = GridIndex(10.0)
        idx.insert("a", (0, 0, 1, 1))
        idx.insert("a", (100, 100, 101, 101))
        assert idx.query_box((0.5, 0.5, 0.5, 0.5)) == []
        assert idx.query_box((100.5, 100.5, 100.5, 100.5)) == ["a"]

    def test_nearest_with_exact_distance(self):
        idx = GridIndex(10.0)
        centres = {"a": (0.0, 0.0), "b": (50.0, 0.0), "c": (7.0, 7.0)}
        for key, (x, y) in centres.items():
            idx.insert(key, (x, y, x, y))

        def dist(key):
            cx, cy = centres[key]
            return math.hypot(cx - 6.0, cy - 6.0)

        key, d = idx.nearest(6.0, 6.0, dist)
        assert key == "c"
        assert d == pytest.approx(math.hypot(1.0, 1.0))

    def test_nearest_empty_raises(self):
        with pytest.raises(GeometryError):
            GridIndex(10.0).nearest(0, 0, lambda k: 0.0)

    def test_invalid_bounds(self):
        idx = GridIndex(10.0)
        with pytest.raises(GeometryError):
            idx.insert("a", (5, 5, 0, 0))

    @pytest.mark.parametrize("bounds", [
        (0.0, 0.0, float("nan"), 1.0),
        (float("nan"), 0.0, 1.0, 1.0),
        (0.0, float("-inf"), 1.0, 1.0),
        (0.0, 0.0, 1.0, float("inf")),
        (0.0, 0.0, 1e12, 1e12),          # ~1e22 cells
        (0.0, 0.0, 10.0 * 257, 10.0 * 256),  # just over the ceiling
    ])
    def test_hostile_bounds_rejected_and_index_untouched(self, bounds):
        idx = GridIndex(10.0)
        idx.insert("a", (0, 0, 5, 5))
        with pytest.raises(GeometryError):
            idx.insert("a", bounds)
        with pytest.raises(GeometryError):
            idx.insert("b", bounds)
        assert len(idx) == 1 and "b" not in idx
        assert idx.query_box((2, 2, 2, 2)) == ["a"]
        assert idx._bounds["a"] == (0, 0, 5, 5)

    def test_largest_allowed_bounds_insert(self):
        from repro.geometry.index import MAX_CELLS_PER_KEY

        idx = GridIndex(10.0)
        idx.insert("wide", (0.0, 0.0, 10.0 * 255 + 5, 10.0 * 255 + 5))
        assert len(idx._cells) == MAX_CELLS_PER_KEY
        assert idx.query_box((1200.0, 1300.0, 1200.0, 1300.0)) == ["wide"]

    def test_numpy_scalar_coordinates(self):
        idx = GridIndex(10.0)
        idx.insert("a", tuple(np.array([-15.0, -5.0, -11.0, 5.0])))
        x, y = np.float64(-12.0), np.float32(0.0)
        assert idx.query_box((x, y, x, y)) == ["a"]
        assert set(idx._cells) == {(-2, -1), (-2, 0)}
