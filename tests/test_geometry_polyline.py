import math

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry.polyline import Polyline, straight


@pytest.fixture
def line():
    return straight([0.0, 0.0], [100.0, 0.0], spacing=5.0)


def arc(center, radius, start_angle, end_angle, n):
    """Polyline sampled on a circular arc (a curvature fixture)."""
    angles = np.linspace(start_angle, end_angle, n)
    pts = np.asarray(center, dtype=float) + radius * np.stack(
        [np.cos(angles), np.sin(angles)], axis=1)
    return Polyline(pts)


class TestConstruction:
    def test_length(self, line):
        assert line.length == pytest.approx(100.0)

    def test_rejects_single_point(self):
        with pytest.raises(GeometryError):
            Polyline([[0.0, 0.0]])

    def test_rejects_bad_shape(self):
        with pytest.raises(GeometryError):
            Polyline(np.zeros((4, 3)))

    def test_drops_duplicate_vertices(self):
        p = Polyline([[0, 0], [1, 0], [1, 0], [2, 0]])
        assert len(p) == 3
        assert p.length == pytest.approx(2.0)

    def test_fully_degenerate_raises(self):
        with pytest.raises(GeometryError):
            Polyline([[1, 1], [1, 1]])

    def test_points_read_only(self, line):
        with pytest.raises(ValueError):
            line.points[0, 0] = 99.0

    def test_equality_and_hash(self):
        a = Polyline([[0, 0], [1, 0]])
        b = Polyline([[0, 0], [1, 0]])
        assert a == b
        assert hash(a) == hash(b)


class TestParameterization:
    def test_point_at_clamps(self, line):
        assert np.allclose(line.point_at(-5.0), [0.0, 0.0])
        assert np.allclose(line.point_at(500.0), [100.0, 0.0])

    def test_point_at_midpoint(self, line):
        assert np.allclose(line.point_at(50.0), [50.0, 0.0])

    def test_points_at_vectorized(self, line):
        pts = line.points_at(np.array([0.0, 25.0, 100.0]))
        assert np.allclose(pts, [[0, 0], [25, 0], [100, 0]])

    def test_heading_and_normal(self, line):
        assert line.heading_at(10.0) == pytest.approx(0.0)
        assert np.allclose(line.normal_at(10.0), [0.0, 1.0])

    def test_curvature_of_arc(self):
        a = arc([0.0, 0.0], radius=50.0, start_angle=0.0,
                end_angle=math.pi, n=200)
        k = a.curvature_at(a.length / 2.0, window=5.0)
        assert abs(k) == pytest.approx(1.0 / 50.0, rel=0.08)

    def test_curvature_of_straight_is_zero(self, line):
        assert line.curvature_at(50.0) == pytest.approx(0.0, abs=1e-9)


class TestProjection:
    def test_project_interior(self, line):
        s, d = line.project([30.0, 2.0])
        assert s == pytest.approx(30.0)
        assert d == pytest.approx(2.0)  # left is positive

    def test_project_right_side_negative(self, line):
        _, d = line.project([30.0, -2.0])
        assert d == pytest.approx(-2.0)

    def test_distance_to_beyond_endpoint(self, line):
        assert line.distance_to([110.0, 0.0]) == pytest.approx(10.0)
        assert line.distance_to([103.0, 4.0]) == pytest.approx(5.0)

    def test_project_clamps_station(self, line):
        s, _ = line.project([-10.0, 1.0])
        assert s == 0.0


class TestDerivation:
    def test_resample_preserves_endpoints(self, line):
        r = line.resample(3.0)
        assert np.allclose(r.start, line.start)
        assert np.allclose(r.end, line.end)
        assert r.length == pytest.approx(line.length, rel=1e-6)

    def test_resample_rejects_nonpositive(self, line):
        with pytest.raises(GeometryError):
            line.resample(0.0)

    def test_offset_left_shifts_up(self, line):
        off = line.offset(2.5)
        assert np.allclose(off.points[:, 1], 2.5, atol=1e-9)

    def test_offset_of_arc_changes_radius(self):
        a = arc([0, 0], 50.0, 0.0, math.pi / 2, n=100)
        inner = a.offset(-5.0)  # right of CCW arc = outward
        r = np.hypot(inner.points[:, 0], inner.points[:, 1])
        assert np.allclose(r, 55.0, atol=0.1)

    def test_reversed(self, line):
        rev = line.reversed()
        assert np.allclose(rev.start, line.end)
        assert rev.length == pytest.approx(line.length)

    def test_slice(self, line):
        part = line.slice(20.0, 60.0)
        assert part.length == pytest.approx(40.0)
        assert np.allclose(part.start, [20.0, 0.0])

    def test_slice_invalid(self, line):
        with pytest.raises(GeometryError):
            line.slice(60.0, 20.0)

    def test_simplify_straight_collapses(self, line):
        simple = line.simplify(0.01)
        assert len(simple) == 2

    def test_simplify_keeps_corner(self):
        p = Polyline([[0, 0], [10, 0], [10, 10]])
        simple = p.simplify(0.5)
        assert len(simple) == 3

    def test_simplify_out_and_back_keeps_far_vertex(self):
        # Coincident endpoints, interior within tolerance: the far vertex
        # must survive or the line collapses to one repeated point.
        simple = Polyline([[0, 0], [1, 0], [0, 0]]).simplify(1.0)
        assert simple.points.tolist() == [[0, 0], [1, 0], [0, 0]]

    def test_simplify_closed_square_within_tolerance(self):
        square = Polyline([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]])
        simple = square.simplify(5.0)
        assert simple.points.tolist() == [[0, 0], [1, 1], [0, 0]]
        assert np.allclose(simple.start, simple.end)

    def test_concat(self, line):
        other = straight([100.0, 0.0], [100.0, 50.0], spacing=5.0)
        joined = line.concat(other)
        assert joined.length == pytest.approx(150.0)

def test_bounds(line):
    assert line.bounds() == (0.0, 0.0, 100.0, 0.0)

