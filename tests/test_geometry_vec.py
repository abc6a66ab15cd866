import math

import numpy as np
import pytest

from repro.geometry.vec import (
    norm,
    perp_left,
    rotate2d,
    segment_point_distance,
    unit,
    wrap_angle,
)


def test_norm_and_unit():
    assert norm([3.0, 4.0]) == pytest.approx(5.0)
    u = unit([3.0, 4.0])
    assert np.allclose(u, [0.6, 0.8])


def test_unit_zero_vector_raises():
    with pytest.raises(ValueError):
        unit([0.0, 0.0])


def test_perp_left_is_ccw_quarter_turn():
    assert np.allclose(perp_left([1.0, 0.0]), [0.0, 1.0])
    assert np.allclose(perp_left([0.0, 1.0]), [-1.0, 0.0])


def test_rotate2d_single_and_batch():
    p = rotate2d([1.0, 0.0], math.pi / 2)
    assert np.allclose(p, [0.0, 1.0], atol=1e-12)
    batch = rotate2d(np.array([[1.0, 0.0], [0.0, 1.0]]), math.pi)
    assert np.allclose(batch, [[-1.0, 0.0], [0.0, -1.0]], atol=1e-12)


def test_wrap_angle_range():
    for a in np.linspace(-20.0, 20.0, 101):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi
        # Same direction after wrapping.
        assert math.cos(w - a) == pytest.approx(1.0, abs=1e-9)


def test_segment_point_distance_interior_and_clamped():
    d, t = segment_point_distance([0, 0], [10, 0], [5, 3])
    assert d == pytest.approx(3.0)
    assert t == pytest.approx(0.5)
    d, t = segment_point_distance([0, 0], [10, 0], [-4, 3])
    assert d == pytest.approx(5.0)
    assert t == 0.0


def test_segment_point_distance_degenerate_segment():
    d, t = segment_point_distance([2, 2], [2, 2], [5, 6])
    assert d == pytest.approx(5.0)
    assert t == 0.0

