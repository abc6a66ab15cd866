"""Small 2-D vector helpers shared across the library.

These are deliberately thin wrappers over numpy: map elements store plain
``(N, 2)`` arrays, and the helpers here encode the library-wide conventions
(angles in radians, CCW, zero along +x).
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

ArrayLike = Union[np.ndarray, list, tuple]

TWO_PI = 2.0 * math.pi


def norm(v: ArrayLike) -> float:
    """Euclidean length of a 2-D vector."""
    arr = np.asarray(v, dtype=float)
    return float(np.hypot(arr[..., 0], arr[..., 1]))


def unit(v: ArrayLike) -> np.ndarray:
    """Unit vector in the direction of ``v``.

    Raises ``ValueError`` for the zero vector, which has no direction.
    """
    arr = np.asarray(v, dtype=float)
    length = float(np.hypot(arr[0], arr[1]))
    if length == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return arr / length


def perp_left(v: ArrayLike) -> np.ndarray:
    """Rotate ``v`` by +90 degrees (left-hand normal of a direction)."""
    arr = np.asarray(v, dtype=float)
    return np.array([-arr[1], arr[0]])


def rotate2d(points: ArrayLike, angle: float) -> np.ndarray:
    """Rotate point(s) CCW by ``angle`` radians about the origin.

    Accepts a single ``(2,)`` point or an ``(N, 2)`` array and returns the
    same shape.
    """
    arr = np.asarray(points, dtype=float)
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return arr @ rot.T


def wrap_angle(angle: float) -> float:
    """Wrap an angle into ``(-pi, pi]``."""
    wrapped = math.fmod(angle + math.pi, TWO_PI)
    if wrapped <= 0.0:
        wrapped += TWO_PI
    return wrapped - math.pi


def segment_point_distance(
    a: ArrayLike, b: ArrayLike, p: ArrayLike
) -> tuple[float, float]:
    """Distance from point ``p`` to segment ``ab``.

    Returns ``(distance, t)`` where ``t`` in [0, 1] is the parameter of the
    closest point ``a + t * (b - a)``.
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    p_arr = np.asarray(p, dtype=float)
    d = b_arr - a_arr
    denom = float(d @ d)
    if denom == 0.0:
        return float(np.hypot(*(p_arr - a_arr))), 0.0
    t = float(np.clip((p_arr - a_arr) @ d / denom, 0.0, 1.0))
    closest = a_arr + t * d
    return float(np.hypot(*(p_arr - closest))), t

