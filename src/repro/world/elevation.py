"""Elevation profiles along a route.

Predictive cruise control (Chu et al. [61]) exploits the slope information
an HD map carries. ``ElevationProfile`` models height as a function of
station along a route; the synthetic generator produces rolling-terrain
profiles with controllable hill wavelength and grade.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ElevationProfile:
    """Piecewise-linear elevation vs station (metres vs metres)."""

    stations: np.ndarray
    heights: np.ndarray

    def __post_init__(self) -> None:
        self.stations = np.asarray(self.stations, dtype=float)
        self.heights = np.asarray(self.heights, dtype=float)
        if self.stations.ndim != 1 or self.stations.shape != self.heights.shape:
            raise ValueError("stations and heights must be matching 1-D arrays")
        if self.stations.size < 2:
            raise ValueError("profile needs at least two samples")
        if np.any(np.diff(self.stations) <= 0):
            raise ValueError("stations must be strictly increasing")

    @property
    def length(self) -> float:
        return float(self.stations[-1] - self.stations[0])

    def height_at(self, s: float) -> float:
        return float(np.interp(s, self.stations, self.heights))

    def slope_at(self, s: float, window: float = 10.0) -> float:
        """Grade (rise/run) around station ``s``."""
        s0 = max(float(self.stations[0]), s - window / 2.0)
        s1 = min(float(self.stations[-1]), s + window / 2.0)
        if s1 - s0 < 1e-9:
            return 0.0
        return (self.height_at(s1) - self.height_at(s0)) / (s1 - s0)

    @staticmethod
    def flat(length: float) -> "ElevationProfile":
        return ElevationProfile(np.array([0.0, length]), np.zeros(2))

    @staticmethod
    def rolling(length: float, rng: np.random.Generator,
                max_grade: float = 0.05, wavelength: float = 2000.0,
                sample_spacing: float = 50.0) -> "ElevationProfile":
        """Random rolling terrain: sum of a few sinusoids, grade-limited.

        ``max_grade`` bounds the steepest slope (5 % default, a typical
        motorway design limit).
        """
        n = max(3, int(np.ceil(length / sample_spacing)) + 1)
        s = np.linspace(0.0, length, n)
        h = np.zeros(n)
        for k in range(1, 4):
            wl = wavelength / k
            amp = (max_grade * wl / (2.0 * np.pi)) * float(rng.uniform(0.2, 0.5))
            phase = float(rng.uniform(0, 2 * np.pi))
            h += amp * np.sin(2 * np.pi * s / wl + phase)
        return ElevationProfile(s, h)
