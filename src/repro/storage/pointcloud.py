"""Dense point-cloud map storage (the representation vector maps replace).

Traditional HD-map stacks keep a registered LiDAR point cloud for
map-matching; Pannen et al. [44] report ~200 GB for 20 000 miles
(~10 MB/mile). We synthesize an equivalent cloud from the ground-truth
geometry at a realistic surviving-point density and store it the way such
clouds are shipped (float32 x, y, z + uint8 intensity, zlib-compressed),
so the bytes/mile comparison against the vector codec is apples-to-apples.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.hdmap import HDMap


@dataclass
class PointCloudMap:
    """A registered map point cloud."""

    points: np.ndarray  # (N, 3) float32
    intensity: np.ndarray  # (N,) uint8

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    def to_bytes(self, compress: bool = True) -> bytes:
        raw = (self.points.astype("<f4").tobytes()
               + self.intensity.astype(np.uint8).tobytes())
        header = struct.pack("<I", self.n_points)
        payload = zlib.compress(raw, level=6) if compress else raw
        return header + payload

    @staticmethod
    def from_bytes(data: bytes, compressed: bool = True) -> "PointCloudMap":
        n = struct.unpack("<I", data[:4])[0]
        raw = zlib.decompress(data[4:]) if compressed else data[4:]
        pts = np.frombuffer(raw[:n * 12], dtype="<f4").reshape(n, 3)
        intensity = np.frombuffer(raw[n * 12:n * 13], dtype=np.uint8)
        return PointCloudMap(points=pts.copy(), intensity=intensity.copy())


def build_pointcloud_map(hdmap: HDMap, rng: np.random.Generator,
                         points_per_m2: float = 40.0,
                         corridor_half_width: Optional[float] = None,
                         landmark_points: int = 600,
                         z_sigma: float = 0.02) -> PointCloudMap:
    """Synthesize the registered cloud a mapping run over ``hdmap`` keeps.

    Density default (~40 pts/m^2 of road surface after map cleanup) is at
    the low end of mobile-mapping practice, making the storage comparison
    conservative.
    """
    chunks = []
    intens = []
    for lane in hdmap.lanes():
        area = lane.length * lane.width
        n = int(area * points_per_m2)
        if n == 0:
            continue
        s = rng.uniform(0.0, lane.length, size=n)
        d = rng.uniform(-lane.width / 2.0, lane.width / 2.0, size=n)
        base = lane.centerline.points_at(s)
        # Normals via small station offset (cheap approximation).
        ahead = lane.centerline.points_at(np.minimum(s + 0.5, lane.length))
        direction = ahead - base
        norms = np.hypot(direction[:, 0], direction[:, 1])
        direction /= np.maximum(norms, 1e-9)[:, None]
        normal = np.stack([-direction[:, 1], direction[:, 0]], axis=1)
        xy = base + d[:, None] * normal
        z = rng.normal(0.0, z_sigma, size=n)
        chunks.append(np.column_stack([xy, z]))
        intens.append(rng.integers(20, 90, size=n, dtype=np.uint8))
    for lm in hdmap.landmarks():
        n = landmark_points
        theta = rng.uniform(0, 2 * np.pi, size=n)
        r = rng.uniform(0.0, 0.3, size=n)
        z = rng.uniform(0.0, max(lm.height, 0.5), size=n)
        xy = lm.position[None, :] + np.stack(
            [r * np.cos(theta), r * np.sin(theta)], axis=1)
        chunks.append(np.column_stack([xy, z]))
        intens.append(np.full(n, int(lm.reflectivity * 255), dtype=np.uint8))
    if not chunks:
        return PointCloudMap(points=np.zeros((0, 3), dtype=np.float32),
                             intensity=np.zeros(0, dtype=np.uint8))
    return PointCloudMap(
        points=np.concatenate(chunks).astype(np.float32),
        intensity=np.concatenate(intens),
    )

