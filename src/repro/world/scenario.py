"""Change scenarios: a prior map, a changed reality, and the ground truth diff.

Map-maintenance experiments (SLAMCU [41], Pannen et al. [42], [44], Diff-Net
[46], Tas et al. [10]) all share one setup: vehicles drive a *reality* that
has drifted from the *prior map*, and the pipeline must detect/apply the
difference. :class:`Scenario` packages that setup with the ground-truth
change list for scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.changes import MapChange, diff_maps
from repro.core.elements import SignType, TrafficSign
from repro.core.hdmap import HDMap


@dataclass
class ChangeSpec:
    """How many changes of each kind to inject."""

    add_signs: int = 0
    remove_signs: int = 0
    move_signs: int = 0
    move_distance: float = 3.0
    construction_sites: int = 0
    construction_signs_per_site: int = 4


@dataclass
class Scenario:
    """A maintenance scenario: prior map, changed reality, true changes."""

    prior: HDMap
    reality: HDMap
    true_changes: List[MapChange] = field(default_factory=list)

    @property
    def n_changes(self) -> int:
        return len(self.true_changes)


def _random_roadside_position(hdmap: HDMap, rng: np.random.Generator,
                              side_offset: float = 8.0) -> np.ndarray:
    lanes = list(hdmap.lanes())
    lane = lanes[int(rng.integers(0, len(lanes)))]
    s = float(rng.uniform(0.0, lane.length))
    base = lane.centerline.point_at(s)
    normal = lane.centerline.normal_at(s)
    return base - side_offset * normal


def apply_changes(base: HDMap, spec: ChangeSpec,
                  rng: np.random.Generator) -> Scenario:
    """Clone ``base``, inject the requested changes, return the scenario.

    The returned ``prior`` is the unchanged clone (what the fleet's map
    database believes); ``reality`` is what the world actually looks like.
    """
    prior = base.copy(name=f"{base.name}-prior")
    reality = base.copy(name=f"{base.name}-reality")

    signs = [e for e in reality.signs()]
    rng.shuffle(signs)

    removed = 0
    for sign in signs:
        if removed >= spec.remove_signs:
            break
        reality.remove(sign.id)
        removed += 1

    moved = 0
    for sign in signs[removed:]:
        if moved >= spec.move_signs:
            break
        angle = float(rng.uniform(0, 2 * np.pi))
        delta = spec.move_distance * np.array([np.cos(angle), np.sin(angle)])
        sign.position = sign.position + delta
        reality.replace(sign)
        moved += 1

    for _ in range(spec.add_signs):
        pos = _random_roadside_position(reality, rng)
        reality.create(TrafficSign, position=pos,
                       sign_type=SignType.DIRECTION,
                       facing=float(rng.uniform(-np.pi, np.pi)))

    for _ in range(spec.construction_sites):
        centre = _random_roadside_position(reality, rng, side_offset=5.0)
        for k in range(spec.construction_signs_per_site):
            jitter = rng.normal(0.0, 6.0, size=2)
            reality.create(TrafficSign, position=centre + jitter,
                           sign_type=SignType.CONSTRUCTION,
                           facing=float(rng.uniform(-np.pi, np.pi)))

    true_changes = diff_maps(prior, reality)
    return Scenario(prior=prior, reality=reality, true_changes=true_changes)
