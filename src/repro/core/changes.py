"""Map change records and map diffing.

HD maps change at a far higher rate than traditional maps (Section II-B of
the survey), so changes are first-class: every maintenance pipeline in
:mod:`repro.update` emits :class:`MapChange` records, and two maps can be
diffed into a change set for evaluation (ground-truth change vs detected
change — the sensitivity/specificity measurements of Pannen et al. [44]
and the change-accuracy measurement of SLAMCU [41]).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.elements import Lane, LaneBoundary, MapElement, PointLandmark
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId


class ChangeType(enum.Enum):
    ADDED = "added"
    REMOVED = "removed"
    MOVED = "moved"
    MODIFIED = "modified"


@dataclass(frozen=True)
class MapChange:
    """One atomic change to one element.

    ``position`` locates the change for spatial bucketing; ``magnitude`` is
    the displacement in metres for MOVED changes (0 otherwise).
    """

    change_type: ChangeType
    element_id: ElementId
    position: Tuple[float, float]
    magnitude: float = 0.0
    detail: str = ""

    def distance_to(self, other: "MapChange") -> float:
        dx = self.position[0] - other.position[0]
        dy = self.position[1] - other.position[1]
        return float(np.hypot(dx, dy))


@dataclass
class ChangeLog:
    """An append-only log of changes with the map version they produced."""

    entries: List[Tuple[int, MapChange]] = field(default_factory=list)

    def record(self, version: int, change: MapChange) -> None:
        self.entries.append((version, change))

    def changes_since(self, version: int) -> List[MapChange]:
        # Versions are recorded in order: bisect to the first one past
        # ``version``, so a nearly current reader touches only the tail
        # (in a forked shard, the rest stays shared with its parent).
        entries = self.entries
        lo, hi = 0, len(entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if entries[mid][0] <= version:
                lo = mid + 1
            else:
                hi = mid
        return [change for _, change in entries[lo:]]

    def __len__(self) -> int:
        return len(self.entries)


def _element_position(element: MapElement) -> Tuple[float, float]:
    if isinstance(element, PointLandmark):
        return float(element.position[0]), float(element.position[1])
    min_x, min_y, max_x, max_y = element.bounds()
    return ((min_x + max_x) / 2.0, (min_y + max_y) / 2.0)


def _elements_differ(old: MapElement, new: MapElement,
                     move_tolerance: float) -> Optional[MapChange]:
    """Change record if two same-id elements differ, else None."""
    pos_old = np.array(_element_position(old))
    pos_new = np.array(_element_position(new))
    moved = float(np.hypot(*(pos_new - pos_old)))
    if moved > move_tolerance:
        return MapChange(
            change_type=ChangeType.MOVED,
            element_id=new.id,
            position=(float(pos_new[0]), float(pos_new[1])),
            magnitude=moved,
        )
    if isinstance(old, Lane) and isinstance(new, Lane):
        if (abs(old.width - new.width) > 1e-6
                or abs(old.speed_limit - new.speed_limit) > 1e-6
                or old.lane_type is not new.lane_type):
            return MapChange(
                change_type=ChangeType.MODIFIED,
                element_id=new.id,
                position=(float(pos_new[0]), float(pos_new[1])),
                detail="lane attributes",
            )
        geo = old.centerline.points
        geo_new = new.centerline.points
        if geo.shape != geo_new.shape or not np.allclose(geo, geo_new, atol=move_tolerance):
            return MapChange(
                change_type=ChangeType.MODIFIED,
                element_id=new.id,
                position=(float(pos_new[0]), float(pos_new[1])),
                detail="lane geometry",
            )
    if isinstance(old, LaneBoundary) and isinstance(new, LaneBoundary):
        if old.boundary_type is not new.boundary_type:
            return MapChange(
                change_type=ChangeType.MODIFIED,
                element_id=new.id,
                position=(float(pos_new[0]), float(pos_new[1])),
                detail="boundary type",
            )
    return None


def diff_maps(old: HDMap, new: HDMap, move_tolerance: float = 0.1) -> List[MapChange]:
    """Structural diff of two maps sharing an id space.

    Elements present only in ``new`` are ADDED, only in ``old`` are
    REMOVED; same-id elements whose reference position moved more than
    ``move_tolerance`` metres are MOVED, and other content differences are
    MODIFIED.
    """
    changes: List[MapChange] = []
    old_ids = {e.id: e for e in old.elements()}
    new_ids = {e.id: e for e in new.elements()}
    for eid, element in new_ids.items():
        if eid not in old_ids:
            changes.append(
                MapChange(ChangeType.ADDED, eid, _element_position(element))
            )
    for eid, element in old_ids.items():
        if eid not in new_ids:
            changes.append(
                MapChange(ChangeType.REMOVED, eid, _element_position(element))
            )
    for eid, element in new_ids.items():
        old_element = old_ids.get(eid)
        if old_element is None:
            continue
        change = _elements_differ(old_element, element, move_tolerance)
        if change is not None:
            changes.append(change)
    return changes


def match_changes(detected: Sequence[MapChange], truth: Sequence[MapChange],
                  radius: float = 5.0) -> Dict[str, int]:
    """Greedy spatial matching of detected vs ground-truth changes.

    Returns counts ``{"tp": ..., "fp": ..., "fn": ...}``: a detected change
    matches a true change when within ``radius`` metres and of the same
    type.
    """
    unmatched_truth = list(truth)
    tp = 0
    fp = 0
    for det in detected:
        best_i = -1
        best_d = radius
        for i, tr in enumerate(unmatched_truth):
            if tr.change_type is not det.change_type:
                continue
            d = det.distance_to(tr)
            if d <= best_d:
                best_i, best_d = i, d
        if best_i >= 0:
            unmatched_truth.pop(best_i)
            tp += 1
        else:
            fp += 1
    return {"tp": tp, "fp": fp, "fn": len(unmatched_truth)}
