"""Table I of the paper as queryable data.

The survey's central artifact is its taxonomy: two categories, eight
sub-areas, and the referenced techniques in each. This module encodes the
table and maps every sub-area to the :mod:`repro` modules implementing it,
so the Table I bench can verify that the library actually covers the
taxonomy it claims to reproduce.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class SubArea:
    """One row of Table I."""

    category: str  # "Design and Construction" | "Applications"
    name: str
    references: Tuple[str, ...]  # citation keys from the survey
    modules: Tuple[str, ...]  # repro modules implementing it

    def implemented(self) -> bool:
        try:
            for module in self.modules:
                importlib.import_module(module)
        except ImportError:
            return False
        return True


DESIGN_AND_CONSTRUCTION = "Design and Construction"
APPLICATIONS = "Applications"

TABLE_I: List[SubArea] = [
    SubArea(
        category=DESIGN_AND_CONSTRUCTION,
        name="Map Modeling and Design",
        references=("3", "17", "18", "19", "20", "21", "22", "23", "24", "25"),
        modules=("repro.core", "repro.core.hdmap", "repro.core.elements",
                 "repro.core.regulatory", "repro.world.hdmapgen",
                 "repro.depthmap.wmof"),
    ),
    SubArea(
        category=DESIGN_AND_CONSTRUCTION,
        name="Map Creation",
        references=("26", "27", "28", "29", "30", "31", "32", "33", "34",
                    "35", "36", "37", "38", "39", "40"),
        modules=("repro.creation", "repro.creation.lidar_pipeline",
                 "repro.creation.crowdsource", "repro.creation.probe_pipeline",
                 "repro.creation.aerial", "repro.creation.smartphone",
                 "repro.creation.traffic_lights",
                 "repro.creation.ilci_integration", "repro.creation.lane_graph",
                 "repro.creation.feature_layers"),
    ),
    SubArea(
        category=DESIGN_AND_CONSTRUCTION,
        name="Map Maintenance and Update",
        references=("10", "11", "41", "42", "43", "44", "45", "46", "47"),
        modules=("repro.update", "repro.update.slamcu",
                 "repro.update.crowd_update", "repro.update.incremental_fusion",
                 "repro.update.lane_learner", "repro.update.diffnet",
                 "repro.update.mec"),
    ),
    SubArea(
        category=APPLICATIONS,
        name="Localization",
        references=("22", "48", "49", "50", "51", "52", "53", "54", "55",
                    "56", "57"),
        modules=("repro.localization", "repro.localization.lane_marking",
                 "repro.localization.landmarks", "repro.localization.geometric",
                 "repro.localization.surfaces", "repro.localization.hdmi_loc",
                 "repro.localization.mlvhm", "repro.localization.adas",
                 "repro.localization.cooperative", "repro.localization.semantic",
                 "repro.localization.map_matching"),
    ),
    SubArea(
        category=APPLICATIONS,
        name="Pose Estimation",
        references=("22", "23", "58"),
        modules=("repro.pose", "repro.pose.pose6dof", "repro.pose.association"),
    ),
    SubArea(
        category=APPLICATIONS,
        name="Path Planning",
        references=("2", "44", "52", "59", "60", "61", "62"),
        modules=("repro.planning", "repro.planning.route_graph",
                 "repro.planning.bhps", "repro.planning.frenet_paths",
                 "repro.planning.pcc"),
    ),
    SubArea(
        category=APPLICATIONS,
        name="Perception",
        references=("6", "54", "63"),
        modules=("repro.perception", "repro.perception.hdnet",
                 "repro.perception.cooperative"),
    ),
    SubArea(
        category=APPLICATIONS,
        name="ATVs",
        references=("11", "64"),
        modules=("repro.atv", "repro.atv.sign_update", "repro.atv.vslam"),
    ),
]


def by_category() -> Dict[str, List[SubArea]]:
    out: Dict[str, List[SubArea]] = {}
    for area in TABLE_I:
        out.setdefault(area.category, []).append(area)
    return out


def coverage() -> Dict[str, bool]:
    """Sub-area name -> is every mapped module importable."""
    return {area.name: area.implemented() for area in TABLE_I}


def render_table() -> str:
    """Render Table I with implementation status, bench-output style."""
    lines = ["TABLE I — TAXONOMY OF THE PRESENTED TECHNIQUES", ""]
    for category, areas in by_category().items():
        lines.append(category)
        for area in areas:
            refs = ", ".join(f"[{r}]" for r in area.references)
            status = "implemented" if area.implemented() else "MISSING"
            lines.append(f"  {area.name:<28} {status:<12} {refs}")
    return "\n".join(lines)
