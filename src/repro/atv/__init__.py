"""Automated transfer vehicles: indoor HD-map maintenance
(Tas et al. [10], [11]).

An ATV drives a smart-factory floor running visual SLAM (surrogate:
odometry re-anchored at known landmarks) and object detection;
comparing the *virtual* map it builds against the valid HD map exposes new
or missing safety signs, which are batched into map updates.
"""

from repro.atv.vslam import VisualSlam, SlamPose
from repro.atv.sign_update import AtvSignUpdater, SignUpdateReport

__all__ = [
    "AtvSignUpdater",
    "SignUpdateReport",
    "SlamPose",
    "VisualSlam",
]
