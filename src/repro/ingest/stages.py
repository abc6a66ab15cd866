"""The staged ingest pipeline: validate -> associate -> fuse -> classify -> emit.

Each stage does one job from the surveyed maintenance loop and hands a
``carry`` dict to the next:

- :class:`ValidateStage` rejects malformed (poison) observations — a
  raising stage triggers the batch's retry/dead-letter path;
- :class:`AssociateStage` matches detections to prior-map elements by
  position (misses carry their expected element explicitly);
- :class:`FuseStage` runs Liu et al.'s incremental Kalman fusion [43] for
  positions plus one SLAMCU-style :class:`DiscreteDBN` presence chain per
  prior element [41];
- :class:`ClassifyStage` gates emission with Pannen et al.'s multi-
  traversal :class:`ChangeClassifier` [42][44] over the tile's
  accumulated evidence, so one noisy traversal never patches the map;
- :class:`EmitStage` turns confirmed beliefs into idempotent
  :class:`ConfirmedPatch` objects (a deterministic patch key per logical
  change), emitting each change at most once per pipeline;
- :class:`VerifyStage` is the mandatory constraint gate between fuse
  and publish: every emitted patch is checked by the shared
  :class:`~repro.ingest.verify.VerifyGate` and violating patches are
  quarantined (journaled with their violation report), never published.

All per-tile state lives in :class:`TileState`, owned by the pipeline and
keyed by tile — a tile maps to exactly one bus partition and one worker,
so stages never need locks, and state survives worker crashes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ingest.verify import VerifyGate

from repro.core.elements import SignType, TrafficSign
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.core.tiles import TileId
from repro.core.versioning import MapPatch
from repro.ingest.observation import Observation, ObservationBatch, ObservationKind
from repro.ingest.publisher import ConfirmedPatch
from repro.update.crowd_update import ChangeClassifier, TraversalFeatures
from repro.update.dbn import DiscreteDBN, FeatureState
from repro.update.incremental_fusion import IncrementalFuser


@dataclass
class IngestConfig:
    """Tunables of the staged pipeline (one instance shared by all stages)."""

    match_radius: float = 3.0           # detection -> prior association gate
    seed_sigma: float = 0.5             # prior-element position sigma
    min_evidence: int = 6               # observations before classify may fire
    remove_belief: float = 0.8          # P(REMOVED) to emit a removal
    add_confidence: float = 0.7         # fused confidence to emit an addition
    change_threshold: float = 0.45      # classifier decision threshold
    fuser_confidence_gain: float = 0.15  # per agreeing measurement
    fuser_confidence_loss: float = 0.08  # per disagreeing measurement/miss
    add_key_quantum_m: float = 2.0      # position quantum for add-patch keys
    conflation_radius_m: float = 4.0    # two adds closer than this are one
    seed_margin_m: float = 8.0          # tile-state seeding boundary margin
    # P(observation | PRESENT), P(observation | REMOVED)
    detect_likelihood: Tuple[float, float] = (0.7, 0.05)
    miss_likelihood: Tuple[float, float] = (0.3, 0.95)


@dataclass
class TileState:
    """All mutable per-tile pipeline state (single-writer by design)."""

    tile: TileId
    fuser: IncrementalFuser
    dbn: Dict[ElementId, DiscreteDBN] = field(default_factory=dict)
    seeded: bool = False
    changed: bool = False
    emitted: Set[str] = field(default_factory=set)
    emitted_add_positions: List[Tuple[float, float]] = \
        field(default_factory=list)
    # rolling evidence for the change classifier
    detections: int = 0        # detections associated with a prior element
    misses: int = 0            # expected-but-unseen prior elements
    unmatched: int = 0         # detections with no prior counterpart
    residual_sum: float = 0.0  # association residual accumulator (metres)


#: carry keys handed from stage to stage
_VALID = "valid"
_ASSOC = "assoc"
_PATCHES = "patches"


class Stage:
    """One pipeline stage; raises :class:`IngestError` on failure."""

    name = "stage"

    def process(self, state: TileState, batch: ObservationBatch,
                carry: dict) -> None:
        raise NotImplementedError


class ValidateStage(Stage):
    """Schema/sanity validation; poison observations fail the batch."""

    name = "validate"

    def process(self, state: TileState, batch: ObservationBatch,
                carry: dict) -> None:
        for obs in batch.observations:
            obs.validate()
        carry[_VALID] = list(batch.observations)


class AssociateStage(Stage):
    """Match each observation to a prior-map element (or to nothing)."""

    name = "associate"

    def __init__(self, prior: HDMap, config: IngestConfig) -> None:
        self.prior = prior
        self.config = config

    def _nearest_sign(self, x: float, y: float) -> Tuple[Optional[ElementId],
                                                         float]:
        best, best_d = None, self.config.match_radius
        for lm in self.prior.landmarks_in_radius(x, y,
                                                 self.config.match_radius):
            if not isinstance(lm, TrafficSign):
                continue
            d = float(np.hypot(lm.position[0] - x, lm.position[1] - y))
            if d < best_d:
                best, best_d = lm.id, d
        return best, best_d

    def process(self, state: TileState, batch: ObservationBatch,
                carry: dict) -> None:
        associations: List[Tuple[Observation, Optional[ElementId], float]] = []
        for obs in carry[_VALID]:
            if obs.kind == ObservationKind.MISS:
                # The reporter says which element it expected; ignore
                # expectations about elements the prior no longer has.
                if obs.element_id is not None and obs.element_id in self.prior:
                    associations.append((obs, obs.element_id, 0.0))
                continue
            assoc = obs.element_id if (obs.element_id is not None
                                       and obs.element_id in self.prior) \
                else None
            residual = 0.0
            if assoc is None:
                assoc, residual = self._nearest_sign(*obs.position)
            associations.append((obs, assoc, residual))
        carry[_ASSOC] = associations


class FuseStage(Stage):
    """Incremental Kalman fusion + per-element presence DBNs.

    Tile states arrive pre-seeded by the pipeline with the prior's
    elements (fuser tracks + presence chains); this stage only folds in
    the batch's evidence.
    """

    name = "fuse"

    def __init__(self, config: IngestConfig) -> None:
        self.config = config

    def process(self, state: TileState, batch: ObservationBatch,
                carry: dict) -> None:
        cfg = self.config
        for obs, assoc, residual in carry[_ASSOC]:
            if obs.kind == ObservationKind.DETECTION:
                state.fuser.observe(np.asarray(obs.position, dtype=float),
                                    obs.sigma, obs.t)
                if assoc is not None:
                    state.detections += 1
                    state.residual_sum += residual
                    chain = state.dbn.get(assoc)
                    if chain is not None:
                        chain.step(cfg.detect_likelihood)
                else:
                    state.unmatched += 1
            else:  # MISS
                state.misses += 1
                if assoc is not None:
                    state.fuser.miss(assoc, obs.t)
                    chain = state.dbn.get(assoc)
                    if chain is not None:
                        chain.step(cfg.miss_likelihood)


class ClassifyStage(Stage):
    """Tile-level change gate: multi-traversal classifier over evidence."""

    name = "classify"

    def __init__(self, config: IngestConfig) -> None:
        self.config = config
        self.classifier = ChangeClassifier()

    def features(self, state: TileState) -> TraversalFeatures:
        evidence = state.detections + state.misses + state.unmatched
        expected = max(state.detections + state.misses, 1)
        missing_ratio = state.misses / expected
        # Unexpected detections per observation, scaled the way
        # CrowdUpdatePipeline scales its per-frame rate.
        unexpected = state.unmatched / max(evidence, 1) * 10.0
        # Innovation proxy: mean association residual, inflated when the
        # tile is missing expected elements (fewer anchors means the
        # map-matcher diverges in proportion to what vanished).
        residual_mean = state.residual_sum / max(state.detections, 1)
        innovation = residual_mean + (missing_ratio
                                      if missing_ratio > 0.3 else 0.0)
        return TraversalFeatures(site=state.tile,
                                 missing_ratio=missing_ratio,
                                 unexpected_count=unexpected,
                                 innovation=innovation)

    def process(self, state: TileState, batch: ObservationBatch,
                carry: dict) -> None:
        evidence = state.detections + state.misses + state.unmatched
        if evidence < self.config.min_evidence:
            return  # not enough traversal evidence yet; stay unchanged
        state.changed = self.classifier.classify(
            self.features(state), self.config.change_threshold)


class EmitStage(Stage):
    """Turn confirmed beliefs into idempotent patch emissions."""

    name = "emit"

    def __init__(self, allocate_id: Callable[[str], ElementId],
                 config: IngestConfig,
                 prior: Optional[HDMap] = None) -> None:
        self.allocate_id = allocate_id
        self.config = config
        self.prior = prior

    def _removal_patches(self, state: TileState) -> List[ConfirmedPatch]:
        out = []
        for eid, chain in state.dbn.items():
            belief = chain.probability(FeatureState.REMOVED.value)
            if belief < self.config.remove_belief:
                continue
            key = f"{state.tile}:remove:{eid}"
            if key in state.emitted:
                continue
            state.emitted.add(key)
            patch = MapPatch(source=f"ingest:{state.tile}",
                             confidence=float(belief)).remove(eid)
            out.append(ConfirmedPatch(key=key, patch=patch))
        return out

    def _conflates(self, state: TileState, x: float, y: float) -> bool:
        """True when (x, y) is the same physical landmark as something we
        already know: a prior-map element (checked map-wide, because noisy
        detections of a sign near a tile boundary land in the neighbouring
        tile whose state never seeded it), a prior-seeded track, or a
        previously emitted add."""
        radius = self.config.conflation_radius_m
        if self.prior is not None and any(
                isinstance(lm, TrafficSign)
                for lm in self.prior.landmarks_in_radius(x, y, radius)):
            return True
        for element in state.fuser.elements.values():
            if element.element_id.kind != "fused" and \
                    float(np.hypot(element.position[0] - x,
                                   element.position[1] - y)) <= radius:
                return True
        return any(float(np.hypot(px - x, py - y)) <= radius
                   for px, py in state.emitted_add_positions)

    def _addition_patches(self, state: TileState) -> List[ConfirmedPatch]:
        out = []
        q = self.config.add_key_quantum_m
        for element in list(state.fuser.elements.values()):
            if element.element_id.kind != "fused":
                continue  # seeded from the prior, not a new discovery
            if element.confidence < self.config.add_confidence:
                continue
            x, y = float(element.position[0]), float(element.position[1])
            key = (f"{state.tile}:add:"
                   f"{round(x / q) * q:.0f},{round(y / q) * q:.0f}")
            if key in state.emitted or self._conflates(state, x, y):
                continue
            state.emitted.add(key)
            state.emitted_add_positions.append((x, y))
            sign = TrafficSign(id=self.allocate_id("sign"),
                               position=np.array([x, y]),
                               sign_type=SignType.DIRECTION)
            patch = MapPatch(source=f"ingest:{state.tile}",
                             confidence=float(element.confidence)).add(sign)
            out.append(ConfirmedPatch(key=key, patch=patch))
        return out

    def process(self, state: TileState, batch: ObservationBatch,
                carry: dict) -> None:
        patches: List[ConfirmedPatch] = []
        if state.changed:
            patches.extend(self._removal_patches(state))
            patches.extend(self._addition_patches(state))
        for cp in patches:
            cp.enqueued_at = batch.enqueued_at
        carry[_PATCHES] = patches


class VerifyStage(Stage):
    """Constraint gate over the emit stage's output.

    Runs as a normal pipeline stage so it inherits the per-stage
    machinery for free: an ``ingest.stage.verify`` latency series, a
    circuit breaker, and per-batch span annotation. The actual
    decision lives in the shared :class:`~repro.ingest.verify
    .VerifyGate` (also wired into the publisher as a backstop), so
    both entry paths agree on one quarantine store and metric surface.
    """

    name = "verify"

    def __init__(self, gate: "VerifyGate") -> None:
        self.gate = gate

    def process(self, state: TileState, batch: ObservationBatch,
                carry: dict) -> None:
        carry[_PATCHES] = self.gate.filter(carry.get(_PATCHES, []))
