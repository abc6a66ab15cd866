"""Idempotent patch publication into the authoritative map database.

The last hop of the maintenance loop: confirmed :class:`ConfirmedPatch`
objects are ingested into :class:`~repro.update.distribution.MapDistributionServer`
under its default :class:`~repro.update.distribution.ConflictPolicy`,
after which the serving layer's ``ChangesSince`` immediately reflects them
(both read the same versioned database).

Delivery upstream is at-least-once, so the same logical change can reach
the publisher more than once (batch redelivery after a worker crash, a
retry that half-succeeded). The publisher makes publication *exactly-once
per patch key*: a key that was ever accepted is never applied again, and
the suppression is counted, never silent. It also closes the freshness
measurement: the lag from the oldest contributing observation's enqueue
stamp to the version the patch became servable at.

The hop into the database can itself fail transiently (a replica
fail-over, a chaos-injected outage): an ingest that raises
:class:`TransientPublishError` is retried with exponential backoff up to
:attr:`PatchPublisher.MAX_PUBLISH_ATTEMPTS` times (``publish_retry``
warning events), then
surrendered with a ``publish_failed`` error event and a failed
:class:`PublishResult`. The patch's key is *not* recorded on failure, so
a later redelivery of the same logical change may still publish it.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ingest.verify import VerifyGate

from repro.core.versioning import MapPatch
from repro.ingest.metrics import IngestMetrics
from repro.obs.log import get_logger
from repro.obs.trace import TRACER
from repro.update.distribution import IngestResult, MapDistributionServer

_log = get_logger("ingest.publisher")


class TransientPublishError(Exception):
    """A retryable failure of the publisher -> database hop.

    Raised by the database side (or a fault injector wrapping it) to
    signal that the ingest did not happen but may succeed if retried —
    the publisher's analogue of a 503.
    """


@dataclass
class ConfirmedPatch:
    """A pipeline-confirmed patch plus its idempotency key.

    ``key`` deterministically names the logical change (tile + change type
    + target), so redelivered emissions collide instead of duplicating.
    ``enqueued_at`` is the bus enqueue stamp of the oldest observation
    that contributed — the start of the freshness-lag clock.
    ``verified`` marks that the constraint gate already judged this
    patch (set by :class:`~repro.ingest.verify.VerifyGate`), so the
    publisher's backstop check does not run it twice.
    """

    key: str
    patch: MapPatch
    enqueued_at: float = 0.0
    verified: bool = False


@dataclass
class PublishResult:
    published: bool
    duplicate: bool
    version: Optional[int]
    result: Optional[IngestResult] = None
    quarantined: bool = False


class PatchPublisher:
    """Exactly-once (per key) publisher in front of the map database."""

    #: deliveries of one patch before a transient failure is surrendered
    MAX_PUBLISH_ATTEMPTS = 3
    #: first retry backoff; doubles per attempt
    PUBLISH_BACKOFF_S = 0.01

    def __init__(self, server: MapDistributionServer,
                 metrics: Optional[IngestMetrics] = None,
                 add_conflation_radius: float = 6.0,
                 verifier: Optional["VerifyGate"] = None) -> None:
        self.server = server
        self.metrics = metrics
        # Backstop constraint gate: any patch that reaches publish()
        # without having passed the pipeline's VerifyStage
        # (confirmed.verified False) is checked here, so nothing can
        # route around the gate by publishing directly.
        self.verifier = verifier
        self.add_conflation_radius = add_conflation_radius
        self._lock = threading.Lock()
        self._published_keys: Set[str] = set()
        self._published_add_positions: List[Tuple[float, float]] = []

    def _conflated_add(self, patch: MapPatch) -> bool:
        """A single-AddElement patch whose landmark sits within the
        conflation radius of an already-published add is the same physical
        change reported through a different tile/cluster — suppress it."""
        if self.add_conflation_radius <= 0 or len(patch.ops) != 1:
            return False
        op = patch.ops[0]
        position = getattr(getattr(op, "element", None), "position", None)
        if position is None:
            return False
        x, y = float(position[0]), float(position[1])
        return any(math.hypot(px - x, py - y) <= self.add_conflation_radius
                   for px, py in self._published_add_positions)

    def _remember_adds(self, patch: MapPatch) -> None:
        for op in patch.ops:
            position = getattr(getattr(op, "element", None), "position",
                               None)
            if position is not None:
                self._published_add_positions.append(
                    (float(position[0]), float(position[1])))

    def seen(self, key: str) -> bool:
        with self._lock:
            return key in self._published_keys

    def publish(self, confirmed: ConfirmedPatch) -> PublishResult:
        """Ingest one confirmed patch; duplicates are suppressed.

        The key set is checked and the ingest performed under one lock,
        so two redeliveries racing on the same key cannot both apply.
        Keys are only recorded for *accepted* patches — a patch rejected
        by the conflict policy may legitimately be retried later.
        """
        span = TRACER.span("ingest.publish")
        if span.context is None:
            return self._publish(confirmed)
        with span:
            out = self._publish(confirmed)
            span.set("key", confirmed.key)
            span.set("published", out.published)
            span.set("duplicate", out.duplicate)
            if out.version is not None:
                span.set("version", out.version)
            return out

    def _publish(self, confirmed: ConfirmedPatch) -> PublishResult:
        if self.verifier is not None and not confirmed.verified and \
                not self.verifier.admit(confirmed):
            return PublishResult(False, False, None, quarantined=True)
        attempt = 0
        while True:
            delay = 0.0
            # Duplicate check and ingest happen under one lock hold, but
            # the retry backoff sleeps *outside* it so a flapping database
            # does not serialize unrelated publishers; the duplicate check
            # therefore re-runs on every attempt.
            with self._lock:
                if confirmed.key in self._published_keys or \
                        self._conflated_add(confirmed.patch):
                    if self.metrics is not None:
                        self.metrics.patches_duplicate.add()
                    return PublishResult(False, True, None)
                try:
                    result = self.server.ingest(confirmed.patch)
                except TransientPublishError as exc:
                    attempt += 1
                    if attempt >= self.MAX_PUBLISH_ATTEMPTS:
                        if self.metrics is not None:
                            self.metrics.publish_failures.add()
                        _log.error("publish_failed", key=confirmed.key,
                                   attempts=attempt, error=str(exc))
                        return PublishResult(False, False, None)
                    if self.metrics is not None:
                        self.metrics.publish_retries.add()
                    delay = self.PUBLISH_BACKOFF_S * (2 ** (attempt - 1))
                    _log.warning("publish_retry", key=confirmed.key,
                                 attempt=attempt,
                                 backoff_s=round(delay, 6),
                                 error=str(exc))
                else:
                    if result.accepted:
                        self._published_keys.add(confirmed.key)
                        self._remember_adds(confirmed.patch)
                    break
            if delay > 0:
                time.sleep(delay)
        if not result.accepted:
            if self.metrics is not None:
                self.metrics.patches_conflicted.add()
            _log.warning("patch_conflicted", key=confirmed.key,
                         reason=result.reason or "")
            return PublishResult(False, False, None, result)
        if self.metrics is not None:
            self.metrics.patches_published.add()
        if confirmed.enqueued_at > 0.0 and self.metrics is not None:
            self.metrics.record_freshness(
                max(0.0, time.monotonic() - confirmed.enqueued_at))
        return PublishResult(True, False, result.version, result)
