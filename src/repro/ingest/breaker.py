"""Per-stage circuit breakers: fail fast when a stage is systemically down.

Bounded retries (``max_attempts`` -> dead-letter queue) are the right
answer to *poison* — one batch that can never succeed. They are the wrong
answer to a *systemic* stage failure (a dependency outage, a bad deploy of
one stage): every batch in the partition burns its full retry budget
against a stage that cannot succeed, and by the time the stage recovers
the dead-letter queue holds work that was never poisonous.

The :class:`CircuitBreaker` separates the two failure classes. Each
pipeline stage gets one breaker shared by all workers:

- **closed** (healthy): calls flow through; consecutive failures are
  counted, any success resets the count;
- **open** (tripped after :data:`STAGE_FAILURE_THRESHOLD` consecutive
  failures): callers get :class:`StageCircuitOpen` *without running the
  stage*; the pipeline nacks the batch for redelivery after ``cooldown_s``
  and — key point — does **not** count the delivery against
  ``max_attempts``, so a systemic outage never dead-letters healthy
  batches;
- **half-open** (cooldown elapsed): exactly one probe delivery runs the
  stage for real; its success closes the breaker, its failure re-opens it
  for another cooldown.

State transitions are logged as ``stage_breaker_open`` /
``stage_breaker_half_open`` / ``stage_breaker_closed`` events so a chaos
run (or an operator) can line them up with the fault window.

The clock is injectable for deterministic tests.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.errors import IngestError
from repro.obs.log import get_logger

_log = get_logger("ingest.breaker")

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: consecutive failures of one stage that declare it systemically down
STAGE_FAILURE_THRESHOLD = 6


class StageCircuitOpen(IngestError):
    """Raised instead of running a stage whose breaker is open."""

    def __init__(self, stage: str, retry_after_s: float) -> None:
        super().__init__(f"circuit open for stage {stage!r}")
        self.stage = stage
        self.retry_after_s = retry_after_s


class CircuitBreaker:
    """A three-state (closed/open/half-open) breaker for one stage."""

    def __init__(self, stage: str, cooldown_s: float = 0.25,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if cooldown_s < 0:
            raise IngestError("cooldown_s must be >= 0")
        self.stage = stage
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def acquire(self) -> None:
        """Gate one stage call; raises :class:`StageCircuitOpen` if open.

        Must be paired with exactly one :meth:`record_success` or
        :meth:`record_failure` when it returns normally.
        """
        with self._lock:
            if self._state == OPEN:
                elapsed = self._clock() - self._opened_at
                if elapsed < self.cooldown_s:
                    raise StageCircuitOpen(
                        self.stage, self.cooldown_s - elapsed)
                self._state = HALF_OPEN
                self._probing = False
                _log.warning("stage_breaker_half_open", stage=self.stage)
            if self._state == HALF_OPEN:
                if self._probing:
                    raise StageCircuitOpen(self.stage, self.cooldown_s)
                self._probing = True

    def record_success(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                _log.warning("stage_breaker_closed", stage=self.stage)
            self._state = CLOSED
            self._consecutive_failures = 0
            self._probing = False

    def record_failure(self) -> bool:
        """Count one stage failure; returns True when this trip opened
        the breaker (so callers can bump their own counters)."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._trip()
                return True
            self._consecutive_failures += 1
            if self._state == CLOSED and \
                    self._consecutive_failures >= STAGE_FAILURE_THRESHOLD:
                self._trip()
                return True
            return False

    def _trip(self) -> None:
        # caller holds self._lock
        self._state = OPEN
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._probing = False
        _log.error("stage_breaker_open", stage=self.stage,
                   cooldown_s=self.cooldown_s)
