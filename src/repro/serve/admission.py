"""Admission control: bounded queueing, backpressure, and load shedding.

The serving layer refuses to build an unbounded backlog. Admission is a
bounded FIFO of ``max_queue`` entries: when it is full, ``offer`` fails
immediately and the caller gets a REJECTED response (backpressure — the
client should slow down, not the server fall behind). Once admitted, a
request can still be *shed* at dispatch time: if it has waited longer than
:data:`MAX_AGE_S` and its priority is below :data:`SHED_BELOW`, answering
it would waste a worker on data the vehicle has already driven past, so
the worker drops it and reports SHED.

Shedding is *priority-aware at the door* too: when the queue is full, an
arriving request of strictly higher priority evicts the oldest queued
entry of the lowest priority class below it instead of being rejected. A request-spike flood of LOW
prefetches can therefore never starve HIGH safety-relevant ingests and
syncs — the spike displaces itself, and every displacement is counted
(``displaced``) and reported through the shed callback, never silent.

The clock is injectable so shedding is deterministically testable.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.obs.metrics import Counter
from repro.serve.api import Priority


#: queueing age beyond which work of a class below SHED_BELOW is shed
MAX_AGE_S = 0.5
SHED_BELOW = Priority.NORMAL


class _Queued:
    __slots__ = ("entry", "priority", "enqueued_at")

    def __init__(self, entry: Any, priority: Priority,
                 enqueued_at: float) -> None:
        self.entry = entry
        self.priority = priority
        self.enqueued_at = enqueued_at


class AdmissionController:
    """A closeable bounded FIFO with dispatch-time load shedding."""

    def __init__(self, max_queue: int = 256,
                 on_shed: Optional[Callable[[Any], None]] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.max_queue = max_queue
        self._on_shed = on_shed
        self._clock = clock
        self._cond = threading.Condition()
        self._queue: Deque[_Queued] = deque()
        self._closed = False
        self.admitted = Counter()
        self.rejected = Counter()
        self.shed = Counter()
        self.displaced = Counter()

    # ------------------------------------------------------------------
    def offer(self, entry: Any,
              priority: Priority = Priority.NORMAL) -> bool:
        """Admit ``entry`` unless the queue is full or closed.

        On a full queue, a strictly higher-priority offer evicts the oldest queued entry of the
        lowest priority class below it (reported via the shed callback)
        and is admitted in its place.
        """
        victim: Optional[_Queued] = None
        with self._cond:
            if self._closed:
                self.rejected.add()
                return False
            if len(self._queue) >= self.max_queue:
                victim = self._displaceable(priority)
                if victim is None:
                    self.rejected.add()
                    return False
                self._queue.remove(victim)
                self.displaced.add()
            self._queue.append(_Queued(entry, priority, self._clock()))
            self.admitted.add()
            self._cond.notify()
        if victim is not None and self._on_shed is not None:
            self._on_shed(victim.entry)
        return True

    def _displaceable(self, priority: Priority) -> Optional[_Queued]:
        """Oldest queued entry of the lowest class strictly below
        ``priority`` (None if everything queued is >= ``priority``)."""
        victim: Optional[_Queued] = None
        for item in self._queue:  # deque order == age order (FIFO)
            if item.priority < priority and \
                    (victim is None or item.priority < victim.priority):
                victim = item
        return victim

    def _sheddable(self, item: _Queued) -> bool:
        return (item.priority < SHED_BELOW
                and self._clock() - item.enqueued_at > MAX_AGE_S)

    def take(self, timeout: Optional[float] = None) -> Optional[Any]:
        """Next live entry, shedding stale low-priority ones on the way.

        Returns None once the controller is closed and drained, or when
        ``timeout`` elapses with nothing admitted.
        """
        deadline = None if timeout is None else self._clock() + timeout
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    if deadline is None:
                        self._cond.wait()
                    else:
                        remaining = deadline - self._clock()
                        if remaining <= 0 or not self._cond.wait(remaining):
                            if not self._queue:
                                return None
                if not self._queue:
                    return None  # closed and drained
                item = self._queue.popleft()
            if self._sheddable(item):
                self.shed.add()
                if self._on_shed is not None:
                    self._on_shed(item.entry)
                continue
            return item.entry

    # ------------------------------------------------------------------
    def depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def close(self) -> None:
        """Stop admitting; wake all waiting takers to drain and exit."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
