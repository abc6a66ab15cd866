"""Per-stage circuit breaker: state machine under an injected clock, and
the pipeline's fast-fail path while a stage is systemically down."""

import pytest

from repro.ingest import IngestPipeline, breaker, pipeline
from repro.obs import EventLog, get_logger
from repro.ingest.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    STAGE_FAILURE_THRESHOLD,
    CircuitBreaker,
    StageCircuitOpen,
)
from tests.test_ingest import FakeClock, _obs, _sign_server

COOLDOWN_S = 1.0


@pytest.fixture(autouse=True)
def _private_event_log(monkeypatch):
    """Breaker trips and dead letters log error events; keep them out of
    the process-wide log whose counters other tests read."""
    log = EventLog()
    for module in (breaker, pipeline):
        monkeypatch.setattr(module, "_log",
                            get_logger(module._log.name, log))


def _fail(breaker: CircuitBreaker, n: int) -> bool:
    """Run ``n`` failing calls through the breaker; True if one tripped it."""
    tripped = False
    for _ in range(n):
        breaker.acquire()
        tripped |= breaker.record_failure()
    return tripped


def _open_breaker(clock: FakeClock) -> CircuitBreaker:
    breaker = CircuitBreaker("fuse", cooldown_s=COOLDOWN_S, clock=clock)
    assert _fail(breaker, STAGE_FAILURE_THRESHOLD)
    assert breaker.state == OPEN
    return breaker


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker("fuse", cooldown_s=COOLDOWN_S,
                                 clock=FakeClock())
        assert not _fail(breaker, STAGE_FAILURE_THRESHOLD - 1)
        assert breaker.state == CLOSED
        assert _fail(breaker, 1)
        assert breaker.state == OPEN

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker("fuse", cooldown_s=COOLDOWN_S,
                                 clock=FakeClock())
        assert not _fail(breaker, STAGE_FAILURE_THRESHOLD - 1)
        breaker.acquire()
        breaker.record_success()
        assert not _fail(breaker, STAGE_FAILURE_THRESHOLD - 1)
        assert breaker.state == CLOSED

    def test_open_refuses_until_the_cooldown_elapses(self):
        clock = FakeClock()
        breaker = _open_breaker(clock)
        clock.t = 0.25
        with pytest.raises(StageCircuitOpen) as refused:
            breaker.acquire()
        assert refused.value.stage == "fuse"
        assert refused.value.retry_after_s == pytest.approx(0.75)
        assert breaker.state == OPEN

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = _open_breaker(clock)
        clock.t = COOLDOWN_S
        breaker.acquire()  # the probe
        assert breaker.state == HALF_OPEN
        with pytest.raises(StageCircuitOpen):
            breaker.acquire()  # a second caller while the probe runs

    def test_successful_probe_closes(self):
        clock = FakeClock()
        breaker = _open_breaker(clock)
        clock.t = COOLDOWN_S
        breaker.acquire()
        breaker.record_success()
        assert breaker.state == CLOSED
        breaker.acquire()  # calls flow again
        breaker.record_success()

    def test_failed_probe_reopens_for_a_fresh_cooldown(self):
        clock = FakeClock()
        breaker = _open_breaker(clock)
        clock.t = COOLDOWN_S
        breaker.acquire()
        assert breaker.record_failure()
        assert breaker.state == OPEN
        clock.t = COOLDOWN_S + 0.5
        with pytest.raises(StageCircuitOpen):
            breaker.acquire()
        clock.t = 2 * COOLDOWN_S
        breaker.acquire()
        assert breaker.state == HALF_OPEN


class TestPipelineBreaker:
    def test_systemic_failure_nacks_without_charging_or_dead_lettering(
            self, monkeypatch):
        max_attempts = 3
        pipe = IngestPipeline(_sign_server(), n_workers=1, n_partitions=1,
                              max_batch=1, max_attempts=max_attempts,
                              backoff_base_s=0.0, breaker_cooldown_s=60.0)
        calls = []

        def down(state, batch, carry):
            calls.append(batch.batch_id)
            raise RuntimeError("dependency down")

        monkeypatch.setattr(pipe.stages[1], "process", down)
        for seq in range(10):
            assert pipe.submit(_obs(seq=seq))
        breaker = pipe.breakers[pipe.stages[1].name]

        # Until the breaker trips, failures are charged as poison: each
        # batch dead-letters after max_attempts deliveries.
        while breaker.state != OPEN:
            pipe._deliver(pipe.bus.poll([0], 1, timeout=0.0), 0)
        assert len(calls) == STAGE_FAILURE_THRESHOLD
        dead = len(pipe.dead_letters)
        assert dead == STAGE_FAILURE_THRESHOLD // max_attempts
        assert pipe.metrics.breaker_opens.value == 1

        # While open: the stage never runs, no attempt is charged and
        # nothing more is dead-lettered; every batch is nacked fast.
        for _ in range(5):
            batch = pipe.bus.poll([0], 1, timeout=0.0)
            attempts = batch.attempts
            pipe._deliver(batch, 0)
            assert batch.attempts == attempts
        assert len(calls) == STAGE_FAILURE_THRESHOLD
        assert len(pipe.dead_letters) == dead
        assert pipe.metrics.dead_letters.value == dead
        assert pipe.metrics.breaker_fast_failures.value == 5
        assert not pipe.bus.is_drained()  # parked for the cooldown, not lost
