"""RetryPolicy backoff/budget behaviour and the CircuitBreaker state machine."""

import pytest

from repro.errors import (
    CircuitOpenError, NetworkError, RetryExhaustedError, TimeoutError,
)
from repro.resilience import (
    STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN, CircuitBreaker, RetryPolicy,
    SimulatedClock, VirtualClock,
)


def failing_then(succeed_on: int, result="ok"):
    """An operation that fails with NetworkError until call *succeed_on*."""
    calls = {"n": 0}

    def operation():
        calls["n"] += 1
        if calls["n"] < succeed_on:
            raise NetworkError(f"transient #{calls['n']}")
        return result
    operation.calls = calls
    return operation


# -- retry policy ----------------------------------------------------------------


def test_happy_path_no_sleeps():
    clock = SimulatedClock()
    policy = RetryPolicy(clock=clock)
    assert policy.execute(lambda: "value") == "value"
    assert clock.sleeps == []


def test_fails_twice_succeeds_third():
    clock = SimulatedClock()
    policy = RetryPolicy(max_attempts=3, base_delay=1.0, multiplier=2.0,
                         jitter=0.1, seed=42, clock=clock)
    operation = failing_then(3)
    assert policy.execute(operation) == "ok"
    assert operation.calls["n"] == 3
    # Two backoffs, exponential with deterministic jitter.
    assert clock.sleeps == policy.delays()[:2]
    assert 1.0 <= clock.sleeps[0] <= 1.1
    assert 2.0 <= clock.sleeps[1] <= 2.2


def test_backoff_is_deterministic_per_seed():
    a = RetryPolicy(max_attempts=5, seed=7).delays()
    b = RetryPolicy(max_attempts=5, seed=7).delays()
    c = RetryPolicy(max_attempts=5, seed=8).delays()
    assert a == b
    assert a != c


def test_backoff_respects_max_delay():
    policy = RetryPolicy(max_attempts=8, base_delay=1.0, multiplier=10.0,
                         max_delay=5.0, jitter=0.0)
    assert policy.delays()[-1] == 5.0


def test_attempts_exhausted():
    clock = SimulatedClock()
    policy = RetryPolicy(max_attempts=3, clock=clock, seed=1)

    def dead():
        raise NetworkError("still down")

    with pytest.raises(RetryExhaustedError) as excinfo:
        policy.execute(dead, describe="fetch /x")
    error = excinfo.value
    assert error.attempts == 3
    assert isinstance(error.last_error, NetworkError)
    assert "fetch /x" in str(error)
    assert error.elapsed == clock.now()


def test_deadline_budget_exhausted():
    clock = SimulatedClock()
    policy = RetryPolicy(max_attempts=10, base_delay=1.0, multiplier=2.0,
                         jitter=0.0, deadline=5.0, clock=clock)

    def dead():
        raise NetworkError("down")

    with pytest.raises(RetryExhaustedError, match="deadline") as excinfo:
        policy.execute(dead)
    # 1s + 2s backoffs fit the 5s budget; the 4s third backoff does not.
    assert excinfo.value.attempts == 3
    assert clock.now() <= 5.0


def test_attempt_timeout_discards_slow_answer():
    clock = SimulatedClock()
    policy = RetryPolicy(max_attempts=2, attempt_timeout=1.0,
                         clock=clock, seed=0)

    def slow():
        clock.advance(3.0)  # a DelayFault on the link would do this
        return "late answer"

    with pytest.raises(RetryExhaustedError) as excinfo:
        policy.execute(slow)
    assert isinstance(excinfo.value.last_error, TimeoutError)
    assert excinfo.value.last_error.attempts == 2


def test_fast_answer_beats_attempt_timeout():
    clock = SimulatedClock()
    policy = RetryPolicy(attempt_timeout=1.0, clock=clock)

    def fast():
        clock.advance(0.5)
        return "in time"

    assert policy.execute(fast) == "in time"


def test_non_network_errors_propagate():
    policy = RetryPolicy()
    calls = {"n": 0}

    def broken():
        calls["n"] += 1
        raise ValueError("logic bug")

    with pytest.raises(ValueError):
        policy.execute(broken)
    assert calls["n"] == 1  # not retried


def test_control_flow_errors_never_retried():
    policy = RetryPolicy(max_attempts=5)
    calls = {"n": 0}

    def inner_gave_up():
        calls["n"] += 1
        raise RetryExhaustedError("inner policy done", attempts=3)

    with pytest.raises(RetryExhaustedError):
        policy.execute(inner_gave_up)
    assert calls["n"] == 1


# -- circuit breaker -------------------------------------------------------------


def test_breaker_opens_after_threshold():
    clock = SimulatedClock()
    breaker = CircuitBreaker(failure_threshold=2, cooldown=10.0,
                             clock=clock)
    policy = RetryPolicy(max_attempts=2, clock=clock)

    def dead():
        raise NetworkError("down")

    with pytest.raises(RetryExhaustedError):
        policy.execute(dead, breaker=breaker)
    assert breaker.state == STATE_OPEN

    # Subsequent calls short-circuit without touching the operation.
    calls = {"n": 0}

    def counting():
        calls["n"] += 1
        return "x"

    with pytest.raises(CircuitOpenError) as excinfo:
        policy.execute(counting, breaker=breaker)
    assert calls["n"] == 0
    assert excinfo.value.retry_after > 0
    assert excinfo.value.attempts == 2
    assert breaker.short_circuits == 1


def test_breaker_half_opens_and_closes_on_probe_success():
    clock = SimulatedClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0,
                             clock=clock)
    breaker.record_failure()
    assert breaker.state == STATE_OPEN
    clock.advance(5.0)
    breaker.before_call()  # cool-down elapsed: probe allowed
    assert breaker.state == STATE_HALF_OPEN
    breaker.record_success()
    assert breaker.state == STATE_CLOSED
    assert breaker.consecutive_failures == 0


def test_breaker_half_open_probe_failure_reopens():
    clock = SimulatedClock()
    breaker = CircuitBreaker(failure_threshold=3, cooldown=5.0,
                             clock=clock)
    for _ in range(3):
        breaker.record_failure()
    clock.advance(5.0)
    breaker.before_call()
    assert breaker.state == STATE_HALF_OPEN
    breaker.record_failure()  # one failed probe re-opens immediately
    assert breaker.state == STATE_OPEN
    assert breaker.times_opened == 2
    with pytest.raises(CircuitOpenError):
        breaker.before_call()


def test_breaker_call_helper_gates_and_records():
    clock = SimulatedClock()
    breaker = CircuitBreaker(failure_threshold=1, clock=clock)
    assert breaker.call(lambda: "fine") == "fine"
    with pytest.raises(NetworkError):
        breaker.call(lambda: (_ for _ in ()).throw(NetworkError("x")))
    assert breaker.state == STATE_OPEN
    with pytest.raises(CircuitOpenError):
        breaker.call(lambda: "never runs")


# -- deadline-clipped backoff (async overload PR) --------------------------------


def test_backoff_never_sleeps_past_propagated_deadline():
    """S1 regression: a backoff that would sleep the remaining budget
    dry fails *before* sleeping — the injected clock never advances to
    (or past) ``until``."""
    clock = SimulatedClock()
    policy = RetryPolicy(max_attempts=5, base_delay=4.0, multiplier=2.0,
                         jitter=0.0, clock=clock)

    def dead():
        clock.advance(1.0)  # each attempt costs one simulated second
        raise NetworkError("down")

    until = clock.now() + 6.0
    with pytest.raises(RetryExhaustedError) as excinfo:
        policy.execute(dead, until=until)
    # Attempt 1 at t=0 (ends t=1), backoff 4.0 fits the 5s remaining,
    # attempt 2 at t=5 (ends t=6); the next 8.0s backoff would cross
    # the deadline, so the policy stops *now* instead of sleeping.
    assert excinfo.value.attempts == 2
    assert "deadline exhausted" in str(excinfo.value)
    assert clock.now() <= until
    assert clock.sleeps == [4.0]


def test_backoff_clipping_identical_on_virtual_clock():
    """The async path clips exactly like the sync one: same attempts,
    same sleeps, same final clock reading, driven on a VirtualClock."""
    sync_clock = SimulatedClock()
    sync_policy = RetryPolicy(max_attempts=5, base_delay=4.0,
                              multiplier=2.0, jitter=0.0,
                              clock=sync_clock)

    def sync_dead():
        sync_clock.advance(1.0)
        raise NetworkError("down")

    with pytest.raises(RetryExhaustedError) as sync_exc:
        sync_policy.execute(sync_dead, until=6.0)

    vclock = VirtualClock()
    policy = RetryPolicy(max_attempts=5, base_delay=4.0, multiplier=2.0,
                         jitter=0.0, clock=vclock)

    async def async_dead():
        vclock.advance(1.0)
        raise NetworkError("down")

    async def main():
        with pytest.raises(RetryExhaustedError) as excinfo:
            await policy.execute_async(async_dead, until=6.0)
        return excinfo.value

    async_error = vclock.run(main())
    assert async_error.attempts == sync_exc.value.attempts == 2
    assert vclock.now() == sync_clock.now()
    assert list(vclock.sleeps) == list(sync_clock.sleeps)


# -- half-open single probe under a stampede -------------------------------------


def test_half_open_admits_exactly_one_probe_from_a_stampede():
    """S2 stress: N callers hit a cooled-down breaker at the *same*
    instant (barrier start).  Exactly one becomes the probe; everyone
    else fast-fails with the half-open CircuitOpenError."""
    clock = SimulatedClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0,
                             clock=clock)
    breaker.record_failure()
    clock.advance(5.0)

    probes, fast_fails = 0, 0
    for _ in range(64):
        try:
            breaker.before_call()
            probes += 1
        except CircuitOpenError as error:
            fast_fails += 1
            assert "probe in flight" in str(error)
    assert probes == 1
    assert fast_fails == 63
    assert breaker.probes == 1
    assert breaker.short_circuits == 63
    # The probe's success resolves the state for everyone.
    breaker.record_success()
    assert breaker.state == STATE_CLOSED
    breaker.before_call()


def test_half_open_stampede_on_threads_still_single_probe():
    """Same stampede, real threads: the breaker lock keeps the
    open->half-open step atomic, so a concurrent barrier start still
    yields exactly one probe."""
    import threading

    clock = SimulatedClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0,
                             clock=clock)
    breaker.record_failure()
    clock.advance(5.0)

    barrier = threading.Barrier(16)
    outcomes = []
    outcomes_lock = threading.Lock()

    def caller():
        barrier.wait()
        try:
            breaker.before_call()
            with outcomes_lock:
                outcomes.append("probe")
        except CircuitOpenError:
            with outcomes_lock:
                outcomes.append("fast-fail")

    threads = [threading.Thread(target=caller) for _ in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert outcomes.count("probe") == 1
    assert outcomes.count("fast-fail") == 15
    assert breaker.probes == 1


def test_abandoned_probe_keeps_original_cooldown():
    clock = SimulatedClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0,
                             clock=clock)
    breaker.record_failure()
    opened = breaker.opened_at
    clock.advance(10.0)
    breaker.before_call()
    assert breaker.state == STATE_HALF_OPEN
    # The probe dies to a non-network error: release without restarting
    # the cooldown window.
    breaker.abandon_probe()
    assert breaker.state == STATE_OPEN
    assert breaker.opened_at == opened
    # Cooldown already elapsed relative to the original opened_at, so
    # the very next caller becomes the new probe.
    breaker.before_call()
    assert breaker.state == STATE_HALF_OPEN
    assert breaker.probes == 2



# -- one attempt loop, two adapters ----------------------------------------------

#: Policy cases run through ``execute`` (on a SimulatedClock) and
#: ``execute_async`` (on a VirtualClock).  Each run is a script of
#: attempts, ``(seconds the attempt takes, value or exception)``; the
#: runs of one case share the policy, the clock and the breaker.
#: *expect* names the last run's outcome, so a case cannot silently
#: test nothing.
DOWN = NetworkError("down")
POLICY_CASES = {
    "happy-path": dict(runs=[[(0, "value")]], expect="value"),
    "fails-twice-succeeds-third": dict(
        policy=dict(max_attempts=3, base_delay=1.0, multiplier=2.0,
                    jitter=0.1, seed=42),
        runs=[[(0, NetworkError("t1")), (0, NetworkError("t2")),
               (0, "ok")]],
        expect="ok"),
    "attempts-exhausted": dict(
        policy=dict(max_attempts=3, seed=1), runs=[[(0, DOWN)] * 3],
        expect="RetryExhaustedError"),
    "deadline-budget-exhausted": dict(
        policy=dict(max_attempts=10, base_delay=1.0, multiplier=2.0,
                    jitter=0.0, deadline=5.0),
        runs=[[(0, DOWN)] * 10], expect="RetryExhaustedError"),
    "attempt-timeout-discards-slow-answer": dict(
        policy=dict(max_attempts=2, attempt_timeout=1.0, seed=0),
        runs=[[(3.0, "late answer")] * 2], expect="RetryExhaustedError"),
    "fast-answer-beats-attempt-timeout": dict(
        policy=dict(attempt_timeout=1.0), runs=[[(0.5, "in time")]],
        expect="in time"),
    "non-network-error-propagates": dict(
        runs=[[(0, ValueError("logic bug"))]], expect="ValueError"),
    "control-flow-error-never-retried": dict(
        policy=dict(max_attempts=5),
        runs=[[(0, RetryExhaustedError("inner policy done", attempts=3))]],
        expect="RetryExhaustedError"),
    "propagated-deadline-clips-backoff": dict(
        policy=dict(max_attempts=5, base_delay=4.0, multiplier=2.0,
                    jitter=0.0),
        until=6.0, runs=[[(1.0, DOWN)] * 5], expect="RetryExhaustedError"),
    "propagated-deadline-already-passed": dict(
        until=0.0, runs=[[(0, "never runs")]], expect="TimeoutError"),
    "no-attempts-allowed": dict(
        policy=dict(max_attempts=0), runs=[[]],
        expect="RetryExhaustedError"),
    "breaker-opens-then-short-circuits": dict(
        policy=dict(max_attempts=2),
        breaker=dict(failure_threshold=2, cooldown=10.0),
        runs=[[(0, DOWN)] * 2, [(0, "x")]], expect="CircuitOpenError"),
    "late-answer-fails-the-probe": dict(
        policy=dict(max_attempts=2, base_delay=1.0, jitter=0.0,
                    attempt_timeout=1.0),
        breaker=dict(failure_threshold=1, cooldown=0.5),
        runs=[[(0, DOWN), (2.0, "late")]], expect="RetryExhaustedError"),
    "abandoned-probe-then-recovery": dict(
        policy=dict(max_attempts=3, base_delay=1.0, jitter=0.0),
        breaker=dict(failure_threshold=1, cooldown=0.5),
        runs=[[(0, DOWN), (0, ValueError("bug"))], [(0, "back")]],
        expect="back"),
}


class _Case:
    """One policy case on one clock: the scripted attempts and what a
    caller and an operator can observe afterwards."""

    def __init__(self, case: dict, clock):
        self.case = case
        self.clock = clock
        self.policy = RetryPolicy(clock=clock, **case.get("policy", {}))
        self.breaker = (CircuitBreaker(clock=clock, **case["breaker"])
                        if "breaker" in case else None)
        self.options = dict(breaker=self.breaker, describe="case",
                            until=case.get("until"))
        self.calls: list[float] = []
        self.outcomes: list[tuple] = []

    def script(self, run):
        steps = iter(run)

        def attempt():
            self.calls.append(self.clock.now())
            seconds, outcome = next(steps)
            self.clock.advance(seconds)
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome
        return attempt

    def failed(self, error: Exception) -> None:
        last = getattr(error, "last_error", None)
        self.outcomes.append((
            "error", type(error).__name__, str(error),
            getattr(error, "attempts", None),
            type(last).__name__ if last is not None else None))

    def observed(self) -> dict:
        breaker = self.breaker
        return dict(
            outcomes=self.outcomes, calls=self.calls,
            sleeps=list(self.clock.sleeps), now=self.clock.now(),
            breaker=None if breaker is None else (
                breaker.state, breaker.consecutive_failures,
                breaker.times_opened, breaker.short_circuits,
                breaker.probes, breaker.opened_at))


def _through_execute(case: dict) -> dict:
    run = _Case(case, SimulatedClock())
    for script in case["runs"]:
        try:
            run.outcomes.append(("result", run.policy.execute(
                run.script(script), **run.options)))
        except Exception as error:
            run.failed(error)
    return run.observed()


def _through_execute_async(case: dict) -> dict:
    run = _Case(case, VirtualClock())

    async def main():
        for script in case["runs"]:
            attempt = run.script(script)

            async def operation():
                return attempt()

            try:
                run.outcomes.append(("result", await run.policy
                                     .execute_async(operation,
                                                    **run.options)))
            except Exception as error:
                run.failed(error)

    run.clock.run(main())
    return run.observed()


@pytest.mark.parametrize("name", sorted(POLICY_CASES))
def test_execute_and_execute_async_agree(name):
    """Same result or error (type, message, attempts, last error),
    same attempt instants, same ``clock.sleeps`` and same breaker
    counters from both adapters of the one attempt loop."""
    case = POLICY_CASES[name]
    sync = _through_execute(case)
    assert _through_execute_async(case) == sync
    assert sync["outcomes"][-1][1] == case["expect"]
