"""Retry policies and circuit breaking for the download/XKMS paths.

A :class:`RetryPolicy` re-runs an operation on transient
:class:`~repro.errors.NetworkError`\\ s with exponential backoff and
deterministic jitter, bounded by an attempt count and an optional
total-time deadline; a :class:`CircuitBreaker` trips after consecutive
failures so a dead service is short-circuited instead of hammered, and
half-opens after a cool-down to probe for recovery.

All timing runs on a pluggable clock (see
:mod:`repro.resilience.clock`), so tests execute second-scale backoff
schedules instantly and deterministically.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import (
    CircuitOpenError, NetworkError, RetryExhaustedError, TimeoutError,
)
from repro.resilience.clock import SimulatedClock

#: Control-flow errors a policy must never swallow and retry, even
#: though they subclass NetworkError (a nested policy or breaker
#: already gave up on the caller's behalf).
NON_RETRYABLE = (RetryExhaustedError, CircuitOpenError)

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"


@dataclass
class CircuitBreaker:
    """Trips open after *failure_threshold* consecutive failures.

    While open, :meth:`before_call` raises
    :class:`~repro.errors.CircuitOpenError` without touching the wire.
    After *cooldown* simulated seconds the breaker half-opens: one
    probe call is allowed through — success closes the circuit,
    failure re-opens it for another cool-down.
    """

    failure_threshold: int = 5
    cooldown: float = 30.0
    clock: object = field(default_factory=SimulatedClock)
    state: str = STATE_CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0
    times_opened: int = 0
    short_circuits: int = 0
    probes: int = 0
    # One breaker gates calls from every in-flight session; state
    # transitions must be atomic or concurrent failures lose counts
    # and the open/half-open step tears (CON301/CON302).
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False)

    def before_call(self) -> None:
        """Gate a call; raises :class:`CircuitOpenError` while open.

        The open→half-open transition admits **exactly one** probe: the
        caller that performs the transition owns it.  Every other caller
        — including a barrier-start stampede arriving in the same
        instant the cooldown elapses — stays on the fast-fail path until
        the probe's outcome (:meth:`record_success`,
        :meth:`record_failure` or :meth:`abandon_probe`) resolves the
        state, so a recovering service sees one request, not a herd.
        """
        with self._lock:
            if self.state == STATE_CLOSED:
                return
            if self.state == STATE_HALF_OPEN:
                # A probe is already in flight; joining it would turn
                # the half-open state back into a thundering herd.
                self.short_circuits += 1
                raise CircuitOpenError(
                    "circuit half-open: recovery probe in flight",
                    attempts=self.consecutive_failures,
                    retry_after=0.0,
                )
            remaining = self.opened_at + self.cooldown \
                - self.clock.now()
            if remaining > 0:
                self.short_circuits += 1
                raise CircuitOpenError(
                    f"circuit open after {self.consecutive_failures} "
                    f"consecutive failures; half-opens in "
                    f"{remaining:g}s",
                    attempts=self.consecutive_failures,
                    retry_after=remaining,
                )
            self.state = STATE_HALF_OPEN
            self.probes += 1

    def record_failure(self) -> None:
        with self._lock:
            self.consecutive_failures += 1
            if self.state == STATE_HALF_OPEN or \
                    self.consecutive_failures >= self.failure_threshold:
                if self.state != STATE_OPEN:
                    self.times_opened += 1
                self.state = STATE_OPEN
                self.opened_at = self.clock.now()

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_failures = 0
            self.state = STATE_CLOSED

    def abandon_probe(self) -> None:
        """Release a half-open probe whose outcome never arrived.

        A probe that dies to a non-network exception (or a cancelled
        caller) said nothing about the service's health; without this
        release the half-open state — and its fast-fail path — would
        stick forever.  The breaker re-opens with its original
        ``opened_at``, so the remaining cooldown is not restarted.
        """
        with self._lock:
            if self.state == STATE_HALF_OPEN:
                self.state = STATE_OPEN

    @contextmanager
    def gate(self):
        """Gate the call in the ``with`` body and record its outcome.

        A :class:`~repro.errors.NetworkError` counts as a failure; any
        other exit by exception (including cancellation) abandons a
        half-open probe without blaming the service.
        """
        self.before_call()
        try:
            yield
        except NetworkError:
            self.record_failure()
            raise
        except BaseException:
            self.abandon_probe()
            raise
        self.record_success()

    def call(self, operation: Callable):
        """Run one gated, recorded call (no retries)."""
        with self.gate():
            return operation()


@dataclass
class RetryPolicy:
    """Exponential backoff with deterministic jitter and budgets.

    Args:
        max_attempts: total tries before giving up.
        base_delay: backoff before the second attempt (seconds).
        multiplier: backoff growth factor per attempt.
        max_delay: backoff ceiling.
        jitter: extra random fraction (0.1 = up to +10%) added to each
            backoff; drawn from a PRNG seeded with *seed*, so schedules
            are fully reproducible.
        deadline: total simulated-time budget; exceeded →
            :class:`RetryExhaustedError`.
        attempt_timeout: per-attempt latency budget (measured on the
            shared clock); a slower attempt is discarded and counted as
            a :class:`TimeoutError` failure.
        retryable: exception classes worth retrying.
        clock: time source shared with fault injectors and breakers.
    """

    max_attempts: int = 3
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 10.0
    jitter: float = 0.1
    deadline: float | None = None
    attempt_timeout: float | None = None
    retryable: tuple = (NetworkError,)
    seed: int = 0
    clock: object = field(default_factory=SimulatedClock)

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Backoff after failed *attempt* (1-based)."""
        delay = min(self.base_delay * self.multiplier ** (attempt - 1),
                    self.max_delay)
        if self.jitter:
            delay *= 1.0 + self.jitter * rng.random()
        return delay

    def delays(self) -> list[float]:
        """The full backoff schedule this policy would use (for tests)."""
        rng = random.Random(self.seed)
        return [self.backoff(attempt, rng)
                for attempt in range(1, self.max_attempts)]

    def execute(self, operation: Callable, *,
                breaker: CircuitBreaker | None = None,
                describe: str = "operation",
                until: float | None = None):
        """Run *operation* under this policy.

        Args:
            until: absolute clock instant (a propagated request
                deadline) past which no attempt starts and no backoff
                sleeps.

        Raises:
            RetryExhaustedError: attempts or deadline exhausted; carries
                the attempt count and the last underlying error.
            TimeoutError: *until* passed before an attempt could start.
            CircuitOpenError: *breaker* is open (short-circuited).
        """
        run = _Run(self, breaker, describe, until)
        while True:
            run.begin()
            try:
                result = operation()
            except BaseException as exc:
                if not run.retryable(exc):
                    raise
            else:
                if run.settled():
                    return result
            self.clock.sleep(run.backoff())

    async def _asleep(self, seconds: float) -> None:
        asleep = getattr(self.clock, "asleep", None)
        if asleep is not None:
            await asleep(seconds)
        else:
            self.clock.sleep(seconds)

    async def execute_async(self, operation: Callable, *,
                            breaker: CircuitBreaker | None = None,
                            describe: str = "operation",
                            until: float | None = None):
        """:meth:`execute` for coroutine operations.

        Identical semantics; backoff awaits the clock's ``asleep`` (a
        :class:`~repro.resilience.vclock.VirtualClock`) so other
        sessions on the event loop keep running while this one backs
        off.
        """
        run = _Run(self, breaker, describe, until)
        while True:
            run.begin()
            try:
                result = await operation()
            except BaseException as exc:
                if not run.retryable(exc):
                    raise
            else:
                if run.settled():
                    return result
            await self._asleep(run.backoff())


@dataclass
class _Run:
    """One run of a :class:`RetryPolicy`: the attempt loop minus the I/O.

    It owns every decision of the loop — deadline entry check, breaker
    bookkeeping, attempt-timeout settling and clipped backoff — so
    :meth:`RetryPolicy.execute` and :meth:`RetryPolicy.execute_async`
    differ only in how they call the operation and how they sleep.
    """

    policy: RetryPolicy
    breaker: CircuitBreaker | None
    describe: str
    until: float | None
    attempts: int = 0
    last_error: BaseException | None = None

    def __post_init__(self) -> None:
        self.clock = self.policy.clock
        self.rng = random.Random(self.policy.seed)
        self.start = self.attempt_start = self.clock.now()

    def begin(self) -> None:
        """Admit the next attempt.

        An attempt must not start past the propagated deadline, nor
        while the breaker is open.
        """
        if self.attempts >= self.policy.max_attempts:
            raise self._exhausted()
        if self.until is not None and self.clock.now() >= self.until:
            raise TimeoutError(
                f"{self.describe}: deadline expired before attempt "
                f"{self.attempts + 1}",
                attempts=self.attempts,
                elapsed=self.clock.now() - self.start,
            )
        if self.breaker is not None:
            self.breaker.before_call()
        self.attempts += 1
        self.attempt_start = self.clock.now()

    def retryable(self, exc: BaseException) -> bool:
        """Book a failed attempt; False when *exc* must propagate."""
        if isinstance(exc, self.policy.retryable) \
                and not isinstance(exc, NON_RETRYABLE):
            self.last_error = exc
            if self.breaker is not None:
                self.breaker.record_failure()
            return True
        # Not a service-health signal (or a nested policy/breaker that
        # already gave up): a half-open probe that dies here must not
        # leave the breaker stuck.
        if self.breaker is not None:
            self.breaker.abandon_probe()
        return False

    def settled(self) -> bool:
        """Book a successful attempt; False when it came too late."""
        took = self.clock.now() - self.attempt_start
        timeout = self.policy.attempt_timeout
        if timeout is not None and took > timeout:
            # The caller would have hung up before the answer
            # arrived: discard it and count a timeout.
            self.last_error = TimeoutError(
                f"{self.describe}: attempt {self.attempts} took "
                f"{took:g}s (timeout {timeout:g}s)",
                attempts=self.attempts,
                elapsed=self.clock.now() - self.start,
            )
            if self.breaker is not None:
                self.breaker.record_failure()
            return False
        if self.breaker is not None:
            self.breaker.record_success()
        return True

    def backoff(self) -> float:
        """The pause before the next attempt, clipped against every
        remaining budget.

        A backoff that would sleep the remaining deadline dry buys
        nothing — there is no room left for the attempt it precedes —
        so the policy fails *before* sleeping instead of waking up at
        (or past) the deadline just to fail then.
        """
        if self.attempts >= self.policy.max_attempts:
            raise self._exhausted()
        delay = self.policy.backoff(self.attempts, self.rng)
        now = self.clock.now()
        budgets = []
        if self.policy.deadline is not None:
            budgets.append(self.start + self.policy.deadline - now)
        if self.until is not None:
            budgets.append(self.until - now)
        if budgets and delay >= min(budgets):
            raise RetryExhaustedError(
                f"{self.describe}: retry deadline exhausted after "
                f"{self.attempts} attempt(s): {self.last_error}",
                attempts=self.attempts, elapsed=now - self.start,
                last_error=self.last_error,
            )
        return delay

    def _exhausted(self) -> RetryExhaustedError:
        elapsed = self.clock.now() - self.start
        error = self.last_error
        cause = f": {error}" if error is not None else ""
        return RetryExhaustedError(
            f"{self.describe}: gave up after {self.attempts} "
            f"attempt(s) in {elapsed:g}s{cause}",
            attempts=self.attempts, elapsed=elapsed, last_error=error,
        )
