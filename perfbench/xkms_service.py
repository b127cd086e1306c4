"""xkms-service: open-loop lookups against the async trust service.

One generator coroutine offers Poisson arrivals on one event loop.
Each arrival is a player's Locate or Validate over about a thousand
key names with skewed popularity (more than the service's 256-entry
validation cache holds); about one operation in a hundred is an
operator key rotation (Revoke, then Register of a new key).  Requests
go through the real ``AsyncXKMSClient`` -> mux -> ``OverloadShield``
-> ``AsyncTrustService`` -> ``TrustServer`` stack on a wall clock,
configured as ``FleetConfig``'s defaults configure the fleet.

Offered rates are set in operations per calibration unit, so the
service's utilization does not drift with the machine's speed.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from perfbench import common
from perfbench.clock import WallClock
from perfbench.common import (
    Calibration, Latencies, Outcome, percentile, record_setup,
    registry_layers, tail,
)
from repro.errors import ReproError
from repro.loadgen.fleet import FleetConfig, classify_outcome
from repro.network.channel import AsyncChannel
from repro.network.server import AsyncServiceClient, AsyncServiceServer
from repro.perf import metrics
from repro.primitives.random import DeterministicRandomSource
from repro.primitives.rsa import generate_keypair
from repro.resilience.degradation import DegradationLog
from repro.resilience.retry import CircuitBreaker, RetryPolicy
from repro.resilience.service import (
    AdmissionController, AIMDLimiter, OverloadShield, TenantPolicy,
)
from repro.xkms.client import AsyncXKMSClient, MuxXKMSTransport
from repro.xkms.service import AsyncTrustService, busy_fault_payload

#: What ``op``, ``op2`` and ``rate`` of this workload measure.
LABELS = ("lookup", "validate", "lookup_max_rate")
#: Largest share of traced time that no layer span may cover.
UNATTRIBUTED_LIMIT = 0.25

NAMES = 1024
#: Key-name popularity is Zipfian with this exponent, as in the
#: request distribution of YCSB's core workloads A-C (Cooper et al.,
#: SoCC 2010; YCSB's zipfian constant is 0.99).  No trace of XKMS
#: lookups by a player fleet is public, so the skew is an assumption
#: (see provenance.json).
ZIPF_EXPONENT = 0.99
KEYS = 4
CONNECTIONS = 2
ROTATION_SHARE = 0.01
VALIDATE_SHARE = 0.5
#: Share of Validates that ask about a rotated-out key.
STALE_SHARE = 0.05
SECRET = b"perfbench-operator"
PLAYER_TENANTS = ("player", "kiosk")
OPERATOR_TENANT = "authoring"

#: Offered rate of the timed lookups, in operations per calibration
#: unit: about a third of the highest rate that meets the tail limit.
NOMINAL_RATE = 0.8
#: ``lookup_max_rate`` is the highest offered rate whose lookup tail
#: stays within this many calibration units (about 25 ms), with no
#: failed operation and no growing backlog.
TAIL_LIMIT_CAL = 8.0
#: Share of the run spent at the nominal rate; the rest climbs a
#: ladder of rates, each this factor above the last, starting here.
NOMINAL_SHARE = 0.55
LADDER_GROWTH = 1.12
LADDER_START = 2.0
#: Each ladder step offers at least this many operations.
STEP_OPERATIONS = 700
SEGMENT_S = 3.0
WARMUP_S = 0.5
STEP_WARMUP_S = 0.2
#: The generator times the calibration kernel this often.
CALIBRATE_EVERY_S = 0.2
#: A rate step stops offering once this many operations are in flight
#: (far more than the tail limit allows at any rate swept).
BACKLOG_ABORT = 400


@dataclass
class Transition:
    key: int
    valid: bool
    sent: float
    answered: float = float("inf")


class BindingModel:
    """The benchmark's own view of every binding over time.

    Each name has a list of states, each entered by a transition whose
    effect landed at an unknown instant between its send and reply.
    An answer is correct when some state the binding could have been
    in during the request's send-to-reply window gives that answer.
    """

    def __init__(self, keys: dict[str, int]):
        self.history = {name: [Transition(key, True, float("-inf"),
                                          float("-inf"))]
                        for name, key in keys.items()}

    def current(self, name: str) -> Transition:
        return self.history[name][-1]

    def possible(self, name: str, sent: float, answered: float):
        states = self.history[name]
        for j, state in enumerate(states):
            leaves = states[j + 1].answered if j + 1 < len(states) \
                else float("inf")
            if state.sent <= answered and leaves >= sent:
                yield state

    def validate_ok(self, name, key, answer, sent, answered) -> bool:
        return any((s.valid and s.key == key) == answer
                   for s in self.possible(name, sent, answered))

    def locate_ok(self, name, key, sent, answered) -> bool:
        return any(s.key == key
                   for s in self.possible(name, sent, answered))


@dataclass
class Phase:
    """Results of one stretch of offered load."""

    latencies: Latencies = field(default_factory=Latencies)
    validates: Latencies = field(default_factory=Latencies)
    attempted: int = 0
    failed: int = 0
    lateness_s: list = field(default_factory=list)
    aborted: bool = False
    rids: list = field(default_factory=list)


def make_keys() -> list:
    """The binding keys, the same in every run (see ``build_world``)."""
    rng = DeterministicRandomSource(b"perfbench-xkms")
    return [generate_keypair(1024, rng).public_key() for _ in range(KEYS)]


class Stack:
    """Client fleet, mux connections and the sharded service."""

    def __init__(self, seed: int, clock: WallClock, keys: list):
        config = FleetConfig()
        self.clock = clock
        self.keys = keys
        self.key_index = {(k.n, k.e): i for i, k in enumerate(self.keys)}
        self.names = [f"title-key-{i}" for i in range(NAMES)]
        pick = random.Random(f"{seed}:xkms-keys")
        initial = {name: pick.randrange(KEYS) for name in self.names}
        self.model = BindingModel(initial)
        self.service = AsyncTrustService(
            config.shards, clock=clock,
            registration_secrets={"": SECRET})
        for name, key in initial.items():
            self.service.register_binding(name, self.keys[key])
        self.shield = OverloadShield(
            clock,
            admission=AdmissionController(clock, TenantPolicy(
                config.max_concurrent, config.max_queued)),
            limiter=AIMDLimiter(target_latency_s=config.target_latency_s),
            degradation=DegradationLog(),
            component="xkms-service",
        )
        # The handler looks the method up per request, so a tracer
        # installed after set-up still sees it.
        self.server = AsyncServiceServer(
            lambda payload, context: self.service.handle_request(
                payload, context),
            clock=clock, shield=self.shield,
            fault_encoder=busy_fault_payload)
        self.channels = [AsyncChannel(clock=clock)
                         for _ in range(CONNECTIONS)]
        self.muxes = [AsyncServiceClient(channel, clock=clock)
                      for channel in self.channels]
        self.breakers = [CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            cooldown=config.breaker_cooldown_s, clock=clock)
            for _ in self.channels]
        retry = RetryPolicy(max_attempts=config.retry_attempts,
                            clock=clock, seed=config.seed)
        self.clients = {
            (connection, tenant): AsyncXKMSClient(
                MuxXKMSTransport(self.muxes[connection], tenant=tenant),
                clock=clock, retry_policy=retry,
                circuit_breaker=self.breakers[connection],
                default_timeout_s=config.timeout_s)
            for connection in range(CONNECTIONS)
            for tenant in PLAYER_TENANTS + (OPERATOR_TENANT,)
        }
        weights = [(rank + 1) ** -ZIPF_EXPONENT for rank in range(NAMES)]
        self.popularity = list(itertools.accumulate(weights))
        self.rotating: set[str] = set()
        self.rotated: list[str] = []
        self.uncertain: set[str] = set()
        self.observations: list[tuple] = []
        self.untyped = 0
        self._rids = itertools.count()
        self._serving: list = []

    def start(self) -> None:
        self._serving = [asyncio.ensure_future(self.server.serve(c))
                         for c in self.channels]

    async def close(self) -> None:
        for channel in self.channels:
            channel.close()
        for mux in self.muxes:
            await mux.aclose()
        await self.server.aclose()
        await asyncio.gather(*self._serving)

    # -- traffic --------------------------------------------------------------

    def pick_name(self, rng: random.Random) -> str:
        point = rng.random() * self.popularity[-1]
        return self.names[bisect.bisect_left(self.popularity, point)]

    async def lookup(self, rng: random.Random, phase: Phase,
                     due: float, tracer) -> None:
        connection = rng.randrange(CONNECTIONS)
        client = self.clients[(connection, rng.choice(PLAYER_TENANTS))]
        validate = rng.random() < VALIDATE_SHARE
        if validate and self.rotated and rng.random() < STALE_SHARE:
            name = rng.choice(self.rotated)
            history = self.model.history[name]
            key = history[-3].key if len(history) >= 3 \
                else self.model.current(name).key
        else:
            name = self.pick_name(rng)
            key = self.model.current(name).key
        rid = next(self._rids)
        with tracer.request(rid, start=due) if tracer else nullcontext():
            sent = self.clock.now()
            try:
                if validate:
                    answer = await client.validate(name, self.keys[key])
                else:
                    found = await client.locate(name)
                    answer = None if found is None else \
                        self.key_index.get((found.n, found.e), -1)
                error = None
            except asyncio.CancelledError:
                raise
            except ReproError as exc:
                error = exc
            except Exception as exc:  # noqa: BLE001 - counted untyped
                error = exc
            answered = self.clock.now()
        self._settle(phase, error)
        if error is None:
            phase.latencies.add(answered - due, due)
            if validate:
                phase.validates.add(answered - due, due)
            if tracer:
                phase.rids.append(rid)
            self.observations.append(
                (name, validate, key, answer, sent, answered))

    async def rotate(self, rng: random.Random, phase: Phase) -> None:
        idle = [n for n in (self.pick_name(rng) for _ in range(4))
                if n not in self.rotating and n not in self.uncertain]
        if not idle:
            return
        name = idle[0]
        self.rotating.add(name)
        client = self.clients[(rng.randrange(CONNECTIONS),
                               OPERATOR_TENANT)]
        old = self.model.current(name).key
        new = (old + 1 + rng.randrange(KEYS - 1)) % KEYS
        try:
            for step in ("revoke", "register"):
                state = Transition(old if step == "revoke" else new,
                                   step == "register", self.clock.now())
                self.model.history[name].append(state)
                try:
                    if step == "revoke":
                        result = await client.revoke(name, SECRET)
                    else:
                        result = await client.register(
                            name, self.keys[new], SECRET)
                    error = None if result.success else ReproError(
                        f"{step} of {name} answered {result.result_major}")
                except asyncio.CancelledError:
                    raise
                except ReproError as exc:
                    error = exc
                except Exception as exc:  # noqa: BLE001 - untyped
                    error = exc
                state.answered = self.clock.now()
                self._settle(phase, error)
                if error is not None:
                    # Whether the step landed is unknown now.
                    self.uncertain.add(name)
                    return
            self.rotated.append(name)
        finally:
            self.rotating.discard(name)

    def _settle(self, phase: Phase, error) -> None:
        kind = classify_outcome(error)
        phase.attempted += 1
        if kind != "ok":
            phase.failed += 1
        if kind == "untyped":
            self.untyped += 1

    async def offer(self, rng: random.Random, rate_cal: float,
                    seconds: float, calibration: Calibration,
                    tracer=None) -> Phase:
        """Offer Poisson arrivals at *rate_cal* operations per
        calibration unit for *seconds*, then wait for every operation
        to finish.  The kernel is timed every ``CALIBRATE_EVERY_S``
        and the offered rate follows it."""
        phase = Phase()
        tasks: set = set()
        clock = self.clock
        rate = rate_cal / calibration.recent(9)
        due = next_calibration = clock.now()
        end = due + seconds
        while due < end:
            while True:
                now = clock.now()
                if now >= next_calibration:
                    calibration.sample()
                    rate = rate_cal / calibration.recent(9)
                    next_calibration = now + CALIBRATE_EVERY_S
                    continue
                if now >= due:
                    break
                # Yield instead of sleeping until the arrival is due: a
                # timer sleep lets the virtual CPU halt, and waking it
                # costs milliseconds of host scheduling on a shared
                # machine, which would land in every latency.
                await asyncio.sleep(0)
            phase.lateness_s.append(clock.now() - due)
            if rng.random() < ROTATION_SHARE:
                work = self.rotate(random.Random(rng.random()), phase)
            else:
                work = self.lookup(random.Random(rng.random()), phase,
                                   due, tracer)
            task = asyncio.ensure_future(work)
            tasks.add(task)
            task.add_done_callback(tasks.discard)
            due += rng.expovariate(rate)
            if len(tasks) > BACKLOG_ABORT:
                phase.aborted = True
                break
        if tasks:
            await asyncio.gather(*tasks)
        calibration.mark()
        return phase

    def stats(self) -> dict:
        """Cumulative counters of every stats object on the stack."""
        admission = self.shield.admission.stats
        cache = self.service.cache_stats
        return {
            "network.mux.protocol_errors": self.server.stats.protocol_errors,
            "resilience.admission.queued": admission.queued,
            "resilience.sheds": self.shield.stats.sheds,
            "resilience.limiter.rejections": self.shield.limiter.rejections,
            "resilience.breaker.times_opened":
                sum(b.times_opened for b in self.breakers),
            "xkms.cache.evictions": cache.evictions,
            "cache.hits": cache.hits,
            "cache.misses": cache.misses,
            "mux.calls": sum(m.stats.calls for m in self.muxes),
            "channel.bytes": sum(c.bytes_transferred
                                 for c in self.channels),
        }

    def layers(self, start: dict, operations: int) -> dict:
        """Per-layer figures over the measured stretch: event counts
        as totals, bytes and lookups per operation."""
        delta = {k: v - start[k] for k, v in self.stats().items()}
        lookups = delta.pop("cache.hits") + delta["cache.misses"]
        hits = lookups - delta.pop("cache.misses")
        per_op = operations or 1
        delta.update({
            "xkms.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "xkms.cache.lookups": lookups / per_op,
            "network.channel.bytes": delta.pop("channel.bytes") / per_op,
            "resilience.retry.extra_attempts":
                delta.pop("mux.calls") - operations,
            "resilience.limiter.final_limit": self.shield.limiter.limit,
        })
        return delta

    def check(self, outcome: Outcome) -> None:
        model = self.model
        for name, validate, key, answer, sent, answered in \
                self.observations:
            if name in self.uncertain:
                continue
            if validate:
                ok = model.validate_ok(name, key, answer, sent, answered)
            else:
                ok = model.locate_ok(name, answer, sent, answered)
            if not ok:
                outcome.mismatch(
                    f"{'Validate' if validate else 'Locate'} {name} "
                    f"answered {answer!r}, impossible in its window")
        if self.untyped:
            outcome.mismatch(f"{self.untyped} untyped outcome(s)")
        sheds = self.shield.stats.sheds
        answered = self.server.stats.sheds_answered
        if answered != sheds:
            outcome.mismatch(f"{sheds} sheds but {answered} answered")


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    outcome = Outcome("xkms-service")
    asyncio.run(_main(seed, seconds, tracer, outcome))
    return outcome


async def _main(seed: int, seconds: float, tracer,
                outcome: Outcome) -> None:
    clock = WallClock()
    calibration = outcome.calibration
    rng = random.Random(f"{seed}:xkms-traffic")
    stack = keys = None
    for _ in range(common.SETUPS):
        if stack is not None:
            await stack.close()
        before = calibration.burst(9)
        started = time.perf_counter()
        keys = make_keys()
        stack = Stack(seed, clock, keys)
        stack.start()
        record_setup(outcome, time.perf_counter() - started,
                     before + calibration.burst(5))
        # The open-loop warm-up lasts as long as the offered rate says,
        # whatever the program costs, so setup_s leaves it out.
        await stack.offer(rng, NOMINAL_RATE, WARMUP_S, calibration)

    common.settle()
    registry = metrics.push_registry()
    start_stats = stack.stats()
    busy0, steal0 = common.cpu_ticks()
    lateness: list[float] = []
    end = time.perf_counter() + seconds
    share = 1.0 if tracer is not None else NOMINAL_SHARE
    try:
        for index in range(max(2, round(share * seconds / SEGMENT_S))):
            traced = tracer is not None and tracer.alternate(index, 1)
            phase = await stack.offer(rng, NOMINAL_RATE, SEGMENT_S,
                                      calibration,
                                      tracer if traced else None)
            lateness.extend(phase.lateness_s)
            outcome.attempted += phase.attempted
            outcome.failed += phase.failed
            if traced:
                outcome.traced_op.extend(phase.latencies)
                outcome.traced.update(phase.rids)
            else:
                outcome.op.extend(phase.latencies)
                outcome.op2.extend(phase.validates)
    finally:
        if tracer is not None:
            tracer.uninstall()
        metrics.pop_registry()
        await stack.close()
    busy1, steal1 = common.cpu_ticks()
    outcome.notes["steal_share"] = (steal1 - steal0) / max(1, busy1 - busy0)
    stack.check(outcome)
    outcome.layers.update(registry_layers(registry, outcome.attempted))
    outcome.layers.update(stack.layers(start_stats, outcome.attempted))
    if tracer is None:
        await _sweep(seed, clock, keys, rng, end, calibration, outcome,
                     lateness)
    late = sorted(lateness)
    outcome.layers["bench.generator_late_tail"] = tail(late)[0] * 1e3
    pending = [t for t in asyncio.all_tasks()
               if t is not asyncio.current_task()]
    outcome.notes.update(
        calibration_ms=calibration.median() * 1e3,
        generator_late_p50_ms=percentile(late, 0.5) * 1e3,
        pending_tasks=len(pending))
    if pending:
        outcome.mismatch(f"{len(pending)} task(s) still pending after "
                         "the stack closed")


async def _sweep(seed, clock, keys, rng, end, calibration, outcome,
                 lateness) -> None:
    """Climb a ladder of offered rates to find ``lookup_max_rate``: the
    highest rate offered, the nominal one included, whose lookup tail
    met ``TAIL_LIMIT_CAL`` with no failed operation and no backlog.

    Each step runs on a fresh stack, so an overloaded step's aftermath
    (an open breaker, a cut concurrency limit) does not decide the
    next one.  The ladder stops after two missed steps in a row or
    when the run's time is used up.
    """
    nominal = outcome.op.summary(calibration)["tail_cal"] \
        if len(outcome.op) else float("inf")
    steps = [(NOMINAL_RATE, nominal,
              nominal <= TAIL_LIMIT_CAL and not outcome.failed)]
    rate_cal = NOMINAL_RATE * LADDER_START
    misses = 0
    while misses < 2:
        rate_s = rate_cal / calibration.recent(9)
        seconds = max(STEP_OPERATIONS / rate_s, 0.5)
        if time.perf_counter() + STEP_WARMUP_S + seconds + 0.3 > end:
            break
        stack = Stack(seed, clock, keys)
        stack.start()
        try:
            await stack.offer(rng, NOMINAL_RATE, STEP_WARMUP_S,
                              calibration)
            phase = await stack.offer(rng, rate_cal, seconds, calibration)
        finally:
            await stack.close()
        stack.check(outcome)
        lateness.extend(phase.lateness_s)
        cal = sorted(phase.latencies.undisturbed(calibration)
                     .cal(calibration))
        step_tail = tail(cal)[0] if cal else float("inf")
        met = step_tail <= TAIL_LIMIT_CAL and not (phase.failed
                                                   or phase.aborted)
        misses = 0 if met else misses + 1
        steps.append((rate_cal, step_tail, met))
        rate_cal *= LADDER_GROWTH
    outcome.rate = 1000.0 * max((rate for rate, _, met in steps if met),
                                default=0.0)
    outcome.notes["ladder"] = " ".join(
        f"{rate:.3f}:{step_tail:.1f}{'' if met else '!'}"
        for rate, step_tail, met in steps)
