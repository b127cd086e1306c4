"""XKMSClient and AsyncXKMSClient: one request builder, one result
check and one answer reader per operation, two transports.

Against the same scripted transport both clients must send identical
request XML and return identical answers or identical typed errors,
for honest, junk, oversized and substituted results alike."""

import re

import pytest

from repro.errors import NetworkError
from repro.primitives.random import DeterministicRandomSource
from repro.primitives.rsa import generate_keypair
from repro.resilience import (
    CircuitBreaker, ResourceLimits, SimulatedClock, VirtualClock,
)
from repro.xkms import (
    RESULT_NO_MATCH, AsyncXKMSClient, TrustServer, XKMSClient, XKMSResult,
)
from repro.xkms.messages import reset_request_ids

SECRET = b"registration-secret"


@pytest.fixture(scope="module")
def key():
    return generate_keypair(
        1024, DeterministicRandomSource(b"xkms-adapters")).public_key()


def honest():
    return TrustServer(registration_secrets={"": SECRET}).handle_xml


def canned(xml: str):
    return lambda request_xml: xml


def dead(request_xml: str) -> str:
    raise NetworkError("trust service unreachable")


def no_options(clock) -> dict:
    return {}


#: name -> (transport factory, client options on a clock, pattern every
#: outcome's error matches, or None when the answers are real ones).
SCENARIOS = {
    "honest": (honest, no_options, None),
    "junk": (lambda: canned("<<not xml at all"), no_options,
             "unusable: .*expected"),
    "oversized": (
        lambda: canned(XKMSResult("Locate", RESULT_NO_MATCH,
                                  request_id="x" * 512).to_xml()),
        lambda clock: {"limits": ResourceLimits(max_input_bytes=256)},
        "unusable: .*max_input_bytes"),
    "wrong-request-id": (
        lambda: canned(XKMSResult("Locate", RESULT_NO_MATCH,
                                  request_id="someone-elses").to_xml()),
        no_options, "does not answer"),
    "missing-request-id": (
        lambda: canned(XKMSResult("Locate", RESULT_NO_MATCH).to_xml()),
        no_options, "does not answer"),
    "dead-behind-breaker": (
        lambda: dead,
        lambda clock: {"circuit_breaker": CircuitBreaker(
            failure_threshold=2, clock=clock)},
        "unreachable|circuit open"),
}


def operations(key):
    """Every operation, with honest and refused arguments."""
    return [
        ("register", ("studio-1", key, SECRET)),
        ("locate", ("studio-1",)),
        ("validate", ("studio-1",)),
        ("validate", ("studio-1", key)),
        ("locate", ("ghost",)),
        ("register", ("studio-2", key, b"wrong secret")),
        ("revoke", ("studio-1", SECRET)),
        ("validate", ("studio-1", key)),
        ("revoke", ("ghost", SECRET)),
    ]


def observe(answer):
    return answer.to_xml() if isinstance(answer, XKMSResult) else answer


class Recorder:
    """The scripted transport: records every request it carries."""

    def __init__(self, respond):
        self.respond = respond
        self.requests: list[str] = []

    def __call__(self, request_xml: str) -> str:
        self.requests.append(request_xml)
        return self.respond(request_xml)


def run_sync(scenario, key):
    factory, options, _ = SCENARIOS[scenario]
    reset_request_ids()
    transport = Recorder(factory())
    client = XKMSClient(transport, **options(SimulatedClock()))
    outcomes = []
    for method, args in operations(key):
        try:
            outcomes.append(observe(getattr(client, method)(*args)))
        except Exception as error:
            outcomes.append((type(error).__name__, str(error)))
    return transport.requests, outcomes, breaker_state(client)


def run_async(scenario, key):
    factory, options, _ = SCENARIOS[scenario]
    reset_request_ids()
    recorder = Recorder(factory())
    clock = VirtualClock()

    async def transport(request_xml, deadline):
        return recorder(request_xml)

    client = AsyncXKMSClient(transport, clock, **options(clock))

    async def main():
        outcomes = []
        for method, args in operations(key):
            try:
                outcomes.append(observe(
                    await getattr(client, method)(*args)))
            except Exception as error:
                outcomes.append((type(error).__name__, str(error)))
        return outcomes

    outcomes = clock.run(main())
    return recorder.requests, outcomes, breaker_state(client)


def breaker_state(client):
    breaker = client.circuit_breaker
    if breaker is None:
        return None
    return (breaker.state, breaker.consecutive_failures,
            breaker.times_opened, breaker.short_circuits)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_sync_and_async_clients_agree(scenario, key):
    sync_requests, sync_outcomes, sync_breaker = run_sync(scenario, key)
    async_requests, async_outcomes, async_breaker = run_async(scenario,
                                                              key)
    assert async_requests == sync_requests
    assert async_outcomes == sync_outcomes
    assert async_breaker == sync_breaker

    expected_error = SCENARIOS[scenario][2]
    if expected_error is None:
        assert all(not isinstance(outcome, tuple)
                   for outcome in sync_outcomes)
        assert sync_outcomes[1] == key           # located
        assert sync_outcomes[2:5] == [True, True, None]
        assert sync_outcomes[7] is False         # revoked
    else:
        for outcome in sync_outcomes:
            assert isinstance(outcome, tuple), outcome
            assert re.search(expected_error, outcome[1]), outcome
