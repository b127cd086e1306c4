"""End-to-end resilience: faults driven through sign→encrypt→transfer→
verify→play (ISSUE 1 acceptance scenarios).

Every scenario is deterministic under a fixed seed — CI runs this file
with ``REPRO_FAULT_SEED`` pinned so fault patterns, backoff jitter and
outcomes are replayable bit-for-bit.
"""

import os

import pytest

from repro.certs import SigningIdentity
from repro.core import AuthoringPipeline, PlaybackPipeline
from repro.core.package import build_package_element
from repro.disc import ApplicationManifest
from repro.dsig import Signer
from repro.errors import (
    ChannelSecurityError, CircuitOpenError, NetworkError,
    RetryExhaustedError, XKMSError,
)
from repro.network import (
    Channel, ContentServer, DownloadClient, PassiveWiretap, SecureClient,
    SecureServer, establish,
)
from repro.permissions import (
    PERM_LOCAL_STORAGE, PERM_RETURN_CHANNEL, PermissionRequestFile,
)
from repro.player import DiscPlayer, InteractiveApplicationEngine
from repro.primitives.random import DeterministicRandomSource
from repro.primitives.rsa import generate_keypair
from repro.resilience import (
    REASON_RETRY_EXHAUSTED, CircuitBreaker, DropFault,
    FaultSchedule, FlakyService, RetryPolicy, SimulatedClock,
    TruncateFault, flaky_link,
)
from repro.xkms import TrustServer, XKMSClient
from repro.xmlcore import parse_element, serialize_bytes

SEED = int(os.environ.get("REPRO_FAULT_SEED", "20050902"))

LAYOUT = (
    '<layout xmlns="urn:bda:bdmv:interactive-cluster">'
    '<root-layout width="1920" height="1080"/>'
    '<region regionName="main" width="1920" height="1080"/></layout>'
)


@pytest.fixture(scope="module")
def device_key():
    return generate_keypair(
        1024, DeterministicRandomSource(b"resilience-device")
    )


@pytest.fixture(scope="module")
def studio_key():
    return generate_keypair(
        1024, DeterministicRandomSource(b"resilience-studio")
    )


def make_manifest(script='player.log("bonus running");',
                  name="bonus-app") -> ApplicationManifest:
    manifest = ApplicationManifest(name)
    manifest.add_submarkup("layout", parse_element(LAYOUT))
    manifest.add_script(script)
    return manifest


def signed_package_bytes(pki, device_key, rng,
                         script='player.log("bonus running");',
                         permissions=()) -> bytes:
    prf = PermissionRequestFile("bonus-app", "org.studio")
    for permission, kwargs in permissions:
        prf.request(permission, **kwargs)
    pipeline = AuthoringPipeline(
        pki.studio, recipient_key=device_key.public_key(), rng=rng,
    )
    return pipeline.build_package(
        make_manifest(script), permission_file=prf,
    ).data


def keyname_package_bytes(studio_key, key_name="studio-signing-key"
                          ) -> bytes:
    """A package whose signature can only resolve through XKMS."""
    prf = PermissionRequestFile("bonus-app", "org.studio")
    prf.request(PERM_LOCAL_STORAGE, quota_bytes=1024)
    package = build_package_element(make_manifest().to_element(), prf)
    signer = Signer(studio_key, key_name=key_name)
    signer.sign_enveloped(package)
    return serialize_bytes(package)


def make_server(pki, package_data: bytes) -> ContentServer:
    identity = SigningIdentity.create(
        "CN=content.studio.example", pki.root,
        rng=DeterministicRandomSource(b"resilience-server"),
    )
    server = ContentServer(identity=identity)
    server.publish("/apps/bonus.pkg", package_data)
    return server


# -- acceptance: download fails twice, succeeds on the third attempt ---------------


def test_download_recovers_under_retry_policy(pki, trust_store,
                                              device_key, rng):
    package_data = signed_package_bytes(pki, device_key, rng)
    server = make_server(pki, package_data)

    def run_once():
        clock = SimulatedClock()
        # Plain roundtrip = 2 transfers; drop the 1st and 2nd attempts'
        # request flight, let the 3rd attempt through.
        drop = DropFault(schedule=FaultSchedule.at(0, 2))
        client = DownloadClient(
            server, Channel([drop]),
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5,
                                     seed=SEED, clock=clock),
        )
        player = DiscPlayer(trust_store, device_key=device_key)
        application = player.download_application(client,
                                                  "/apps/bonus.pkg",
                                                  secure=False)
        return application, drop, clock

    application, drop, clock = run_once()
    assert application.trusted
    assert drop.fired == 2
    assert len(clock.sleeps) == 2       # two backoffs before success
    session = InteractiveApplicationEngine(
        PlaybackPipeline(trust_store=trust_store, device_key=device_key)
    ).execute(application)
    assert session.console == ["bonus running"]

    # Deterministic under the fixed seed: an identical rerun produces
    # the identical backoff schedule.
    _, _, clock2 = run_once()
    assert clock2.sleeps == clock.sleeps


def test_flaky_service_recovers_under_retry(pki, trust_store):
    server = ContentServer()
    server.publish_service(
        "quote", FlakyService(lambda text: f"quote:{text}", failures=2),
    )
    client = DownloadClient(
        server, Channel(),
        retry_policy=RetryPolicy(max_attempts=3, seed=SEED,
                                 clock=SimulatedClock()),
    )
    assert client.call("quote", "day") == "quote:day"


def test_truncated_response_detected_and_retried(pki, trust_store,
                                                 device_key, rng):
    package_data = signed_package_bytes(pki, device_key, rng)
    server = make_server(pki, package_data)
    # Truncate the first response (transfer index 1), recover after.
    truncate = TruncateFault(keep_bytes=10,
                             schedule=FaultSchedule.at(1))
    client = DownloadClient(
        server, Channel([truncate]),
        retry_policy=RetryPolicy(max_attempts=2, seed=SEED,
                                 clock=SimulatedClock()),
    )
    assert client.fetch("/apps/bonus.pkg", secure=False) == package_data
    assert truncate.fired == 1


def test_truncated_message_without_policy_raises():
    server = ContentServer()
    server.publish("/r", b"payload-bytes")
    truncate = TruncateFault(keep_bytes=8,
                             schedule=FaultSchedule.at(1))
    client = DownloadClient(server, Channel([truncate]))
    with pytest.raises(NetworkError, match="truncated"):
        client.fetch("/r")


# -- acceptance: unreachable XKMS degrades, does not crash -------------------------


def test_xkms_reachable_yields_trusted_app(trust_store, studio_key):
    trust_server = TrustServer()
    trust_server.register_binding("studio-signing-key",
                                  studio_key.public_key())
    xkms = XKMSClient(trust_server.handle_xml)
    pipeline = PlaybackPipeline(trust_store=trust_store,
                                key_locator=xkms.locate)
    application = pipeline.open_package(
        keyname_package_bytes(studio_key)
    )
    assert application.trusted
    assert not application.degraded


def test_xkms_unreachable_degrades_to_untrusted(trust_store, studio_key):
    clock = SimulatedClock()

    def dead_transport(request_xml: str) -> str:
        raise NetworkError("trust service unreachable")

    xkms = XKMSClient(
        dead_transport,
        retry_policy=RetryPolicy(max_attempts=3, seed=SEED, clock=clock),
    )
    pipeline = PlaybackPipeline(trust_store=trust_store,
                                key_locator=xkms.locate)
    application = pipeline.open_package(
        keyname_package_bytes(studio_key)
    )
    # Playback continues: no exception, but trust is downgraded and the
    # reason is on record.
    assert not application.trusted
    assert application.degraded
    assert application.degradations[0].reason == REASON_RETRY_EXHAUSTED
    assert pipeline.degradation.for_component("xkms")
    # Trust-gated permissions stay denied for the degraded app.
    assert not application.grants.has(PERM_LOCAL_STORAGE)
    # ... and the application still executes.
    engine = InteractiveApplicationEngine(pipeline)
    session = engine.execute(application)
    assert session.console == ["bonus running"]
    assert session.degradations  # carried onto the session


def test_tampered_package_still_barred_even_when_xkms_down(trust_store,
                                                           studio_key):
    """Degradation never launders tampering: a package with a broken
    digest is barred regardless of trust-service availability."""
    from repro.errors import ApplicationRejectedError

    data = keyname_package_bytes(studio_key)
    tampered = data.replace(b"bonus running", b"evil  running")

    def dead_transport(request_xml: str) -> str:
        raise NetworkError("trust service unreachable")

    pipeline = PlaybackPipeline(
        trust_store=trust_store,
        key_locator=XKMSClient(dead_transport).locate,
    )
    # The bar names the digest mismatch that caused it, next to the
    # signature-level error from the unreachable trust service.
    with pytest.raises(ApplicationRejectedError,
                       match="(?s)'studio-signing-key' could not be "
                             "located.*digest mismatch"):
        pipeline.open_package(tampered)


def test_xkms_substituted_response_rejected_not_degraded(trust_store,
                                                         studio_key):
    """The satellite bugfix: a result with a missing request id is a
    substitution attempt, not an infrastructure failure — but the
    XKMSError surfaces as a degradation (fail closed to untrusted)."""
    from repro.xkms.messages import RESULT_NO_MATCH, XKMSResult

    def evil_transport(request_xml: str) -> str:
        return XKMSResult("Locate", RESULT_NO_MATCH).to_xml()  # no id

    xkms = XKMSClient(evil_transport)
    with pytest.raises(XKMSError, match="does not answer"):
        xkms.locate("studio-signing-key")

    pipeline = PlaybackPipeline(trust_store=trust_store,
                                key_locator=xkms.locate)
    application = pipeline.open_package(
        keyname_package_bytes(studio_key)
    )
    assert not application.trusted  # fails closed


# -- acceptance: dead channel → RetryExhausted, breaker → CircuitOpen --------------


def test_dead_channel_exhausts_then_circuit_short_circuits(pki,
                                                           trust_store):
    server = ContentServer()
    server.publish("/r", b"data")
    channel = Channel()
    channel.close()   # permanently dead
    clock = SimulatedClock()
    breaker = CircuitBreaker(failure_threshold=3, cooldown=60.0,
                             clock=clock)
    client = DownloadClient(
        server, channel,
        retry_policy=RetryPolicy(max_attempts=5, base_delay=1.0,
                                 jitter=0.1, deadline=4.0, seed=SEED,
                                 clock=clock),
        circuit_breaker=breaker,
    )
    with pytest.raises(RetryExhaustedError) as excinfo:
        client.fetch("/r")
    assert excinfo.value.attempts == 3   # 1s + 2s backoff fit; 4s didn't
    assert clock.now() <= 4.0

    # The breaker tripped; subsequent calls never touch the wire.
    transferred_before = channel.messages_transferred
    with pytest.raises(CircuitOpenError):
        client.fetch("/r")
    assert channel.messages_transferred == transferred_before

    # After the cool-down the half-open probe goes through again (and
    # the channel has recovered).
    channel.reopen()
    clock.advance(60.0)
    assert client.fetch("/r") == b"data"


# -- graceful degradation of optional content --------------------------------------


def test_optional_downloads_barred_disc_keeps_playing(pki, trust_store,
                                                      device_key, rng):
    package_data = signed_package_bytes(pki, device_key, rng)
    server = make_server(pki, package_data)
    server.publish("/bonus/art.png", b"PNG-bytes")
    channel = Channel([flaky_link(100)])   # effectively dead
    good_client = DownloadClient(server, Channel())
    bad_client = DownloadClient(
        server, channel,
        retry_policy=RetryPolicy(max_attempts=2, seed=SEED,
                                 clock=SimulatedClock()),
    )
    player = DiscPlayer(trust_store, device_key=device_key)

    fetched = player.download_bonus_content(
        good_client, ["/bonus/art.png", "/bonus/missing.png"],
        secure=False,
    )
    assert fetched == {"/bonus/art.png": b"PNG-bytes"}
    assert "/bonus/missing.png" in player.degradation.barred_resources()

    # A mandatory application over a dead link raises ...
    with pytest.raises(RetryExhaustedError):
        player.download_application(bad_client, "/apps/bonus.pkg",
                                    secure=False)
    # ... an optional one is barred and playback continues.
    application = player.download_application(
        bad_client, "/apps/bonus.pkg", secure=False, optional=True,
    )
    assert application is None
    degraded = player.degradation.for_component("download")
    assert any(event.reason == REASON_RETRY_EXHAUSTED
               for event in degraded)

    # The disc's own (already loaded) application still runs.
    good_app = player.download_application(good_client,
                                           "/apps/bonus.pkg",
                                           secure=False)
    session = player.run_application(good_app)
    assert session.console == ["bonus running"]


def test_script_network_get_degrades_to_null(pki, trust_store,
                                             device_key, rng):
    """A dead return channel bars the one resource; the app keeps
    running and the script simply sees null."""
    script = (
        'var d = network.get("cdn.studio.example", "/extra");'
        'if (d == null) { player.log("degraded"); }'
        'else { player.log(d); }'
    )
    package_data = signed_package_bytes(
        pki, device_key, rng, script=script,
        permissions=[(PERM_RETURN_CHANNEL,
                      {"hosts": ("cdn.studio.example",)})],
    )

    def dead_fetch(host, path):
        raise RetryExhaustedError("link down", attempts=3)

    engine = InteractiveApplicationEngine(
        PlaybackPipeline(trust_store=trust_store, device_key=device_key),
        network_fetch=dead_fetch,
    )
    session = engine.execute(engine.load_package(package_data))
    assert session.console == ["degraded"]
    assert session.degradations[0].component == "network-api"
    assert session.degradations[0].reason == REASON_RETRY_EXHAUSTED
    assert engine.pipeline.degradation.degraded


def test_script_network_degradation_lands_on_the_player_log(
        pki, trust_store, device_key, rng):
    script = 'var d = network.get("cdn.studio.example", "/extra");'
    package_data = signed_package_bytes(
        pki, device_key, rng, script=script,
        permissions=[(PERM_RETURN_CHANNEL,
                      {"hosts": ("cdn.studio.example",)})],
    )

    def dead_fetch(host, path):
        raise RetryExhaustedError("link down", attempts=3)

    player = DiscPlayer(trust_store, device_key=device_key,
                        network_fetch=dead_fetch)
    session = player.run_application(
        player.pipeline.open_package(package_data)
    )
    assert player.degradation.for_component("network-api") \
        == session.degradations
    assert session.degradations[0].reason == REASON_RETRY_EXHAUSTED


# -- secure channel under faults ---------------------------------------------------


def test_secure_handshake_retries_after_dropped_flight(pki, trust_store):
    identity = SigningIdentity.create(
        "CN=content.studio.example", pki.root,
        rng=DeterministicRandomSource(b"resilience-tls"),
    )
    wiretap = PassiveWiretap()
    channel = Channel([DropFault(schedule=FaultSchedule.at(0)), wiretap])
    client_session, server_session = establish(
        SecureClient(trust_store), SecureServer(identity), channel,
        retry_policy=RetryPolicy(max_attempts=2, seed=SEED,
                                 clock=SimulatedClock()),
    )
    wire = channel.transfer(client_session.seal(b"premium request"))
    assert server_session.open(wire) == b"premium request"
    assert not wiretap.saw_plaintext(b"premium request")


def test_secure_session_detects_duplicated_record(pki, trust_store):
    from repro.resilience import DuplicateFault
    identity = SigningIdentity.create(
        "CN=content.studio.example", pki.root,
        rng=DeterministicRandomSource(b"resilience-tls2"),
    )
    client_session, server_session = establish(
        SecureClient(trust_store), SecureServer(identity), Channel(),
    )
    lossy = Channel([DuplicateFault(schedule=FaultSchedule.at(0))])
    first = lossy.transfer(client_session.seal(b"one"))
    second = lossy.transfer(client_session.seal(b"two"))
    assert server_session.open(first) == b"one"
    with pytest.raises(ChannelSecurityError, match="replay|reorder"):
        server_session.open(second)   # the stale retransmit of "one"


def test_probability_fault_pattern_replays_exactly(pki, trust_store,
                                                   device_key, rng):
    """Seeded random drops produce the same end-to-end outcome twice."""
    package_data = signed_package_bytes(pki, device_key, rng)
    server = make_server(pki, package_data)

    def run():
        drop = DropFault(
            schedule=FaultSchedule.probability(0.4, seed=SEED),
        )
        client = DownloadClient(
            server, Channel([drop]),
            retry_policy=RetryPolicy(max_attempts=6, base_delay=0.1,
                                     seed=SEED, clock=SimulatedClock()),
        )
        try:
            client.fetch("/apps/bonus.pkg", secure=False)
            outcome = "ok"
        except NetworkError as exc:
            outcome = type(exc).__name__
        return outcome, drop.calls, drop.fired

    assert run() == run()
