"""One handshake core, two adapters.

``establish`` drives the five-flight handshake through a blocking
:class:`Channel`; ``establish_async`` drives the same core through
deadline-bounded flights on an :class:`AsyncChannel`.  Both must put
the same bytes on the wire and refuse the same forgeries with the same
typed error."""

import asyncio
import hashlib
import struct

import pytest

from repro.certs import CertificateAuthority, SigningIdentity, TrustStore
from repro.errors import ChannelSecurityError
from repro.network import (
    ActiveTamperer, AsyncChannel, Channel, ContentServer, DownloadClient,
    PassiveWiretap, Replacer, SecureClient, SecureServer, establish,
    establish_async,
)
from repro.network.secure import (
    MSG_KEY_EXCHANGE, MSG_RECORD, MSG_SERVER_HELLO, _frame,
)
from repro.player import DiscPlayer
from repro.primitives.random import DeterministicRandomSource
from repro.resilience import DropFault, FaultSchedule, VirtualClock
from repro.resilience.degradation import REASON_INTEGRITY

#: SHA-256 of the five flights of the seeded handshake below.  It was
#: recorded from the separate sync and async handshake implementations
#: that the one core replaced; both gave this value under the ``pure``
#: and the ``accelerated`` provider.
HANDSHAKE_SHA256 = (
    "30f83f49748eb752ea1208dd4c87ece0ea83d53e8db036f979614f97e3c4885e"
)


@pytest.fixture(scope="module")
def seeded():
    """A trust store and server identity built from fixed seeds (not
    the shared session PKI, whose CA serial counter depends on test
    order)."""
    rng = DeterministicRandomSource(b"handshake-digest-pki")
    root = CertificateAuthority.create_root("CN=Digest Root", rng=rng)
    identity = SigningIdentity.create("CN=content.digest.example", root,
                                      rng=rng)
    return TrustStore(roots=[root.certificate]), identity


def seeded_parties(store, identity):
    return (
        SecureClient(store, rng=DeterministicRandomSource(
            b"handshake-digest-client")),
        SecureServer(identity, rng=DeterministicRandomSource(
            b"handshake-digest-server")),
    )


def run_sync(client, server, adversaries):
    return establish(client, server, Channel(adversaries))


def run_async(client, server, adversaries):
    clock = VirtualClock()
    channel = AsyncChannel(adversaries, clock=clock)

    async def main():
        return await establish_async(client, server, channel)

    return clock.run(main())


@pytest.fixture(params=["establish", "establish_async"])
def handshake(request):
    return run_sync if request.param == "establish" else run_async


def is_server_hello(message: bytes) -> bool:
    return message[:1] == bytes([MSG_SERVER_HELLO])


def forged_server_hello(payload: bytes) -> Replacer:
    return Replacer(replacement=_frame(MSG_SERVER_HELLO, payload),
                    predicate=is_server_hello)


def test_adapters_put_the_pinned_flights_on_the_wire(handshake, seeded):
    wiretap = PassiveWiretap()
    client_session, server_session = handshake(
        *seeded_parties(*seeded), [wiretap])
    assert len(wiretap.captured) == 5
    digest = hashlib.sha256(b"".join(wiretap.captured)).hexdigest()
    assert digest == HANDSHAKE_SHA256
    assert server_session.open(client_session.seal(b"ping")) == b"ping"


def test_short_server_hello_is_a_typed_refusal(handshake, seeded):
    """A ServerHello too short to hold the nonce and the chain length
    must not leak ``struct.error``."""
    with pytest.raises(ChannelSecurityError, match="too short"):
        handshake(*seeded_parties(*seeded),
                  [forged_server_hello(b"tiny")])


@pytest.mark.parametrize("declared", [0, 5, 9, 4096])
def test_server_hello_chain_length_must_cover_the_rest(handshake, seeded,
                                                       declared):
    chain = b"<chain/>"   # 8 bytes: any other declared length lies
    payload = bytes(32) + struct.pack(">I", declared) + chain
    with pytest.raises(ChannelSecurityError, match="length mismatch"):
        handshake(*seeded_parties(*seeded), [forged_server_hello(payload)])


def handshake_failure(handshake, seeded, tamperer) -> tuple:
    with pytest.raises(ChannelSecurityError) as excinfo:
        handshake(*seeded_parties(*seeded), [tamperer])
    return type(excinfo.value), str(excinfo.value)


#: Octets of the key-exchange flight, counted from its end.  They lie
#: in the low-order half of the RSA ciphertext, so the value stays
#: below n and only the padding of the premaster block can go wrong.
KEY_EXCHANGE_FLIPS = (-1, -33, -64)


def test_bad_premaster_fails_only_at_finished(handshake, seeded):
    """Implicit rejection: a tampered key exchange decrypts to a
    synthetic premaster, and the handshake fails exactly as it does
    for a tampered client Finished record (RFC 5246 §7.4.7.1), so a
    Bleichenbacher probe learns nothing about the padding."""
    reference = handshake_failure(handshake, seeded, ActiveTamperer(
        predicate=lambda m: m[:1] == bytes([MSG_RECORD]), offset=-1))
    assert reference == (ChannelSecurityError,
                         "record MAC failure: tampering detected in "
                         "transit")
    for offset in KEY_EXCHANGE_FLIPS:
        tamperer = ActiveTamperer(
            predicate=lambda m: m[:1] == bytes([MSG_KEY_EXCHANGE]),
            offset=offset)
        assert handshake_failure(handshake, seeded, tamperer) == reference


def test_forged_server_hello_bars_bonus_download(seeded):
    """``download_bonus_content`` promises "failures bar, never
    abort": a forged ServerHello is one more barred resource."""
    store, identity = seeded
    server = ContentServer(identity=identity)
    server.publish("/bonus/art.png", b"PNG-bytes")
    client = DownloadClient(
        server, Channel([forged_server_hello(b"tiny")]),
        trust_store=store)
    player = DiscPlayer(store)
    assert player.download_bonus_content(client, ["/bonus/art.png"]) == {}
    [event] = player.degradation.for_component("download")
    assert event.resource == "/bonus/art.png"
    assert event.reason == REASON_INTEGRITY


def test_cancelled_async_handshake_leaves_no_pending_receive(seeded):
    """Cancelling ``establish_async`` while it waits on a flight must
    release that flight's receive, or the orphaned task would take the
    channel's next message."""
    clock = VirtualClock()
    # The ClientHello vanishes, so the handshake parks on its answer.
    channel = AsyncChannel([DropFault(schedule=FaultSchedule.first(1))],
                           clock=clock)

    async def main():
        running = asyncio.ensure_future(establish_async(
            *seeded_parties(*seeded), channel, timeout_s=60.0))
        await clock.asleep(1.0)
        assert not running.done()
        running.cancel()
        await asyncio.gather(running, return_exceptions=True)
        current = asyncio.current_task()
        pending = [task for task in asyncio.all_tasks()
                   if task is not current and not task.done()
                   and task.get_coro().__qualname__ !=
                   "VirtualClock.drive"]
        await channel.server.send(b"next")
        delivered = await channel.client.recv()
        return running, pending, delivered

    running, pending, delivered = clock.run(main())
    assert running.cancelled()
    assert pending == []
    assert delivered == b"next"
    assert channel.dropped == 1
