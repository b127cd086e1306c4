"""A TLS-like secure channel built from the library's own primitives.

§7: "SSL/TLS mechanisms could be used for mutual authentication and
secrecy between server and the player when applications are
transmitted over the network."  This module implements the shape of a
TLS-RSA handshake over a :class:`repro.network.channel.Channel`:

1. ``ClientHello``: client nonce;
2. ``ServerHello``: server nonce + certificate chain (XML);
3. client validates the chain against its trust store, then sends the
   RSA-encrypted premaster secret;
4. both sides derive directional AES/HMAC keys from the premaster and
   nonces (HMAC-SHA256 KDF) and exchange ``Finished`` records that MAC
   the handshake transcript — any in-flight tampering is caught here;
5. application records are AES-CBC, encrypt-then-MAC, with sequence
   numbers (replay/reorder detection).

As the paper notes, TLS protects data *in transit only* — the
persistent-protection argument for XML security (§4) is demonstrated by
tests that show TLS-delivered content carries no protection at rest.
"""

from __future__ import annotations

import asyncio
import struct
from dataclasses import dataclass

from repro.errors import ChannelSecurityError
from repro.certs.authority import SigningIdentity
from repro.certs.certificate import Certificate
from repro.certs.store import TrustStore
from repro.primitives.hmac import constant_time_equal
from repro.primitives.padding import pkcs7_pad, pkcs7_unpad
from repro.primitives.provider import CryptoProvider, get_provider
from repro.primitives.random import RandomSource, default_random
from repro.network.channel import Channel
from repro.resilience.limits import ResourceGuard
from repro.xmlcore import element, parse_element, serialize_bytes

_NONCE = 32
_PREMASTER = 48

MSG_CLIENT_HELLO = 1
MSG_SERVER_HELLO = 2
MSG_KEY_EXCHANGE = 3
MSG_FINISHED = 4
MSG_RECORD = 5


def _frame(kind: int, payload: bytes) -> bytes:
    return struct.pack(">BI", kind, len(payload)) + payload


def _unframe(message: bytes, expected_kind: int) -> bytes:
    if len(message) < 5:
        raise ChannelSecurityError("truncated handshake message")
    kind, length = struct.unpack_from(">BI", message)
    if kind != expected_kind:
        raise ChannelSecurityError(
            f"unexpected message kind {kind} (wanted {expected_kind})"
        )
    payload = message[5:]
    if len(payload) != length:
        raise ChannelSecurityError("handshake message length mismatch")
    return payload


@dataclass
class SessionKeys:
    """Directional key material derived from the handshake."""

    enc_key: bytes
    mac_key: bytes


class SecureSession:
    """One endpoint of an established secure channel."""

    def __init__(self, send_keys: SessionKeys, recv_keys: SessionKeys,
                 provider: CryptoProvider, rng: RandomSource,
                 peer_certificate: Certificate | None = None):
        self._send_keys = send_keys
        self._recv_keys = recv_keys
        self._provider = provider
        self._rng = rng
        self._send_seq = 0
        self._recv_seq = 0
        self.peer_certificate = peer_certificate

    def seal(self, plaintext: bytes) -> bytes:
        """Encrypt-then-MAC one application record."""
        iv = self._rng.read(16)
        ciphertext = self._provider.aes_cbc_encrypt(
            self._send_keys.enc_key, iv, pkcs7_pad(plaintext, 16),
        )
        header = struct.pack(">Q", self._send_seq)
        mac = self._provider.hmac(
            "sha256", self._send_keys.mac_key, header + iv + ciphertext,
        )
        self._send_seq += 1
        return _frame(MSG_RECORD, header + iv + ciphertext + mac)

    def open(self, record: bytes) -> bytes:
        """Verify and decrypt one application record.

        Raises:
            ChannelSecurityError: on MAC failure, replay or reordering.
        """
        payload = _unframe(record, MSG_RECORD)
        if len(payload) < 8 + 16 + 32:
            raise ChannelSecurityError("record too short")
        header, iv = payload[:8], payload[8:24]
        ciphertext, mac = payload[24:-32], payload[-32:]
        expected = self._provider.hmac(
            "sha256", self._recv_keys.mac_key, header + iv + ciphertext,
        )
        if not constant_time_equal(mac, expected):
            raise ChannelSecurityError(
                "record MAC failure: tampering detected in transit"
            )
        (seq,) = struct.unpack(">Q", header)
        if seq != self._recv_seq:
            raise ChannelSecurityError(
                f"record replay/reorder detected (seq {seq}, "
                f"expected {self._recv_seq})"
            )
        self._recv_seq += 1
        padded = self._provider.aes_cbc_decrypt(
            self._recv_keys.enc_key, iv, ciphertext,
        )
        return pkcs7_unpad(padded, 16)


def _kdf(provider: CryptoProvider, premaster: bytes, client_nonce: bytes,
         server_nonce: bytes) -> tuple[SessionKeys, SessionKeys]:
    """Derive client→server and server→client key pairs."""
    def block(label: bytes) -> bytes:
        return provider.hmac(
            "sha256", premaster, label + client_nonce + server_nonce,
        )

    c2s = SessionKeys(enc_key=block(b"c2s-enc")[:16],
                      mac_key=block(b"c2s-mac"))
    s2c = SessionKeys(enc_key=block(b"s2c-enc")[:16],
                      mac_key=block(b"s2c-mac"))
    return c2s, s2c


def _chain_to_xml(chain: list[Certificate]) -> bytes:
    holder = element("chain", None)
    for certificate in chain:
        holder.append(certificate.to_element())
    return serialize_bytes(holder)


def _chain_from_xml(payload: bytes) -> list[Certificate]:
    # Handshake payloads arrive before any authentication, so the
    # certificate chain XML is parsed under default resource quotas.
    holder = parse_element(payload, guard=ResourceGuard.default())
    return [
        Certificate.from_element(child)
        for child in holder.child_elements()
        if child.local == "Certificate"
    ]


class SecureServer:
    """The server side of the handshake (a content server's identity)."""

    def __init__(self, identity: SigningIdentity,
                 provider: CryptoProvider | None = None,
                 rng: RandomSource | None = None):
        self.identity = identity
        self.provider = provider or get_provider()
        self.rng = rng or default_random()


class SecureClient:
    """The player side: validates the server chain before keying."""

    def __init__(self, trust_store: TrustStore,
                 provider: CryptoProvider | None = None,
                 rng: RandomSource | None = None,
                 now: float = 0.0):
        self.trust_store = trust_store
        self.provider = provider or get_provider()
        self.rng = rng or default_random()
        self.now = now


def _handshake(client: SecureClient, server: SecureServer):
    """The five-flight handshake as one sans-I/O generator.

    Yields ``(to_server, message)`` for each outgoing flight and must
    be sent the bytes the wire delivered at the far end; returns
    ``(client_session, server_session)``.  It does no I/O and reads no
    clock, so :func:`establish` (blocking :meth:`Channel.transfer`)
    and :func:`establish_async` (deadline-bounded async flights) run
    the same transcript and the same tamper checks.
    """
    provider = client.provider
    transcript_client: list[bytes] = []
    transcript_server: list[bytes] = []

    # 1. ClientHello --------------------------------------------------------------
    client_nonce = client.rng.read(_NONCE)
    m1 = _frame(MSG_CLIENT_HELLO, client_nonce)
    transcript_client.append(m1)
    m1_wire = yield True, m1
    transcript_server.append(m1_wire)
    server_view_client_nonce = _unframe(m1_wire, MSG_CLIENT_HELLO)

    # 2. ServerHello with certificate chain ----------------------------------------
    server_nonce = server.rng.read(_NONCE)
    chain_xml = _chain_to_xml(server.identity.chain)
    m2 = _frame(MSG_SERVER_HELLO,
                server_nonce + struct.pack(">I", len(chain_xml)) + chain_xml)
    transcript_server.append(m2)
    m2_wire = yield False, m2
    transcript_client.append(m2_wire)
    payload = _unframe(m2_wire, MSG_SERVER_HELLO)
    if len(payload) < _NONCE + 4:
        raise ChannelSecurityError("ServerHello too short")
    client_view_server_nonce = payload[:_NONCE]
    (chain_len,) = struct.unpack_from(">I", payload, _NONCE)
    if chain_len != len(payload) - _NONCE - 4:
        raise ChannelSecurityError("ServerHello chain length mismatch")
    try:
        chain = _chain_from_xml(payload[_NONCE + 4:])
    except Exception as exc:
        raise ChannelSecurityError(
            f"server certificate chain unreadable: {exc}"
        ) from exc

    # 3. Chain validation (player refuses untrusted servers) -------------------------
    validation = client.trust_store.validate_chain(chain, now=client.now)
    if not validation.valid:
        raise ChannelSecurityError(
            f"server certificate rejected: {validation.reason}"
        )
    server_certificate = chain[0]

    # 4. Key exchange ---------------------------------------------------------------
    premaster = client.rng.read(_PREMASTER)
    encrypted = provider.rsa_encrypt(server_certificate.public_key,
                                     premaster, client.rng)
    m3 = _frame(MSG_KEY_EXCHANGE, encrypted)
    transcript_client.append(m3)
    m3_wire = yield True, m3
    transcript_server.append(m3_wire)
    # Implicit rejection: a premaster with bad padding decrypts to a
    # synthetic one, so the server derives keys the client does not
    # hold and the tampering shows only as the Finished failure below
    # (RFC 5246 §7.4.7.1).  Only the framing and the public checks
    # (length, value below n) fail here.  The premaster's length is
    # not checked either: that check would be an oracle of its own.
    try:
        server_premaster = server.provider.rsa_decrypt(
            server.identity.key, _unframe(m3_wire, MSG_KEY_EXCHANGE),
        )
    except Exception as exc:
        raise ChannelSecurityError(
            f"key exchange failed: {exc}"
        ) from exc

    # 5. Key derivation (both sides, from their own view) ------------------------------
    client_c2s, client_s2c = _kdf(provider, premaster, client_nonce,
                                  client_view_server_nonce)
    server_c2s, server_s2c = _kdf(provider, server_premaster,
                                  server_view_client_nonce, server_nonce)

    client_session = SecureSession(client_c2s, client_s2c, provider,
                                   client.rng,
                                   peer_certificate=server_certificate)
    server_session = SecureSession(server_s2c, server_c2s,
                                   server.provider, server.rng)

    # 6. Finished exchange: MAC the transcript both ways --------------------------------
    client_fin = provider.hmac(
        "sha256", premaster, b"finished:" + b"".join(transcript_client),
    )
    fin_wire = yield True, client_session.seal(client_fin)
    server_expected = server.provider.hmac(
        "sha256", server_premaster,
        b"finished:" + b"".join(transcript_server),
    )
    if not constant_time_equal(server_session.open(fin_wire),
                               server_expected):
        raise ChannelSecurityError(
            "handshake transcript mismatch: tampering detected"
        )
    server_fin = server.provider.hmac(
        "sha256", server_premaster,
        b"server-finished:" + b"".join(transcript_server),
    )
    fin2_wire = yield False, server_session.seal(server_fin)
    client_expected = provider.hmac(
        "sha256", premaster, b"server-finished:" + b"".join(transcript_client),
    )
    if not constant_time_equal(client_session.open(fin2_wire),
                               client_expected):
        raise ChannelSecurityError(
            "handshake transcript mismatch: tampering detected"
        )
    return client_session, server_session


def establish(client: SecureClient, server: SecureServer,
              channel: Channel, *,
              retry_policy=None) -> tuple[SecureSession, SecureSession]:
    """Run the handshake over *channel*.

    Returns ``(client_session, server_session)``.

    With a *retry_policy* (:class:`repro.resilience.RetryPolicy`), a
    handshake torn down by a transient fault — dropped flight,
    truncated record, tampering detected in the Finished exchange — is
    restarted from ClientHello under the policy's backoff/deadline
    budget.  Nonces and keys are fresh on every attempt.

    Raises:
        ChannelSecurityError: when certificate validation fails or the
            transcript was tampered with in transit.
    """
    def once():
        flights = _handshake(client, server)
        try:
            _, message = next(flights)
            while True:
                _, message = flights.send(channel.transfer(message))
        except StopIteration as done:
            return done.value

    if retry_policy is not None:
        return retry_policy.execute(once, describe="secure handshake")
    return once()


def secure_transfer(client: SecureClient, server: SecureServer,
                    channel: Channel, payload: bytes) -> bytes:
    """Handshake + one protected round trip; returns what the server got."""
    client_session, server_session = establish(client, server, channel)
    wire = channel.transfer(client_session.seal(payload))
    return server_session.open(wire)


# -- async handshake ------------------------------------------------------------


async def _flight(sender, receiver, message: bytes, at: float, clock):
    """One handshake flight over an async channel, with a deadline.

    The async pipe swallows dropped messages instead of raising at the
    sender, so a lockstep handshake needs its own clock: a flight whose
    answer never arrives surfaces as a typed
    :class:`~repro.errors.TimeoutError` (retryable) rather than a hang.
    The receive is cancelled on every exit (timeout, error or a
    cancelled caller), so an abandoned flight never takes the
    channel's next message.
    """
    await sender.send(message)
    arrival = asyncio.ensure_future(receiver.recv())
    try:
        return await clock.wait_until(arrival, at)
    finally:
        arrival.cancel()


async def establish_async(client: SecureClient, server: SecureServer,
                          channel, *, timeout_s: float = 30.0,
                          retry_policy=None):
    """:func:`establish` over an :class:`~repro.network.channel.AsyncChannel`.

    Same five-flight transcript and the same
    :class:`ChannelSecurityError` tamper guarantees; each flight is
    bounded by *timeout_s* on the channel's virtual clock so injected
    drops degrade into typed timeouts.  With a *retry_policy*, torn
    handshakes restart from ClientHello (fresh nonces every attempt)
    under the policy's backoff/deadline budget.
    """
    async def once():
        clock = channel.clock
        deadline_at = clock.now() + timeout_s
        flights = _handshake(client, server)
        try:
            to_server, message = next(flights)
            while True:
                sender, receiver = (
                    (channel.client, channel.server) if to_server
                    else (channel.server, channel.client))
                to_server, message = flights.send(await _flight(
                    sender, receiver, message, deadline_at, clock))
        except StopIteration as done:
            return done.value

    if retry_policy is not None:
        return await retry_policy.execute_async(
            once, describe="secure handshake")
    return await once()
