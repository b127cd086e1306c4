"""Implicit-rejection RSAES-PKCS1-v1_5 decryption, on both providers.

``CryptoProvider.rsa_decrypt`` never answers bad padding with an error:
past the public checks it returns the synthetic message that OpenSSL
3.2 and later derive from ``d`` and the ciphertext.  The pure provider
reproduces that derivation, the accelerated one calls OpenSSL, and the
two must agree byte for byte on every ciphertext: valid blocks, each
padding defect and random values below n.  The known answers below
were recorded from OpenSSL 4.0.0 (``cryptography`` 48), so the pure
derivation is checked even where ``cryptography`` is not installed.
"""

import hashlib

import pytest

from repro.errors import DecryptionError
from repro.primitives import rsa
from repro.primitives.encoding import bytes_to_int, int_to_bytes
from repro.primitives.keys import RSAPrivateKey
from repro.primitives.provider import (
    PurePythonProvider, available_providers, get_provider,
)
from repro.primitives.random import DeterministicRandomSource

E = 65537


def key_from_primes(p: int, q: int) -> RSAPrivateKey:
    """The private key ``generate_keypair`` would build from p and q."""
    return RSAPrivateKey(n=p * q, e=E, d=pow(E, -1, (p - 1) * (q - 1)),
                         p=max(p, q), q=min(p, q))


#: ``rsa.generate_keypair(2048, DeterministicRandomSource(
#: b"implicit-rejection-2048"))``, pinned because 2048-bit generation
#: in pure Python takes seconds.
KEY_2048 = key_from_primes(
    int("ebb42820b7c8d50530f67ca8a355c5dc2a0a0c58c1bd72f49a9d0ef9d1e3c642"
        "3568313828a6668a03fd9167295f71167d7fc651c11d0a1bb6a00304206c83d5a0"
        "04e624b7ade2fb24bfe4df1df3f0b33821529f5ad535f96e6c9cc25d1eb9d06f66"
        "4f8d1b96ec0795cfbc8b11354df61b0e79a60a8a13b99f31a29b8300b303", 16),
    int("e9c8ee94dedce4993484a3f93bfb86cec582a0f401b2c3e9fe58be33fb16596c"
        "99786ef4ccd28e6c37eb25ac48bbc32d796e4ad8f7d4197def84f38a876e739e40"
        "a13302d49713cee94b742b7f3af866be2b0cb8da328b6443facb281f4f87606175"
        "3f7f02cb4051972058695f328d846990fb977bdad23fe4b844e60462d691", 16),
)
KEYS = {
    1024: rsa.generate_keypair(
        1024, DeterministicRandomSource(b"implicit-rejection-1024")),
    2048: KEY_2048,
}

#: Seeded ciphertexts per key size and their make-up.
VALID, EDGE_EACH, RANDOM = 40, 8, 120


def nonzero(rng, n: int) -> bytes:
    out = bytearray()
    while len(out) < n:
        out += rng.read(n - len(out)).replace(b"\x00", b"")
    return bytes(out)


def block(rng, k: int, kind: str) -> bytes:
    """An EME-PKCS1-v1_5 block of *k* octets with the named defect."""
    message = rng.read(rng.randint_below(k - 10))
    if kind == "first-octet-not-zero":
        return (bytes([1 + rng.randint_below(0x7F)]) + b"\x02"
                + nonzero(rng, k - 3 - len(message)) + b"\x00" + message)
    if kind == "block-type-not-two":
        block_type = rng.randint_below(255)
        block_type += block_type >= 2
        return (b"\x00" + bytes([block_type])
                + nonzero(rng, k - 3 - len(message)) + b"\x00" + message)
    if kind == "no-separator":
        return b"\x00\x02" + nonzero(rng, k - 2)
    if kind == "separator-before-octet-10":
        at = 2 + rng.randint_below(8)
        return (b"\x00\x02" + nonzero(rng, at - 2) + b"\x00"
                + rng.read(k - at - 1))
    if kind == "empty-message":
        # Valid: mLen = 0.  The parse must not take the separator in
        # the last octet for a missing one.
        return b"\x00\x02" + nonzero(rng, k - 3) + b"\x00"
    raise AssertionError(kind)


DEFECTS = ("first-octet-not-zero", "block-type-not-two", "no-separator",
           "separator-before-octet-10")


def raw_encrypt(key, em: bytes) -> bytes:
    """Textbook RSA on a prepared block, so any padding can be sent."""
    return int_to_bytes(pow(bytes_to_int(em), key.e, key.n),
                        key.byte_length)


def make_cases(bits: int) -> list[tuple[str, bytes, bytes | None]]:
    """``(kind, ciphertext, message or None)``; None when the block is
    malformed or (for random values) not known in advance."""
    key = KEYS[bits]
    k = key.byte_length
    rng = DeterministicRandomSource(f"implicit-rejection-cases-{bits}")
    cases = []
    for index in range(VALID):
        length = k - 11 if index == 0 else rng.randint_below(k - 10)
        message = rng.read(length)
        cases.append(("valid", rsa.encrypt(key.public_key(), message, rng),
                      message))
    for kind in DEFECTS + ("empty-message",):
        for _ in range(EDGE_EACH):
            expected = b"" if kind == "empty-message" else None
            cases.append((kind, raw_encrypt(key, block(rng, k, kind)),
                          expected))
    for _ in range(RANDOM):
        value = rng.randint_below(key.n)
        cases.append(("random", int_to_bytes(value, k), None))
    return cases


@pytest.fixture(scope="module", params=sorted(KEYS))
def decrypted(request):
    """The seeded cases of one key size with the pure provider's
    answers, computed once."""
    bits = request.param
    key = KEYS[bits]
    pure = PurePythonProvider()
    return bits, key, [(kind, ciphertext, message,
                        pure.rsa_decrypt(key, ciphertext))
                       for kind, ciphertext, message in make_cases(bits)]


def test_cases_cover_every_defect(decrypted):
    _, _, cases = decrypted
    kinds = [kind for kind, _, _, _ in cases]
    assert len(cases) >= 200
    for kind in ("valid", "random", "empty-message") + DEFECTS:
        assert kind in kinds


def test_pure_provider_rejects_implicitly(decrypted):
    _, key, cases = decrypted
    for kind, ciphertext, message, answer in cases:
        if message is not None:
            assert answer == message, kind
        elif kind in DEFECTS:
            with pytest.raises(DecryptionError,
                               match="invalid RSA encryption block"):
                rsa.decrypt(key, ciphertext)
            assert answer == rsa.synthetic_message(key, ciphertext), kind


def test_pure_matches_accelerated(decrypted):
    if "accelerated" not in available_providers():
        pytest.skip("the accelerated provider needs `cryptography`")
    _, key, cases = decrypted
    accelerated = get_provider("accelerated")
    mismatches = [
        (kind, index) for index, (kind, ciphertext, _, answer)
        in enumerate(cases)
        if accelerated.rsa_decrypt(key, ciphertext) != answer
    ]
    assert mismatches == []


#: ``(bits, seed, SHA-256 of the message OpenSSL returns)`` for random
#: ciphertexts below n, i.e. synthetic messages.
KNOWN_ANSWERS = [
    (1024, "kat-0",
     "ce5df5d0c67bbd3e10a589b3e33b55f7d351fbe470857f323b9e35feec66499d"),
    (1024, "kat-1",
     "650683cd9d34f29363e708c3cb8892e8feec85025c37618b76de9b636e3c4620"),
    (2048, "kat-0",
     "66639495a0b1f9b2275b5bad359b729bf1c47be6b5b7320526e359cd3655cfc8"),
    (2048, "kat-1",
     "18e42e2e90bf26531b252252ce8fe31107bf6cb1521fbd34852d8127af228394"),
]


def known_answer_ciphertext(bits: int, seed: str) -> bytes:
    key = KEYS[bits]
    value = DeterministicRandomSource(seed).randint_below(key.n)
    return int_to_bytes(value, key.byte_length)


@pytest.mark.parametrize("bits,seed,expected", KNOWN_ANSWERS)
def test_synthetic_message_known_answers(bits, seed, expected):
    key = KEYS[bits]
    ciphertext = known_answer_ciphertext(bits, seed)
    with pytest.raises(DecryptionError):
        rsa.decrypt(key, ciphertext)
    answer = PurePythonProvider().rsa_decrypt(key, ciphertext)
    assert hashlib.sha256(answer).hexdigest() == expected


@pytest.mark.parametrize("name", sorted(
    set(available_providers()) & {"pure", "accelerated"}))
def test_public_checks_keep_explicit_errors(name):
    provider = get_provider(name)
    key = KEYS[1024]
    with pytest.raises(DecryptionError, match="wrong length"):
        provider.rsa_decrypt(key, b"\x01" * (key.byte_length - 1))
    with pytest.raises(DecryptionError, match="out of range"):
        provider.rsa_decrypt(key, int_to_bytes(key.n, key.byte_length))


def test_accelerated_without_crt_parts_falls_back_to_pure():
    if "accelerated" not in available_providers():
        pytest.skip("the accelerated provider needs `cryptography`")
    key = KEYS[1024]
    no_crt = RSAPrivateKey(n=key.n, e=key.e, d=key.d)
    ciphertext = known_answer_ciphertext(1024, "kat-0")
    assert (get_provider("accelerated").rsa_decrypt(no_crt, ciphertext)
            == rsa.decrypt_implicit(key, ciphertext))


def test_explicit_rejection_on_older_openssl_is_made_implicit():
    """An OpenSSL before 3.2 raises on bad padding; the accelerated
    provider must still answer with the synthetic message."""
    if "accelerated" not in available_providers():
        pytest.skip("the accelerated provider needs `cryptography`")

    class ExplicitRejection:
        def decrypt(self, ciphertext, padding):
            raise ValueError("Decryption failed")

    key = KEYS[1024]
    provider = type(get_provider("accelerated"))()
    provider._private_keys[key] = ExplicitRejection()
    ciphertext = known_answer_ciphertext(1024, "kat-1")
    assert (provider.rsa_decrypt(key, ciphertext)
            == rsa.synthetic_message(key, ciphertext))
