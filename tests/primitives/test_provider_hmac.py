"""HMAC-SHA-256 through the crypto provider, bit-identically under each.

The X-KRSS authentication proof (``xkms.server.authentication_proof``)
and the keyed journal and snapshot checksums of
``resilience.durable`` take their MAC from the provider.  The proofs
and the journal and snapshot bytes are pinned from the pure-Python
HMAC these callers used before, and a journal written then recovers.
"""

import hashlib

import pytest

from repro.errors import DurableStateError
from repro.primitives.hmac import hmac_sha256
from repro.primitives.provider import (
    available_providers, get_provider, set_default_provider,
)
from repro.resilience.crashfs import CrashableFilesystem
from repro.resilience.durable import DurableStore
from repro.xkms import authentication_proof

#: RFC 4231 test cases 1-7: key, data, HMAC-SHA-256 (case 5 truncated
#: to 128 bits, as the RFC gives it).
RFC4231 = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    (b"\x0c" * 20, b"Test With Truncation",
     "a3b6167473100ee06e0c796c2955552b"),
    (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    (b"\xaa" * 131,
     b"This is a test using a larger than block-size key and a larger "
     b"than block-size data. The key needs to be hashed before being "
     b"used by the HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
]

PROOF_SECRETS = (b"secret", b"\xaa" * 131)
PROOF_NAMES = ("studio-key-1", "", "ключ", "x" * 300)
#: SHA-256 of the proofs for every secret and name above.
PROOFS_SHA256 = (
    "e8ea9da804a85574d719d2db744bebce2ea2856a3b9aa7299df8d32485e945f9"
)

JOURNAL_KEY = b"journal-integrity-key"
DIR = "/flash/state"
#: The journal and snapshot :func:`write_store` leaves, as written
#: with the pure-Python HMAC.
JOURNAL_HEX = (
    "524a4e4c310a4300000001030000000000000053040000006b657973010000006b"
    "28000000000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c"
    "1d1e1f20212223242526272e5769d98349c5e9bcd6e17146c5fd163249b38dd056"
    "a31a81440a26a63d119d1c0000000104000000000000004405000000736c6f7473"
    "010000006100000000b05b365d7849c0cbb416d7d1b0471bd5e256337425164bd1"
    "4930c1a7c072b3a00900000002050000000000000032d947be231346bbfb0b5e09"
    "e449540b5a9ed57bcb0d70e075326d7b11242c94"
)
SNAPSHOT_HEX = (
    "52534e50310a02000000000000000200000005000000736c6f7473010000006101"
    "0000003105000000736c6f747301000000620300000074776fced4d70f5f7580db"
    "7c50e4e845833586f6ac1ef6538e02be5d0cae0c28aae1d0"
)


@pytest.fixture(params=["pure", "accelerated"])
def provider(request):
    if request.param not in available_providers():
        pytest.skip(f"{request.param} provider not installed")
    previous = set_default_provider(request.param)
    try:
        yield get_provider()
    finally:
        set_default_provider(previous)


@pytest.mark.parametrize("key,data,expected", RFC4231)
def test_rfc4231_vectors(provider, key, data, expected):
    assert provider.hmac("sha256", key, data).hex().startswith(expected)
    context = provider.hmac_context("sha256", key)
    context.update(data[:7])
    context.update(data[7:])
    assert context.digest().hex().startswith(expected)
    assert hmac_sha256(key, data).hex().startswith(expected)


def test_authentication_proofs_are_pinned(provider):
    proofs = [authentication_proof(secret, name)
              for secret in PROOF_SECRETS for name in PROOF_NAMES]
    assert hashlib.sha256("\x00".join(proofs).encode()).hexdigest() == \
        PROOFS_SHA256


def test_proofs_and_journal_mac_through_the_provider(provider,
                                                     monkeypatch):
    calls = []
    mac = type(provider).hmac

    def counting(self, algorithm, key, data):
        calls.append(key)
        return mac(self, algorithm, key, data)

    monkeypatch.setattr(type(provider), "hmac", counting)
    authentication_proof(b"secret", "name")
    assert calls == [b"secret"]
    write_store(CrashableFilesystem(seed=0))
    assert calls[1:] and set(calls[1:]) == {JOURNAL_KEY}


def write_store(fs) -> None:
    store = DurableStore(DIR, fs=fs, integrity_key=JOURNAL_KEY)
    store.set("slots", "a", b"1")
    store.set("slots", "b", b"two")
    store.commit()
    store.compact()
    store.set("keys", "k", bytes(range(40)))
    store.delete("slots", "a")
    store.commit()


def test_keyed_journal_and_snapshot_bytes_are_pinned(provider):
    fs = CrashableFilesystem(seed=0)
    write_store(fs)
    assert fs.read(f"{DIR}/journal.rjl").hex() == JOURNAL_HEX
    assert fs.read(f"{DIR}/snapshot.rsn").hex() == SNAPSHOT_HEX


def test_journal_written_with_the_pure_hmac_recovers(provider):
    fs = CrashableFilesystem(seed=0)
    fs.makedirs(DIR)
    fs.write(f"{DIR}/journal.rjl", bytes.fromhex(JOURNAL_HEX))
    fs.write(f"{DIR}/snapshot.rsn", bytes.fromhex(SNAPSHOT_HEX))
    fs.fsync(f"{DIR}/journal.rjl")
    fs.fsync(f"{DIR}/snapshot.rsn")
    store = DurableStore(DIR, fs=fs, integrity_key=JOURNAL_KEY)
    assert store.recovery.clean
    assert store.get("slots", "a") is None
    assert store.get("slots", "b") == b"two"
    assert store.get("keys", "k") == bytes(range(40))
    with pytest.raises(DurableStateError):
        DurableStore(DIR, fs=fs, integrity_key=b"another key")
