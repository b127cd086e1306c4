"""Player local storage: namespaces, quotas, encrypted slots."""

import pytest

from repro.errors import LocalStorageError
from repro.player import LocalStorage
from repro.primitives.keys import SymmetricKey


@pytest.fixture
def storage():
    return LocalStorage(quota_bytes=200)


def test_write_read_delete(storage):
    storage.write("app", "slot", b"value")
    assert storage.read("app", "slot") == b"value"
    assert storage.keys("app") == ["slot"]
    assert storage.delete("app", "slot")
    assert not storage.delete("app", "slot")
    with pytest.raises(LocalStorageError):
        storage.read("app", "slot")


def test_namespacing(storage):
    storage.write("game-a", "score", b"100")
    storage.write("game-b", "score", b"999")
    assert storage.read("game-a", "score") == b"100"
    assert storage.read("game-b", "score") == b"999"
    storage.wipe("game-a")
    with pytest.raises(LocalStorageError):
        storage.read("game-a", "score")
    assert storage.read("game-b", "score") == b"999"


def test_quota_enforced(storage):
    storage.write("app", "a", b"x" * 100)
    with pytest.raises(LocalStorageError, match="quota"):
        storage.write("app", "b", b"x" * 150)
    # Overwriting the same key releases its old bytes first.
    storage.write("app", "a", b"y" * 150)
    assert storage.read("app", "a") == b"y" * 150


def test_quota_is_per_app(storage):
    storage.write("app-1", "a", b"x" * 150)
    storage.write("app-2", "a", b"x" * 150)  # separate budget


def test_used_bytes_accounting(storage):
    assert storage.used_bytes("app") == 0
    storage.write("app", "key", b"12345")
    assert storage.used_bytes("app") == len("key") + 5


def test_encrypted_slots(rng):
    storage = LocalStorage()
    key = SymmetricKey(rng.read(16))
    storage.write_encrypted("game", "highscore", b"120", key)
    assert storage.is_encrypted("game", "highscore")
    # Raw read shows ciphertext, not the value.
    assert b"120" not in storage.read("game", "highscore")
    assert storage.read_encrypted("game", "highscore", key) == b"120"


def test_encrypted_slot_wrong_key(rng):
    # ENC2 slots are encrypt-then-MAC: a wrong key fails the tag check
    # *deterministically* (an untagged slot would only catch it when
    # garbage happened not to unpad), and the failure is the storage
    # layer's typed error, not a raw crypto traceback.
    from repro.errors import LocalStorageError
    storage = LocalStorage()
    key = SymmetricKey(rng.read(16))
    wrong = SymmetricKey(rng.read(16))
    storage.write_encrypted("game", "hs", b"120", key)
    with pytest.raises(LocalStorageError, match="failed to decrypt"):
        storage.read_encrypted("game", "hs", wrong)


def test_untagged_enc1_blob_is_refused_before_decryption(rng):
    # An untagged CBC blob would decrypt with padding failure as its
    # only tamper signal: a padding oracle on the storage key that
    # bypasses encrypt-then-MAC.  Such blobs are not encrypted slots,
    # whatever their bytes.
    from repro.xmlenc import algorithms as xenc_algorithms
    storage = LocalStorage()
    key = SymmetricKey(rng.read(16))
    fresh = xenc_algorithms.encrypt_block_data(
        xenc_algorithms.AES128_CBC, key, b"old-score",
        storage.provider, storage.rng)
    storage.write_encrypted("game", "hs", b"120", key)
    stripped = storage.read("game", "hs")[36:]   # a genuine ENC2 body
    flipped = [stripped[:-17] + bytes([value]) + stripped[-16:]
               for value in range(256)]
    for ciphertext in [fresh, stripped] + flipped:
        storage.write("game", "legacy", b"ENC1" + ciphertext)
        assert not storage.is_encrypted("game", "legacy")
        with pytest.raises(LocalStorageError,
                           match="'legacy' is not an encrypted slot"):
            storage.read_encrypted("game", "legacy", key)


def test_read_encrypted_on_plain_slot(rng):
    storage = LocalStorage()
    storage.write("game", "plain", b"visible")
    with pytest.raises(LocalStorageError, match="not an encrypted"):
        storage.read_encrypted("game", "plain",
                               SymmetricKey(rng.read(16)))
    assert not storage.is_encrypted("game", "plain")
