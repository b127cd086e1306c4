"""Local storage on the journaled backend, and torn or tampered
encrypted slots surfacing as typed storage errors."""

import pytest

from repro.errors import LocalStorageError
from repro.player.localstorage import LocalStorage
from repro.primitives.keys import SymmetricKey
from repro.resilience.crashfs import CrashableFilesystem
from repro.resilience.degradation import REASON_RECOVERY, DegradationLog

DIR = "/flash/ls"
KEY = SymmetricKey(b"storage-key-16b!")


# -- the journaled backend ---------------------------------------------------


def test_writes_survive_reopen():
    fs = CrashableFilesystem(seed=0)
    storage = LocalStorage.open_durable(DIR, fs=fs)
    storage.write("game", "hs", b"120")
    storage.write("menu", "lang", b"en")
    reopened = LocalStorage.open_durable(DIR, fs=fs)
    assert reopened.read("game", "hs") == b"120"
    assert reopened.read("menu", "lang") == b"en"


def test_delete_and_wipe_survive_reopen():
    fs = CrashableFilesystem(seed=0)
    storage = LocalStorage.open_durable(DIR, fs=fs)
    storage.write("game", "hs", b"120")
    storage.write("game", "other", b"x")
    storage.write("menu", "lang", b"en")
    storage.delete("game", "hs")
    storage.wipe("menu")
    reopened = LocalStorage.open_durable(DIR, fs=fs)
    assert reopened.keys("game") == ["other"]
    assert reopened.keys("menu") == []


def test_delete_of_absent_key_does_not_journal():
    fs = CrashableFilesystem(seed=0)
    storage = LocalStorage.open_durable(DIR, fs=fs)
    ops_before = fs.op_count
    assert storage.delete("game", "never-written") is False
    assert fs.op_count == ops_before


def test_unacknowledged_write_vanishes_on_crash():
    fs = CrashableFilesystem(seed=0)
    storage = LocalStorage.open_durable(DIR, fs=fs)
    storage.write("game", "hs", b"120")
    fs.crash_at = fs.op_count            # kill the next operation
    with pytest.raises(Exception):
        storage.write("game", "hs", b"999")
    fs.crash()
    log = DegradationLog()
    reopened = LocalStorage.open_durable(DIR, fs=fs, degradation=log)
    assert reopened.read("game", "hs") == b"120"


def test_recovery_repair_is_reported_on_the_degradation_log():
    fs = CrashableFilesystem(seed=0)
    storage = LocalStorage.open_durable(DIR, fs=fs)
    storage.write("game", "hs", b"120")
    path = storage.durable.directory + "/journal.rjl"
    fs.append(path, b"\x30\x00\x00\x00torn-tail")
    fs.fsync(path)
    log = DegradationLog()
    LocalStorage.open_durable(DIR, fs=fs, degradation=log)
    assert any(e.reason == REASON_RECOVERY for e in log.events)


def test_quota_enforced_on_durable_reopen():
    fs = CrashableFilesystem(seed=0)
    storage = LocalStorage.open_durable(DIR, 4096, fs=fs)
    storage.write("game", "blob", b"A" * 3000)
    with pytest.raises(LocalStorageError):
        LocalStorage.open_durable(DIR, 1024, fs=fs)


def test_compact_requires_the_journaled_backend():
    with pytest.raises(LocalStorageError):
        LocalStorage().compact()


def test_compact_then_write_then_reopen():
    fs = CrashableFilesystem(seed=0)
    storage = LocalStorage.open_durable(DIR, fs=fs)
    storage.write("game", "hs", b"120")
    storage.compact()
    storage.write("game", "post", b"alive")
    reopened = LocalStorage.open_durable(DIR, fs=fs)
    assert reopened.read("game", "hs") == b"120"
    assert reopened.read("game", "post") == b"alive"


def test_encrypted_slots_roundtrip_through_the_journal():
    fs = CrashableFilesystem(seed=0)
    storage = LocalStorage.open_durable(DIR, fs=fs)
    storage.write_encrypted("game", "secret", b"top-score", KEY)
    reopened = LocalStorage.open_durable(DIR, fs=fs)
    assert reopened.read_encrypted("game", "secret", KEY) == b"top-score"


# -- torn / tampered encrypted slots -----------------------------------------


def test_torn_enc1_blob_is_a_typed_storage_error():
    storage = LocalStorage()
    storage.write_encrypted("game", "secret", b"top-score", KEY)
    blob = storage.read("game", "secret")
    storage.write("game", "secret", blob[:len(blob) - 7])   # torn tail
    with pytest.raises(LocalStorageError) as excinfo:
        storage.read_encrypted("game", "secret", KEY)
    assert "decrypt" in str(excinfo.value)


def test_wrong_key_is_a_typed_storage_error():
    storage = LocalStorage()
    storage.write_encrypted("game", "secret", b"top-score", KEY)
    with pytest.raises(LocalStorageError):
        storage.read_encrypted("game", "secret",
                               SymmetricKey(b"wrong-key-16byte"))


def test_plain_slot_read_as_encrypted_is_typed():
    storage = LocalStorage()
    storage.write("game", "plain", b"not encrypted")
    with pytest.raises(LocalStorageError):
        storage.read_encrypted("game", "plain", KEY)
