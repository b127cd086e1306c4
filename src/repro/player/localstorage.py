"""Player local storage with per-application namespaces and quotas.

The threat model's example: "a malicious application loaded from an
external server that could corrupt the local storage of the player"
(§1).  Storage is namespaced per application and quota-limited; the
engine additionally gates access behind the ``local-storage``
permission grant.  Values can be stored encrypted — the paper's game
high-scores scenario (§4): "a Player can encrypt and store the high
scores of a game in local storage while keeping the general
application markup unencrypted."

Storage lives in memory unless :meth:`LocalStorage.open_durable`
attaches a :class:`~repro.resilience.durable.DurableStore`: every
mutation is then committed to the checksummed write-ahead journal
before it is acknowledged, and reopening after a crash recovers exactly
the acknowledged slots.  Encrypted slots have one format, ``ENC2``
(encrypt-then-MAC); any other blob is refused as not an encrypted slot
before a byte of it is decrypted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DecryptionError, LocalStorageError, PaddingError
from repro.primitives.hmac import constant_time_equal
from repro.primitives.keys import SymmetricKey
from repro.primitives.provider import CryptoProvider, get_provider
from repro.primitives.random import RandomSource, default_random
from repro.resilience.crashfs import Filesystem
from repro.resilience.degradation import DegradationLog
from repro.resilience.durable import DurableStore
from repro.xmlenc import algorithms as xenc_algorithms


@dataclass
class LocalStorage:
    """Quota-limited key/value storage, namespaced by application id."""

    quota_bytes: int = 1 << 20
    _data: dict[str, dict[str, bytes]] = field(default_factory=dict)
    provider: CryptoProvider | None = None
    rng: RandomSource | None = None
    #: journaled backend; ``None`` means in-memory only.
    _durable: DurableStore | None = field(default=None, repr=False)

    def __post_init__(self):
        self.provider = self.provider or get_provider()
        self.rng = self.rng or default_random()

    # -- plain storage ---------------------------------------------------------------

    def used_bytes(self, app_id: str) -> int:
        space = self._data.get(app_id, {})
        return sum(len(k.encode()) + len(v) for k, v in space.items())

    def write(self, app_id: str, key: str, value: bytes) -> None:
        space = self._data.setdefault(app_id, {})
        projected = (self.used_bytes(app_id)
                     - len(space.get(key, b""))
                     + len(key.encode()) + len(value))
        if projected > self.quota_bytes:
            raise LocalStorageError(
                f"quota exceeded for {app_id!r}: {projected} > "
                f"{self.quota_bytes} bytes"
            )
        if self._durable is not None:
            # Journal first: the commit's fsync is the acknowledgement,
            # and the in-memory view only changes once it returns.
            self._durable.set(app_id, key, bytes(value))
            self._durable.commit()
        space[key] = bytes(value)

    def read(self, app_id: str, key: str) -> bytes:
        space = self._data.get(app_id, {})
        try:
            return space[key]
        except KeyError:
            raise LocalStorageError(
                f"{app_id!r} has no stored value {key!r}"
            ) from None

    def delete(self, app_id: str, key: str) -> bool:
        space = self._data.get(app_id, {})
        if key not in space:
            return False
        if self._durable is not None:
            self._durable.delete(app_id, key)
            self._durable.commit()
        del space[key]
        return True

    def keys(self, app_id: str) -> list[str]:
        return sorted(self._data.get(app_id, {}))

    def wipe(self, app_id: str) -> None:
        if self._durable is not None and app_id in self._data:
            self._durable.wipe(app_id)
            self._durable.commit()
        self._data.pop(app_id, None)

    # -- journaled backend (crash-safe, acknowledged commits) ----------------------------

    @classmethod
    def open_durable(cls, directory: str, quota_bytes: int = 1 << 20, *,
                     fs: Filesystem | None = None,
                     integrity_key: bytes | None = None,
                     provider: CryptoProvider | None = None,
                     rng: RandomSource | None = None,
                     degradation: DegradationLog | None = None,
                     ) -> "LocalStorage":
        """Open storage backed by a crash-safe
        :class:`~repro.resilience.durable.DurableStore`.

        Recovery runs here: torn journal tails are truncated back to
        the last acknowledged commit (reported on *degradation* under
        the ``recovery`` code), interior tampering raises a typed
        :class:`~repro.errors.DurableStateError`.  Every subsequent
        :meth:`write`/:meth:`delete`/:meth:`wipe` is journaled and
        fsynced before it returns.

        Raises:
            DurableStateError: when acknowledged journal history or
                the snapshot fails its integrity checks.
            LocalStorageError: when a recovered application exceeds
                *quota_bytes*.
        """
        store = DurableStore(
            directory, fs=fs, integrity_key=integrity_key,
            provider=provider, degradation=degradation,
        )
        storage = cls(quota_bytes=quota_bytes, provider=provider,
                      rng=rng)
        for app_id in store.namespaces():
            space = dict(store.items(app_id))
            used = sum(len(k.encode()) + len(v)
                       for k, v in space.items())
            if used > quota_bytes:
                raise LocalStorageError(
                    f"recovered data for {app_id!r} exceeds the "
                    f"{quota_bytes}-byte quota"
                )
            storage._data[app_id] = space
        storage._durable = store
        return storage

    @property
    def durable(self) -> DurableStore | None:
        """The attached journaled backend, if any."""
        return self._durable

    def compact(self) -> int:
        """Fold the journal into a snapshot (journaled backend only)."""
        if self._durable is None:
            raise LocalStorageError(
                "compact() requires the journaled backend; open the "
                "storage with open_durable()"
            )
        return self._durable.compact()

    # -- encrypted storage (the high-scores scenario) ------------------------------------

    def _slot_mac(self, storage_key: SymmetricKey,
                  ciphertext: bytes) -> bytes:
        # The MAC key is derived from the storage key under a fixed
        # label, so the CBC key is never used directly for both jobs.
        mac_key = self.provider.hmac(
            "sha256", storage_key.data, b"localstorage-slot-mac")
        return self.provider.hmac("sha256", mac_key, ciphertext)

    def write_encrypted(self, app_id: str, key: str, value: bytes,
                        storage_key: SymmetricKey) -> None:
        """Encrypt *value* under the player's storage key, then store.

        Slots are written encrypt-then-MAC (``ENC2``): a 32-byte
        HMAC-SHA256 tag over the ciphertext precedes it, so a torn
        write, tampered blob, or wrong storage key is *deterministic*
        — never dependent on whether garbage happens to unpad.
        """
        ciphertext = xenc_algorithms.encrypt_block_data(
            xenc_algorithms.AES128_CBC, storage_key, value,
            self.provider, self.rng,
        )
        tag = self._slot_mac(storage_key, ciphertext)
        self.write(app_id, key, b"ENC2" + tag + ciphertext)

    def read_encrypted(self, app_id: str, key: str,
                       storage_key: SymmetricKey) -> bytes:
        blob = self.read(app_id, key)
        if not blob.startswith(b"ENC2"):
            raise LocalStorageError(
                f"{key!r} is not an encrypted slot"
            )
        # The tag is checked before any decryption, so a tampered slot
        # never reaches the CBC padding check (no padding oracle).
        tag, ciphertext = blob[4:36], blob[36:]
        if not constant_time_equal(
                tag, self._slot_mac(storage_key, ciphertext)):
            raise LocalStorageError(
                f"encrypted slot {key!r} failed to decrypt (torn "
                "write, tampering, or wrong storage key)"
            )
        try:
            return xenc_algorithms.decrypt_block_data(
                xenc_algorithms.AES128_CBC, storage_key, ciphertext,
                self.provider,
            )
        except (PaddingError, DecryptionError) as error:
            # A torn flash write or tampered blob must surface as the
            # storage layer's typed failure, never a raw crypto
            # traceback from inside the slot format.
            raise LocalStorageError(
                f"encrypted slot {key!r} failed to decrypt (torn "
                "write, tampering, or wrong storage key)"
            ) from error

    def is_encrypted(self, app_id: str, key: str) -> bool:
        return self.read(app_id, key).startswith(b"ENC2")
