"""HMAC (RFC 2104) over the pure-Python SHA family.

XMLDSig names ``hmac-sha1`` as a required signature algorithm; the
library also registers ``hmac-sha256``.  The implementation follows
RFC 2104 exactly: keys longer than the block size are hashed first and
all keys are zero-padded to the block size.
"""

from __future__ import annotations

from repro.primitives import sha


class HMAC:
    """Incremental HMAC with a :mod:`hashlib`-like interface."""

    def __init__(self, key: bytes, digest_name: str = "sha1",
                 data: bytes = b""):
        hash_cls = type(sha.new(digest_name))
        self._hash_cls = hash_cls
        block_size = hash_cls.block_size
        if len(key) > block_size:
            key = hash_cls(key).digest()
        key = key.ljust(block_size, b"\x00")
        # Both padded-key blocks are absorbed once, here: digest() and
        # copy() reuse the two hash states.
        self._outer = hash_cls(bytes(b ^ 0x5C for b in key))
        self._inner = hash_cls(bytes(b ^ 0x36 for b in key))
        if data:
            self.update(data)

    @property
    def digest_size(self) -> int:
        return self._hash_cls.digest_size

    def __repr__(self) -> str:
        # Never expose the (derived) key blocks held in the _outer /
        # _inner states.
        return (f"HMAC({self._hash_cls.__name__.lower()}, "
                "<key redacted>)")

    def update(self, data: bytes) -> None:
        """Feed *data* into the MAC."""
        self._inner.update(data)

    def digest(self) -> bytes:
        """Return the MAC of all data fed so far (non-destructive)."""
        outer = self._outer.copy()
        outer.update(self._inner.digest())
        return outer.digest()

    def copy(self) -> "HMAC":
        """Return an independent copy of the running MAC state."""
        clone = object.__new__(HMAC)
        clone._hash_cls = self._hash_cls
        clone._outer = self._outer  # digest() never updates it in place
        clone._inner = self._inner.copy()
        return clone

    def hexdigest(self) -> str:
        """Return :meth:`digest` as lowercase hex."""
        return self.digest().hex()


def hmac_sha1(key: bytes, data: bytes) -> bytes:
    """One-shot HMAC-SHA1."""
    return HMAC(key, "sha1", data).digest()


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """One-shot HMAC-SHA256."""
    return HMAC(key, "sha256", data).digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without data-dependent early exit.

    Used for MAC and digest comparisons so verification time does not
    leak the position of the first mismatching byte.
    """
    if len(a) != len(b):
        return False
    acc = 0
    for x, y in zip(a, b):
        acc |= x ^ y
    return acc == 0
