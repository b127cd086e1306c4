"""Pure-Python SHA-1 and SHA-256 (FIPS 180-4).

These are the two digest algorithms mandated by XMLDSig Core
(``xmldsig#sha1``) and in wide use by its successors
(``xmlenc#sha256``).  Both classes follow the familiar
``update()/digest()/hexdigest()`` shape of :mod:`hashlib` objects and
are cross-validated against :mod:`hashlib` in the test suite.
"""

from __future__ import annotations

import struct

_MASK32 = 0xFFFFFFFF


def _rotl32(x: int, n: int) -> int:
    return ((x << n) | (x >> (32 - n))) & _MASK32


def _rotr32(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _MASK32


class _MDHash:
    """Shared Merkle–Damgård machinery for the SHA family."""

    block_size = 64
    digest_size = 0
    name = ""

    def __init__(self, data: bytes = b""):
        self._state = list(self._initial_state())
        self._length = 0
        self._pending = b""
        if data:
            self.update(data)

    # -- subclass hooks ----------------------------------------------------

    def _initial_state(self) -> tuple[int, ...]:
        raise NotImplementedError

    def _compress(self, block: bytes) -> None:
        raise NotImplementedError

    # -- public interface ---------------------------------------------------

    def update(self, data: bytes) -> None:
        """Feed *data* into the hash."""
        self._length += len(data)
        buf = self._pending + data
        offset = 0
        for offset in range(0, len(buf) - len(buf) % 64, 64):
            self._compress(buf[offset:offset + 64])
        self._pending = buf[len(buf) - len(buf) % 64:]

    def digest(self) -> bytes:
        """Return the digest of all data fed so far (non-destructive)."""
        clone = self.copy()
        bit_length = clone._length * 8
        # 0x80, then zeros up to 56 mod 64, then the 64-bit bit length.
        clone.update(b"\x80" + bytes((55 - clone._length) % 64))
        clone._compress(clone._pending + struct.pack(">Q", bit_length))
        return b"".join(
            struct.pack(">I", w) for w in clone._state[: self.digest_size // 4]
        )

    def hexdigest(self) -> str:
        """Return :meth:`digest` as lowercase hex."""
        return self.digest().hex()

    def copy(self):
        """Return an independent copy of the running hash state."""
        clone = type(self)()
        clone._state = list(self._state)
        clone._length = self._length
        clone._pending = self._pending
        return clone


class SHA1(_MDHash):
    """SHA-1 (160-bit digest)."""

    digest_size = 20
    name = "sha1"

    def _initial_state(self):
        return (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)

    def _compress(self, block: bytes) -> None:
        w = list(struct.unpack(">16I", block))
        for t in range(16, 80):
            w.append(_rotl32(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1))
        a, b, c, d, e = self._state
        for t in range(80):
            if t < 20:
                f = (b & c) | (~b & d)
                k = 0x5A827999
            elif t < 40:
                f = b ^ c ^ d
                k = 0x6ED9EBA1
            elif t < 60:
                f = (b & c) | (b & d) | (c & d)
                k = 0x8F1BBCDC
            else:
                f = b ^ c ^ d
                k = 0xCA62C1D6
            temp = (_rotl32(a, 5) + f + e + k + w[t]) & _MASK32
            e, d, c, b, a = d, c, _rotl32(b, 30), a, temp
        self._state = [
            (s + v) & _MASK32 for s, v in zip(self._state, (a, b, c, d, e))
        ]


_SHA256_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5,
    0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC,
    0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7,
    0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3,
    0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5,
    0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)


class SHA256(_MDHash):
    """SHA-256 (256-bit digest)."""

    digest_size = 32
    name = "sha256"

    def _initial_state(self):
        return (
            0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
            0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
        )

    def _compress(self, block: bytes) -> None:
        w = list(struct.unpack(">16I", block))
        for t in range(16, 64):
            s0 = _rotr32(w[t - 15], 7) ^ _rotr32(w[t - 15], 18) ^ (w[t - 15] >> 3)
            s1 = _rotr32(w[t - 2], 17) ^ _rotr32(w[t - 2], 19) ^ (w[t - 2] >> 10)
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _MASK32)
        a, b, c, d, e, f, g, h = self._state
        for t in range(64):
            big_s1 = _rotr32(e, 6) ^ _rotr32(e, 11) ^ _rotr32(e, 25)
            ch = (e & f) ^ (~e & g)
            t1 = (h + big_s1 + ch + _SHA256_K[t] + w[t]) & _MASK32
            big_s0 = _rotr32(a, 2) ^ _rotr32(a, 13) ^ _rotr32(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            t2 = (big_s0 + maj) & _MASK32
            h, g, f, e, d, c, b, a = (
                g, f, e, (d + t1) & _MASK32, c, b, a, (t1 + t2) & _MASK32,
            )
        self._state = [
            (s + v) & _MASK32
            for s, v in zip(self._state, (a, b, c, d, e, f, g, h))
        ]


_DIGESTS = {"sha1": SHA1, "sha256": SHA256}


def new(name: str, data: bytes = b"") -> _MDHash:
    """Create a hash object by name (``"sha1"`` or ``"sha256"``)."""
    try:
        return _DIGESTS[name.lower()](data)
    except KeyError:
        raise ValueError(f"unknown digest algorithm {name!r}") from None


def sha1(data: bytes) -> bytes:
    """One-shot SHA-1 digest of *data*."""
    return SHA1(data).digest()


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256 digest of *data*."""
    return SHA256(data).digest()
