"""Random sources for key generation, IVs and nonces.

Two sources are provided:

* :class:`SystemRandomSource` — wraps :func:`os.urandom`; the default
  for real key material.
* :class:`DeterministicRandomSource` — a SHA-256-based
  counter DRBG seeded from a caller-supplied value.  Used by the test
  suite and the benchmark harness so that every run reproduces the same
  keys, IVs and synthetic content.

The DRBG follows the classic hash-counter construction: block *i* of
output is ``SHA256(seed || counter_i)``.  It is *not* offered as a
cryptographically vetted DRBG — it exists so experiments are replayable.
Like base64, it is a utility rather than a provider algorithm: the
blocks come from :mod:`hashlib` under every provider, and SHA-256's
definition makes them the same bytes on each.
"""

from __future__ import annotations

import hashlib
import os

from repro.primitives.encoding import int_to_bytes


class RandomSource:
    """Abstract source of random bytes."""

    def read(self, n: int) -> bytes:
        """Return *n* random bytes."""
        raise NotImplementedError

    def randint_below(self, upper: int) -> int:
        """Return a uniformly distributed integer in ``[0, upper)``.

        Uses rejection sampling over the minimal byte width so the
        distribution is exactly uniform.
        """
        if upper <= 0:
            raise ValueError("upper bound must be positive")
        nbytes = (upper.bit_length() + 7) // 8
        limit = (1 << (8 * nbytes)) - (1 << (8 * nbytes)) % upper
        while True:
            candidate = int.from_bytes(self.read(nbytes), "big")
            if candidate < limit:
                return candidate % upper

    def randint_bits(self, bits: int) -> int:
        """Return an integer with exactly *bits* bits (top bit set)."""
        if bits <= 0:
            raise ValueError("bit count must be positive")
        nbytes = (bits + 7) // 8
        raw = bytearray(self.read(nbytes))
        excess = 8 * nbytes - bits
        raw[0] &= 0xFF >> excess
        raw[0] |= 1 << (7 - excess)
        return int.from_bytes(bytes(raw), "big")


class SystemRandomSource(RandomSource):
    """Operating-system entropy via :func:`os.urandom`."""

    def read(self, n: int) -> bytes:
        return os.urandom(n)


class DeterministicRandomSource(RandomSource):
    """Reproducible SHA-256 counter DRBG for tests and benchmarks."""

    def __init__(self, seed: bytes | str | int):
        if isinstance(seed, str):
            seed = seed.encode("utf-8")
        elif isinstance(seed, int):
            seed = int_to_bytes(seed)
        self._seed = bytes(seed)
        self._counter = 0
        self._buffer = b""

    def read(self, n: int) -> bytes:
        while len(self._buffer) < n:
            block = hashlib.sha256(
                self._seed + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out


_default_source: RandomSource = SystemRandomSource()


def default_random() -> RandomSource:
    """Return the process-wide default random source."""
    return _default_source


def set_default_random(source: RandomSource) -> RandomSource:
    """Replace the process-wide default random source.

    Returns the previous source so callers can restore it.
    """
    global _default_source
    previous = _default_source
    _default_source = source
    return previous
