"""Key material objects shared across the security stack.

RSA keys are plain dataclasses over their integer components, which is
exactly what XMLDSig's ``<KeyValue><RSAKeyValue>`` carries (modulus and
exponent as base64 CryptoBinary values).  Symmetric keys wrap raw bytes
with a declared algorithm family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import KeyError_
from repro.primitives.encoding import b64decode, b64encode, int_to_bytes


@dataclass(frozen=True)
class RSAPublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def bit_length(self) -> int:
        return self.n.bit_length()

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def to_dict(self) -> dict[str, str]:
        """Serialize as the base64 fields of an RSAKeyValue element."""
        return {
            "Modulus": b64encode(int_to_bytes(self.n)),
            "Exponent": b64encode(int_to_bytes(self.e)),
        }

    @classmethod
    def from_dict(cls, data: dict[str, str]) -> "RSAPublicKey":
        try:
            n = int.from_bytes(b64decode(data["Modulus"]), "big")
            e = int.from_bytes(b64decode(data["Exponent"]), "big")
        except KeyError as exc:
            raise KeyError_(f"RSAKeyValue missing field {exc}") from None
        return cls(n=n, e=e)

    def fingerprint(self) -> str:
        """Stable identifier for the key (hex SHA-256 of n||e), hashed
        by the default provider."""
        from repro.primitives.provider import get_provider
        return get_provider().digest(
            "sha256", int_to_bytes(self.n) + int_to_bytes(self.e)
        ).hex()[:32]


@dataclass(frozen=True)
class RSAPrivateKey:
    """RSA private key with CRT components.

    ``p``/``q`` are retained for CRT acceleration of the private-key
    operation; ``d`` alone is sufficient for correctness.
    """

    n: int
    e: int
    d: int = field(repr=False)
    p: int = field(default=0, repr=False)
    q: int = field(default=0, repr=False)

    @property
    def bit_length(self) -> int:
        return self.n.bit_length()

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def public_key(self) -> RSAPublicKey:
        """Return the matching public key."""
        return RSAPublicKey(n=self.n, e=self.e)

    def fingerprint(self) -> str:
        """Stable identifier of the *public* half — safe to log."""
        return self.public_key().fingerprint()

    def __repr__(self) -> str:
        return (f"RSAPrivateKey({self.bit_length}-bit, "
                f"fingerprint={self.fingerprint()}, <redacted>)")


@dataclass(frozen=True)
class SymmetricKey:
    """Raw symmetric key bytes tagged with an algorithm family.

    ``algorithm`` is a short family name (``"aes"`` or ``"hmac"``); the
    concrete mode/size is chosen by the operation that consumes the key.
    """

    data: bytes = field(repr=False)
    algorithm: str = "aes"

    def __post_init__(self):
        if not self.data:
            raise KeyError_("symmetric key must not be empty")

    @property
    def bit_length(self) -> int:
        return len(self.data) * 8

    def fingerprint(self) -> str:
        """Stable identifier (hex SHA-256 prefix) — safe to log."""
        from repro.primitives.provider import get_provider
        return get_provider().digest("sha256", self.data).hex()[:32]

    def __repr__(self) -> str:
        return (f"SymmetricKey({self.algorithm}, {self.bit_length}-bit, "
                f"fingerprint={self.fingerprint()}, <redacted>)")
