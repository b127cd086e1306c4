"""Algorithm URI registry for XMLDSig (signature + digest methods).

Maps the W3C algorithm identifiers to operations on the active crypto
provider.  XMLDSig Core's REQUIRED algorithms (``sha1``, ``hmac-sha1``,
``rsa-sha1``) are all present, alongside their SHA-256 successors from
RFC 4051 (``xmldsig-more``).
"""

from __future__ import annotations

from repro.errors import SignatureError, UnknownAlgorithmError
from repro.perf import metrics
from repro.primitives.hmac import constant_time_equal
from repro.primitives.keys import RSAPrivateKey, RSAPublicKey, SymmetricKey
from repro.primitives.provider import CryptoProvider, get_provider
from repro.xmlcore.c14n import C14N, canonicalize_into
from repro.xmlcore.tree import Node

# Digest methods.
SHA1 = "http://www.w3.org/2000/09/xmldsig#sha1"
SHA256 = "http://www.w3.org/2001/04/xmlenc#sha256"

# Signature methods.
RSA_SHA1 = "http://www.w3.org/2000/09/xmldsig#rsa-sha1"
RSA_SHA256 = "http://www.w3.org/2001/04/xmldsig-more#rsa-sha256"
HMAC_SHA1 = "http://www.w3.org/2000/09/xmldsig#hmac-sha1"
HMAC_SHA256 = "http://www.w3.org/2001/04/xmldsig-more#hmac-sha256"

_DIGESTS = {SHA1: "sha1", SHA256: "sha256"}
_SIGNATURES = {
    RSA_SHA1: ("rsa", "sha1"),
    RSA_SHA256: ("rsa", "sha256"),
    HMAC_SHA1: ("hmac", "sha1"),
    HMAC_SHA256: ("hmac", "sha256"),
}

DIGEST_ALGORITHMS = tuple(_DIGESTS)
SIGNATURE_ALGORITHMS = tuple(_SIGNATURES)


def digest_name(algorithm: str) -> str:
    """Provider digest name for a DigestMethod URI."""
    try:
        return _DIGESTS[algorithm]
    except KeyError:
        raise UnknownAlgorithmError(
            f"unknown digest algorithm {algorithm!r}"
        ) from None


def compute_digest(algorithm: str, data: bytes,
                   provider: CryptoProvider | None = None) -> bytes:
    """Digest *data* under a DigestMethod URI."""
    provider = provider or get_provider()
    metrics.counter("digest.ops").increment()
    metrics.counter("digest.octets").increment(len(data))
    with metrics.timer("digest.compute"):
        return provider.digest(digest_name(algorithm), data)


def compute_digest_canonical(algorithm: str, node: Node,
                             c14n_algorithm: str = C14N,
                             inclusive_prefixes: tuple[str, ...] = (),
                             provider: CryptoProvider | None = None,
                             *, guard=None) -> tuple[bytes, int]:
    """Digest the canonical form of *node* without materialising it.

    The streaming counterpart of ``compute_digest(algorithm,
    canonicalize(node, ...))``: canonical chunks feed an incremental
    hash context from the provider, so only one chunk is ever held.
    Returns the digest and the number of canonical octets digested.
    """
    provider = provider or get_provider()
    metrics.counter("digest.ops").increment()
    with metrics.timer("digest.compute"):
        context = provider.hash_context(digest_name(algorithm))
        total = canonicalize_into(
            node, context.update, c14n_algorithm, inclusive_prefixes,
            guard=guard,
        )
        digest = context.digest()
    metrics.counter("digest.octets").increment(total)
    return digest, total


def signature_kind(algorithm: str) -> tuple[str, str]:
    """Return ``(family, digest)`` for a SignatureMethod URI."""
    try:
        return _SIGNATURES[algorithm]
    except KeyError:
        raise UnknownAlgorithmError(
            f"unknown signature algorithm {algorithm!r}"
        ) from None


def compute_signature(algorithm: str, key, data: bytes,
                      provider: CryptoProvider | None = None) -> bytes:
    """Sign *data* under a SignatureMethod URI.

    *key* must match the method family: :class:`RSAPrivateKey` for the
    ``rsa-*`` methods, :class:`SymmetricKey` (or raw bytes) for
    ``hmac-*``.
    """
    provider = provider or get_provider()
    family, digest = signature_kind(algorithm)
    if family == "rsa":
        if not isinstance(key, RSAPrivateKey):
            raise SignatureError(
                f"{algorithm} needs an RSA private key, got "
                f"{type(key).__name__}"
            )
        return provider.rsa_sign_digest(
            key, provider.digest(digest, data), digest
        )
    mac_key = key.data if isinstance(key, SymmetricKey) else key
    if not isinstance(mac_key, bytes):
        raise SignatureError(f"{algorithm} needs key bytes")
    return provider.hmac(digest, mac_key, data)


def compute_signature_canonical(algorithm: str, key, node: Node,
                                c14n_algorithm: str = C14N,
                                inclusive_prefixes: tuple[str, ...] = (),
                                provider: CryptoProvider | None = None,
                                ) -> bytes:
    """Sign the canonical form of *node* under a SignatureMethod URI.

    Streams the canonical octets of *node* (typically ds:SignedInfo)
    straight into an incremental hash/HMAC context, then applies the
    key operation — the signing-side twin of
    :func:`compute_digest_canonical`.
    """
    provider = provider or get_provider()
    family, digest = signature_kind(algorithm)
    if family == "rsa":
        if not isinstance(key, RSAPrivateKey):
            raise SignatureError(
                f"{algorithm} needs an RSA private key, got "
                f"{type(key).__name__}"
            )
        context = provider.hash_context(digest)
        canonicalize_into(
            node, context.update, c14n_algorithm, inclusive_prefixes,
        )
        return provider.rsa_sign_digest(key, context.digest(), digest)
    mac_key = key.data if isinstance(key, SymmetricKey) else key
    if not isinstance(mac_key, bytes):
        raise SignatureError(f"{algorithm} needs key bytes")
    context = provider.hmac_context(digest, mac_key)
    canonicalize_into(
        node, context.update, c14n_algorithm, inclusive_prefixes,
    )
    return context.digest()


def verify_signature(algorithm: str, key, data: bytes, signature: bytes,
                     provider: CryptoProvider | None = None) -> bool:
    """Verify *signature* over *data* under a SignatureMethod URI.

    *key* is an :class:`RSAPublicKey` for ``rsa-*`` methods and a
    :class:`SymmetricKey`/bytes for ``hmac-*``.
    """
    provider = provider or get_provider()
    family, digest = signature_kind(algorithm)
    if family == "rsa":
        if isinstance(key, RSAPrivateKey):
            key = key.public_key()
        if not isinstance(key, RSAPublicKey):
            raise SignatureError(
                f"{algorithm} needs an RSA public key, got "
                f"{type(key).__name__}"
            )
        return provider.rsa_verify_digest(
            key, provider.digest(digest, data), signature, digest
        )
    mac_key = key.data if isinstance(key, SymmetricKey) else key
    if not isinstance(mac_key, bytes):
        raise SignatureError(f"{algorithm} needs key bytes")
    expected = provider.hmac(digest, mac_key, data)
    return constant_time_equal(expected, signature)
