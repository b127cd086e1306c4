"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
applications embedding the player can catch a single base class.  The
hierarchy mirrors the subsystems: XML processing, cryptographic
primitives, signature processing, encryption processing, key management,
access control, disc/content handling and the player engine.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# XML substrate
# ---------------------------------------------------------------------------

class XMLError(ReproError):
    """Base class for XML processing errors."""


class XMLSyntaxError(XMLError):
    """Raised when a document is not well-formed.

    Carries the 1-based ``line`` and ``column`` of the offending input
    position when known.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}, column {column})"
        super().__init__(message + location)
        self.line = line
        self.column = column


class NamespaceError(XMLError):
    """Raised for undeclared prefixes or illegal namespace bindings."""


class XPathError(XMLError):
    """Raised when an XPath-lite expression cannot be parsed or evaluated."""


class CanonicalizationError(XMLError):
    """Raised when a node-set cannot be canonicalized."""


# ---------------------------------------------------------------------------
# Resource governance
# ---------------------------------------------------------------------------

class ResourceLimitExceeded(ReproError):
    """Raised when untrusted input exceeds a :class:`ResourceGuard` quota.

    This is the typed containment signal for resource-exhaustion
    attacks (deep nesting, attribute floods, giant text nodes,
    reference bombs, decompression blow-ups, oversized frames): the
    pipeline converts what would otherwise be a ``RecursionError`` or
    ``MemoryError`` into a catchable, classifiable failure.

    Carries the ``limit_name`` (the :class:`ResourceLimits` field that
    tripped), the configured ``limit`` and the offending ``actual``
    value.
    """

    def __init__(self, limit_name: str, *, limit: float | None = None,
                 actual: float | None = None, detail: str = ""):
        message = f"resource limit {limit_name} exceeded"
        if limit is not None and actual is not None:
            message += f" ({actual:g} > {limit:g})"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.limit_name = limit_name
        self.limit = limit
        self.actual = actual
        self.detail = detail


# ---------------------------------------------------------------------------
# Cryptographic primitives
# ---------------------------------------------------------------------------

class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class KeyError_(CryptoError):
    """Raised for malformed, mismatched or unusable key material."""


class PaddingError(CryptoError):
    """Raised when a padded plaintext fails to unpad (tampering or wrong key)."""


class UnknownAlgorithmError(CryptoError):
    """Raised when an algorithm URI or name is not registered."""


class ProviderError(CryptoError):
    """Raised when a crypto provider cannot satisfy a request."""


# ---------------------------------------------------------------------------
# XML Digital Signature
# ---------------------------------------------------------------------------

class SignatureError(ReproError):
    """Base class for XMLDSig processing errors."""


class ReferenceError_(SignatureError):
    """Raised when a ds:Reference cannot be dereferenced."""


class VerificationError(SignatureError):
    """Raised (or reported) when signature verification fails."""


# ---------------------------------------------------------------------------
# XML Encryption
# ---------------------------------------------------------------------------

class EncryptionError(ReproError):
    """Base class for XMLEnc processing errors."""


class EncryptedDataFormatError(EncryptionError):
    """Raised when EncryptedData/EncryptedKey markup is invalid."""


class DecryptionError(EncryptionError):
    """Raised when decryption fails (wrong key, tampered ciphertext)."""


# ---------------------------------------------------------------------------
# Certificates and key management
# ---------------------------------------------------------------------------

class CertificateError(ReproError):
    """Base class for certificate processing errors."""


class CertificateVerificationError(CertificateError):
    """Raised when a certificate or chain does not verify."""


class CertificateExpiredError(CertificateVerificationError):
    """Raised when a certificate is outside its validity window."""


class CertificateRevokedError(CertificateVerificationError):
    """Raised when a certificate appears on a revocation list."""


class UntrustedRootError(CertificateVerificationError):
    """Raised when a chain does not terminate at a trusted root."""


class XKMSError(ReproError):
    """Raised for XKMS protocol failures."""


# ---------------------------------------------------------------------------
# Access control
# ---------------------------------------------------------------------------

class PolicyError(ReproError):
    """Raised for malformed XACML policies or evaluation failures."""


class PermissionDeniedError(ReproError):
    """Raised when the platform denies a permission-gated operation."""


# ---------------------------------------------------------------------------
# Disc / content hierarchy
# ---------------------------------------------------------------------------

class DiscError(ReproError):
    """Base class for disc image / content hierarchy errors."""


class AuthoringError(DiscError):
    """Raised when a disc cannot be authored from the given content."""


class DiscFormatError(DiscError):
    """Raised when a disc image is structurally invalid."""


# ---------------------------------------------------------------------------
# Markup runtimes
# ---------------------------------------------------------------------------

class MarkupError(ReproError):
    """Base class for SMIL-lite / presentation errors."""


class ScriptError(ReproError):
    """Base class for ECMAScript-subset interpreter errors."""


class ScriptSyntaxError(ScriptError):
    """Raised when a script fails to parse."""


class ScriptRuntimeError(ScriptError):
    """Raised when a script fails at run time."""


# ---------------------------------------------------------------------------
# Network / player
# ---------------------------------------------------------------------------

class NetworkError(ReproError):
    """Raised for simulated network failures."""


class ChannelSecurityError(NetworkError):
    """Raised when the TLS-like secure channel detects tampering."""


class TimeoutError(NetworkError):  # noqa: A001 - deliberate shadow
    """Raised when an operation exceeds its time budget.

    Carries how many ``attempts`` were made and the simulated
    ``elapsed`` seconds when the budget ran out.
    """

    def __init__(self, message: str, *, attempts: int = 1,
                 elapsed: float = 0.0):
        super().__init__(message)
        self.attempts = attempts
        self.elapsed = elapsed


class ChannelClosedError(NetworkError):
    """Raised when transferring over a closed (dead) channel."""


class RetryExhaustedError(NetworkError):
    """Raised when a :class:`repro.resilience.RetryPolicy` gives up.

    Carries the number of ``attempts`` made, the simulated ``elapsed``
    seconds, and the ``last_error`` that caused the final failure.
    """

    def __init__(self, message: str, *, attempts: int = 0,
                 elapsed: float = 0.0,
                 last_error: BaseException | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.elapsed = elapsed
        self.last_error = last_error


class CircuitOpenError(NetworkError):
    """Raised when a :class:`repro.resilience.CircuitBreaker` is open.

    Short-circuits calls without touching the wire.  Carries the
    consecutive-failure count that tripped the breaker (``attempts``)
    and ``retry_after`` — simulated seconds until the breaker half-opens.
    """

    def __init__(self, message: str, *, attempts: int = 0,
                 retry_after: float = 0.0):
        super().__init__(message)
        self.attempts = attempts
        self.retry_after = retry_after


class ServiceOverloadError(NetworkError):
    """Raised when a service sheds load instead of serving a request.

    The structured-busy signal of the overload-protection layer
    (admission queues full, bulkhead saturated, concurrency limiter
    refusing): the request was *answered*, not dropped.  ``reason``
    names the shedding mechanism (``"queue-full"``, ``"bulkhead"``,
    ``"limiter"``, ``"busy-fault"``); ``tenant`` the admission class it
    was accounted against.
    """

    def __init__(self, message: str, *, reason: str = "busy",
                 tenant: str = ""):
        super().__init__(message)
        self.reason = reason
        self.tenant = tenant


class PlayerError(ReproError):
    """Base class for player engine errors."""


class ApplicationRejectedError(PlayerError):
    """Raised when the engine bars an application from executing."""


class LocalStorageError(PlayerError):
    """Raised for player local-storage failures (quota, missing slot)."""


# ---------------------------------------------------------------------------
# Durable state (crash-safe persistence)
# ---------------------------------------------------------------------------

class DurableStateError(ReproError):
    """Raised when persisted security state fails its integrity checks.

    The durable layer distinguishes *torn* tails (power loss mid-write
    — silently truncated back to the last acknowledged commit) from
    everything it must refuse to repair.  ``kind`` classifies the
    refusal:

    * ``"tamper"`` — a complete journal frame or snapshot whose
      checksum/HMAC does not verify, a sequence regression, or a
      record that does not decode: acknowledged history has been
      altered.
    * ``"format"`` — the file is not a journal/snapshot at all
      (foreign header).
    * ``"protocol"`` — the caller misused the store API (e.g.
      compacting with uncommitted mutations).
    """

    def __init__(self, message: str, *, kind: str = "tamper"):
        super().__init__(message)
        self.kind = kind
