"""Byte/text encodings used throughout the XML security stack.

Base64 is the transfer encoding mandated by XMLDSig and XMLEnc for
``DigestValue``, ``SignatureValue``, ``KeyValue`` and ``CipherValue``
content.  It is a utility, not a provider algorithm: every provider
runs the standard library's C codec (:mod:`binascii`) behind this
module's contract (XML whitespace only, strict alphabet and padding,
typed errors).  The hexadecimal helpers and the big-endian integer
conversions used by the RSA code live here too.
"""

from __future__ import annotations

import binascii
import re

from repro.errors import CryptoError

_B64_ALPHABET = (
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
)
_NOT_B64_ALPHABET = re.compile(r"[^A-Za-z0-9+/]")


def b64encode(data: bytes) -> str:
    """Encode *data* as standard (RFC 4648) base64 without line breaks."""
    return binascii.b2a_base64(data, newline=False).decode("ascii")


def b64decode(text: str) -> bytes:
    """Decode base64 *text*, tolerating embedded whitespace.

    XMLDSig explicitly allows whitespace inside base64 element content,
    so the XML whitespace characters are stripped before decoding; any
    other character outside the alphabet is an error.  ``=`` may only
    pad the end (once or twice); non-canonical trailing bits are
    ignored, as in RFC 4648 decoders that accept them.

    Raises:
        CryptoError: if *text* contains non-alphabet characters or has
            an impossible length/padding combination.
    """
    # XML whitespace is #x20 #x9 #xD #xA only, as in XML Schema
    # base64Binary: U+00A0, U+2028 and the like are not in the alphabet.
    compact = (text.replace(" ", "").replace("\t", "")
               .replace("\r", "").replace("\n", ""))
    if len(compact) % 4 != 0:
        raise CryptoError(f"base64 length {len(compact)} is not a multiple of 4")
    body = (compact[:-2] if compact.endswith("==")
            else compact.removesuffix("="))
    if not body.isascii() or body.encode().translate(None, _B64_ALPHABET):
        bad = _NOT_B64_ALPHABET.search(body).group()
        raise CryptoError(f"invalid base64 character {bad!r}")
    return binascii.a2b_base64(compact)


def hexencode(data: bytes) -> str:
    """Encode *data* as lowercase hexadecimal text."""
    return data.hex()


def hexdecode(text: str) -> bytes:
    """Decode hexadecimal *text* (case-insensitive) to bytes."""
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise CryptoError(f"invalid hex string: {exc}") from None


def int_to_bytes(value: int, length: int | None = None) -> bytes:
    """Convert a non-negative integer to big-endian bytes.

    With *length* omitted, the minimal representation is produced
    (``0`` encodes to a single zero byte, matching XMLDSig CryptoBinary
    semantics after sign-stripping).
    """
    if value < 0:
        raise CryptoError("cannot encode negative integer")
    if length is None:
        length = max(1, (value.bit_length() + 7) // 8)
    try:
        return value.to_bytes(length, "big")
    except OverflowError:
        # Deliberately value-free: the requested width can be derived
        # from key material (modulus size, CRT components) and must not
        # appear in exception text (TNT203).
        raise CryptoError(
            "integer does not fit in the requested length"
        ) from None


def bytes_to_int(data: bytes) -> int:
    """Convert big-endian bytes to a non-negative integer."""
    return int.from_bytes(data, "big")
