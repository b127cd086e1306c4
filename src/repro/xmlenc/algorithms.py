"""Algorithm URI registry for XML Encryption.

Block encryption (AES-CBC family with XMLEnc §5.2 padding and the IV
prepended to the ciphertext), key wrap (RFC 3394 via ``kw-aes*``) and
key transport (``rsa-1_5``), all routed through the crypto provider.
"""

from __future__ import annotations

from repro.errors import (
    DecryptionError, EncryptionError, PaddingError, UnknownAlgorithmError,
)
from repro.primitives.keys import RSAPrivateKey, RSAPublicKey, SymmetricKey
from repro.primitives.padding import xmlenc_pad, xmlenc_unpad
from repro.primitives.provider import CryptoProvider, get_provider
from repro.primitives.random import RandomSource, default_random

# Block encryption.
AES128_CBC = "http://www.w3.org/2001/04/xmlenc#aes128-cbc"
AES192_CBC = "http://www.w3.org/2001/04/xmlenc#aes192-cbc"
AES256_CBC = "http://www.w3.org/2001/04/xmlenc#aes256-cbc"
TRIPLEDES_CBC = "http://www.w3.org/2001/04/xmlenc#tripledes-cbc"

# Key wrap.
KW_AES128 = "http://www.w3.org/2001/04/xmlenc#kw-aes128"
KW_AES192 = "http://www.w3.org/2001/04/xmlenc#kw-aes192"
KW_AES256 = "http://www.w3.org/2001/04/xmlenc#kw-aes256"

# Key transport.
RSA_1_5 = "http://www.w3.org/2001/04/xmlenc#rsa-1_5"

# EncryptedData Type URIs.
TYPE_ELEMENT = "http://www.w3.org/2001/04/xmlenc#Element"
TYPE_CONTENT = "http://www.w3.org/2001/04/xmlenc#Content"

_BLOCK_KEY_SIZES = {
    AES128_CBC: 16, AES192_CBC: 24, AES256_CBC: 32, TRIPLEDES_CBC: 24,
}
# Cipher block size (== IV size) per algorithm.
_BLOCK_SIZES = {
    AES128_CBC: 16, AES192_CBC: 16, AES256_CBC: 16, TRIPLEDES_CBC: 8,
}
_WRAP_KEY_SIZES = {KW_AES128: 16, KW_AES192: 24, KW_AES256: 32}

#: The one message of every decrypt failure that depends on the key:
#: a CEK of the wrong length, bad XMLEnc padding, plaintext that is
#: not well-formed, a missing content wrapper.  An ``rsa-1_5``
#: transport under implicit rejection hands back a CEK for any
#: EncryptedKey, so these are the only places a bad one shows, and
#: one message keeps them from telling one failure from another.
DECRYPT_FAILURE = "EncryptedData does not decrypt (wrong key or " \
    "tampered ciphertext)"

BLOCK_ALGORITHMS = tuple(_BLOCK_KEY_SIZES)
KEY_WRAP_ALGORITHMS = tuple(_WRAP_KEY_SIZES)
KEY_TRANSPORT_ALGORITHMS = (RSA_1_5,)


def block_key_size(algorithm: str) -> int:
    """Required key size in bytes for a block-encryption URI."""
    try:
        return _BLOCK_KEY_SIZES[algorithm]
    except KeyError:
        raise UnknownAlgorithmError(
            f"unknown block encryption algorithm {algorithm!r}"
        ) from None


def wrap_key_size(algorithm: str) -> int:
    """Required KEK size in bytes for a key-wrap URI."""
    try:
        return _WRAP_KEY_SIZES[algorithm]
    except KeyError:
        raise UnknownAlgorithmError(
            f"unknown key wrap algorithm {algorithm!r}"
        ) from None


def _raw_key(key, algorithm: str) -> bytes:
    data = key.data if isinstance(key, SymmetricKey) else key
    if not isinstance(data, bytes):
        raise EncryptionError(f"{algorithm} needs symmetric key bytes")
    return data


def _key_bytes(key, expected: int, algorithm: str) -> bytes:
    data = _raw_key(key, algorithm)
    if len(data) != expected:
        raise EncryptionError(
            f"{algorithm} needs a {expected}-byte key, got {len(data)}"
        )
    return data


def block_size(algorithm: str) -> int:
    """Cipher block size (== IV size) for a block-encryption URI."""
    try:
        return _BLOCK_SIZES[algorithm]
    except KeyError:
        raise UnknownAlgorithmError(
            f"unknown block encryption algorithm {algorithm!r}"
        ) from None


def encrypt_block_data(algorithm: str, key, plaintext: bytes,
                       provider: CryptoProvider | None = None,
                       rng: RandomSource | None = None) -> bytes:
    """XMLEnc block encryption: returns ``IV || CBC(pad(plaintext))``."""
    provider = provider or get_provider()
    rng = rng or default_random()
    data = _key_bytes(key, block_key_size(algorithm), algorithm)
    bs = block_size(algorithm)
    iv = rng.read(bs)
    padded = xmlenc_pad(plaintext, bs)
    if algorithm == TRIPLEDES_CBC:
        return iv + provider.tripledes_cbc_encrypt(data, iv, padded)
    return iv + provider.aes_cbc_encrypt(data, iv, padded)


def check_block_ciphertext(algorithm: str, ciphertext: bytes) -> None:
    """The public check of :func:`decrypt_block_data`: an IV and at
    least one whole block.

    It reads only the ciphertext, so its explicit error tells an
    attacker nothing; a caller that resolves the key itself runs it
    before the key, so the answer never depends on what the key
    unwraps to.
    """
    bs = block_size(algorithm)
    if len(ciphertext) < 2 * bs or len(ciphertext) % bs:
        raise DecryptionError("ciphertext too short or ragged")


def decrypt_block_data(algorithm: str, key, ciphertext: bytes,
                       provider: CryptoProvider | None = None) -> bytes:
    """Inverse of :func:`encrypt_block_data`.

    The public check (:func:`check_block_ciphertext`) runs first, with
    its own message.  A key of the wrong length and bad padding both
    raise :class:`DecryptionError` with :data:`DECRYPT_FAILURE`: an
    implicitly rejected transport yields a CEK of pseudo-random
    length, and naming that length would be an oracle of its own.
    """
    provider = provider or get_provider()
    check_block_ciphertext(algorithm, ciphertext)
    bs = block_size(algorithm)
    data = _raw_key(key, algorithm)
    if len(data) != block_key_size(algorithm):
        raise DecryptionError(DECRYPT_FAILURE)
    iv, body = ciphertext[:bs], ciphertext[bs:]
    if algorithm == TRIPLEDES_CBC:
        padded = provider.tripledes_cbc_decrypt(data, iv, body)
    else:
        padded = provider.aes_cbc_decrypt(data, iv, body)
    try:
        return xmlenc_unpad(padded, bs)
    except PaddingError:
        raise DecryptionError(DECRYPT_FAILURE) from None


def wrap_cek(algorithm: str, kek, cek: bytes,
             provider: CryptoProvider | None = None,
             rng: RandomSource | None = None) -> bytes:
    """Wrap a content-encryption key under *kek* (symmetric or RSA)."""
    provider = provider or get_provider()
    if algorithm == RSA_1_5:
        if isinstance(kek, RSAPrivateKey):
            kek = kek.public_key()
        if not isinstance(kek, RSAPublicKey):
            raise EncryptionError("rsa-1_5 key transport needs an RSA key")
        return provider.rsa_encrypt(kek, cek, rng or default_random())
    data = _key_bytes(kek, wrap_key_size(algorithm), algorithm)
    return provider.wrap_key(data, cek)


def unwrap_cek(algorithm: str, kek, wrapped: bytes,
               provider: CryptoProvider | None = None) -> bytes:
    """Inverse of :func:`wrap_cek`."""
    provider = provider or get_provider()
    if algorithm == RSA_1_5:
        if not isinstance(kek, RSAPrivateKey):
            raise DecryptionError(
                "rsa-1_5 key transport needs the RSA private key"
            )
        return provider.rsa_decrypt(kek, wrapped)
    data = _key_bytes(kek, wrap_key_size(algorithm), algorithm)
    return provider.unwrap_key(data, wrapped)
