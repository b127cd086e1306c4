"""RSA key generation, PKCS#1 v1.5 signatures and encryption.

XMLDSig Core requires ``rsa-sha1`` (RSASSA-PKCS1-v1_5 with SHA-1) and
XML Encryption names ``rsa-1_5`` (RSAES-PKCS1-v1_5) for key transport;
``rsa-sha256`` is registered as the modern companion.  Everything here
is implemented from the PKCS#1 v2.1 description: EMSA-PKCS1-v1_5
encoding with the standard DigestInfo prefixes, EME-PKCS1-v1_5 with
random non-zero padding, and a CRT-accelerated private-key operation.

Two decrypts share one EME-PKCS1-v1_5 parse.  :func:`decrypt` rejects
a bad block with an explicit error; it is the reference the primitive
tests check.  :func:`decrypt_implicit` is the key-transport decrypt
behind ``CryptoProvider.rsa_decrypt``: past the public checks it never
fails, and answers a bad block with the synthetic message OpenSSL
(3.2 and later) derives from the private exponent and the ciphertext
(:func:`synthetic_message`), so no answer tells a bad block from a
good one (Bleichenbacher's oracle).
"""

from __future__ import annotations

from repro.errors import CryptoError, DecryptionError, KeyError_
from repro.primitives import sha
from repro.primitives.encoding import bytes_to_int, int_to_bytes
from repro.primitives.hmac import HMAC
from repro.primitives.keys import RSAPrivateKey, RSAPublicKey
from repro.primitives.prime import generate_prime
from repro.primitives.random import RandomSource, default_random

# DER-encoded DigestInfo prefixes (AlgorithmIdentifier + OCTET STRING tag)
# from PKCS#1 v2.1 §9.2 note 1.
_DIGEST_INFO_PREFIX = {
    "sha1": bytes.fromhex("3021300906052b0e03021a05000414"),
    "sha256": bytes.fromhex("3031300d060960864801650304020105000420"),
}

_MIN_KEY_BITS = 512  # floor so tests can use small-but-functional keys


def generate_keypair(bits: int = 1024,
                     rng: RandomSource | None = None,
                     public_exponent: int = 65537) -> RSAPrivateKey:
    """Generate an RSA key pair with a modulus of exactly *bits* bits."""
    if bits < _MIN_KEY_BITS:
        raise KeyError_(f"RSA modulus must be at least {_MIN_KEY_BITS} bits")
    if bits % 2:
        raise KeyError_("RSA modulus bit size must be even")
    rng = rng or default_random()
    e = public_exponent
    while True:
        p = generate_prime(bits // 2, rng)
        q = generate_prime(bits // 2, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = pow(e, -1, phi)
        except ValueError:
            continue  # e not invertible mod phi; pick new primes
        return RSAPrivateKey(n=n, e=e, d=d, p=max(p, q), q=min(p, q))


def _private_op(key: RSAPrivateKey, value: int) -> int:
    """Compute ``value^d mod n`` (CRT-accelerated when p, q are known)."""
    if value >= key.n:
        raise CryptoError("RSA input out of range")
    if key.p and key.q:
        dp = key.d % (key.p - 1)
        dq = key.d % (key.q - 1)
        q_inv = pow(key.q, -1, key.p)
        m1 = pow(value % key.p, dp, key.p)
        m2 = pow(value % key.q, dq, key.q)
        h = (q_inv * (m1 - m2)) % key.p
        return m2 + h * key.q
    return pow(value, key.d, key.n)


def _emsa_pkcs1_v15(digest: bytes, digest_name: str, em_len: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding (PKCS#1 v2.1 §9.2)."""
    try:
        prefix = _DIGEST_INFO_PREFIX[digest_name]
    except KeyError:
        raise CryptoError(
            f"no DigestInfo prefix for {digest_name!r}"
        ) from None
    t = prefix + digest
    if em_len < len(t) + 11:
        raise CryptoError("RSA modulus too small for this digest")
    ps = b"\xff" * (em_len - len(t) - 3)
    return b"\x00\x01" + ps + b"\x00" + t


def sign(key: RSAPrivateKey, message: bytes,
         digest_name: str = "sha1") -> bytes:
    """RSASSA-PKCS1-v1_5 signature over *message*."""
    digest = sha.new(digest_name, message).digest()
    return sign_digest(key, digest, digest_name)


def sign_digest(key: RSAPrivateKey, digest: bytes,
                digest_name: str = "sha1") -> bytes:
    """Sign a precomputed digest (the XMLDSig core operates on digests)."""
    em = _emsa_pkcs1_v15(digest, digest_name, key.byte_length)
    signature = _private_op(key, bytes_to_int(em))
    return int_to_bytes(signature, key.byte_length)


def verify(key: RSAPublicKey, message: bytes, signature: bytes,
           digest_name: str = "sha1") -> bool:
    """Verify an RSASSA-PKCS1-v1_5 signature; returns ``True``/``False``."""
    digest = sha.new(digest_name, message).digest()
    return verify_digest(key, digest, signature, digest_name)


def verify_digest(key: RSAPublicKey, digest: bytes, signature: bytes,
                  digest_name: str = "sha1") -> bool:
    """Verify a signature against a precomputed digest.

    Re-encodes the expected EM and compares byte-for-byte — the
    encoding-side comparison recommended to avoid Bleichenbacher-style
    lenient-parsing bugs.
    """
    if len(signature) != key.byte_length:
        return False
    value = bytes_to_int(signature)
    if value >= key.n:
        return False
    em = int_to_bytes(pow(value, key.e, key.n), key.byte_length)
    try:
        expected = _emsa_pkcs1_v15(digest, digest_name, key.byte_length)
    except CryptoError:
        return False
    return em == expected


def encrypt(key: RSAPublicKey, plaintext: bytes,
            rng: RandomSource | None = None) -> bytes:
    """RSAES-PKCS1-v1_5 encryption (XMLEnc ``rsa-1_5`` key transport)."""
    rng = rng or default_random()
    k = key.byte_length
    if len(plaintext) > k - 11:
        raise CryptoError(
            f"plaintext too long for {key.bit_length}-bit RSA key"
        )
    ps = bytearray()
    while len(ps) < k - len(plaintext) - 3:
        byte = rng.read(1)
        if byte != b"\x00":
            ps += byte
    em = b"\x00\x02" + bytes(ps) + b"\x00" + plaintext
    ciphertext = pow(bytes_to_int(em), key.e, key.n)
    return int_to_bytes(ciphertext, k)


def check_ciphertext(key: RSAPrivateKey, ciphertext: bytes) -> int:
    """The public checks of RSAES-PKCS1-v1_5 decryption.

    Returns the ciphertext as an integer.  Both checks read only the
    ciphertext and the public key, so their explicit errors tell an
    attacker nothing new; every decrypt runs them first.

    Raises:
        DecryptionError: when the ciphertext is not k bytes long or
            its value is not below n.
    """
    if len(ciphertext) != key.byte_length:
        raise DecryptionError("RSA ciphertext has wrong length")
    value = bytes_to_int(ciphertext)
    if value >= key.n:
        raise DecryptionError(
            "RSA ciphertext out of range (wrong key?)"
        )
    return value


def _eme_pkcs1_v15_message(em: bytes) -> bytes | None:
    """The message in EME-PKCS1-v1_5 block *em*, or ``None`` when the
    block is malformed: first octet not 0, block type not 2, no zero
    separator, or fewer than eight padding octets before it."""
    separator = em.find(b"\x00", 2)
    if em[0] != 0 or em[1] != 2 or separator < 10:
        return None
    return em[separator + 1:]


def _encoded_message(key: RSAPrivateKey, value: int) -> bytes:
    return int_to_bytes(_private_op(key, value), key.byte_length)


def decrypt(key: RSAPrivateKey, ciphertext: bytes) -> bytes:
    """RSAES-PKCS1-v1_5 decryption with explicit rejection.

    Raises:
        DecryptionError: when a public check fails
            (:func:`check_ciphertext`), or when the decrypted block is
            not a valid EME-PKCS1-v1_5 encoding (wrong key or corrupted
            ciphertext).
    """
    value = check_ciphertext(key, ciphertext)
    message = _eme_pkcs1_v15_message(_encoded_message(key, value))
    if message is None:
        raise DecryptionError("invalid RSA encryption block")
    return message


def decrypt_implicit(key: RSAPrivateKey, ciphertext: bytes) -> bytes:
    """RSAES-PKCS1-v1_5 decryption with implicit rejection.

    Runs the public checks of :func:`check_ciphertext` (explicit
    errors), then derives the synthetic message before it looks at the
    padding, and returns it in place of the message when the block is
    malformed.  The caller learns of a bad block only through what the
    bytes it got back fail to do.
    """
    value = check_ciphertext(key, ciphertext)
    synthetic = synthetic_message(key, ciphertext)
    message = _eme_pkcs1_v15_message(_encoded_message(key, value))
    return synthetic if message is None else message


#: Length candidates drawn per synthetic message (OpenSSL's
#: ``MAX_LEN_GEN_TRIES``): all 128 miss with probability below 2**-128.
_LENGTH_TRIES = 128


def _prf(keyed: HMAC, label: bytes, length: int) -> bytes:
    """OpenSSL's implicit-rejection PRF: HMAC-SHA-256 in counter mode
    (*keyed* holds the key-derivation key), each block over
    ``counter || label || bit length`` as 16-bit big-endian integers."""
    suffix = label + (8 * length).to_bytes(2, "big")
    blocks = []
    for counter in range(-(-length // 32)):
        block = keyed.copy()
        block.update(counter.to_bytes(2, "big") + suffix)
        blocks.append(block.digest())
    return b"".join(blocks)[:length]


def synthetic_message(key: RSAPrivateKey, ciphertext: bytes) -> bytes:
    """The message implicit rejection returns for a malformed block.

    The derivation of OpenSSL 3.2 and later, so both providers return
    the same bytes: the key-derivation key is HMAC-SHA-256 over the
    ciphertext, keyed by SHA-256 of ``d`` as k octets; the PRF draws
    k octets under the label "message" and 128 big-endian 16-bit
    length candidates under "length".  Each candidate is masked to
    the bit width of k - 10, and the last one below k - 10 is the
    length; the message is that many trailing octets.
    """
    k = key.byte_length
    kdk = HMAC(sha.sha256(int_to_bytes(key.d, k)), "sha256",
               ciphertext).digest()
    keyed = HMAC(kdk, "sha256")
    message = _prf(keyed, b"message", k)
    candidates = _prf(keyed, b"length", 2 * _LENGTH_TRIES)
    limit = k - 10
    mask = (1 << limit.bit_length()) - 1
    length = 0
    for offset in range(0, len(candidates), 2):
        candidate = int.from_bytes(candidates[offset:offset + 2],
                                   "big") & mask
        if candidate < limit:
            length = candidate
    return message[k - length:]
