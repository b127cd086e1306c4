"""Pluggable crypto providers, mirroring the JCE provider architecture.

The paper's prototype sat Apache XML Security on top of the Java
Cryptography Extension with the bundled Sun provider.  This module
reproduces that layering: every digest, MAC, cipher and RSA operation
used by the XMLDSig/XMLEnc layers is routed through a
:class:`CryptoProvider`, and providers are interchangeable at run time.

Two providers ship with the library:

* ``"pure"`` — :class:`PurePythonProvider`, the from-scratch
  implementations in this package.  The default, and the reference
  semantics.
* ``"accelerated"`` — :class:`AcceleratedProvider`, which delegates
  digests/HMAC to :mod:`hashlib` and AES plus the RSA sign, verify
  and decrypt primitives to the ``cryptography`` package when
  importable (RSA encrypt stays pure: it takes an injected RNG for
  deterministic tests).  Registered only when its backends import
  cleanly.

Selection is threaded end-to-end: the ``REPRO_PROVIDER`` environment
variable picks the process-wide default at import time (``pure``,
``accelerated``, or ``auto`` for best-available), and
:func:`set_default_provider` / :func:`detect_best_provider` switch it
at run time.  Signer, verifier, batch verifier and XMLEnc all resolve
the default lazily, so a switch takes effect everywhere at once.

The PROTO feasibility benchmark ablates the two providers against the
paper's CE startup budget.
"""

from __future__ import annotations

import os
import threading

from repro.errors import ProviderError, UnknownAlgorithmError
from repro.primitives import hmac as hmac_mod
from repro.primitives import keywrap, modes, rsa, sha
from repro.primitives.aes import AES
from repro.primitives.keys import RSAPrivateKey, RSAPublicKey
from repro.primitives.random import RandomSource, default_random

_DIGEST_NAMES = ("sha1", "sha256")


class CryptoProvider:
    """Interface every provider implements.

    All byte-level semantics (padding, IV handling) are owned by the
    callers; providers perform only the raw algorithm.
    """

    name = "abstract"

    # -- digests / MACs ------------------------------------------------------

    def digest(self, algorithm: str, data: bytes) -> bytes:
        raise NotImplementedError

    def hmac(self, algorithm: str, key: bytes, data: bytes) -> bytes:
        raise NotImplementedError

    def hash_context(self, algorithm: str):
        """Return an incremental hash context (``update``/``digest``).

        The streaming C14N digest path feeds canonical chunks into the
        returned context, so whole canonical strings never need to be
        materialised just to be hashed.
        """
        raise NotImplementedError

    def hmac_context(self, algorithm: str, key: bytes):
        """Return an incremental HMAC context (``update``/``digest``)."""
        raise NotImplementedError

    # -- AES -----------------------------------------------------------------

    def aes_cbc_encrypt(self, key: bytes, iv: bytes,
                        padded_plaintext: bytes) -> bytes:
        raise NotImplementedError

    def aes_cbc_decrypt(self, key: bytes, iv: bytes,
                        ciphertext: bytes) -> bytes:
        raise NotImplementedError

    def aes_ctr(self, key: bytes, nonce: bytes, data: bytes) -> bytes:
        raise NotImplementedError

    # -- Triple-DES (XMLEnc's required block algorithm) ------------------------

    def tripledes_cbc_encrypt(self, key: bytes, iv: bytes,
                              padded_plaintext: bytes) -> bytes:
        raise NotImplementedError

    def tripledes_cbc_decrypt(self, key: bytes, iv: bytes,
                              ciphertext: bytes) -> bytes:
        raise NotImplementedError

    def wrap_key(self, kek: bytes, key_data: bytes) -> bytes:
        raise NotImplementedError

    def unwrap_key(self, kek: bytes, wrapped: bytes) -> bytes:
        raise NotImplementedError

    # -- RSA -----------------------------------------------------------------

    def rsa_sign_digest(self, key: RSAPrivateKey, digest: bytes,
                        digest_name: str) -> bytes:
        raise NotImplementedError

    def rsa_verify_digest(self, key: RSAPublicKey, digest: bytes,
                          signature: bytes, digest_name: str) -> bool:
        raise NotImplementedError

    def rsa_encrypt(self, key: RSAPublicKey, plaintext: bytes,
                    rng: RandomSource | None = None) -> bytes:
        raise NotImplementedError

    def rsa_decrypt(self, key: RSAPrivateKey, ciphertext: bytes) -> bytes:
        """RSAES-PKCS1-v1_5 decryption with implicit rejection.

        The public checks run first and keep their explicit
        :class:`~repro.errors.DecryptionError`: a ciphertext that is
        not k bytes long, or whose value is not below n.  Past them
        the call never fails.  When the decrypted block is malformed
        it returns the synthetic message OpenSSL 3.2 and later derive
        from ``d`` and the ciphertext
        (:func:`repro.primitives.rsa.synthetic_message`), and every
        provider returns the same bytes.  A caller therefore learns
        of bad padding only through what the bytes fail to do (a CEK
        that does not decrypt, a premaster whose Finished does not
        verify), the same answer a wrong key gets: no Bleichenbacher
        oracle.  :func:`repro.primitives.rsa.decrypt` keeps the
        explicit error for callers that are not doing key transport.
        """
        raise NotImplementedError


class PurePythonProvider(CryptoProvider):
    """The from-scratch implementations in :mod:`repro.primitives`."""

    name = "pure"

    def digest(self, algorithm, data):
        if algorithm not in _DIGEST_NAMES:
            raise UnknownAlgorithmError(f"unknown digest {algorithm!r}")
        return sha.new(algorithm, data).digest()

    def hmac(self, algorithm, key, data):
        if algorithm not in _DIGEST_NAMES:
            raise UnknownAlgorithmError(f"unknown digest {algorithm!r}")
        return hmac_mod.HMAC(key, algorithm, data).digest()

    def hash_context(self, algorithm):
        if algorithm not in _DIGEST_NAMES:
            raise UnknownAlgorithmError(f"unknown digest {algorithm!r}")
        return sha.new(algorithm)

    def hmac_context(self, algorithm, key):
        if algorithm not in _DIGEST_NAMES:
            raise UnknownAlgorithmError(f"unknown digest {algorithm!r}")
        return hmac_mod.HMAC(key, algorithm)

    def aes_cbc_encrypt(self, key, iv, padded_plaintext):
        return modes.cbc_encrypt(AES(key), padded_plaintext, iv)

    def aes_cbc_decrypt(self, key, iv, ciphertext):
        return modes.cbc_decrypt(AES(key), ciphertext, iv)

    def aes_ctr(self, key, nonce, data):
        return modes.ctr_transform(AES(key), data, nonce)

    def tripledes_cbc_encrypt(self, key, iv, padded_plaintext):
        from repro.primitives.des import TripleDES
        return modes.cbc_encrypt(TripleDES(key), padded_plaintext, iv)

    def tripledes_cbc_decrypt(self, key, iv, ciphertext):
        from repro.primitives.des import TripleDES
        return modes.cbc_decrypt(TripleDES(key), ciphertext, iv)

    def wrap_key(self, kek, key_data):
        return keywrap.wrap_key(kek, key_data)

    def unwrap_key(self, kek, wrapped):
        return keywrap.unwrap_key(kek, wrapped)

    def rsa_sign_digest(self, key, digest, digest_name):
        return rsa.sign_digest(key, digest, digest_name)

    def rsa_verify_digest(self, key, digest, signature, digest_name):
        return rsa.verify_digest(key, digest, signature, digest_name)

    def rsa_encrypt(self, key, plaintext, rng=None):
        return rsa.encrypt(key, plaintext, rng or default_random())

    def rsa_decrypt(self, key, ciphertext):
        return rsa.decrypt_implicit(key, ciphertext)


class AcceleratedProvider(PurePythonProvider):
    """Native-backed digests, AES and RSA sign, verify and decrypt.

    Digests and HMAC ride :mod:`hashlib`; AES and the RSA signature
    primitives ride ``cryptography`` (PKCS#1 v1.5 with ``Prehashed``,
    bit-identical to the pure encoding), and so does the RSA decrypt,
    whose implicit rejection in OpenSSL 3.2 and later returns the
    same synthetic message as the pure derivation.  RSA encrypt stays
    pure so the injected-RNG determinism of the XMLEnc tests and the
    handshake transcripts holds under every provider.  Raises
    :class:`ProviderError` at construction when the native backends
    are unavailable, so the registry can skip registration.
    """

    name = "accelerated"

    def __init__(self):
        try:
            import hashlib
            import hmac as std_hmac
            from cryptography.exceptions import InvalidSignature
            from cryptography.hazmat.primitives import hashes
            from cryptography.hazmat.primitives.asymmetric import (
                padding as c_padding, rsa as c_rsa, utils as c_utils,
            )
            from cryptography.hazmat.primitives.ciphers import (
                Cipher, algorithms, modes as c_modes,
            )
        except ImportError as exc:  # pragma: no cover - env dependent
            raise ProviderError(
                f"accelerated backends unavailable: {exc}"
            ) from exc
        self._hashlib = hashlib
        self._std_hmac = std_hmac
        self._cipher_cls = Cipher
        self._algorithms = algorithms
        self._modes = c_modes
        self._c_rsa = c_rsa
        self._pkcs1v15 = c_padding.PKCS1v15()
        self._prehashed = c_utils.Prehashed
        self._invalid_signature = InvalidSignature
        self._hash_algs = {"sha1": hashes.SHA1(), "sha256": hashes.SHA256()}
        # Converted-key memos: the frozen key dataclasses hash by value,
        # so repeated sign/verify calls with the same key skip the
        # (validated, expensive) numbers->native-key construction.
        self._private_keys: dict[RSAPrivateKey, object] = {}
        self._public_keys: dict[RSAPublicKey, object] = {}

    def digest(self, algorithm, data):
        if algorithm not in _DIGEST_NAMES:
            raise UnknownAlgorithmError(f"unknown digest {algorithm!r}")
        return self._hashlib.new(algorithm, data).digest()

    def hmac(self, algorithm, key, data):
        if algorithm not in _DIGEST_NAMES:
            raise UnknownAlgorithmError(f"unknown digest {algorithm!r}")
        return self._std_hmac.new(key, data, algorithm).digest()

    def hash_context(self, algorithm):
        if algorithm not in _DIGEST_NAMES:
            raise UnknownAlgorithmError(f"unknown digest {algorithm!r}")
        return self._hashlib.new(algorithm)

    def hmac_context(self, algorithm, key):
        if algorithm not in _DIGEST_NAMES:
            raise UnknownAlgorithmError(f"unknown digest {algorithm!r}")
        return self._std_hmac.new(key, digestmod=algorithm)

    # -- RSA (cryptography-backed sign/verify/decrypt) ------------------------

    def _native_private_key(self, key: RSAPrivateKey):
        """Convert (and memoize) *key*; ``None`` if CRT parts missing."""
        native = self._private_keys.get(key)
        if native is None:
            if not key.p or not key.q:
                return None
            public = self._c_rsa.RSAPublicNumbers(key.e, key.n)
            numbers = self._c_rsa.RSAPrivateNumbers(
                p=key.p,
                q=key.q,
                d=key.d,
                dmp1=key.d % (key.p - 1),
                dmq1=key.d % (key.q - 1),
                iqmp=pow(key.q, -1, key.p),
                public_numbers=public,
            )
            native = numbers.private_key()
            if len(self._private_keys) >= 64:
                self._private_keys.clear()
            self._private_keys[key] = native
        return native

    def _native_public_key(self, key: RSAPublicKey):
        native = self._public_keys.get(key)
        if native is None:
            native = self._c_rsa.RSAPublicNumbers(key.e, key.n).public_key()
            if len(self._public_keys) >= 256:
                self._public_keys.clear()
            self._public_keys[key] = native
        return native

    def rsa_sign_digest(self, key, digest, digest_name):
        hash_alg = self._hash_algs.get(digest_name)
        if hash_alg is None or len(digest) != hash_alg.digest_size:
            # Unknown DigestInfo family or truncated digest: defer to the
            # pure encoder, which owns those error semantics.
            return rsa.sign_digest(key, digest, digest_name)
        native = self._native_private_key(key)
        if native is None:
            return rsa.sign_digest(key, digest, digest_name)
        return native.sign(
            digest, self._pkcs1v15, self._prehashed(hash_alg)
        )

    def rsa_verify_digest(self, key, digest, signature, digest_name):
        hash_alg = self._hash_algs.get(digest_name)
        if hash_alg is None or len(digest) != hash_alg.digest_size:
            return rsa.verify_digest(key, digest, signature, digest_name)
        if len(signature) != key.byte_length:
            # The pure re-encode comparison treats a wrong-length
            # signature as a plain mismatch; mirror that.
            return rsa.verify_digest(key, digest, signature, digest_name)
        native = self._native_public_key(key)
        try:
            native.verify(
                signature, digest, self._pkcs1v15, self._prehashed(hash_alg)
            )
        except (self._invalid_signature, ValueError):
            return False
        return True

    def rsa_decrypt(self, key, ciphertext):
        native = self._native_private_key(key)
        if native is None:
            return rsa.decrypt_implicit(key, ciphertext)
        rsa.check_ciphertext(key, ciphertext)
        try:
            return native.decrypt(ciphertext, self._pkcs1v15)
        except ValueError:
            # An OpenSSL older than 3.2 rejects bad padding explicitly;
            # answer as implicit rejection would.
            return rsa.synthetic_message(key, ciphertext)

    def _cipher(self, key, mode):
        return self._cipher_cls(self._algorithms.AES(key), mode)

    def aes_cbc_encrypt(self, key, iv, padded_plaintext):
        enc = self._cipher(key, self._modes.CBC(iv)).encryptor()
        return enc.update(padded_plaintext) + enc.finalize()

    def aes_cbc_decrypt(self, key, iv, ciphertext):
        dec = self._cipher(key, self._modes.CBC(iv)).decryptor()
        return dec.update(ciphertext) + dec.finalize()

    def aes_ctr(self, key, nonce, data):
        counter_block = nonce + b"\x00" * (16 - len(nonce))
        enc = self._cipher(key, self._modes.CTR(counter_block)).encryptor()
        return enc.update(data) + enc.finalize()


_providers: dict[str, CryptoProvider] = {}
_default_name = "pure"
# Guards registry writes; lookups stay lock-free (a dict read of a
# published provider is atomic under the GIL, and swaps only ever
# replace whole entries).
_registry_lock = threading.Lock()


def register_provider(provider: CryptoProvider) -> None:
    """Add *provider* to the registry (replacing any same-named one)."""
    with _registry_lock:
        _providers[provider.name] = provider


def get_provider(name: str | None = None) -> CryptoProvider:
    """Look up a provider by name; ``None`` returns the default."""
    key = name or _default_name
    try:
        return _providers[key]
    except KeyError:
        raise ProviderError(f"no crypto provider named {key!r}") from None


def available_providers() -> list[str]:
    """Names of all registered providers."""
    return sorted(_providers)


def set_default_provider(name: str) -> str:
    """Make *name* the default provider; returns the previous default."""
    global _default_name
    with _registry_lock:
        if name not in _providers:
            raise ProviderError(f"no crypto provider named {name!r}")
        previous = _default_name
        _default_name = name
    return previous


def detect_best_provider() -> str:
    """Name of the fastest registered provider (``accelerated`` if up)."""
    return "accelerated" if "accelerated" in _providers else "pure"


def _apply_env_override() -> None:
    """Honour ``REPRO_PROVIDER`` (a name, or ``auto``) at import time.

    An unknown name fails loudly: silently falling back to the pure
    provider would make a mistyped CI matrix leg measure the wrong
    implementation while appearing green.
    """
    name = os.environ.get("REPRO_PROVIDER", "").strip()
    if not name:
        return
    if name == "auto":
        name = detect_best_provider()
    set_default_provider(name)


register_provider(PurePythonProvider())
try:
    register_provider(AcceleratedProvider())
except ProviderError:  # pragma: no cover - env dependent
    pass
_apply_env_override()
