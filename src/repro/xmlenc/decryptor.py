"""The Decryptor component (Fig 11): key resolution and in-place decryption.

The player "decrypts the application and resources on execution" (§4);
this class resolves the needed keys (named key slots, unwrap of
transported CEKs, RSA key transport), decrypts EncryptedData, and —
for XML targets — splices the recovered markup back into the tree.

Every failure that depends on the key raises one
:class:`DecryptionError` with the message
:data:`~repro.xmlenc.algorithms.DECRYPT_FAILURE`: an ``rsa-1_5``
EncryptedKey that does not unwrap, a CEK of the wrong length, bad
padding, plaintext that is not well-formed, a missing content
wrapper.  A mutated EncryptedKey, a mutated CipherValue and another
device's key therefore get the same answer, so the errors are no
padding oracle (Jager, Schinzel and Somorovsky, ESORICS 2012).  The
checks that read only public data (fetching a CipherReference, the
ciphertext's length) keep their own messages, and they run before the
key is resolved, so no EncryptedKey changes which of them fires.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import DecryptionError, XMLError
from repro.perf import metrics
from repro.primitives.keys import RSAPrivateKey, SymmetricKey
from repro.primitives.provider import CryptoProvider, get_provider
from repro.xmlcore import XMLENC_NS, parse_element
from repro.xmlcore.tree import Element, Node
from repro.xmlenc import algorithms
from repro.xmlenc.encryptor import CONTENT_WRAPPER
from repro.xmlenc.structures import EncryptedData

Resolver = Callable[[str], bytes]


class Decryptor:
    """Decrypts EncryptedData structures.

    Args:
        keys: named symmetric keys (``ds:KeyName`` → key) — the player's
            key slots.
        rsa_key: the device's RSA private key, which unwraps
            ``rsa-1_5`` transported CEKs.  There is one: under
            implicit rejection every key "succeeds", so no key can be
            picked by trying each in turn.
        resolver: URI → bytes for CipherReference (detached ciphertext).
        provider: crypto provider override.
        guard: optional
            :class:`~repro.resilience.limits.ResourceGuard`; every
            decrypted plaintext is charged against its cumulative
            decrypt-output quota and expansion-ratio cap, and the
            recovered XML is re-parsed under the same guard — so a
            decrypt bomb (tiny package, huge or deeply nested
            plaintext) trips a typed limit instead of exhausting the
            device.
    """

    def __init__(self, keys: dict[str, SymmetricKey | bytes] | None = None,
                 rsa_key: RSAPrivateKey | None = None,
                 resolver: Resolver | None = None,
                 provider: CryptoProvider | None = None,
                 guard=None):
        self._keys: dict[str, SymmetricKey] = {}
        for name, key in (keys or {}).items():
            self.add_key(name, key)
        self.rsa_key = rsa_key
        self._resolver = resolver
        # Resolved lazily so a provider switch (REPRO_PROVIDER /
        # set_default_provider) takes effect on existing decryptors.
        self._provider = provider
        self.guard = guard

    @property
    def provider(self) -> CryptoProvider:
        """The pinned provider, or the current process default."""
        return self._provider or get_provider()

    @provider.setter
    def provider(self, value: CryptoProvider | None) -> None:
        self._provider = value

    def add_key(self, name: str, key: SymmetricKey | bytes) -> None:
        """Register a named key slot."""
        if isinstance(key, bytes):
            key = SymmetricKey(key, "aes")
        self._keys[name] = key

    # -- key resolution --------------------------------------------------------------

    def resolve_key(self, data: EncryptedData,
                    explicit_key=None) -> SymmetricKey | bytes:
        """Find the content-encryption key for *data*.

        A transported CEK comes back as raw octets of whatever length
        it unwrapped to; :func:`~repro.xmlenc.algorithms.decrypt_block_data`
        judges that length.
        """
        if explicit_key is not None:
            if isinstance(explicit_key, bytes):
                return SymmetricKey(explicit_key, "aes")
            return explicit_key
        if data.encrypted_key is not None:
            return self._unwrap(data)
        if data.key_name:
            try:
                return self._keys[data.key_name]
            except KeyError:
                raise DecryptionError(
                    f"no key slot named {data.key_name!r}"
                ) from None
        raise DecryptionError(
            "EncryptedData names no key and none was supplied"
        )

    def _unwrap(self, data: EncryptedData) -> bytes:
        encrypted_key = data.encrypted_key
        assert encrypted_key is not None
        algorithm = encrypted_key.algorithm
        if algorithm == algorithms.RSA_1_5:
            if self.rsa_key is None:
                raise DecryptionError(
                    "rsa-1_5 transported CEK but no RSA key to unwrap it"
                )
            try:
                # A synthetic CEK has a pseudo-random length, empty
                # included; it is returned as it is, and fails as
                # content like any other wrong key.
                return algorithms.unwrap_cek(
                    algorithm, self.rsa_key, encrypted_key.cipher_value,
                    self.provider,
                )
            except DecryptionError:
                # Only the public checks fail here (length, value not
                # below n).  A CEK wrapped for another device is often
                # out of this modulus's range; it gets the answer any
                # wrong key gets.
                raise DecryptionError(algorithms.DECRYPT_FAILURE) from None
        if encrypted_key.key_name:
            kek = self._keys.get(encrypted_key.key_name)
            if kek is None:
                raise DecryptionError(
                    f"no KEK slot named {encrypted_key.key_name!r}"
                )
            return algorithms.unwrap_cek(
                algorithm, kek, encrypted_key.cipher_value, self.provider,
            )
        raise DecryptionError("EncryptedKey names no KEK")

    # -- decryption -------------------------------------------------------------------

    def _ciphertext(self, data: EncryptedData) -> bytes:
        if data.cipher_value is not None:
            return data.cipher_value
        assert data.cipher_reference is not None
        if self._resolver is None:
            raise DecryptionError(
                f"CipherReference {data.cipher_reference!r} but no "
                "resolver configured"
            )
        try:
            return self._resolver(data.cipher_reference)
        except Exception as exc:
            raise DecryptionError(
                f"cannot fetch ciphertext {data.cipher_reference!r}: {exc}"
            ) from exc

    def decrypt_to_bytes(self, data: EncryptedData | Element,
                         key=None) -> bytes:
        """Decrypt and return the raw plaintext octets.

        The ciphertext is fetched and its public check run before the
        key is resolved, so their explicit errors never depend on what
        an EncryptedKey unwraps to.
        """
        if isinstance(data, Element):
            data = EncryptedData.from_element(data)
        ciphertext = self._ciphertext(data)
        algorithms.check_block_ciphertext(data.algorithm, ciphertext)
        cek = self.resolve_key(data, key)
        if self.guard is not None:
            self.guard.check_deadline()
        plaintext = algorithms.decrypt_block_data(
            data.algorithm, cek, ciphertext, self.provider,
        )
        if self.guard is not None:
            self.guard.charge_decrypt_output(len(plaintext), len(ciphertext))
        return plaintext

    def decrypt_nodes(self, node: Element, key=None) -> list[Node]:
        """Decrypt an EncryptedData *element* back into XML nodes.

        For ``Type=Element`` the single recovered element is returned;
        for ``Type=Content`` the recovered child nodes.  Raises for
        non-XML types.
        """
        data = EncryptedData.from_element(node)
        if data.data_type not in (algorithms.TYPE_ELEMENT,
                                  algorithms.TYPE_CONTENT):
            raise DecryptionError(
                f"EncryptedData type {data.data_type!r} is not XML"
            )
        plaintext = self.decrypt_to_bytes(data, key)
        # XMLEnc padding only inspects one octet, so a wrong key can slip
        # through to the parser: garbage plaintext is a decryption
        # failure, reported without the parser's detail.
        try:
            recovered = parse_element(plaintext, guard=self.guard)
        except XMLError:
            raise DecryptionError(algorithms.DECRYPT_FAILURE) from None
        if data.data_type == algorithms.TYPE_ELEMENT:
            return [recovered]
        if recovered.local != CONTENT_WRAPPER:
            raise DecryptionError(algorithms.DECRYPT_FAILURE)
        return [child.copy() for child in recovered.children]

    def decrypt_element(self, node: Element, key=None) -> list[Node]:
        """Decrypt *node* and splice the plaintext nodes into its place.

        Returns the replacement nodes.  This is the transform the
        verifier's decryption-transform hook uses.
        """
        replacements = self.decrypt_nodes(node, key)
        parent = node.parent
        if isinstance(parent, Element):
            index = parent.index(node)
            parent.remove(node)
            for offset, replacement in enumerate(replacements):
                parent.insert(index + offset, replacement)
        return replacements

    def decrypt_in_place(self, root: Element, key=None, *,
                         except_ids: tuple[str, ...] = ()) -> int:
        """Decrypt every XML-typed EncryptedData under *root*.

        Repeats until no decryptable structures remain (handles nested
        super-encryption).  EncryptedData whose Id appears in
        *except_ids* is left alone.  Returns the number of structures
        decrypted.
        """
        with metrics.timer("xmlenc.decrypt_in_place"):
            count = 0
            while True:
                target = None
                for candidate in root.iter("EncryptedData", XMLENC_NS):
                    if candidate is root:
                        continue
                    if candidate.get("Id") in except_ids:
                        continue
                    if candidate.get("Type") in (
                        algorithms.TYPE_ELEMENT, algorithms.TYPE_CONTENT,
                    ):
                        target = candidate
                        break
                if target is None:
                    metrics.counter(
                        "xmlenc.decrypted_elements"
                    ).increment(count)
                    return count
                self.decrypt_element(target, key)
                count += 1
