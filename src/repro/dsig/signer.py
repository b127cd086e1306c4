"""Signature creation: enveloped, enveloping and detached forms.

Implements the signer component of Fig 11 and the three signature
shapes of Fig 6.  The signing order follows XMLDSig core generation:

1. build the ds:Signature structure and splice it into its final
   location (document context affects inclusive canonicalization);
2. dereference + transform + digest every reference;
3. canonicalize SignedInfo and compute the signature value.
"""

from __future__ import annotations

import threading

from repro.errors import SignatureError
from repro.perf import metrics
from repro.primitives.encoding import b64encode
from repro.primitives.keys import RSAPrivateKey
from repro.primitives.provider import CryptoProvider, get_provider
from repro.xmlcore import C14N, DSIG_NS, element
from repro.xmlcore.tree import Element, Text
from repro.certs.authority import SigningIdentity
from repro.dsig import algorithms
from repro.dsig.keyinfo import KeyInfo
from repro.dsig.reference import (
    Reference, ReferenceContext, digest_reference, top_element,
)
from repro.dsig.signedinfo import SignedInfo
from repro.dsig.transforms import ENVELOPED_SIGNATURE, Transform


class Signer:
    """Creates XML signatures with a fixed key and algorithm suite.

    Args:
        key: an :class:`RSAPrivateKey`, :class:`SymmetricKey` or raw
            bytes (for HMAC methods).
        identity: optional :class:`SigningIdentity`; when given, the
            certificate chain is embedded in KeyInfo (paper §5.5).
        signature_method / digest_method / c14n_method: algorithm URIs.
        include_key_value: embed the bare public key in KeyInfo
            (useful without a PKI; the player may refuse such keys).
        key_name: optional ds:KeyName (XKMS lookup handle).
        provider: crypto provider override; when omitted the
            process-wide default is resolved *per signing operation*,
            so a ``set_default_provider``/``REPRO_PROVIDER`` switch
            takes effect on existing signers too.
    """

    def __init__(self, key, *,
                 identity: SigningIdentity | None = None,
                 signature_method: str = algorithms.RSA_SHA1,
                 digest_method: str = algorithms.SHA1,
                 c14n_method: str = C14N,
                 include_key_value: bool = False,
                 key_name: str | None = None,
                 provider: CryptoProvider | None = None):
        self.key = key
        self.identity = identity
        self.signature_method = signature_method
        self.digest_method = digest_method
        self.c14n_method = c14n_method
        self.include_key_value = include_key_value
        self.key_name = key_name
        self._provider = provider
        # Signing methods snapshot ``self.provider`` once per call; the
        # setter locks so a late-bound swap publishes atomically.
        self._provider_lock = threading.Lock()
        family, _ = algorithms.signature_kind(signature_method)
        if family == "rsa" and not isinstance(key, RSAPrivateKey):
            # Static text only: the method URI rides on an object that
            # also carries the private key, and error text must never
            # interpolate anything reachable from key material (TNT203).
            raise SignatureError(
                "RSA signature methods require an RSA private key"
            )

    @property
    def provider(self) -> CryptoProvider:
        """The pinned provider, or the current process default."""
        return self._provider or get_provider()

    @provider.setter
    def provider(self, value: CryptoProvider | None) -> None:
        with self._provider_lock:
            self._provider = value

    # -- public signing forms ------------------------------------------------------

    def sign_enveloped(self, target: Element, *, uri: str = "",
                       signature_id: str | None = None,
                       extra_references: list[Reference] | None = None,
                       resolver=None, decryptor=None) -> Element:
        """Append an enveloped signature to *target* and return it.

        The reference defaults to ``URI=""`` (the whole document minus
        the signature); pass ``uri="#some-id"`` to cover a fragment
        that contains the signature.
        """
        reference = Reference(
            uri=uri,
            transforms=[
                Transform(ENVELOPED_SIGNATURE),
                Transform(self.c14n_method),
            ],
            digest_method=self.digest_method,
        )
        references = [reference] + list(extra_references or [])
        return self.sign_references(
            references, parent=target, signature_id=signature_id,
            resolver=resolver, decryptor=decryptor,
        )

    def sign_enveloping(self, content: Element | bytes, *,
                        object_id: str = "object-1",
                        signature_id: str | None = None) -> Element:
        """Build an enveloping signature carrying *content* in ds:Object."""
        obj = element("ds:Object", DSIG_NS, attrs={"Id": object_id})
        if isinstance(content, bytes):
            obj.append(Text(b64encode(content)))
            transforms = [Transform("http://www.w3.org/2000/09/"
                                    "xmldsig#base64")]
        else:
            obj.append(content)
            transforms = [Transform(self.c14n_method)]
        reference = Reference(
            uri=f"#{object_id}",
            transforms=transforms,
            digest_method=self.digest_method,
            reference_type="http://www.w3.org/2000/09/xmldsig#Object",
        )
        signature = self._build_signature(
            SignedInfo(self.c14n_method, self.signature_method, [reference]),
            signature_id,
        )
        signature.append(obj)
        self._finalize(signature, document_root=signature)
        return signature

    def sign_detached(self, uri: str, *,
                      document_root: Element | None = None,
                      parent: Element | None = None,
                      resolver=None,
                      transforms: list[Transform] | None = None,
                      signature_id: str | None = None) -> Element:
        """Build a detached signature over *uri*.

        For a same-document target pass *document_root* (and optionally
        *parent* to place the signature inside the same document but
        outside the target).  For an external target pass *resolver*.
        """
        return self.sign_references(
            [self.detached_reference(uri, transforms)], parent=parent,
            document_root=document_root, resolver=resolver,
            signature_id=signature_id,
        )

    def detached_reference(self, uri: str,
                           transforms: list[Transform] | None = None
                           ) -> Reference:
        """The reference :meth:`sign_detached` signs over *uri*.

        Without *transforms*, a same-document target is canonicalized
        under the signer's C14N method and an external one is digested
        as fetched.
        """
        if transforms is None:
            transforms = [] if not (uri == "" or uri.startswith("#")) \
                else [Transform(self.c14n_method)]
        return Reference(
            uri=uri, transforms=transforms,
            digest_method=self.digest_method,
        )

    def sign_references(self, references: list[Reference], *,
                        parent: Element | None = None,
                        document_root: Element | None = None,
                        resolver=None, decryptor=None,
                        namespaces: dict[str, str] | None = None,
                        signature_id: str | None = None) -> Element:
        """General form: sign an arbitrary reference list.

        When *parent* is given the signature is appended there before
        digests are computed (so document context is final).  Each of
        *references* gets the number of octets its digest streamed in
        ``digested_octets``.
        """
        signed_info = SignedInfo(
            self.c14n_method, self.signature_method, list(references),
        )
        signature = self._build_signature(signed_info, signature_id)
        if parent is not None:
            parent.append(signature)
            document_root = top_element(parent)
        digested = self._finalize(
            signature, document_root=document_root, resolver=resolver,
            decryptor=decryptor, namespaces=namespaces,
        )
        for reference, octets in zip(references, digested):
            reference.digested_octets = octets
        return signature

    # -- internals ------------------------------------------------------------------

    def _build_signature(self, signed_info: SignedInfo,
                         signature_id: str | None) -> Element:
        signature = element("ds:Signature", DSIG_NS,
                            nsmap={"ds": DSIG_NS})
        if signature_id:
            signature.set("Id", signature_id)
        signature.append(signed_info.to_element())
        signature.append(element("ds:SignatureValue", DSIG_NS, text=""))
        key_info = self._key_info()
        if not key_info.is_empty():
            signature.append(key_info.to_element())
        return signature

    def _key_info(self) -> KeyInfo:
        info = KeyInfo(key_name=self.key_name)
        if self.identity is not None:
            info.certificates = list(self.identity.chain)
        if self.include_key_value and isinstance(self.key, RSAPrivateKey):
            info.key_value = self.key.public_key()
        return info

    def _finalize(self, signature: Element, *,
                  document_root: Element | None,
                  resolver=None, decryptor=None,
                  namespaces: dict[str, str] | None = None) -> list[int]:
        provider = self.provider
        with metrics.timer("dsig.sign"), \
                metrics.timer(f"dsig.sign.{provider.name}"):
            metrics.counter("dsig.sign.signatures").increment()
            return self._finalize_timed(
                signature, document_root=document_root,
                resolver=resolver, decryptor=decryptor,
                namespaces=namespaces,
            )

    def _finalize_timed(self, signature: Element, *,
                        document_root: Element | None,
                        resolver=None, decryptor=None,
                        namespaces: dict[str, str] | None = None
                        ) -> list[int]:
        """Fill every DigestValue and the SignatureValue; returns the
        octets each reference's digest streamed."""
        provider = self.provider
        signed_info_el = signature.first_child("SignedInfo", DSIG_NS)
        assert signed_info_el is not None
        context = ReferenceContext(
            root=document_root, signature=signature, resolver=resolver,
            decryptor=decryptor, namespaces=namespaces or {},
        )
        # Fill each DigestValue in place.
        reference_els = [
            child for child in signed_info_el.child_elements()
            if child.local == "Reference"
        ]
        digested = []
        for reference_el in reference_els:
            reference = Reference.from_element(reference_el)
            digest, octets = digest_reference(reference, context, provider)
            digested.append(octets)
            value_el = reference_el.first_child("DigestValue", DSIG_NS)
            assert value_el is not None
            value_el.children.clear()
            value_el.append(Text(b64encode(digest)))
        # Stream SignedInfo's canonical form, in its final context,
        # straight into the signature primitive's hash/HMAC context.
        signed_info = SignedInfo.from_element(signed_info_el)
        signature_value = algorithms.compute_signature_canonical(
            self.signature_method, self.key, signed_info_el,
            signed_info.c14n_method, signed_info.inclusive_prefixes,
            provider,
        )
        value_el = signature.first_child("SignatureValue", DSIG_NS)
        assert value_el is not None
        value_el.children.clear()
        value_el.append(Text(b64encode(signature_value)))
        return digested
