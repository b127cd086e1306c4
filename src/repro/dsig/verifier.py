"""Signature verification — the player's Verifier component (Fig 11).

Performs XMLDSig core validation (signature validation over the
canonicalized SignedInfo, then reference validation) plus the trust
decisions the paper layers on top: certificate chains must lead to a
trusted root in the player (§5.5) before an application is executed,
and unverifiable applications are barred (Fig 3).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.errors import ResourceLimitExceeded, VerificationError
from repro.perf import metrics
from repro.perf.cache import C14NDigestCache, get_default_cache
from repro.primitives.encoding import b64decode
from repro.primitives.provider import CryptoProvider, get_provider
from repro.xmlcore import DSIG_NS, canonicalize
from repro.xmlcore.tree import Element
from repro.certs.store import TrustStore, ValidationResult
from repro.dsig import algorithms
from repro.dsig.keyinfo import KeyInfo
from repro.dsig.reference import (
    ReferenceContext, ReferenceResult, check_reference, top_element,
)
from repro.dsig.signedinfo import SignedInfo


@dataclass
class VerificationReport:
    """Full outcome of a signature verification.

    ``valid`` is the conjunction the player acts on: the core signature
    verifies, every reference digest matches, and — when a trust store
    was consulted — the certificate chain validates.
    """

    signature_valid: bool = False
    references: list[ReferenceResult] = field(default_factory=list)
    key_source: str = "none"
    certificate_validation: ValidationResult | None = None
    signer_subject: str | None = None
    error: str = ""

    @property
    def references_valid(self) -> bool:
        return bool(self.references) and all(r.valid for r in self.references)

    @property
    def valid(self) -> bool:
        if not self.signature_valid or not self.references_valid:
            return False
        if self.certificate_validation is not None \
                and not self.certificate_validation.valid:
            return False
        return True

    def raise_if_invalid(self) -> None:
        """Raise :class:`VerificationError` unless fully valid."""
        if self.valid:
            return
        reasons = [self.error] if self.error else []
        if not self.signature_valid:
            reasons.append("core signature invalid")
        reasons.extend(
            f"reference {r.uri!r}: {r.error or 'digest mismatch'}"
            for r in self.references if not r.valid
        )
        if self.certificate_validation is not None \
                and not self.certificate_validation.valid:
            reasons.append(
                f"certificate chain: {self.certificate_validation.reason}"
            )
        raise VerificationError("; ".join(reasons) or "verification failed")


class Verifier:
    """Verifies ds:Signature elements.

    Args:
        trust_store: when given, embedded certificate chains are
            validated against it; with *require_trusted_key* the
            verifier refuses signatures whose key cannot be traced to a
            trusted root (the player's execution policy from Fig 3).
        resolver: URI → bytes for external references.
        key_locator: optional callable ``key_name -> public key`` (an
            XKMS locate hook).
        provider: crypto provider override.
        cache: C14N/digest cache consulted for pure-canonicalization
            same-document references; defaults to the process-wide
            shared cache.  Pass a
            :class:`~repro.perf.cache.NullCache` to force every digest
            to be recomputed (the sequential baseline).
        now: simulation time for certificate validity checks.
        guard: optional :class:`~repro.resilience.limits.ResourceGuard`
            enforcing per-signature reference/transform quotas, the
            c14n output quota, and the wall-clock budget during
            verification.  Quota trips surface as an invalid report
            (reference- and signature-level), never an untyped crash.
    """

    def __init__(self, *, trust_store: TrustStore | None = None,
                 require_trusted_key: bool = False,
                 resolver=None, key_locator=None,
                 provider: CryptoProvider | None = None,
                 max_references: int = 256,
                 cache: C14NDigestCache | None = None,
                 now: float = 0.0,
                 guard=None):
        self.trust_store = trust_store
        self.require_trusted_key = require_trusted_key
        self.resolver = resolver
        self.key_locator = key_locator
        self._provider = provider
        # Threads may share one verifier; a late-bound provider swap
        # must be atomic and each verification must run against a
        # single snapshot (never half old, half new provider).
        self._provider_lock = threading.Lock()
        # Defence against reference-flood DoS in hostile downloads: a
        # signature naming thousands of references would otherwise make
        # the player dereference and digest each one before rejecting.
        self.max_references = max_references
        self.cache = cache if cache is not None else get_default_cache()
        self.now = now
        self.guard = guard

    @property
    def provider(self) -> CryptoProvider:
        """The pinned provider, or the current process default."""
        return self._provider or get_provider()

    @provider.setter
    def provider(self, value: CryptoProvider | None) -> None:
        with self._provider_lock:
            self._provider = value

    def verify(self, signature: Element, *, key=None,
               document_root: Element | None = None,
               decryptor=None,
               namespaces: dict[str, str] | None = None,
               ) -> VerificationReport:
        """Verify *signature* and return a :class:`VerificationReport`.

        Args:
            signature: the ds:Signature element (in document context).
            key: explicit verification key (overrides KeyInfo).
            document_root: root of the signed document; defaults to the
                top of *signature*'s tree.
            decryptor: decryptor for decryption transforms.
            namespaces: prefix map for XPath transforms.
        """
        # One provider snapshot per verification: a concurrent swap
        # must not split the signature check and the reference digests
        # between two implementations.
        provider = self.provider
        with metrics.timer("dsig.verify"), \
                metrics.timer(f"dsig.verify.{provider.name}"):
            metrics.counter("dsig.verify.signatures").increment()
            return self._verify(
                signature, key=key, document_root=document_root,
                decryptor=decryptor, namespaces=namespaces,
                provider=provider,
            )

    def _verify(self, signature: Element, *, key=None,
                document_root: Element | None = None,
                decryptor=None,
                namespaces: dict[str, str] | None = None,
                provider: CryptoProvider | None = None,
                ) -> VerificationReport:
        if provider is None:
            provider = self.provider
        report = VerificationReport()
        if signature.local != "Signature" or signature.ns_uri != DSIG_NS:
            report.error = "not a ds:Signature element"
            return report
        if document_root is None:
            document_root = top_element(signature)

        signed_info_el = signature.first_child("SignedInfo", DSIG_NS)
        value_el = signature.first_child("SignatureValue", DSIG_NS)
        if signed_info_el is None or value_el is None:
            report.error = "signature missing SignedInfo or SignatureValue"
            return report
        try:
            signed_info = SignedInfo.from_element(signed_info_el)
            signature_value = b64decode(value_el.text_content())
        except Exception as exc:
            report.error = f"malformed signature: {exc}"
            return report
        if len(signed_info.references) > self.max_references:
            report.error = (
                f"signature names {len(signed_info.references)} "
                f"references (limit {self.max_references}); refusing"
            )
            return report
        if self.guard is not None:
            try:
                self.guard.check_deadline()
                self.guard.check_reference_count(len(signed_info.references))
            except ResourceLimitExceeded as exc:
                report.error = f"refusing signature: {exc}"
                return report

        verification_key = self._resolve_key(signature, key, report)
        if verification_key is None:
            # No key, no signature check — but reference digests are
            # key-independent, so still run them below: a mismatch is
            # positive evidence of tampering that callers (e.g. the
            # playback pipeline's degradation logic) must not lose just
            # because the trust service was unreachable.
            if not report.error:
                report.error = "no verification key available"
        else:
            # Core signature validation over canonical SignedInfo.  The
            # canonical octets are cached against the *true* top of the
            # tree, whose revision stamp changes on any mutation in
            # scope of SignedInfo's inherited namespace context.
            try:
                octets = self.cache.canonical_octets(
                    top_element(signed_info_el), signed_info_el,
                    signed_info.c14n_method,
                    signed_info.inclusive_prefixes,
                    lambda: canonicalize(
                        signed_info_el, signed_info.c14n_method,
                        signed_info.inclusive_prefixes,
                    ),
                )
                report.signature_valid = self.cache.signature_verification(
                    signed_info.signature_method, verification_key,
                    octets, signature_value,
                    lambda: algorithms.verify_signature(
                        signed_info.signature_method, verification_key,
                        octets, signature_value, provider,
                    ),
                )
            except Exception as exc:
                report.error = f"signature validation failed: {exc}"
                return report

        # Reference validation.
        context = ReferenceContext(
            root=document_root, signature=signature,
            resolver=self.resolver, decryptor=decryptor,
            namespaces=namespaces or {}, cache=self.cache,
            guard=self.guard,
        )
        report.references = [
            check_reference(reference, context, provider)
            for reference in signed_info.references
        ]
        return report

    def verify_or_raise(self, signature: Element, **kwargs
                        ) -> VerificationReport:
        """Like :meth:`verify` but raises on any failure."""
        report = self.verify(signature, **kwargs)
        report.raise_if_invalid()
        return report

    # -- internals -------------------------------------------------------------------

    def _resolve_key(self, signature: Element, explicit_key,
                     report: VerificationReport):
        if explicit_key is not None:
            report.key_source = "explicit"
            return explicit_key
        key_info_el = signature.first_child("KeyInfo", DSIG_NS)
        if key_info_el is None:
            report.error = "signature has no KeyInfo and no explicit key"
            return None
        try:
            key_info = KeyInfo.from_element(key_info_el)
        except Exception as exc:
            report.error = f"malformed KeyInfo: {exc}"
            return None

        if key_info.certificates:
            leaf = key_info.certificates[0]
            report.signer_subject = leaf.subject
            report.key_source = "certificate"
            if self.trust_store is not None:
                report.certificate_validation = \
                    self.cache.chain_validation(
                        self.trust_store, key_info.certificates,
                        self.now, "digitalSignature",
                        lambda: self.trust_store.validate_chain(
                            key_info.certificates, now=self.now,
                        ),
                    )
            elif self.require_trusted_key:
                report.error = (
                    "trusted key required but verifier has no trust store"
                )
                return None
            return leaf.public_key

        if key_info.key_value is not None:
            if self.require_trusted_key:
                report.error = (
                    "bare KeyValue refused: player requires a key "
                    "traceable to a trusted root"
                )
                return None
            report.key_source = "key-value"
            return key_info.key_value

        if key_info.key_name and self.key_locator is not None:
            located = self.key_locator(key_info.key_name)
            if located is not None:
                report.key_source = "key-name"
                return located
            report.error = (
                f"key name {key_info.key_name!r} could not be located"
            )
            return None

        report.error = "KeyInfo present but unusable"
        return None
