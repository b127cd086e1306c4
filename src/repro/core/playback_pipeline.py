"""The player-side end-to-end security pipeline (Fig 9, right half).

Order of operations on reception:

1. parse the package;
2. **verify** the signature — references carrying the Decryption
   Transform are digested over the *decrypted* regions (minus the
   ``dcrpt:Except`` ones), so sign-then-encrypt packages validate;
3. if the player's policy requires a trusted signer and verification
   fails, the application is **barred** (Fig 3);
4. **decrypt** everything decryptable for execution;
5. evaluate the permission request file against the platform policy —
   trust-gated permissions are only granted to verified applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.certs.store import TrustStore
from repro.core.package import PackageView, parse_package
from repro.disc.manifest import ApplicationManifest
from repro.dsig.verifier import VerificationReport, Verifier
from repro.errors import (
    ApplicationRejectedError, DiscFormatError, NetworkError,
    ResourceLimitExceeded, XKMSError,
)
from repro.perf import metrics
from repro.permissions.request_file import (
    GrantSet, PlatformPermissionPolicy,
)
from repro.primitives.keys import RSAPrivateKey, SymmetricKey
from repro.primitives.provider import CryptoProvider, get_provider
from repro.resilience.degradation import DegradationEvent, DegradationLog
from repro.resilience.limits import ResourceGuard, ResourceLimits
from repro.xmlcore import DISC_NS
from repro.xmlenc.decryptor import Decryptor


@dataclass
class VerifiedApplication:
    """What the engine gets to execute."""

    manifest: ApplicationManifest
    grants: GrantSet
    trusted: bool
    report: VerificationReport | None = None
    signer_subject: str | None = None
    degradations: list[DegradationEvent] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when trust was downgraded by infrastructure failure."""
        return bool(self.degradations)


@dataclass
class PlaybackPipeline:
    """Opens, verifies and decrypts application packages.

    Args:
        trust_store: the player's root certificates.
        device_key: the player's RSA private key (``rsa-1_5`` CEK
            transport).
        key_slots: named symmetric keys (shared KEKs, disc keys).
        permission_policy: platform stance on permission requests.
        require_signature: Fig 3 policy — bar applications that do not
            verify against a trusted root.
        key_locator: optional ``key_name -> public key`` hook (an
            :meth:`repro.xkms.XKMSClient.locate`) consulted for
            ``ds:KeyName``-only signatures.  When the hook fails with a
            network/XKMS error the pipeline *degrades* instead of
            crashing: verification falls back to the local trust store
            and — if the key still cannot be established — the
            application runs with ``trusted=False`` and the reason
            recorded, rather than aborting playback.
        limits: resource quotas for untrusted package input; a fresh
            :class:`ResourceGuard` is minted per ``open_package`` call
            and threaded through parse → verify → decrypt, so a
            resource attack is rejected (and recorded in the
            degradation log) instead of exhausting the device.
        now: simulation time for certificate checks.
    """

    trust_store: TrustStore
    device_key: RSAPrivateKey | None = None
    key_slots: dict[str, SymmetricKey] = field(default_factory=dict)
    permission_policy: PlatformPermissionPolicy = field(
        default_factory=PlatformPermissionPolicy
    )
    require_signature: bool = True
    key_locator: Callable | None = None
    degradation: DegradationLog = field(default_factory=DegradationLog)
    provider: CryptoProvider | None = None
    limits: ResourceLimits = field(default_factory=ResourceLimits.default)
    now: float = 0.0

    def __post_init__(self):
        self.provider = self.provider or get_provider()

    def _guarded_locator(self, events: list[DegradationEvent]):
        """Wrap ``key_locator`` so infrastructure failures degrade.

        A dead trust service answers "key not located" (``None``) and
        the failure is recorded; a substituted or malformed answer
        (``XKMSError`` from a live transport) still records but also
        yields no key — the signature then fails closed to untrusted.
        """
        if self.key_locator is None:
            return None

        def locate(key_name: str):
            try:
                return self.key_locator(key_name)
            except (NetworkError, XKMSError) as exc:
                events.append(self.degradation.record(
                    "xkms", key_name, exc,
                ))
                return None
        return locate

    def _decryptor(self, guard: ResourceGuard | None = None) -> Decryptor:
        decryptor = Decryptor(provider=self.provider, guard=guard)
        for name, key in self.key_slots.items():
            decryptor.add_key(name, key)
        if self.device_key is not None:
            decryptor.add_rsa_key(self.device_key)
        return decryptor

    def open_package(self, data: bytes | str) -> VerifiedApplication:
        """Verify and unlock a package; raises if the player must bar it.

        Every region the player's keys can decrypt is decrypted for
        execution, ``dcrpt:Except`` regions included (the signature
        covered their ciphertext).

        Raises:
            ApplicationRejectedError: unsigned/invalid application under
                a require-signature policy (Fig 3: "the application is
                barred from being executed").
        """
        with metrics.timer("pipeline.open_package"):
            metrics.counter("pipeline.packages_opened").increment()
            return self._open_package(data)

    def _open_package(self, data: bytes | str) -> VerifiedApplication:
        from repro.errors import XMLError
        guard = ResourceGuard(self.limits)
        try:
            view = parse_package(data, guard=guard)
        except ResourceLimitExceeded as exc:
            # A structural resource attack is not a transient failure:
            # record the degradation and bar the package.
            self.degradation.record("package", "open", exc)
            raise ApplicationRejectedError(
                f"package exceeds resource limits (hostile or "
                f"corrupted): {exc}"
            ) from None
        except XMLError as exc:
            raise ApplicationRejectedError(
                f"package is not well-formed XML (corrupted or "
                f"tampered): {exc}"
            ) from None
        decryptor = self._decryptor(guard)
        report: VerificationReport | None = None
        signer_subject: str | None = None
        trusted = False
        infra_events: list[DegradationEvent] = []

        if view.signature_element is not None:
            verifier = Verifier(
                trust_store=self.trust_store, require_trusted_key=True,
                key_locator=self._guarded_locator(infra_events),
                provider=self.provider, now=self.now, guard=guard,
            )
            report = verifier.verify(view.signature_element,
                                     decryptor=decryptor)
            trusted = report.valid
            signer_subject = report.signer_subject
            if self.require_signature and not trusted:
                # Degrade, don't crash, when the *infrastructure* — not
                # the signature — failed: the trust service was
                # unreachable and nothing proved tampering (no reference
                # digest mismatched).  The application runs untrusted
                # with the reason recorded; trust-gated permissions stay
                # denied.  Any positive evidence of tampering still bars.
                evidence_of_tampering = any(
                    not r.valid for r in report.references
                )
                if not (infra_events and not evidence_of_tampering):
                    if guard.trips:
                        # The signature failed because a resource quota
                        # fired mid-verification (e.g. a decrypt bomb
                        # behind a Decryption Transform): put the real
                        # reason on the log before barring.
                        self.degradation.record("package", "verify",
                                                guard.trips[-1])
                    raise ApplicationRejectedError(
                        "signature verification failed; application "
                        "barred: " + "; ".join(
                            ([report.error] if report.error else [])
                            + [r.error for r in report.references
                               if not r.valid]
                        )
                    )
        elif self.require_signature:
            raise ApplicationRejectedError(
                "unsigned application barred by player policy"
            )

        # Unlock for execution.  A decrypt bomb (plaintext quota or
        # expansion-ratio trip) bars the package like any other
        # resource attack — with the decision on the degradation log.
        try:
            decryptor.decrypt_in_place(view.root)
        except ResourceLimitExceeded as exc:
            self.degradation.record("package", "decrypt", exc)
            raise ApplicationRejectedError(
                f"package decryption exceeds resource limits "
                f"(decrypt bomb?): {exc}"
            ) from None
        manifest_element = view.root.first_child("manifest", DISC_NS) \
            or view.root.find("manifest", DISC_NS) \
            or view.root.find("manifest")
        if manifest_element is None:
            raise DiscFormatError(
                "package contains no manifest after decryption"
            )
        manifest = ApplicationManifest.from_element(manifest_element)

        grants = self._grants(view, trusted)
        return VerifiedApplication(
            manifest=manifest, grants=grants, trusted=trusted,
            report=report, signer_subject=signer_subject,
            degradations=infra_events,
        )

    def _grants(self, view: PackageView, trusted: bool) -> GrantSet:
        if view.permission_file is None:
            from repro.permissions.request_file import (
                PermissionRequestFile,
            )
            empty = PermissionRequestFile(app_id="unknown", org_id="")
            return self.permission_policy.decide(empty, trusted=trusted)
        return self.permission_policy.decide(view.permission_file,
                                             trusted=trusted)
