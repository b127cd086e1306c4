"""The player-side end-to-end security pipeline (Fig 9, right half).

Order of operations on reception:

1. parse the package;
2. **verify** every root signature — references carrying the
   Decryption Transform are digested over the *decrypted* regions
   (minus the ``dcrpt:Except`` ones): sign-then-encrypt validates;
3. under a require-signature policy, an application whose signatures
   fail or do not cover its manifest is **barred** (Fig 3);
4. **decrypt** the manifest for execution;
5. evaluate the permission request file against the platform policy —
   trust-gated permissions are only granted to verified applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.certs.store import TrustStore
from repro.core.package import PackageView, package_manifest, parse_package
from repro.disc.manifest import ApplicationManifest
from repro.dsig.reference import outside_signatures
from repro.dsig.verifier import VerificationReport, Verifier
from repro.errors import (
    ApplicationRejectedError, DecryptionError, DiscFormatError,
    NetworkError, ResourceLimitExceeded, XKMSError, XMLError,
)
from repro.perf import metrics
from repro.perf.batch import BatchOutcome, BatchVerifier
from repro.permissions.request_file import (
    GrantSet, PermissionRequestFile, PlatformPermissionPolicy,
)
from repro.primitives.keys import RSAPrivateKey, SymmetricKey
from repro.primitives.provider import CryptoProvider, get_provider
from repro.resilience.degradation import DegradationEvent, DegradationLog
from repro.resilience.limits import ResourceGuard, ResourceLimits
from repro.xmlcore import XMLENC_NS
from repro.xmlcore.tree import Element
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


def find_manifest(root: Element, decryptor: Decryptor,
                  pick: Callable[[Element], Element | None]
                  ) -> tuple[Element, Element] | None:
    """The manifest *pick* finds in *root*, and the element of *root*
    judged for it: itself, or the EncryptedData it is decrypted from."""
    found = pick(root)
    if found is not None:
        return found, found
    for encrypted in outside_signatures(root):
        if not encrypted.matches("EncryptedData", XMLENC_NS):
            continue
        plaintext = Element("plaintext")
        plaintext.append(encrypted.copy())
        decryptor.decrypt_in_place(plaintext)
        found = pick(plaintext)
        if found is not None:
            return found, encrypted
    return None


def bar_uncovered(trust: BatchOutcome, judged: Element, name: str,
                  source: str) -> None:
    """Bar application *name* unless a *source* signature covers
    *judged* (the wrapping defence)."""
    if trust.covers(judged):
        return
    if trust.covers_part_of(judged):
        raise ApplicationRejectedError(
            f"application {name!r} is not covered by a {source} "
            "signature as a whole: only parts of it are signed, below "
            f"manifest level (a {source} signed at that level, or "
            "signed parts moved into it)"
        )
    raise ApplicationRejectedError(
        f"application {name!r} is not covered by any {source} "
        "signature (wrapping attack suspected)"
    )


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
        return Decryptor(keys=self.key_slots, rsa_key=self.device_key,
                         provider=self.provider, guard=guard)

    def verify_root(self, root: Element, *, resolver=None,
                    key_locator=None,
                    guard: ResourceGuard | None = None) -> BatchOutcome:
        """The one verify-and-coverage pass over a package or cluster."""
        verifier = Verifier(
            trust_store=self.trust_store, require_trusted_key=True,
            resolver=resolver, key_locator=key_locator,
            provider=self.provider, now=self.now, guard=guard,
        )
        return BatchVerifier(verifier).verify_all(
            root, decryptor=self._decryptor(guard),
        )

    def open_package(self, data: bytes | str) -> VerifiedApplication:
        """Verify and unlock a package; raises if the player must bar it.

        Trusted when every root signature verifies and one covers the
        manifest, which is decrypted for execution, ``dcrpt:Except``
        regions included (the signature covered their ciphertext).

        Raises:
            ApplicationRejectedError: unsigned/invalid application under
                a require-signature policy (Fig 3: "the application is
                barred from being executed").
        """
        with metrics.timer("pipeline.open_package"):
            metrics.counter("pipeline.packages_opened").increment()
            return self._open_package(data)

    def _open_package(self, data: bytes | str) -> VerifiedApplication:
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
        infra_events: list[DegradationEvent] = []
        trust = self.verify_root(
            view.root, key_locator=self._guarded_locator(infra_events),
            guard=guard,
        )
        if self.require_signature and not trust.authenticated:
            if not trust.signatures:
                raise ApplicationRejectedError(
                    "unsigned application barred by player policy"
                )
            # Degrade, don't crash, when the *infrastructure* — not a
            # signature — failed: the trust service was unreachable and
            # nothing proved tampering (no reference of any signature or
            # signed ds:Manifest failed).  The application runs
            # untrusted with the reason recorded; trust-gated
            # permissions stay denied.  Any evidence of tampering bars.
            invalid = [result for report in trust.signatures.values()
                       for result in report.references if not result.valid]
            invalid += [result for check in trust.manifest_validations.values()
                        for result in check.results if not result.valid]
            if not infra_events or invalid:
                if guard.trips:
                    # A signature failed because a resource quota fired
                    # mid-verification (e.g. a decrypt bomb behind a
                    # Decryption Transform): put the real reason on the
                    # log before barring.
                    self.degradation.record("package", "verify",
                                            guard.trips[-1])
                raise ApplicationRejectedError(
                    "signature verification failed; application "
                    "barred: " + "; ".join(
                        [report.error for report in trust.signatures.values()
                         if report.error]
                        + [result.error for result in invalid]
                    )
                )

        # Judge the manifest on the verified tree, then unlock it.  A
        # decrypt bomb (plaintext quota or expansion-ratio trip) bars
        # the package, and so does code sealed to another device key:
        # either way the decision goes on the degradation log.
        decryptor = trust.decryptor
        try:
            found = find_manifest(view.root, decryptor, package_manifest)
            if found is None:
                raise DiscFormatError(
                    "package contains no manifest after decryption"
                )
            manifest_element, judged = found
            if self.require_signature and trust.authenticated:
                bar_uncovered(trust, judged, manifest_element.get("name"),
                              "package")
            decryptor.decrypt_in_place(manifest_element)
        except ResourceLimitExceeded as exc:
            self.degradation.record("package", "decrypt", exc)
            raise ApplicationRejectedError(
                f"package decryption exceeds resource limits "
                f"(decrypt bomb?): {exc}"
            ) from None
        except DecryptionError as exc:
            self.degradation.record("package", "decrypt", exc)
            raise ApplicationRejectedError(
                f"package does not decrypt for this player: {exc}"
            ) from None

        trusted = trust.covers(judged)
        report = next(iter(trust.signatures.values()), None)  # the first
        return VerifiedApplication(
            manifest=ApplicationManifest.from_element(manifest_element),
            grants=self._grants(view, trusted), trusted=trusted,
            report=report, degradations=infra_events,
            signer_subject=report.signer_subject if report else None,
        )

    def _grants(self, view: PackageView, trusted: bool) -> GrantSet:
        request = view.permission_file or PermissionRequestFile(
            app_id="unknown", org_id="")
        return self.permission_policy.decide(request, trusted=trusted)
