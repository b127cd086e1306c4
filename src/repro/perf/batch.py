"""Batch verification: every signature under a root, in one loop.

:meth:`BatchVerifier.verify_all` is the one loop that verifies the
``ds:Signature`` children of a root (a cluster, a track group, or a
manifest-carrying element); :func:`repro.core.verify_signatures` is a
thin wrapper over it.  It makes one :meth:`Verifier.verify` call per
signature, in document order, on the calling thread, and checks each
signature against its whole document, so an ``Id`` duplicated
anywhere in that document is refused even when *root* is a subtree.

The loop needs no dedup pass of its own: the verifier's
:class:`~repro.perf.cache.C14NDigestCache` digests a subtree once per
tree revision, so a second signature over the same subtree is a cache
hit, and a ``ResourceGuard`` meters the digests in the order they are
made.  Its :class:`BatchOutcome` owns the player's trust decision.
"""

from __future__ import annotations

# perfbench's tracer swaps this name when it installs, to carry its
# span context into pooled work; nothing here submits to a pool.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from functools import cached_property

from repro.perf import metrics
from repro.xmlcore import DSIG_NS
from repro.xmlcore.tree import Element
from repro.dsig.manifest import (
    ManifestValidation,
    validate_manifest_references,
)
from repro.dsig.reference import signature_coverage, signed_manifests
from repro.dsig.verifier import VerificationReport, Verifier


@dataclass
class BatchOutcome:
    """Everything a batch run produced, and the trust it grants.

    Attributes:
        reports: per-signature reports keyed by the signature's first
            reference URI (``""`` for whole-document signatures).  When
            two signatures share a key, an invalid report is never
            replaced, so the verdict does not depend on their order.
        total_references: references checked across all signatures.
        signatures: each ds:Signature with its own report, in order.

    The trust decision is made on first use: reading only the reports
    costs nothing more.
    """

    reports: dict[str, VerificationReport] = field(default_factory=dict)
    total_references: int = 0
    signatures: dict[Element, VerificationReport] = field(default_factory=dict)
    verifier: Verifier | None = field(default=None, repr=False, compare=False)
    decryptor: object = field(default=None, repr=False, compare=False)

    @property
    def all_valid(self) -> bool:
        return bool(self.reports) and all(
            report.valid for report in self.reports.values()
        )

    @cached_property
    def manifest_validations(self) -> dict[str, ManifestValidation]:
        """Every entry of the ds:Manifests each signature signs, checked
        once all signatures are valid (none before), by signature Id."""
        if not self.all_valid:
            return {}
        verifier = self.verifier
        return {
            signature.get("Id") or "?": validate_manifest_references(
                signature,
                resolver=verifier.resolver,
                decryptor=self.decryptor,
                provider=verifier.provider,
                cache=verifier.cache,
            )
            for signature in self.signatures
            if signed_manifests(signature)
        }

    @cached_property
    def authenticated(self) -> bool:
        """Every signature is valid, and so is every manifest entry
        they sign."""
        return self.all_valid and all(
            validation.all_valid
            for validation in self.manifest_validations.values()
        )

    @cached_property
    def covered(self) -> set[Element]:
        """The elements whose whole subtrees the signatures vouch for;
        none unless the root authenticates."""
        if not self.authenticated:
            return set()
        return {
            target
            for signature in self.signatures
            for _, target in signature_coverage(signature)
            if target is not None
        }

    def covers(self, element: Element) -> bool:
        """True if *element* lies in a subtree a signature vouches for.
        Inside a ds:Signature only a reference below it counts: the
        enveloped-signature transform leaves the signature out."""
        node = element
        while isinstance(node, Element):
            if node in self.covered:
                return True
            if node.matches("Signature", DSIG_NS):
                return False
            node = node.parent
        return False

    def covers_part_of(self, element: Element) -> bool:
        """True if *element* or an element inside it is covered."""
        return any(node in self.covered for node in element.iter())


class BatchVerifier:
    """Verifies all signatures under a root with one verifier.

    Args:
        verifier: the configured :class:`Verifier` whose policy (trust
            store, key handling, cache, guard) every signature gets.
    """

    def __init__(self, verifier: Verifier):
        self.verifier = verifier

    def verify_all(
        self,
        root: Element,
        *,
        decryptor=None,
        namespaces: dict[str, str] | None = None,
    ) -> BatchOutcome:
        """Verify every ds:Signature directly under *root*."""
        with metrics.timer("dsig.batch.verify_all"):
            outcome = BatchOutcome(verifier=self.verifier, decryptor=decryptor)
            for child in list(root.child_elements()):
                if child.local != "Signature" or child.ns_uri != DSIG_NS:
                    continue
                report = self.verifier.verify(
                    child, decryptor=decryptor, namespaces=namespaces
                )
                outcome.signatures[child] = report
                outcome.total_references += len(report.references)
                uri = _first_reference_uri(child)
                earlier = outcome.reports.get(uri)
                if earlier is None or earlier.valid:
                    outcome.reports[uri] = report
            metrics.counter("dsig.batch.references").increment(
                outcome.total_references
            )
            return outcome


def _first_reference_uri(signature: Element) -> str:
    reference = signature.find("Reference", DSIG_NS)
    if reference is None:
        return ""
    return reference.get("URI") or ""
