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
made.
"""

from __future__ import annotations

# perfbench's tracer swaps this name when it installs, to carry its
# span context into pooled work; nothing here submits to a pool.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field

from repro.perf import metrics
from repro.xmlcore import DSIG_NS
from repro.xmlcore.tree import Element
from repro.dsig.verifier import VerificationReport, Verifier


@dataclass
class BatchOutcome:
    """Everything a batch run produced.

    Attributes:
        reports: per-signature reports keyed by the signature's first
            reference URI (``""`` for whole-document signatures).  When
            two signatures share a key, an invalid report is never
            replaced, so the verdict does not depend on their order.
        total_references: references checked across all signatures.
    """

    reports: dict[str, VerificationReport] = field(default_factory=dict)
    total_references: int = 0

    @property
    def all_valid(self) -> bool:
        return bool(self.reports) and all(
            report.valid for report in self.reports.values()
        )


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
            outcome = BatchOutcome()
            for child in list(root.child_elements()):
                if child.local != "Signature" or child.ns_uri != DSIG_NS:
                    continue
                report = self.verifier.verify(
                    child, decryptor=decryptor, namespaces=namespaces
                )
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
