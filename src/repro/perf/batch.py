"""Batch verification engine: dedup shared subtrees, fan out workers.

``verify_signatures`` walks a cluster's signatures one by one; every
``ds:Reference`` re-canonicalizes and re-digests its subtree from
scratch, so player-side verify cost grows linearly with the number of
signed sub-markups (the ABL-GRAN sweep).  The batch engine instead:

1. collects every ``ds:Signature`` directly under a root (a cluster,
   a track group, or a manifest-carrying element);
2. **deduplicates** references that resolve to the same subtree with
   the same canonicalization parameters and digest algorithm, and
   pre-computes each unique digest exactly once, in document order,
   into the shared :class:`~repro.perf.cache.C14NDigestCache`;
3. verifies the signatures across a ``concurrent.futures`` thread
   pool (auto-sized to the machine) that shares the live tree and the
   cache, and fans the per-reference verdicts back into ordinary
   :class:`~repro.dsig.verifier.VerificationReport` objects.

Results are byte-for-byte the same verdicts the sequential path
produces — the cache's revision-stamp invariant guarantees a digest is
never reused across a mutation.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.errors import ReproError, SignatureError
from repro.perf import metrics
from repro.xmlcore import DSIG_NS
from repro.xmlcore.tree import Element
from repro.dsig.reference import (
    ReferenceContext, _fast_path_target, compute_reference_digest,
)
from repro.dsig.signedinfo import SignedInfo
from repro.dsig.verifier import VerificationReport, Verifier


def auto_worker_count(jobs: int | None = None) -> int:
    """Pool size: bounded by the CPU count and the number of jobs."""
    workers = min(8, os.cpu_count() or 2)
    if jobs is not None:
        workers = min(workers, jobs)
    return max(1, workers)


@dataclass
class BatchOutcome:
    """Everything a batch run produced.

    Attributes:
        reports: per-signature reports keyed like
            :func:`repro.core.granularity.verify_signatures` — the
            signature's first reference URI (``""`` for
            whole-document signatures).
        total_references: references seen across all signatures.
        deduplicated: references whose digest was shared with an
            earlier identical reference instead of recomputed.
        workers: pool size used.
    """

    reports: dict[str, VerificationReport] = field(default_factory=dict)
    total_references: int = 0
    deduplicated: int = 0
    workers: int = 1

    @property
    def all_valid(self) -> bool:
        return bool(self.reports) and all(
            report.valid for report in self.reports.values()
        )


class BatchVerifier:
    """Verifies all signatures under a root through a worker pool.

    Args:
        verifier: the configured :class:`Verifier` whose policy (trust
            store, key handling, cache) every worker applies.
        max_workers: pool size; ``None`` auto-sizes to the machine.
    """

    def __init__(self, verifier: Verifier, *,
                 max_workers: int | None = None):
        self.verifier = verifier
        self.max_workers = max_workers

    # -- public API -------------------------------------------------------------

    def verify_all(self, root: Element, *, decryptor=None,
                   namespaces: dict[str, str] | None = None
                   ) -> BatchOutcome:
        """Verify every ds:Signature directly under *root*."""
        with metrics.timer("dsig.batch.verify_all"):
            return self._verify_all(root, decryptor=decryptor,
                                    namespaces=namespaces)

    def _verify_all(self, root: Element, *, decryptor,
                    namespaces) -> BatchOutcome:
        signatures = [
            child for child in root.child_elements()
            if child.local == "Signature" and child.ns_uri == DSIG_NS
        ]
        outcome = BatchOutcome()
        if not signatures:
            return outcome

        outcome.total_references, outcome.deduplicated = \
            self._precompute_unique_digests(root, signatures)
        metrics.counter("dsig.batch.references").increment(
            outcome.total_references
        )
        metrics.counter("dsig.batch.deduplicated").increment(
            outcome.deduplicated
        )

        if len(signatures) > 1:
            reports = self._run_threads(root, signatures, decryptor,
                                        namespaces)
            outcome.workers = auto_worker_count(len(signatures)) \
                if self.max_workers is None else self.max_workers
        else:
            reports = [self.verifier.verify(
                signatures[0], document_root=root, decryptor=decryptor,
                namespaces=namespaces,
            )]

        for signature, report in zip(signatures, reports):
            outcome.reports[_first_reference_uri(signature)] = report
        return outcome

    # -- dedup pre-pass ----------------------------------------------------------

    def _precompute_unique_digests(self, root: Element,
                                   signatures: list[Element]
                                   ) -> tuple[int, int]:
        """Compute each unique cacheable reference digest exactly once.

        Returns ``(total_references, deduplicated)``.  Only references
        eligible for the cached fast path participate; the rest are
        computed by their own signature's verification as usual.  The
        verifier's guard meters every digest made here, so a quota
        trips on the same references as on the sequential path.
        """
        cache = self.verifier.cache
        context = ReferenceContext(root=root, cache=cache,
                                   guard=self.verifier.guard)
        total = 0
        unique = {}
        for signature in signatures:
            signed_info_el = signature.first_child("SignedInfo", DSIG_NS)
            if signed_info_el is None:
                continue
            try:
                signed_info = SignedInfo.from_element(signed_info_el)
            except SignatureError:
                continue  # the per-signature verify reports the error
            for reference in signed_info.references:
                total += 1
                try:
                    target = _fast_path_target(reference, context)
                except ReproError:
                    continue  # a missing or duplicated Id: verify says so
                if target is None:
                    continue
                transforms = reference.transforms
                algorithm = transforms[0].algorithm if transforms \
                    else None
                prefixes = transforms[0].inclusive_prefixes \
                    if transforms else ()
                key = (id(target), algorithm, prefixes,
                       reference.digest_method)
                unique.setdefault(key, reference)
        duplicates = total - len(unique) if unique else 0

        # In document order, one at a time, as the sequential path makes
        # them: a guard meters in that order, and which digests fit a
        # quota depends on it.
        for reference in unique.values():
            try:
                compute_reference_digest(reference, context,
                                         self.verifier.provider)
            except ReproError:
                pass  # the owning signature's verify reports it
        return total, max(0, duplicates)

    # -- execution backends -------------------------------------------------------

    def _run_threads(self, root, signatures, decryptor,
                     namespaces) -> list[VerificationReport]:
        workers = self.max_workers or auto_worker_count(len(signatures))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(self.verifier.verify, signature,
                            document_root=root, decryptor=decryptor,
                            namespaces=namespaces)
                for signature in signatures
            ]
            return [future.result() for future in futures]


def _first_reference_uri(signature: Element) -> str:
    reference = signature.find("Reference", DSIG_NS)
    if reference is None:
        return ""
    return reference.get("URI") or ""
