"""Signing/encryption granularity levels (Figs 4 and 5).

The paper's central flexibility argument: XML security can be applied
at every level of the content hierarchy — the whole Interactive
Cluster, individual Tracks, the Manifest, its Markup or Code part,
single SubMarkups or single Scripts.  "For player platforms, this
flexibility translates into better performance" (§9) — the ABL-GRAN
bench quantifies exactly that.

``sign_at_level`` produces one detached signature per target (or one
enveloped signature for the cluster level), appended to the cluster
root; ``verify_signatures`` checks them all and reports per-target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import SignatureError
from repro.dsig.signer import Signer
from repro.dsig.verifier import VerificationReport, Verifier
from repro.perf.batch import BatchVerifier
from repro.primitives.keys import SymmetricKey
from repro.xmlcore import DISC_NS, XMLENC_NS
from repro.xmlcore.tree import Element
from repro.xmlenc.encryptor import Encryptor


class ProtectionLevel(Enum):
    """Where in the hierarchy protection is applied."""

    CLUSTER = "cluster"
    TRACK = "track"
    MANIFEST = "manifest"
    MARKUP = "markup"
    CODE = "code"
    SUBMARKUP = "submarkup"
    SCRIPT = "script"


_LEVEL_LOCAL_NAMES = {
    ProtectionLevel.TRACK: "track",
    ProtectionLevel.MANIFEST: "manifest",
    ProtectionLevel.MARKUP: "markup",
    ProtectionLevel.CODE: "code",
    ProtectionLevel.SUBMARKUP: "submarkup",
    ProtectionLevel.SCRIPT: "script",
}


def protection_targets(cluster_root: Element,
                       level: ProtectionLevel) -> list[Element]:
    """The markup targets at *level* inside *cluster_root*.

    Every returned element carries an ``Id`` attribute (required so a
    detached signature can reference it); elements lacking one are
    rejected rather than silently skipped.
    """
    if level is ProtectionLevel.CLUSTER:
        return [cluster_root]
    local = _LEVEL_LOCAL_NAMES[level]
    targets = [
        el for el in cluster_root.iter(local)
        if el.ns_uri in (DISC_NS, None)
    ]
    for target in targets:
        if not target.get("Id"):
            raise SignatureError(
                f"{local} element lacks an Id attribute; cannot be a "
                "signing target"
            )
    return targets


@dataclass
class LevelProtectionResult:
    """What a level-wide signing/encryption pass produced."""

    level: ProtectionLevel
    target_ids: list[str] = field(default_factory=list)
    signatures: list[Element] = field(default_factory=list)
    protected_bytes: int = 0


def sign_at_level(cluster_root: Element, level: ProtectionLevel,
                  signer: Signer) -> LevelProtectionResult:
    """Sign every target at *level*; signatures live on the cluster root.

    The cluster level uses a single enveloped signature over the whole
    document; all other levels use one detached same-document signature
    per target.
    """
    from repro.xmlcore import canonicalize
    result = LevelProtectionResult(level)
    if level is ProtectionLevel.CLUSTER:
        signature = signer.sign_enveloped(cluster_root)
        result.signatures.append(signature)
        result.target_ids.append(cluster_root.get("Id") or "")
        result.protected_bytes = len(canonicalize(cluster_root))
        return result
    for target in protection_targets(cluster_root, level):
        target_id = target.get("Id") or ""
        signature = signer.sign_detached(f"#{target_id}",
                                         parent=cluster_root)
        result.signatures.append(signature)
        result.target_ids.append(target_id)
        result.protected_bytes += len(canonicalize(target))
    return result


def verify_signatures(cluster_root: Element, verifier: Verifier, *,
                      decryptor=None) -> dict[str, VerificationReport]:
    """Verify every ds:Signature directly under *cluster_root*.

    Returns the ``reports`` of one
    :meth:`repro.perf.BatchVerifier.verify_all` pass: a map from each
    signature's first reference URI to its report (``""`` for
    whole-document signatures).  The signatures are checked in
    document order, each against its whole document, and an invalid
    report is never replaced by a later one under the same URI.
    """
    return BatchVerifier(verifier).verify_all(
        cluster_root, decryptor=decryptor,
    ).reports


def encrypt_at_level(cluster_root: Element, level: ProtectionLevel,
                     encryptor: Encryptor, key: SymmetricKey, *,
                     key_name: str | None = None,
                     algorithm: str | None = None
                     ) -> LevelProtectionResult:
    """Encrypt every target at *level* in place (Figs 7 and 8)."""
    from repro.xmlcore import canonicalize
    from repro.xmlenc import algorithms as xenc_algorithms
    algorithm = algorithm or xenc_algorithms.AES128_CBC
    result = LevelProtectionResult(level)
    if level is ProtectionLevel.CLUSTER:
        raise SignatureError(
            "encrypting the whole cluster would hide the hierarchy "
            "itself; encrypt at track level or below"
        )
    for target in protection_targets(cluster_root, level):
        result.target_ids.append(target.get("Id") or "")
        result.protected_bytes += len(canonicalize(target))
        encryptor.encrypt_element(target, key, algorithm=algorithm,
                                  key_name=key_name)
    return result


def count_encrypted(cluster_root: Element) -> int:
    """Number of EncryptedData structures under *cluster_root*."""
    return sum(
        1 for el in cluster_root.iter("EncryptedData", XMLENC_NS)
    )
