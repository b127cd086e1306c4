"""ds:Manifest support (XMLDSig Core §5.1).

A ``ds:Manifest`` is a list of references whose digests are *not* part
of core validation: the signature covers the manifest element itself,
and "the application decides" how many of the manifest's references
must validate.  That is the paper's selective-verification story (Fig
4/5): a disc can carry one signature over a manifest listing every
track, and the FIG4 bench checks only the entries in *only_uris*.  The
player checks every entry at insert: one invalid entry leaves the disc
unauthenticated.

Usage::

    signature = sign_with_manifest(signer, targets, parent=cluster)
    results = validate_manifest_references(signature, image.resolver)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from repro.errors import SignatureError
from repro.dsig.reference import (
    MANIFEST_TYPE, Reference, ReferenceContext, ReferenceResult,
    check_reference, compute_reference_digest, manifest_entries,
    signed_manifests, top_element,
)
from repro.dsig.signer import Signer
from repro.primitives.provider import CryptoProvider, get_provider
from repro.xmlcore import DSIG_NS, element
from repro.xmlcore.tree import Element

_ids = count(1)


def build_manifest_element(references: list[Reference],
                           manifest_id: str | None = None) -> Element:
    """Build a ds:Manifest carrying *references* (digests unfilled)."""
    node = element("ds:Manifest", DSIG_NS, nsmap={"ds": DSIG_NS},
                   attrs={"Id": manifest_id or
                          f"dsig-manifest-{next(_ids)}"})
    for reference in references:
        node.append(reference.to_element())
    return node


def sign_with_manifest(signer: Signer, references: list[Reference], *,
                       parent: Element,
                       resolver=None,
                       manifest_id: str | None = None,
                       signature_id: str | None = None) -> Element:
    """Sign a ds:Manifest over *references* instead of the targets.

    The per-target digests are computed and recorded in the manifest,
    but only the manifest element itself is covered by core validation
    — per-reference checking is deferred to
    :func:`validate_manifest_references`.

    The signature (with the manifest inside a ds:Object) is appended to
    *parent*.
    """
    manifest_id = manifest_id or f"dsig-manifest-{next(_ids)}"
    manifest_el = build_manifest_element(references, manifest_id)
    # The manifest lives next to the signature in the document, so the
    # core reference can dereference it by Id.
    parent.append(manifest_el)

    # Fill each manifest reference's digest now, in document context.
    context = ReferenceContext(root=top_element(parent), resolver=resolver)
    for reference, reference_el in zip(references,
                                       manifest_el.child_elements()):
        digest = compute_reference_digest(reference, context,
                                          signer.provider)
        _set_digest(reference_el, digest)

    core_reference = Reference(
        uri=f"#{manifest_id}",
        transforms=[_c14n_transform(signer)],
        digest_method=signer.digest_method,
        reference_type=MANIFEST_TYPE,
    )
    return signer.sign_references(
        [core_reference], parent=parent, resolver=resolver,
        signature_id=signature_id,
    )


def _c14n_transform(signer: Signer):
    from repro.dsig.transforms import Transform
    return Transform(signer.c14n_method)


def _set_digest(reference_el: Element, digest: bytes) -> None:
    from repro.primitives.encoding import b64encode
    from repro.xmlcore.tree import Text
    value_el = reference_el.first_child("DigestValue", DSIG_NS)
    assert value_el is not None
    value_el.children.clear()
    value_el.append(Text(b64encode(digest)))


@dataclass
class ManifestValidation:
    """Per-reference outcomes of a manifest check."""

    results: list[ReferenceResult] = field(default_factory=list)

    @property
    def all_valid(self) -> bool:
        return bool(self.results) and all(r.valid for r in self.results)

    def valid_for(self, uri: str) -> bool:
        for result in self.results:
            if result.uri == uri:
                return result.valid
        raise SignatureError(f"manifest has no reference to {uri!r}")


def validate_manifest_references(signature: Element, *,
                                 resolver=None, decryptor=None,
                                 provider: CryptoProvider | None = None,
                                 only_uris: tuple[str, ...] | None = None,
                                 cache=None,
                                 ) -> ManifestValidation:
    """Application-level validation of a signature's ds:Manifest.

    Core validation (``Verifier.verify``) establishes that the manifest
    lists are authentic; this function then checks the per-target
    digests of every manifest :func:`signed_manifests` names (the
    entries :func:`signature_coverage` counts) — all of them (the
    player checks every one at insert), or just *only_uris*.  Digests
    of pure-canonicalization same-document targets are served from
    *cache* (the process-wide C14N/digest cache by default), so
    selective checks repeated at playback time do not re-canonicalize
    unchanged subtrees.
    """
    from repro.perf.cache import get_default_cache
    provider = provider or get_provider()
    manifests = signed_manifests(signature)
    if not manifests:
        raise SignatureError("signature vouches for no ds:Manifest")
    context = ReferenceContext(
        root=top_element(signature), signature=signature, resolver=resolver,
        decryptor=decryptor,
        cache=cache if cache is not None else get_default_cache(),
    )
    validation = ManifestValidation()
    for manifest_el in manifests:
        for reference_el in manifest_entries(manifest_el):
            reference = Reference.from_element(reference_el)
            if only_uris is not None and reference.uri not in only_uris:
                continue
            validation.results.append(
                check_reference(reference, context, provider)
            )
    return validation
