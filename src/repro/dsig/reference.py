"""ds:Reference processing: dereferencing, transforms, digesting.

A Reference names a *markup target* (the paper's term): the whole
document (``URI=""``), a same-document fragment (``URI="#id"``) or an
external resource (any other URI, resolved through a caller-supplied
resolver — in the player this is the disc image or the network
loader).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import ReferenceError_, ReproError, SignatureError
from repro.perf import metrics
from repro.perf.cache import C14NDigestCache
from repro.primitives.encoding import b64decode, b64encode
from repro.primitives.hmac import constant_time_equal
from repro.primitives.provider import CryptoProvider, get_provider
from repro.xmlcore import DSIG_NS, element
from repro.xmlcore.c14n import ALL_C14N_ALGORITHMS, C14N
from repro.xmlcore.tree import Element
from repro.dsig import algorithms
from repro.dsig.transforms import (
    DECRYPT_BINARY, DECRYPT_XML, ENVELOPED_SIGNATURE, Transform,
    TransformContext, node_path, stream_transform_octets,
)

Resolver = Callable[[str], bytes]

#: ``Type`` of a ds:Reference whose target is a ds:Manifest (§5.1).
MANIFEST_TYPE = "http://www.w3.org/2000/09/xmldsig#Manifest"

#: Transforms after which a reference still vouches for the whole
#: subtree it names: canonicalization serializes it, the enveloped
#: transform drops only the signature, and decryption only reveals
#: plaintext.  XPath and base64 may select or keep less.
COVERING_TRANSFORMS = frozenset(ALL_C14N_ALGORITHMS + (
    ENVELOPED_SIGNATURE, DECRYPT_XML, DECRYPT_BINARY,
))


@dataclass
class Reference:
    """One ds:Reference.

    Attributes:
        uri: the reference URI (``""``, ``"#id"``, or external);
            ``None`` is allowed only when the application supplies the
            target out of band.
        transforms: ordered transform chain.
        digest_method: DigestMethod algorithm URI.
        digest_value: the recorded digest (filled by signing, checked by
            verification).
        reference_id: optional Id attribute.
        reference_type: optional Type attribute (e.g. ``#Object``).
        digested_octets: the octets signing digested for this reference
            (set by :meth:`~repro.dsig.signer.Signer.sign_references`).
    """

    uri: str | None
    transforms: list[Transform] = field(default_factory=list)
    digest_method: str = algorithms.SHA1
    digest_value: bytes | None = None
    reference_id: str | None = None
    reference_type: str | None = None
    digested_octets: int = field(default=0, compare=False)

    # -- XML mapping --------------------------------------------------------------

    def to_element(self) -> Element:
        node = element("ds:Reference", DSIG_NS)
        if self.uri is not None:
            node.set("URI", self.uri)
        if self.reference_id:
            node.set("Id", self.reference_id)
        if self.reference_type:
            node.set("Type", self.reference_type)
        if self.transforms:
            transforms_el = element("ds:Transforms", DSIG_NS)
            for transform in self.transforms:
                transforms_el.append(transform.to_element())
            node.append(transforms_el)
        node.append(element("ds:DigestMethod", DSIG_NS,
                            attrs={"Algorithm": self.digest_method}))
        node.append(element(
            "ds:DigestValue", DSIG_NS,
            text=b64encode(self.digest_value or b""),
        ))
        return node

    @classmethod
    def from_element(cls, node: Element) -> "Reference":
        digest_method_el = node.first_child("DigestMethod", DSIG_NS)
        digest_value_el = node.first_child("DigestValue", DSIG_NS)
        if digest_method_el is None or digest_value_el is None:
            raise SignatureError("ds:Reference missing digest method/value")
        transforms = [Transform.from_element(t)
                      for t in _transform_elements(node)]
        digest_text = digest_value_el.text_content()
        return cls(
            uri=node.get("URI"),
            transforms=transforms,
            digest_method=digest_method_el.get("Algorithm") or "",
            digest_value=b64decode(digest_text) if digest_text.strip()
            else None,
            reference_id=node.get("Id"),
            reference_type=node.get("Type"),
        )


@dataclass
class ReferenceContext:
    """Document context used to dereference and transform references.

    Attributes:
        root: root element of the document containing the signature
            (``None`` for purely external references).
        signature: the ds:Signature element being created/verified
            (needed by the enveloped-signature transform).
        resolver: callable mapping external URIs to bytes.
        decryptor: decryptor for the decryption transform.
        namespaces: prefix map for XPath transforms.
        cache: optional :class:`~repro.perf.cache.C14NDigestCache`;
            when set, eligible same-document references take the cached
            fast path (see :func:`compute_reference_digest`).
        guard: optional
            :class:`~repro.resilience.limits.ResourceGuard`:
            :func:`check_reference` charges each reference's transform
            count and checks the deadline, and digesting charges the
            canonical octets produced (cache hits produce none).
    """

    root: Element | None = None
    signature: Element | None = None
    resolver: Resolver | None = None
    decryptor: object | None = None
    namespaces: dict[str, str] = field(default_factory=dict)
    cache: C14NDigestCache | None = None
    guard: object | None = None


def dereference(reference: Reference,
                context: ReferenceContext) -> tuple[object, TransformContext]:
    """Resolve a reference URI to its input value.

    Same-document references are resolved inside a *copy* of the
    document tree, so transforms (enveloped-signature, decryption) can
    mutate freely.  Returns ``(value, transform_context)``.
    """
    uri = reference.uri
    tcontext = TransformContext(
        decryptor=context.decryptor,
        namespaces=dict(context.namespaces),
    )
    if uri is None:
        raise ReferenceError_(
            "reference has no URI and no out-of-band target"
        )
    if uri == "" or uri.startswith("#"):
        if context.root is None:
            raise ReferenceError_(
                f"same-document reference {uri!r} without a document"
            )
        working_root = context.root.copy()
        tcontext.working_root = working_root
        if context.signature is not None:
            tcontext.signature_path = node_path(context.signature)
        if uri == "":
            return working_root, tcontext
        target = working_root.element_by_id(uri[1:])
        if target is None:
            raise ReferenceError_(
                f"no element with Id {uri[1:]!r} in the document"
            )
        return target, tcontext
    if context.resolver is None:
        raise ReferenceError_(
            f"external reference {uri!r} but no resolver configured"
        )
    try:
        return context.resolver(uri), tcontext
    except ReferenceError_:
        raise
    except Exception as exc:
        raise ReferenceError_(
            f"resolver failed for {uri!r}: {exc}"
        ) from exc


def _fast_path_target(reference: Reference,
                      context: ReferenceContext) -> Element | None:
    """The live target element when the no-copy fast path applies.

    The fast path is sound only when the transform chain cannot mutate
    the document and produces exactly the canonical octets of the
    dereferenced subtree — i.e. a same-document reference whose chain
    is empty or a single canonicalization.  Everything else (enveloped
    signature, decryption, XPath, base64, external URIs) takes the
    general copy-and-transform path.
    """
    uri = reference.uri
    if context.root is None or uri is None:
        return None
    if context.root.parent is not None:
        # The general path copies ``root`` (detaching it), so ancestor
        # namespace context is NOT inherited; canonicalizing the live
        # tree would inherit it.  Only a true top element is safe.
        return None
    if uri != "" and not uri.startswith("#"):
        return None
    transforms = reference.transforms
    if len(transforms) > 1:
        return None
    if transforms and (
        transforms[0].algorithm not in ALL_C14N_ALGORITHMS
    ):
        return None
    if uri == "":
        return context.root
    # The tree's resolver refuses a duplicate Id here as in the general
    # path, so the fast path is never more permissive than a full
    # dereference; an absent Id falls through to that path's error.
    return context.root.element_by_id(uri[1:])


def compute_reference_digest(reference: Reference,
                             context: ReferenceContext,
                             provider: CryptoProvider | None = None) -> bytes:
    """Dereference, transform and digest one reference.

    When the context carries a :class:`C14NDigestCache` and the
    reference is a pure-canonicalization same-document reference, the
    digest is served from (or computed into) the cache without copying
    the document.  Cache keys include the tree root's revision stamp,
    so any mutation anywhere in the document invalidates the entry —
    a cached digest can never validate a tampered subtree.

    Digests stream: canonical chunks feed the provider's incremental
    hash context, so the full canonical string is never materialised
    just to be hashed.
    """
    return digest_reference(reference, context, provider)[0]


def digest_reference(reference: Reference, context: ReferenceContext,
                     provider: CryptoProvider | None = None
                     ) -> tuple[bytes, int]:
    """:func:`compute_reference_digest`, with the number of octets the
    digest streamed (none when the cache answers)."""
    provider = provider or get_provider()
    with metrics.timer("dsig.reference_digest"):
        target = _fast_path_target(reference, context)
        if target is not None:
            transforms = reference.transforms
            algorithm = transforms[0].algorithm if transforms else C14N
            prefixes = (transforms[0].inclusive_prefixes
                        if transforms else ())
            streamed = 0

            def compute() -> bytes:
                # A pure-canonicalization chain cannot mutate the
                # document, so the live subtree is digested directly:
                # no working copy.
                nonlocal streamed
                digest, streamed = algorithms.compute_digest_canonical(
                    reference.digest_method, target, algorithm,
                    prefixes, provider, guard=context.guard,
                )
                return digest

            if context.cache is None:
                digest = compute()
            else:
                digest = context.cache.reference_digest(
                    context.root, target, algorithm, prefixes,
                    reference.digest_method, compute,
                )
            return digest, streamed
        value, tcontext = dereference(reference, context)
        digest_context = provider.hash_context(
            algorithms.digest_name(reference.digest_method)
        )
        metrics.counter("digest.ops").increment()
        with metrics.timer("digest.compute"):
            # The terminal canonicalization streams straight into the
            # hash context; the guard meters each emitted chunk, so the
            # transform output stays quota-bound without ever being
            # materialised here.
            total = stream_transform_octets(
                value, reference.transforms, tcontext,
                digest_context.update, guard=context.guard,
            )
            digest = digest_context.digest()
        metrics.counter("digest.octets").increment(total)
        return digest, total


@dataclass
class ReferenceResult:
    """Validation outcome for one reference."""

    uri: str | None
    valid: bool
    error: str = ""


def check_reference(reference: Reference, context: ReferenceContext,
                    provider: CryptoProvider | None = None,
                    ) -> ReferenceResult:
    """Reference validation: does the recorded digest match the target?

    Core validation and ds:Manifest checks both judge each reference
    here.  The transform count and deadline are charged to
    ``context.guard`` first.  Any processing failure (unresolvable or
    ambiguous URI, unsupported transform, undecryptable region, quota
    trip) makes the reference invalid with the error's message.
    """
    if reference.digest_value is None:
        return ReferenceResult(reference.uri, False, "no digest value")
    try:
        if context.guard is not None:
            context.guard.check_transform_count(len(reference.transforms))
            context.guard.check_deadline()
        actual = compute_reference_digest(reference, context, provider)
    except ReproError as exc:
        return ReferenceResult(reference.uri, False, str(exc))
    if not constant_time_equal(actual, reference.digest_value):
        return ReferenceResult(reference.uri, False, "digest mismatch")
    return ReferenceResult(reference.uri, True)


def top_element(node: Element) -> Element:
    """The top element of *node*'s tree (a signature's document)."""
    while isinstance(node.parent, Element):
        node = node.parent
    return node


def outside_signatures(root: Element) -> Iterator[Element]:
    """*root* and its descendant elements in document order, less each
    ds:Signature subtree, which no application is looked up in: an
    enveloped-signature transform leaves it out of the digest."""
    stack = [root]
    while stack:
        node = stack.pop()
        if not node.matches("Signature", DSIG_NS):
            yield node
            stack.extend(reversed(node.child_elements()))


def signature_coverage(signature: Element
                       ) -> Iterator[tuple[Element, Element | None]]:
    """The one coverage rule, read by the player and the auditor.

    Yields ``(reference, target)`` for each SignedInfo ds:Reference
    and, after each one that names a manifest of
    :func:`signed_manifests`, for each entry of that manifest.
    *target* is the element whose whole subtree the reference vouches
    for (the root for ``URI=""``, the one element carrying the Id for
    ``#id``) when every transform is in :data:`COVERING_TRANSFORMS`,
    else ``None``: an XPath or base64 step, an external URI, or an
    absent or ambiguous Id vouches for nothing.  Digests are
    :func:`check_reference`'s job.
    """
    root = top_element(signature)
    for reference, target in _signed_info_coverage(signature, root):
        yield reference, target
        if _names_manifest(reference, target):
            for entry in manifest_entries(target):
                yield entry, _vouched_target(entry, root)


def signed_manifests(signature: Element) -> list[Element]:
    """The ds:Manifests whose entries *signature* vouches for.

    Each is the whole target of a Manifest-typed SignedInfo reference,
    by the rule of :func:`signature_coverage`, which yields exactly
    their entries; ds:Manifest validation checks the same entries.  A
    manifest named from anywhere else (a ds:Object, another manifest)
    or through an ambiguous Id is none of them.
    """
    root = top_element(signature)
    return [target for reference, target
            in _signed_info_coverage(signature, root)
            if _names_manifest(reference, target)]


def manifest_entries(manifest: Element) -> list[Element]:
    """The ds:Reference entries of a ds:Manifest, in order."""
    return [entry for entry in manifest.child_elements()
            if entry.matches("Reference", DSIG_NS)]


def _signed_info_coverage(signature: Element, root: Element
                          ) -> Iterator[tuple[Element, Element | None]]:
    signed_info = signature.first_child("SignedInfo", DSIG_NS)
    if signed_info is None:
        return
    for reference in signed_info.child_elements():
        if reference.matches("Reference", DSIG_NS):
            yield reference, _vouched_target(reference, root)


def _names_manifest(reference: Element, target: Element | None) -> bool:
    return (reference.get("Type") == MANIFEST_TYPE and target is not None
            and target.matches("Manifest", DSIG_NS))


def _transform_elements(reference: Element) -> list[Element]:
    """The ds:Transform steps of *reference*, read as verification
    reads them."""
    transforms_el = reference.first_child("Transforms", DSIG_NS)
    if transforms_el is None:
        return []
    return [t for t in transforms_el.child_elements()
            if t.local == "Transform"]


def _vouched_target(reference: Element, root: Element) -> Element | None:
    for transform in _transform_elements(reference):
        if transform.get("Algorithm") not in COVERING_TRANSFORMS:
            return None
    uri = reference.get("URI")
    if uri == "":
        return root
    if not uri or not uri.startswith("#"):
        return None
    try:
        return root.element_by_id(uri[1:])
    except ReferenceError_:
        return None
