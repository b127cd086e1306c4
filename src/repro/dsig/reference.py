"""ds:Reference processing: dereferencing, transforms, digesting.

A Reference names a *markup target* (the paper's term): the whole
document (``URI=""``), a same-document fragment (``URI="#id"``) or an
external resource (any other URI, resolved through a caller-supplied
resolver — in the player this is the disc image or the network
loader).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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
    Transform, TransformContext, node_path, stream_transform_octets,
)

Resolver = Callable[[str], bytes]


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
    """

    uri: str | None
    transforms: list[Transform] = field(default_factory=list)
    digest_method: str = algorithms.SHA1
    digest_value: bytes | None = None
    reference_id: str | None = None
    reference_type: str | None = None

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
        transforms: list[Transform] = []
        transforms_el = node.first_child("Transforms", DSIG_NS)
        if transforms_el is not None:
            transforms = [
                Transform.from_element(t)
                for t in transforms_el.child_elements()
                if t.local == "Transform"
            ]
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
        return _unique_element_by_id(working_root, uri[1:]), tcontext
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


def _unique_element_by_id(root: Element, value: str) -> Element:
    """Resolve ``#value`` to the *single* element carrying that Id.

    Duplicate Id attributes are the XML signature wrapping vector: an
    attacker plants a second element with the signed Id and hopes the
    verifier digests one while the application executes the other.
    Resolution therefore refuses ambiguous documents outright instead
    of silently returning the first match in document order.
    """
    matches = root.get_elements_by_id(value, limit=2)
    if not matches:
        raise ReferenceError_(
            f"no element with Id {value!r} in the document"
        )
    if len(matches) > 1:
        raise ReferenceError_(
            f"duplicate Id {value!r}: multiple elements carry it; "
            "refusing ambiguous reference (wrapping defence)"
        )
    return matches[0]


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
    # Shares the duplicate-Id refusal with the general path: the fast
    # path must never be more permissive than a full dereference.
    return _unique_element_by_id(context.root, uri[1:])


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
    provider = provider or get_provider()
    with metrics.timer("dsig.reference_digest"):
        target = _fast_path_target(reference, context)
        if target is not None:
            transforms = reference.transforms
            algorithm = transforms[0].algorithm if transforms else C14N
            prefixes = (transforms[0].inclusive_prefixes
                        if transforms else ())

            def compute() -> bytes:
                # A pure-canonicalization chain cannot mutate the
                # document, so the live subtree is digested directly:
                # no working copy.
                return algorithms.compute_digest_canonical(
                    reference.digest_method, target, algorithm,
                    prefixes, provider, guard=context.guard,
                )

            if context.cache is None:
                return compute()
            return context.cache.reference_digest(
                context.root, target, algorithm, prefixes,
                reference.digest_method, compute,
            )
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
        return digest


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
