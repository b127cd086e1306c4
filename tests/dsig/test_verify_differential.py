"""The verify path against a pinned transcript.

A seeded corpus of signed documents is verified clean and after each
of six tampers, through every way the player verifies: a verifier with
a fresh :class:`C14NDigestCache`, the same verifier again (warm), a
verifier whose cache and Id index were warmed on the document before
the tamper, a :class:`NullCache` verifier, :class:`BatchVerifier` over
the fresh and the pre-warmed verifier and, for the manifest disc,
:func:`validate_manifest_references` with each cache.  Every flavour
must give the same transcript (``signature_valid``, ``key_source`` and
each reference's ``(uri, valid, error)``), and the transcript of the
whole corpus is pinned by SHA-256.  The digest was recorded from the
sequential flavours while the digest cache still kept its own Id table
and octet peek; ``BatchVerifier`` then raised ``ReferenceError_`` from
its dedup pass whenever a ``#id`` target was missing or duplicated,
where every other flavour reports the reference invalid.
"""

from __future__ import annotations

import hashlib
import random

from repro.dsig import (
    BASE64, HMAC_SHA1, Reference, ReferenceResult, Signer, Transform,
    Verifier,
)
from repro.dsig.manifest import (
    sign_with_manifest, validate_manifest_references,
)
from repro.dsig.transforms import DECRYPT_XML, ENVELOPED_SIGNATURE
from repro.perf import BatchVerifier, C14NDigestCache
from repro.perf.cache import NullCache
from repro.primitives.encoding import b64encode
from repro.primitives.keys import SymmetricKey
from repro.primitives.random import DeterministicRandomSource
from repro.xmlcore import C14N, DSIG_NS, parse_element
from repro.xmlcore.tree import Element
from repro.xmlenc import Decryptor, Encryptor

#: SHA-256 of :func:`corpus_transcript`.
CORPUS_SHA256 = (
    "cb408baf3aca8ab6ea7474f45f91c8af23d89b0a601f4991549f89e129e2ba50"
)

CORPUS_SEED = 20050902
TRACKS = 4
NS = "urn:bda:bdmv:interactive-cluster"
HMAC_SECRET = SymmetricKey(b"shared-disc-player-secret", "hmac")
DISC_KEY = SymmetricKey(b"disc-key-16bytes")
TAMPERS = ("clean", "text", "attribute", "duplicate-id", "moved-id",
           "signed-info", "deleted-target")


def stream_uri(index: int) -> str:
    return f"bd://BDMV/STREAM/{index:05d}.m2ts"


def cluster_xml(rng: random.Random) -> str:
    tracks = "".join(
        f'<track Id="t{i}" kind="{rng.choice(("av", "menu", "bonus"))}">'
        f"<title>Title {rng.randrange(1000)}</title>"
        f'<clip ref="{stream_uri(i)}" lang="{rng.choice(("en", "de"))}"/>'
        "</track>"
        for i in range(1, TRACKS + 1)
    )
    return f'<cluster xmlns="{NS}" Id="cluster">{tracks}</cluster>'


def streams(rng: random.Random) -> dict[str, bytes]:
    return {
        stream_uri(i): b"\x47" + bytes(rng.randrange(256)
                                       for _ in range(187))
        for i in range(1, TRACKS + 1)
    }


class Document:
    """One signed document, with what verifying it needs."""

    def __init__(self, name, root, *, target, neighbour, resolver=None,
                 decryptor=None, manifest=None):
        self.name = name
        self.root = root
        self.target = target            # Id every tamper aims at
        self.neighbour = neighbour      # Id that receives a moved Id
        self.resolver = resolver
        self.decryptor = decryptor
        self.manifest = manifest        # Id of a manifest signature

    def signatures(self) -> list[Element]:
        return [child for child in self.root.child_elements()
                if child.local == "Signature" and child.ns_uri == DSIG_NS]


def build_corpus(pki) -> list:
    """Builders of the corpus documents, each a fresh signed tree."""
    rng = random.Random(CORPUS_SEED)
    xml = cluster_xml(rng)
    resources = streams(rng)
    signer = Signer(pki.studio.key, identity=pki.studio)

    def per_track():
        root = parse_element(xml)
        for i in range(1, TRACKS + 1):
            signer.sign_references([
                Reference(uri=f"#t{i}", transforms=[Transform(C14N)]),
                Reference(uri=stream_uri(i)),
            ], parent=root, resolver=resources.__getitem__)
        return Document("per-track", root, target="t2", neighbour="t3",
                        resolver=dict(resources).__getitem__)

    def enveloped():
        root = parse_element(xml)
        signer.sign_enveloped(root)
        return Document("enveloped", root, target="t2", neighbour="t3")

    def manifest():
        root = parse_element(xml)
        references = [
            Reference(uri=f"#t{i}", transforms=[Transform(C14N)])
            for i in range(1, TRACKS + 1)
        ] + [Reference(uri=stream_uri(i)) for i in (1, 2)]
        sign_with_manifest(signer, references, parent=root,
                           resolver=resources.__getitem__,
                           manifest_id="disc-manifest",
                           signature_id="disc-signature")
        return Document("manifest", root, target="t2", neighbour="t3",
                        resolver=dict(resources).__getitem__,
                        manifest="disc-signature")

    def sign_then_encrypt():
        root = parse_element(
            f'<package xmlns="{NS}" Id="package">'
            '<manifest Id="app"><code Id="code-1"><script>'
            "var score = 0; function onKey(k) { score = score + 1; }"
            "</script></code>"
            '<markup Id="markup-1"><title>Menu</title>'
            '<region name="main" width="1920"/></markup></manifest>'
            "</package>"
        )
        decryptor = Decryptor(keys={"disc": DISC_KEY})
        signer.sign_references([
            Reference(uri="", transforms=[
                Transform(DECRYPT_XML), Transform(ENVELOPED_SIGNATURE),
                Transform(C14N),
            ]),
            Reference(uri="#markup-1", transforms=[Transform(C14N)]),
        ], parent=root, decryptor=decryptor)
        Encryptor(rng=DeterministicRandomSource(b"differential")) \
            .encrypt_element(root.element_by_id("code-1"), DISC_KEY,
                             key_name="disc", data_id="enc-code")
        return Document("sign-then-encrypt", root, target="markup-1",
                        neighbour="app", decryptor=decryptor)

    def hmac():
        root = parse_element(xml)
        Signer(HMAC_SECRET, signature_method=HMAC_SHA1,
               key_name="player-secret").sign_references([
                   Reference(uri="#t1", transforms=[Transform(C14N)]),
                   Reference(uri="#t2", transforms=[Transform(C14N)]),
               ], parent=root)
        return Document("hmac", root, target="t2", neighbour="t3")

    return [per_track, enveloped, manifest, sign_then_encrypt, hmac]


def tamper(document: Document, kind: str) -> None:
    """Apply one tamper in place."""
    root = document.root
    target = root.element_by_id(document.target)
    if kind == "clean":
        return
    if kind == "text":
        target.find("title", NS).children[0].data = "Tampered"
    elif kind == "attribute":
        region = target.find("clip", NS) or target.find("region", NS)
        region.set("lang" if region.local == "clip" else "width", "fr")
    elif kind == "duplicate-id":
        root.append(target.copy())
    elif kind == "moved-id":
        target.delete_attr("Id")
        root.element_by_id(document.neighbour).set("Id",
                                                       document.target)
    elif kind == "signed-info":
        value = document.signatures()[0].find("DigestValue", DSIG_NS)
        value.children[0].data = b64encode(b"\x00" * 20)
    elif kind == "deleted-target":
        target.parent.remove(target)
    else:
        raise AssertionError(kind)


def verifier_for(document: Document, trust_store, cache) -> Verifier:
    return Verifier(
        trust_store=trust_store, require_trusted_key=True,
        resolver=document.resolver,
        key_locator={"player-secret": HMAC_SECRET}.get, cache=cache,
    )


def report_line(report) -> tuple:
    return (report.signature_valid, report.key_source,
            tuple((r.uri, r.valid, r.error) for r in report.references))


def direct(verifier: Verifier, document: Document) -> list:
    return [report_line(verifier.verify(signature,
                                        decryptor=document.decryptor))
            for signature in document.signatures()]


def batch(verifier: Verifier, document: Document) -> list:
    outcome = BatchVerifier(verifier).verify_all(
        document.root, decryptor=document.decryptor,
    )
    lines = []
    for signature in document.signatures():
        reference = signature.find("Reference", DSIG_NS)
        lines.append(report_line(outcome.reports[reference.get("URI")]))
    return lines


def manifest_lines(document: Document, cache) -> tuple:
    signature = document.root.element_by_id(document.manifest)
    validation = validate_manifest_references(
        signature, resolver=document.resolver,
        decryptor=document.decryptor, cache=cache,
    )
    return tuple((r.uri, r.valid, r.error) for r in validation.results)


def case_transcript(build, kind: str, trust_store) -> str:
    """The agreed transcript of one document under one tamper."""
    document = build()
    seasoned = verifier_for(document, trust_store, C14NDigestCache())
    direct(seasoned, document)
    if document.manifest:
        manifest_lines(document, seasoned.cache)
    tamper(document, kind)

    fresh = verifier_for(document, trust_store, C14NDigestCache())
    flavours = {
        "fresh": direct(fresh, document),
        "warm": direct(fresh, document),
        "seasoned": direct(seasoned, document),
        "null": direct(verifier_for(document, trust_store, NullCache()),
                       document),
        "batch": batch(verifier_for(document, trust_store,
                                    C14NDigestCache()), document),
        "batch-seasoned": batch(seasoned, document),
    }
    for name, lines in flavours.items():
        assert lines == flavours["fresh"], (document.name, kind, name)
    transcript = f"{document.name}/{kind}: {flavours['fresh']!r}"
    if document.manifest:
        checks = {
            "fresh": manifest_lines(document, C14NDigestCache()),
            "seasoned": manifest_lines(document, seasoned.cache),
            "null": manifest_lines(document, NullCache()),
        }
        checks["warm"] = manifest_lines(document, seasoned.cache)
        for name, lines in checks.items():
            assert lines == checks["fresh"], (document.name, kind, name)
        transcript += f" manifest: {checks['fresh']!r}"
    return transcript


def corpus_transcript(pki) -> str:
    trust_store = pki.trust_store()
    return "\n".join(
        case_transcript(build, kind, trust_store)
        for build in build_corpus(pki)
        for kind in TAMPERS
    )


def test_every_verify_flavour_agrees_with_the_pinned_transcript(pki):
    transcript = corpus_transcript(pki)
    assert "sign-then-encrypt/clean: [(True, 'certificate'" in transcript
    digest = hashlib.sha256(transcript.encode()).hexdigest()
    assert digest == CORPUS_SHA256, transcript


def test_base64_of_non_text_is_one_invalid_reference(pki):
    # A disc whose external base64 resource now holds non-text bytes:
    # core validation and the ds:Manifest check report it alike.
    signer = Signer(pki.studio.key, identity=pki.studio)
    uri = "bd://AUXDATA/blob.b64"
    resources = {uri: b64encode(b"bonus").encode()}
    reference = Reference(uri=uri, transforms=[Transform(BASE64)])
    root = parse_element(f'<cluster xmlns="{NS}" Id="cluster"/>')
    core = signer.sign_references([reference], parent=root,
                                  resolver=resources.__getitem__)
    manifest = sign_with_manifest(signer, [reference], parent=root,
                                  resolver=resources.__getitem__,
                                  manifest_id="aux-manifest")
    resources[uri] = b"\xff\xfe\x00"
    expected = [ReferenceResult(uri, False,
                                "base64 transform input is not text")]
    verifier = Verifier(trust_store=pki.trust_store(),
                        require_trusted_key=True,
                        resolver=resources.__getitem__)
    report = verifier.verify(core)
    assert report.signature_valid and report.references == expected
    validation = validate_manifest_references(
        manifest, resolver=resources.__getitem__,
    )
    assert validation.results == expected
