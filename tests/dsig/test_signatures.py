"""XMLDSig end-to-end: enveloped, enveloping and detached forms (Fig 6)."""

import pytest

from repro.dsig import (
    HMAC_SHA1, RSA_SHA256, Reference, SHA256, Signer, Transform, Verifier,
)
from repro.errors import SignatureError, VerificationError
from repro.primitives.keys import SymmetricKey
from repro.xmlcore import (
    C14N, DSIG_NS, EXC_C14N, parse_element, serialize,
)


@pytest.fixture
def signer(pki):
    return Signer(pki.studio.key, identity=pki.studio)


@pytest.fixture
def verifier(pki, trust_store):
    return Verifier(trust_store=trust_store, require_trusted_key=True)


def test_enveloped_roundtrip(signer, verifier, manifest):
    signature = signer.sign_enveloped(manifest)
    assert signature.parent is manifest
    report = verifier.verify(signature)
    assert report.valid
    assert report.signer_subject == "CN=Contoso Studios"
    assert report.key_source == "certificate"


def test_enveloped_survives_serialization(signer, verifier, manifest):
    signer.sign_enveloped(manifest)
    reparsed = parse_element(serialize(manifest))
    signature = reparsed.find("Signature", DSIG_NS)
    assert verifier.verify(signature).valid


def test_enveloped_detects_content_tamper(signer, verifier, manifest):
    signature = signer.sign_enveloped(manifest)
    manifest.find("script").children[0].data = "var score = 9999;"
    report = verifier.verify(signature)
    assert not report.valid
    assert report.signature_valid          # core signature still good
    assert not report.references_valid     # but the digest differs


def test_enveloped_detects_attribute_tamper(signer, verifier, manifest):
    signature = signer.sign_enveloped(manifest)
    manifest.find("region").set("width", "640")
    assert not verifier.verify(signature).valid


def test_signature_value_tamper(signer, verifier, manifest):
    signature = signer.sign_enveloped(manifest)
    value = signature.find("SignatureValue", DSIG_NS)
    text = value.children[0]
    text.data = ("A" if not text.data.startswith("A") else "B") \
        + text.data[1:]
    report = verifier.verify(signature)
    assert not report.signature_valid


def test_syntactic_variation_still_verifies(signer, verifier, manifest):
    """The C14N property (Fig 6): re-serialized markup verifies."""
    signer.sign_enveloped(manifest)
    text = serialize(manifest, pretty=False)
    # Reparse — attribute quoting/entity differences are gone after C14N.
    reparsed = parse_element(text)
    signature = reparsed.find("Signature", DSIG_NS)
    assert verifier.verify(signature).valid


def test_fragment_reference(signer, verifier, manifest):
    signature = signer.sign_enveloped(manifest, uri="#manifest-1")
    assert verifier.verify(signature).valid


def test_unknown_fragment_fails(signer, verifier, manifest):
    signature = signer.sign_enveloped(manifest)
    # Verification of a reference to a missing Id reports an error.
    ref_el = signature.find("Reference", DSIG_NS)
    ref_el.set("URI", "#no-such-id")
    report = verifier.verify(signature)
    assert not report.valid
    assert "no element with Id" in report.references[0].error


def test_enveloping_bytes(signer, verifier):
    signature = signer.sign_enveloping(b"\x00\x01binary resource",
                                       object_id="res-1")
    assert verifier.verify(signature).valid


def test_enveloping_bytes_tamper(signer, verifier):
    from repro.primitives.encoding import b64encode
    signature = signer.sign_enveloping(b"payload", object_id="res-1")
    obj = signature.find("Object", DSIG_NS)
    obj.children[0].data = b64encode(b"evil-payload")
    assert not verifier.verify(signature).valid


def test_enveloping_element(signer, verifier):
    content = parse_element(
        '<scores xmlns="urn:game"><top player="ann">42</top></scores>'
    )
    signature = signer.sign_enveloping(content, object_id="scores")
    assert verifier.verify(signature).valid
    signature.find("top").set("player", "mallory")
    assert not verifier.verify(signature).valid


def test_detached_same_document(signer, verifier):
    cluster = parse_element(
        '<cluster xmlns="urn:disc"><track Id="t1"><x>1</x></track>'
        "<track Id='t2'><x>2</x></track></cluster>"
    )
    signature = signer.sign_detached("#t1", parent=cluster)
    assert verifier.verify(signature).valid
    # Tampering t2 does not affect a signature over t1.
    cluster.element_by_id("t2").find("x").children[0].data = "tampered"
    assert verifier.verify(signature).valid
    cluster.element_by_id("t1").find("x").children[0].data = "tampered"
    assert not verifier.verify(signature).valid


def test_detached_external(signer, pki, trust_store):
    resources = {"bd://clips/01000.m2ts": b"\x47" + b"TS" * 90}
    signature = signer.sign_detached("bd://clips/01000.m2ts",
                                     resolver=resources.__getitem__)
    verifier = Verifier(trust_store=trust_store,
                        resolver=resources.__getitem__)
    assert verifier.verify(signature).valid
    resources["bd://clips/01000.m2ts"] += b"\x00"
    assert not verifier.verify(signature).valid


def test_external_without_resolver_fails(signer, trust_store):
    signature = signer.sign_detached(
        "bd://x", resolver={"bd://x": b"d"}.__getitem__
    )
    verifier = Verifier(trust_store=trust_store)
    report = verifier.verify(signature)
    assert not report.valid
    assert "no resolver" in report.references[0].error


def test_multiple_references(signer, verifier):
    cluster = parse_element(
        '<cluster xmlns="urn:disc"><a Id="p1"><v>1</v></a>'
        '<b Id="p2"><v>2</v></b></cluster>'
    )
    references = [
        Reference(uri="#p1", transforms=[Transform(C14N)]),
        Reference(uri="#p2", transforms=[Transform(C14N)]),
    ]
    signature = signer.sign_references(references, parent=cluster)
    assert verifier.verify(signature).valid
    cluster.element_by_id("p2").find("v").children[0].data = "3"
    report = verifier.verify(signature)
    assert not report.valid
    assert [r.valid for r in report.references] == [True, False]


def test_hmac_signature_roundtrip(manifest):
    secret = SymmetricKey(b"shared-disc-player-secret", "hmac")
    signer = Signer(secret, signature_method=HMAC_SHA1)
    signature = signer.sign_enveloped(manifest)
    verifier = Verifier()
    assert verifier.verify(signature, key=secret).valid
    assert not verifier.verify(
        signature, key=SymmetricKey(b"wrong", "hmac")
    ).valid


def test_rsa_sha256_and_exclusive_c14n(pki, trust_store, manifest):
    signer = Signer(
        pki.studio.key, identity=pki.studio,
        signature_method=RSA_SHA256, digest_method=SHA256,
        c14n_method=EXC_C14N,
    )
    signature = signer.sign_enveloped(manifest)
    verifier = Verifier(trust_store=trust_store, require_trusted_key=True)
    assert verifier.verify(signature).valid


def test_rsa_method_requires_rsa_key():
    with pytest.raises(SignatureError):
        Signer(SymmetricKey(b"not-rsa", "hmac"))


def test_verify_or_raise(signer, verifier, manifest):
    signature = signer.sign_enveloped(manifest)
    verifier.verify_or_raise(signature)
    manifest.find("script").children[0].data = "changed"
    with pytest.raises(VerificationError):
        verifier.verify_or_raise(signature)
