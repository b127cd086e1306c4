"""Signer/SignedInfo/Reference edge cases not covered elsewhere."""

import pytest

from repro.dsig import (
    Reference, SignedInfo, Signer, Transform, Verifier,
)
from repro.dsig.reference import ReferenceContext, dereference
from repro.errors import ReferenceError_, SignatureError
from repro.xmlcore import C14N, DSIG_NS, parse_element, serialize


def test_signed_info_requires_references():
    with pytest.raises(SignatureError, match="at least one reference"):
        SignedInfo().to_element()


def test_signed_info_missing_methods_rejected():
    broken = parse_element(
        '<SignedInfo xmlns="http://www.w3.org/2000/09/xmldsig#">'
        '<Reference URI=""/></SignedInfo>'
    )
    with pytest.raises(SignatureError, match="method"):
        SignedInfo.from_element(broken)


def test_reference_from_element_requires_digest():
    broken = parse_element(
        '<Reference xmlns="http://www.w3.org/2000/09/xmldsig#" URI=""/>'
    )
    with pytest.raises(SignatureError, match="digest"):
        Reference.from_element(broken)


def test_reference_roundtrip_with_all_fields():
    reference = Reference(
        uri="#x", transforms=[Transform(C14N)],
        digest_value=b"\x01\x02", reference_id="r1",
        reference_type="http://example/type",
    )
    again = Reference.from_element(
        parse_element(serialize(reference.to_element()))
    )
    assert again == reference


def test_dereference_without_uri():
    with pytest.raises(ReferenceError_, match="no URI"):
        dereference(Reference(uri=None), ReferenceContext())


def test_dereference_same_document_without_root():
    with pytest.raises(ReferenceError_, match="without a document"):
        dereference(Reference(uri="#x"), ReferenceContext())


def test_dereference_resolver_exception_wrapped():
    def failing(uri):
        raise IOError("drive fault")
    context = ReferenceContext(resolver=failing)
    with pytest.raises(ReferenceError_, match="drive fault"):
        dereference(Reference(uri="bd://x"), context)


def test_extra_references_on_enveloped(pki, trust_store, manifest):
    """sign_enveloped can carry extra external references."""
    resources = {"bd://extra.bin": b"extra-resource"}
    signer = Signer(pki.studio.key, identity=pki.studio)
    extra = Reference(uri="bd://extra.bin")
    signature = signer.sign_enveloped(
        manifest, extra_references=[extra],
        resolver=resources.__getitem__,
    )
    verifier = Verifier(trust_store=trust_store,
                        resolver=resources.__getitem__)
    assert verifier.verify(signature).valid
    resources["bd://extra.bin"] = b"changed"
    assert not verifier.verify(signature).valid


def test_signature_id_attribute(pki, manifest):
    signer = Signer(pki.studio.key, include_key_value=True)
    signature = signer.sign_enveloped(manifest, signature_id="sig-1")
    assert signature.get("Id") == "sig-1"


def test_hmac_wrong_key_type_rejected(pki):
    from repro.dsig.algorithms import HMAC_SHA1, compute_signature
    with pytest.raises(SignatureError):
        compute_signature(HMAC_SHA1, pki.studio.key, b"data")


def test_unknown_algorithm_uris():
    from repro.errors import UnknownAlgorithmError
    from repro.dsig import algorithms
    with pytest.raises(UnknownAlgorithmError):
        algorithms.compute_digest("urn:nope", b"")
    with pytest.raises(UnknownAlgorithmError):
        algorithms.signature_kind("urn:nope")


def test_verifier_rejects_unknown_c14n(pki, manifest):
    signer = Signer(pki.studio.key, include_key_value=True)
    signature = signer.sign_enveloped(manifest)
    method = signature.find("CanonicalizationMethod", DSIG_NS)
    method.set("Algorithm", "urn:bogus-c14n")
    report = Verifier().verify(signature)
    assert not report.valid
    assert "failed" in report.error or not report.signature_valid


def test_verify_skips_malformed_signature_value(pki, manifest):
    signer = Signer(pki.studio.key, include_key_value=True)
    signature = signer.sign_enveloped(manifest)
    value = signature.find("SignatureValue", DSIG_NS)
    value.children[0].data = "!!! not base64 !!!"
    report = Verifier().verify(signature)
    assert not report.valid
    assert "malformed" in report.error


@pytest.mark.parametrize("space, valid", [
    ("\n", True), ("\r\n\t ", True),
    ("\xa0", False), ("\x85", False), ("\u2028", False), ("\u3000", False),
])
def test_only_xml_whitespace_may_break_a_signature_value(pki, manifest,
                                                         space, valid):
    # XML Schema base64Binary (and so XMLDSig) allows #x20 #x9 #xD #xA
    # inside the value; any other space character makes it malformed.
    signature = Signer(pki.studio.key).sign_enveloped(manifest)
    value = signature.find("SignatureValue", DSIG_NS)
    text = value.children[0].data
    value.children[0].data = text[:8] + space + text[8:]
    reparsed = parse_element(serialize(manifest))
    report = Verifier().verify(reparsed.find("Signature", DSIG_NS),
                               key=pki.studio.key.public_key())
    assert report.valid is valid
    if not valid:
        assert report.error.startswith("malformed signature: ")
