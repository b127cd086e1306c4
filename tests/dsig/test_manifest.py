"""ds:Manifest — application-controlled per-reference validation."""

import pytest

from repro.dsig import Reference, Signer, Transform, Verifier, \
    signed_manifests
from repro.dsig.manifest import (
    MANIFEST_TYPE, sign_with_manifest, validate_manifest_references,
)
from repro.errors import SignatureError
from repro.xmlcore import C14N, DSIG_NS, parse_element


@pytest.fixture
def cluster():
    return parse_element(
        '<cluster xmlns="urn:disc" Id="cl">'
        '<track Id="t1"><v>feature</v></track>'
        '<track Id="t2"><v>bonus</v></track>'
        "</cluster>"
    )


@pytest.fixture
def resources():
    return {
        "bd://BDMV/STREAM/00001.m2ts": b"\x47" + b"A" * 187,
        "bd://BDMV/STREAM/00002.m2ts": b"\x47" + b"B" * 187,
    }


def _sign(pki, cluster, resources):
    signer = Signer(pki.studio.key, identity=pki.studio)
    references = [
        Reference(uri="#t1", transforms=[Transform(C14N)]),
        Reference(uri="#t2", transforms=[Transform(C14N)]),
        Reference(uri="bd://BDMV/STREAM/00001.m2ts"),
        Reference(uri="bd://BDMV/STREAM/00002.m2ts"),
    ]
    return sign_with_manifest(signer, references, parent=cluster,
                              resolver=resources.__getitem__)


def test_core_validation_covers_manifest_only(pki, trust_store, cluster,
                                              resources):
    signature = _sign(pki, cluster, resources)
    verifier = Verifier(trust_store=trust_store, require_trusted_key=True)
    report = verifier.verify(signature)
    assert report.valid
    assert report.references[0].uri.startswith("#dsig-manifest")
    reference_el = signature.find("Reference", DSIG_NS)
    assert reference_el.get("Type") == MANIFEST_TYPE


def test_all_manifest_references_validate(pki, cluster, resources):
    signature = _sign(pki, cluster, resources)
    validation = validate_manifest_references(
        signature, resolver=resources.__getitem__,
    )
    assert validation.all_valid
    assert len(validation.results) == 4


def test_broken_reference_does_not_break_core(pki, trust_store, cluster,
                                              resources):
    """The point of ds:Manifest: a damaged bonus track leaves the
    signature (and the feature) intact — the application decides."""
    signature = _sign(pki, cluster, resources)
    resources["bd://BDMV/STREAM/00002.m2ts"] = b"corrupted!"
    verifier = Verifier(trust_store=trust_store, require_trusted_key=True)
    assert verifier.verify(signature).valid  # core still valid
    validation = validate_manifest_references(
        signature, resolver=resources.__getitem__,
    )
    assert not validation.all_valid
    assert validation.valid_for("bd://BDMV/STREAM/00001.m2ts")
    assert not validation.valid_for("bd://BDMV/STREAM/00002.m2ts")


def test_selective_checking_only_uris(pki, cluster, resources):
    signature = _sign(pki, cluster, resources)
    resources["bd://BDMV/STREAM/00002.m2ts"] = b"corrupted!"
    validation = validate_manifest_references(
        signature, resolver=resources.__getitem__,
        only_uris=("#t1", "bd://BDMV/STREAM/00001.m2ts"),
    )
    # The player only asked about what it plays — all good.
    assert validation.all_valid
    assert len(validation.results) == 2


def test_tampering_the_manifest_breaks_core(pki, trust_store, cluster,
                                            resources):
    signature = _sign(pki, cluster, resources)
    (manifest_el,) = signed_manifests(signature)
    reference_el = manifest_el.child_elements()[0]
    reference_el.set("URI", "#t2")  # redirect a reference
    verifier = Verifier(trust_store=trust_store, require_trusted_key=True)
    assert not verifier.verify(signature).valid


def test_markup_tampering_caught_by_manifest_check(pki, cluster,
                                                   resources):
    signature = _sign(pki, cluster, resources)
    cluster.element_by_id("t1").find("v").children[0].data = "evil"
    validation = validate_manifest_references(
        signature, resolver=resources.__getitem__,
    )
    assert not validation.valid_for("#t1")
    assert validation.valid_for("#t2")


def test_missing_manifest_raises(pki, cluster):
    signer = Signer(pki.studio.key, identity=pki.studio)
    plain = signer.sign_detached("#t1", parent=cluster)
    with pytest.raises(SignatureError, match="no ds:Manifest"):
        validate_manifest_references(plain)
    assert signed_manifests(plain) == []


def test_unknown_uri_lookup(pki, cluster, resources):
    signature = _sign(pki, cluster, resources)
    validation = validate_manifest_references(
        signature, resolver=resources.__getitem__,
    )
    with pytest.raises(SignatureError, match="no reference"):
        validation.valid_for("#ghost")
