"""One Id resolver and one coverage rule (wrapping defence).

Every Id lookup resolves through ``Element.element_by_id``, so an Id
that two elements carry is refused wherever it is named: a ``#id``
reference or an XPath ``id()`` step, and a ds:Manifest named through
it is not read.  What a signature vouches for is decided once, by
:func:`repro.dsig.reference.signature_coverage`, and ds:Manifest
validation checks the entries of the manifests it reads.
"""

import pytest

from repro.dsig import (
    BASE64, MANIFEST_TYPE, XPATH, Reference, ReferenceContext, Signer,
    Transform, Verifier, build_manifest_element, compute_reference_digest,
    sign_with_manifest, signed_manifests, validate_manifest_references,
)
from repro.dsig.reference import signature_coverage
from repro.errors import ReferenceError_, SignatureError
from repro.xmlcore import (
    C14N, DSIG_NS, element, find_all, parse_element, serialize,
)

NS = "urn:bda:bdmv:interactive-cluster"

DUPLICATE = ("duplicate Id 't1': multiple elements carry it; refusing "
             "ambiguous reference (wrapping defence)")


def cluster():
    return parse_element(
        f'<cluster xmlns="{NS}" Id="c1">'
        '<track Id="t1"><script Id="s1">play()</script></track>'
        '<track Id="t2"><script Id="s2">menu()</script>'
        '<data Id="d2">aGVsbG8=</data></track>'
        "</cluster>"
    )


def plant_decoy(root):
    """A second element carrying the signed Id, after the original."""
    root.append(parse_element(
        f'<track xmlns="{NS}" Id="t1"><script>evil()</script></track>'))


@pytest.fixture
def signer(pki):
    return Signer(pki.studio.key, identity=pki.studio)


def targets(signature) -> list:
    return [(reference.get("URI"), target and target.get("Id"))
            for reference, target in signature_coverage(signature)]


@pytest.mark.parametrize("uri,transforms", [
    ("#t1", [Transform(C14N)]),
    ("", [Transform(XPATH, xpath="id('t1')"), Transform(C14N)]),
], ids=["fragment", "xpath-id"])
def test_duplicate_id_refused_alike(signer, trust_store, uri, transforms):
    """XPath ``id()`` over a planted duplicate gets the answer and the
    message of a ``#id`` reference over the same bytes."""
    root = cluster()
    signature = signer.sign_references(
        [Reference(uri=uri, transforms=transforms)], parent=root)
    verifier = Verifier(trust_store=trust_store, require_trusted_key=True)
    assert verifier.verify(signature).valid
    plant_decoy(root)
    report = verifier.verify(signature)
    assert not report.valid
    assert [r.error for r in report.references] == [DUPLICATE]


def test_xpath_id_step_refuses_a_duplicate():
    root = cluster()
    assert [e.get("Id") for e in find_all(root, "id('t1')")] == ["t1"]
    plant_decoy(root)
    with pytest.raises(ReferenceError_, match="duplicate Id 't1'"):
        find_all(root, "id('t1')")


def manifest_naming(root, manifest_id: str, uri: str, signer):
    """A ds:Manifest whose one entry is a digested C14N *uri*."""
    reference = Reference(uri=uri, transforms=[Transform(C14N)],
                          digest_method=signer.digest_method)
    reference.digest_value = compute_reference_digest(
        reference, ReferenceContext(root=root), signer.provider)
    return build_manifest_element([reference], manifest_id)


def test_manifests_named_outside_signed_info_are_not_read(signer):
    """A decoy ds:Manifest named from a ds:Object planted in the
    signature, or a signed manifest whose Id is duplicated, is neither
    validated nor counted: both read only :func:`signed_manifests`."""
    root = cluster()
    signature = sign_with_manifest(
        signer, [Reference(uri="#t1", transforms=[Transform(C14N)])],
        parent=root, manifest_id="m1")
    planted = element("ds:Object", DSIG_NS)
    planted.append(Reference(uri="#decoy", transforms=[Transform(C14N)],
                             reference_type=MANIFEST_TYPE).to_element())
    planted.append(manifest_naming(root, "decoy", "#t2", signer))
    signature.insert(0, planted)
    assert [m.get("Id") for m in signed_manifests(signature)] == ["m1"]
    assert [r.uri for r in validate_manifest_references(signature).results] \
        == ["#t1"]
    assert targets(signature) == [("#m1", "m1"), ("#t1", "t1")]
    root.append(parse_element('<Manifest Id="m1"/>'))
    assert signed_manifests(signature) == []
    assert targets(signature) == [("#m1", None)]
    with pytest.raises(SignatureError, match="no ds:Manifest"):
        validate_manifest_references(signature)


def test_every_manifest_signed_info_names_is_validated(signer):
    root = cluster()
    root.append(manifest_naming(root, "m1", "#t1", signer))
    root.append(manifest_naming(root, "m2", "#t2", signer))
    signature = signer.sign_references([
        Reference(uri=f"#{manifest_id}", transforms=[Transform(C14N)],
                  digest_method=signer.digest_method,
                  reference_type=MANIFEST_TYPE)
        for manifest_id in ("m1", "m2")], parent=root)
    assert targets(signature) == [("#m1", "m1"), ("#t1", "t1"),
                                  ("#m2", "m2"), ("#t2", "t2")]
    assert validate_manifest_references(signature).all_valid
    root.element_by_id("s2").children[0].data = "evil()"
    validation = validate_manifest_references(signature)
    assert validation.valid_for("#t1")
    assert not validation.valid_for("#t2")


def test_coverage_of_each_reference_shape(signer):
    root = cluster()
    signature = signer.sign_references([
        Reference(uri="", transforms=[Transform(C14N)]),
        Reference(uri="#t1", transforms=[Transform(C14N)]),
        Reference(uri="#t2", transforms=[
            Transform(XPATH, xpath=".//script"), Transform(C14N)]),
        Reference(uri="#d2", transforms=[Transform(BASE64)]),
        Reference(uri="bd://BDMV/STREAM/00001.m2ts"),
    ], parent=root, resolver=lambda uri: b"stream")
    assert targets(signature) == [
        ("", "c1"), ("#t1", "t1"), ("#t2", None), ("#d2", None),
        ("bd://BDMV/STREAM/00001.m2ts", None),
    ]


def test_absent_or_ambiguous_id_vouches_for_nothing(signer):
    root = cluster()
    signature = signer.sign_references(
        [Reference(uri="#t1", transforms=[Transform(C14N)]),
         Reference(uri="#t2", transforms=[Transform(C14N)])], parent=root)
    plant_decoy(root)
    root.remove(root.child_elements()[1])
    assert targets(signature) == [("#t1", None), ("#t2", None)]


def test_manifest_entries_are_contributed(signer):
    root = cluster()
    signature = sign_with_manifest(signer, [
        Reference(uri="#t1", transforms=[Transform(C14N)]),
        Reference(uri="#t2", transforms=[
            Transform(XPATH, xpath=".//script"), Transform(C14N)]),
    ], parent=root, manifest_id="m1")
    assert targets(signature) == [("#m1", "m1"), ("#t1", "t1"),
                                  ("#t2", None)]
    # A manifest-typed reference that vouches for nothing contributes
    # no entries either.
    reparsed = parse_element(serialize(root)).find("Signature")
    reference = reparsed.find("Reference")
    assert reference.get("Type") == MANIFEST_TYPE
    reference.set("URI", "#nowhere")
    assert targets(reparsed) == [("#nowhere", None)]
