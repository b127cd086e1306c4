"""Transform pipeline behaviour and XML mapping."""

import pytest

from repro.dsig import Reference, Signer, Transform, Verifier
from repro.dsig.transforms import (
    BASE64, ENVELOPED_SIGNATURE, XPATH, TransformContext, node_at_path,
    node_path, stream_transform_octets,
)
from repro.errors import SignatureError
from repro.primitives.encoding import b64encode
from repro.xmlcore import C14N, EXC_C14N, canonicalize, parse_element
from repro.xmlcore.tree import Element


def apply_transforms(value, transforms, context) -> bytes:
    """The pipeline's octets, collected from its streamed chunks."""
    chunks: list[bytes] = []
    total = stream_transform_octets(value, transforms, context,
                                    chunks.append)
    octets = b"".join(chunks)
    assert total == len(octets)
    return octets


def test_node_path_roundtrip():
    root = parse_element("<r><a/><b><c/><d><e/></d></b></r>")
    e = root.find("e")
    path = node_path(e)
    assert path == (1, 1, 0)
    clone = root.copy()
    assert node_at_path(clone, path).local == "e"


def test_c14n_transform():
    root = parse_element('<r xmlns:u="urn:u" a="1"><c/></r>')
    out = apply_transforms(root.copy(), [Transform(C14N)],
                           TransformContext())
    assert out == canonicalize(root, C14N)


def test_exclusive_c14n_transform_with_prefixes():
    doc = parse_element('<r xmlns:keep="urn:k" xmlns:drop="urn:d"><c/></r>')
    child = doc.child_elements()[0]
    out = apply_transforms(
        child, [Transform(EXC_C14N, inclusive_prefixes=("keep",))],
        TransformContext(),
    )
    assert out == b'<c xmlns:keep="urn:k"></c>'


def test_base64_transform_from_element():
    node = parse_element(f"<data>{b64encode(b'raw bytes')}</data>")
    out = apply_transforms(node, [Transform(BASE64)], TransformContext())
    assert out == b"raw bytes"


def test_base64_transform_from_bytes():
    out = apply_transforms(
        b64encode(b"x").encode(), [Transform(BASE64)], TransformContext(),
    )
    assert out == b"x"


def test_base64_transform_of_non_text_bytes_is_a_signature_error():
    with pytest.raises(SignatureError,
                       match="^base64 transform input is not text$"):
        apply_transforms(b"\xff\xfe\x00", [Transform(BASE64)],
                         TransformContext())


def test_enveloped_removes_only_the_processed_signature():
    root = parse_element(
        '<r xmlns:ds="http://www.w3.org/2000/09/xmldsig#">'
        "<data>v</data><ds:Signature><ds:SignedInfo/></ds:Signature></r>"
    )
    signature = root.find("Signature")
    working = root.copy()
    context = TransformContext(
        working_root=working, signature_path=node_path(signature),
    )
    out = apply_transforms(working, [Transform(ENVELOPED_SIGNATURE),
                                     Transform(C14N)], context)
    assert b"Signature" not in out
    assert b"<data>v</data>" in out
    # The original tree is untouched.
    assert root.find("Signature") is not None


def test_enveloped_without_context_fails():
    node = parse_element("<r/>")
    with pytest.raises(SignatureError):
        apply_transforms(node, [Transform(ENVELOPED_SIGNATURE)],
                         TransformContext())


def test_xpath_transform_selects_subset():
    root = parse_element(
        "<m><markup><x>keep</x></markup><code><y>skip</y></code></m>"
    )
    out = apply_transforms(
        root, [Transform(XPATH, xpath="//markup"), Transform(C14N)],
        TransformContext(),
    )
    assert out == b"<markup><x>keep</x></markup>"


def test_xpath_transform_multiple_selection_concatenates():
    root = parse_element("<m><s>1</s><t/><s>2</s></m>")
    out = apply_transforms(
        root, [Transform(XPATH, xpath="//s")], TransformContext(),
    )
    assert out == b"<s>1</s><s>2</s>"


def test_xpath_without_expression_fails():
    with pytest.raises(SignatureError):
        apply_transforms(parse_element("<r/>"),
                         [Transform(XPATH)], TransformContext())


def test_unknown_transform_rejected():
    with pytest.raises(SignatureError):
        apply_transforms(parse_element("<r/>"),
                         [Transform("urn:bogus")], TransformContext())


def test_transform_xml_roundtrip():
    for transform in [
        Transform(C14N),
        Transform(ENVELOPED_SIGNATURE),
        Transform(XPATH, xpath="//markup"),
        Transform(EXC_C14N, inclusive_prefixes=("a", "b")),
        Transform("http://www.w3.org/2002/07/decrypt#XML",
                  except_uris=("#e1", "#e2")),
    ]:
        again = Transform.from_element(transform.to_element())
        assert again == transform


def test_signed_xpath_subset(pki, trust_store):
    """Sign only the markup part of a manifest (Fig 5 selective signing)."""
    manifest = parse_element(
        '<manifest xmlns="urn:disc" Id="m1">'
        "<markup><region/></markup><code><script>v()</script></code>"
        "</manifest>"
    )
    signer = Signer(pki.studio.key, identity=pki.studio)
    reference = Reference(
        uri="#m1",
        transforms=[Transform(XPATH, xpath="//markup"), Transform(C14N)],
    )
    signature = signer.sign_references([reference], parent=manifest)
    verifier = Verifier(trust_store=trust_store)
    assert verifier.verify(signature).valid
    # Changing unsigned code does NOT invalidate...
    manifest.find("script").children[0].data = "changed()"
    assert verifier.verify(signature).valid
    # ...changing the signed markup does.
    manifest.find("markup").append(Element("injected"))
    assert not verifier.verify(signature).valid
