"""The W3C Decryption Transform in isolation (paper ref [21])."""

import pytest

from repro.core import apply_decryption_transform
from repro.errors import SignatureError
from repro.primitives.keys import SymmetricKey
from repro.xmlcore import XMLENC_NS, canonicalize, parse_element
from repro.xmlenc import Decryptor, Encryptor


@pytest.fixture
def key(rng):
    return SymmetricKey(rng.read(16))


@pytest.fixture
def encryptor(rng):
    return Encryptor(rng=rng)


@pytest.fixture
def decryptor(key):
    return Decryptor(keys={"k": key})


def doc():
    return parse_element(
        '<pkg xmlns="urn:d" Id="p">'
        '<a Id="a1"><v>alpha</v></a>'
        '<b Id="b1"><v>beta</v></b>'
        "</pkg>"
    )


def test_decrypts_descendants(encryptor, decryptor, key):
    root = doc()
    original = canonicalize(root)
    encryptor.encrypt_element(root.element_by_id("a1"), key,
                              key_name="k", data_id="e1")
    out = apply_decryption_transform(root, decryptor)
    assert canonicalize(out) == original


def test_except_regions_left_encrypted(encryptor, decryptor, key):
    root = doc()
    encryptor.encrypt_element(root.element_by_id("a1"), key,
                              key_name="k", data_id="e1")
    encryptor.encrypt_element(root.element_by_id("b1"), key,
                              key_name="k", data_id="e2")
    out = apply_decryption_transform(root, decryptor,
                                     except_uris=("#e2",))
    assert out.element_by_id("a1") is not None   # decrypted
    assert out.element_by_id("b1") is None       # still hidden
    remaining = out.findall("EncryptedData", XMLENC_NS)
    assert [e.get("Id") for e in remaining] == ["e2"]


def test_apex_encrypted_data_replaced(encryptor, decryptor, key):
    holder = doc()
    target = holder.element_by_id("a1")
    enc = encryptor.encrypt_element(target, key, key_name="k",
                                    data_id="e1")
    out = apply_decryption_transform(enc, decryptor)
    assert out.local == "a"
    assert out.text_content() == "alpha"


def test_apex_excepted_stays(encryptor, decryptor, key):
    holder = doc()
    enc = encryptor.encrypt_element(holder.element_by_id("a1"), key,
                                    key_name="k", data_id="e1")
    out = apply_decryption_transform(enc, decryptor,
                                     except_uris=("#e1",))
    assert out.local == "EncryptedData"


def test_binary_mode(encryptor, decryptor, key):
    data, _ = encryptor.encrypt_bytes(b"raw clip bytes", key,
                                      key_name="k")
    node = data.to_element()
    out = apply_decryption_transform(node, decryptor, binary=True)
    assert out == b"raw clip bytes"


def test_binary_mode_requires_encrypted_data(decryptor):
    with pytest.raises(SignatureError):
        apply_decryption_transform(parse_element("<x/>"), decryptor,
                                   binary=True)


def test_except_uri_must_be_fragment(decryptor):
    with pytest.raises(SignatureError, match="same-document"):
        apply_decryption_transform(
            parse_element("<x/>"), decryptor,
            except_uris=("http://remote/e1",),
        )


def test_nested_super_encryption(encryptor, decryptor, key, rng):
    root = doc()
    original = canonicalize(root)
    inner = SymmetricKey(rng.read(16))
    decryptor.add_key("inner", inner)
    encryptor.encrypt_element(root.find("v"), inner, key_name="inner")
    encryptor.encrypt_element(root.element_by_id("a1"), key,
                              key_name="k")
    out = apply_decryption_transform(root, decryptor)
    assert canonicalize(out) == original


def test_transform_in_signature_pipeline(pki, trust_store, encryptor,
                                         decryptor, key):
    """Signature over plaintext; encryption applied after; the
    transform reconciles them at verification (the Fig 9 mechanism,
    tested at the dsig layer)."""
    from repro.dsig import Reference, Signer, Transform, Verifier
    from repro.dsig.transforms import DECRYPT_XML, ENVELOPED_SIGNATURE
    from repro.xmlcore import C14N

    root = doc()
    signer = Signer(pki.studio.key, identity=pki.studio)
    reference = Reference(uri="", transforms=[
        Transform(DECRYPT_XML),
        Transform(ENVELOPED_SIGNATURE),
        Transform(C14N),
    ])
    signature = signer.sign_references([reference], parent=root,
                                       decryptor=decryptor)
    # Post-signing encryption of <a>.
    encryptor.encrypt_element(root.element_by_id("a1"), key,
                              key_name="k", data_id="e1")
    verifier = Verifier(trust_store=trust_store, require_trusted_key=True)
    assert verifier.verify(signature, decryptor=decryptor).valid
    # Without a decryptor the reference cannot be validated.
    report = verifier.verify(signature)
    assert not report.valid
    assert "decryptor" in report.references[0].error
