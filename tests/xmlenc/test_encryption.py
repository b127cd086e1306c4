"""XML Encryption round trips: element, content, data, key transport."""

import pytest

from repro.errors import (
    DecryptionError, EncryptedDataFormatError, EncryptionError,
)
from repro.primitives.keys import SymmetricKey
from repro.primitives.provider import get_provider
from repro.primitives.rsa import generate_keypair
from repro.xmlcore import XMLENC_NS, canonicalize, parse_element, serialize
from repro.xmlenc import (
    AES128_CBC, AES192_CBC, AES256_CBC, Decryptor, EncryptedData,
    EncryptedKey, Encryptor, KW_AES256, TYPE_CONTENT, TYPE_ELEMENT,
    decrypt_block_data,
)
from repro.xmlenc.algorithms import DECRYPT_FAILURE


@pytest.fixture
def encryptor(rng):
    return Encryptor(rng=rng)


@pytest.fixture
def key(rng):
    return SymmetricKey(rng.read(16))


@pytest.mark.parametrize("algorithm,size", [
    (AES128_CBC, 16), (AES192_CBC, 24), (AES256_CBC, 32),
])
def test_element_encryption_all_algorithms(encryptor, rng, manifest,
                                           algorithm, size):
    key = SymmetricKey(rng.read(size))
    original = canonicalize(manifest)
    code = manifest.find("code")
    encryptor.encrypt_element(code, key, algorithm=algorithm,
                              key_name="slot-1")
    assert manifest.find("script") is None
    decryptor = Decryptor(keys={"slot-1": key})
    assert decryptor.decrypt_in_place(manifest) == 1
    assert canonicalize(manifest) == original


def test_element_encryption_survives_serialization(encryptor, key,
                                                   manifest):
    original = canonicalize(manifest)
    encryptor.encrypt_element(manifest.find("code"), key,
                              key_name="slot-1")
    transported = parse_element(serialize(manifest))
    Decryptor(keys={"slot-1": key}).decrypt_in_place(transported)
    assert canonicalize(transported) == original


def test_content_encryption_keeps_element_visible(encryptor, key):
    game = parse_element(
        '<game xmlns="urn:game"><title>Pinball</title>'
        '<scores><top p="ann">120</top></scores></game>'
    )
    original = canonicalize(game)
    encryptor.encrypt_content(game.find("scores"), key, key_name="k")
    assert game.find("title").text_content() == "Pinball"
    assert game.find("scores") is not None      # element visible
    assert game.find("top") is None             # content hidden
    Decryptor(keys={"k": key}).decrypt_in_place(game)
    assert canonicalize(game) == original


def test_content_encryption_preserves_mixed_content(encryptor, key):
    node = parse_element("<p>before <b>bold</b> after</p>")
    original = canonicalize(node)
    encryptor.encrypt_content(node, key, key_name="k")
    Decryptor(keys={"k": key}).decrypt_in_place(node)
    assert canonicalize(node) == original


def test_namespace_context_preserved(encryptor, key):
    root = parse_element(
        '<r xmlns:a="urn:a"><holder><a:payload attr="1"/></holder></r>'
    )
    original = canonicalize(root)
    encryptor.encrypt_element(root.find("payload", "urn:a"), key,
                              key_name="k")
    transported = parse_element(serialize(root))
    Decryptor(keys={"k": key}).decrypt_in_place(transported)
    assert canonicalize(transported) == original


def test_bytes_roundtrip(encryptor, key):
    data, detached = encryptor.encrypt_bytes(
        b"\x47TS-payload" * 99, key, key_name="k", mime_type="video/mp2t",
    )
    assert detached is None
    assert data.mime_type == "video/mp2t"
    out = Decryptor(keys={"k": key}).decrypt_to_bytes(data)
    assert out == b"\x47TS-payload" * 99


def test_detached_cipher_reference(encryptor, key):
    store = {}
    data, ciphertext = encryptor.encrypt_bytes(
        b"clip-bytes" * 50, key, key_name="k",
        detached_uri="bd://enc/clip1.bin",
    )
    store["bd://enc/clip1.bin"] = ciphertext
    assert data.cipher_reference == "bd://enc/clip1.bin"
    decryptor = Decryptor(keys={"k": key}, resolver=store.__getitem__)
    assert decryptor.decrypt_to_bytes(data) == b"clip-bytes" * 50


def test_cipher_reference_without_resolver(encryptor, key):
    data, _ = encryptor.encrypt_bytes(b"x", key, key_name="k",
                                      detached_uri="bd://gone")
    with pytest.raises(DecryptionError, match="resolver"):
        Decryptor(keys={"k": key}).decrypt_to_bytes(data)


def test_session_key_with_keywrap(encryptor, rng, manifest):
    original = canonicalize(manifest)
    kek = SymmetricKey(rng.read(32))
    encryptor.session_encrypt_element(
        manifest.find("code"), kek, wrap_algorithm=KW_AES256,
        kek_name="player-kek",
    )
    decryptor = Decryptor(keys={"player-kek": kek})
    decryptor.decrypt_in_place(manifest)
    assert canonicalize(manifest) == original


def test_session_key_with_rsa_transport(encryptor, rng, manifest):
    original = canonicalize(manifest)
    player_key = generate_keypair(1024, rng)
    encryptor.session_encrypt_element(
        manifest.find("code"), player_key.public_key(),
        recipient="player-0001",
    )
    enc_el = manifest.find("EncryptedData", XMLENC_NS)
    assert enc_el.find("EncryptedKey", XMLENC_NS) is not None
    decryptor = Decryptor(rsa_key=player_key)
    decryptor.decrypt_in_place(manifest)
    assert canonicalize(manifest) == original


def test_rsa_transport_wrong_key(encryptor, rng, manifest):
    """Another device's key unwraps a synthetic CEK (implicit
    rejection); what fails is the content, with the one message."""
    player_key = generate_keypair(1024, rng)
    other_key = generate_keypair(1024, rng)
    encryptor.session_encrypt_element(
        manifest.find("code"), player_key.public_key(),
    )
    decryptor = Decryptor(rsa_key=other_key)
    with pytest.raises(DecryptionError) as excinfo:
        decryptor.decrypt_in_place(manifest)
    assert str(excinfo.value) == DECRYPT_FAILURE


def test_wrong_named_key(encryptor, key, rng, manifest):
    encryptor.encrypt_element(manifest.find("code"), key, key_name="k")
    wrong = Decryptor(keys={"k": SymmetricKey(rng.read(16))})
    with pytest.raises(DecryptionError) as excinfo:
        wrong.decrypt_in_place(manifest)
    assert str(excinfo.value) == DECRYPT_FAILURE


@pytest.mark.parametrize("length", [0, 15, 17, 32])
def test_wrong_length_cek_is_a_content_failure(encryptor, key, length):
    """An implicitly rejected transport yields a CEK of pseudo-random
    length: its decrypt fails with the one message, which names no
    length (the encrypt side keeps its explicit message)."""
    data, _ = encryptor.encrypt_bytes(b"payload", key, key_name="k")
    with pytest.raises(DecryptionError) as excinfo:
        decrypt_block_data(AES128_CBC, bytes(length), data.cipher_value)
    assert str(excinfo.value) == DECRYPT_FAILURE


def test_bad_padding_is_a_content_failure(key, rng):
    iv = rng.read(16)
    # One block whose last octet, the XMLEnc pad length, is zero.
    body = get_provider().aes_cbc_encrypt(key.data, iv, bytes(16))
    with pytest.raises(DecryptionError) as excinfo:
        decrypt_block_data(AES128_CBC, key, iv + body)
    assert str(excinfo.value) == DECRYPT_FAILURE


def test_missing_content_wrapper_is_a_content_failure(encryptor, key):
    data, _ = encryptor.encrypt_bytes(b"<not-the-wrapper/>", key,
                                      key_name="k")
    data.data_type = TYPE_CONTENT
    with pytest.raises(DecryptionError) as excinfo:
        Decryptor(keys={"k": key}).decrypt_nodes(data.to_element())
    assert str(excinfo.value) == DECRYPT_FAILURE


def test_missing_key_slot(encryptor, key, manifest):
    encryptor.encrypt_element(manifest.find("code"), key, key_name="k")
    with pytest.raises(DecryptionError, match="no key slot"):
        Decryptor().decrypt_in_place(manifest)


def test_no_key_named_at_all(encryptor, key, manifest):
    encryptor.encrypt_element(manifest.find("code"), key)
    with pytest.raises(DecryptionError, match="names no key"):
        Decryptor().decrypt_in_place(manifest)
    # ...but an explicit key works.
    decryptor = Decryptor()
    target = manifest.find("EncryptedData", XMLENC_NS)
    decryptor.decrypt_element(target, key)
    assert manifest.find("script") is not None


def test_super_encryption(encryptor, key, rng, manifest):
    """Nested encryption decrypts fully (inner first appears after outer)."""
    original = canonicalize(manifest)
    inner_key = SymmetricKey(rng.read(16))
    encryptor.encrypt_element(manifest.find("script"), inner_key,
                              key_name="inner")
    encryptor.encrypt_element(manifest.find("code"), key, key_name="outer")
    decryptor = Decryptor(keys={"outer": key, "inner": inner_key})
    assert decryptor.decrypt_in_place(manifest) == 2
    assert canonicalize(manifest) == original


def test_except_ids_left_encrypted(encryptor, key, manifest):
    encryptor.encrypt_element(manifest.find("markup"), key, key_name="k",
                              data_id="enc-markup")
    encryptor.encrypt_element(manifest.find("code"), key, key_name="k",
                              data_id="enc-code")
    decryptor = Decryptor(keys={"k": key})
    count = decryptor.decrypt_in_place(manifest,
                                       except_ids=("enc-markup",))
    assert count == 1
    assert manifest.find("script") is not None  # code decrypted
    assert manifest.find("region") is None      # markup still hidden


def test_encrypted_data_structure_validation():
    with pytest.raises(EncryptedDataFormatError):
        EncryptedData(algorithm=AES128_CBC)  # neither value nor reference
    with pytest.raises(EncryptedDataFormatError):
        EncryptedData(algorithm=AES128_CBC, cipher_value=b"x",
                      cipher_reference="u")  # both


def test_encrypted_data_xml_roundtrip(encryptor, key):
    data, _ = encryptor.encrypt_bytes(b"payload", key, key_name="k",
                                      data_id="e1")
    data.data_type = TYPE_ELEMENT
    again = EncryptedData.from_element(
        parse_element(serialize(data.to_element()))
    )
    assert again == data


def test_encrypted_key_xml_roundtrip(encryptor, rng):
    cek = encryptor.generate_cek()
    kek = SymmetricKey(rng.read(16))
    ek = encryptor.make_encrypted_key(cek, kek, kek_name="master",
                                      recipient="player")
    again = EncryptedKey.from_element(
        parse_element(serialize(ek.to_element()))
    )
    assert again == ek


def test_wrong_key_size_for_algorithm(encryptor, rng, manifest):
    with pytest.raises(EncryptionError, match="32-byte"):
        encryptor.encrypt_element(
            manifest.find("code"), SymmetricKey(rng.read(16)),
            algorithm=AES256_CBC,
        )


def test_decrypt_non_xml_type_as_nodes_fails(encryptor, key):
    data, _ = encryptor.encrypt_bytes(b"raw", key, key_name="k")
    decryptor = Decryptor(keys={"k": key})
    with pytest.raises(DecryptionError, match="not XML"):
        decryptor.decrypt_nodes(data.to_element())
