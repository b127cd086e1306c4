"""The command-line tools, driven through their main() entry point."""

import pytest

from repro.tools import main
from repro.tools.keystore import (
    certificates_from_xml, certificates_to_xml, private_key_from_xml,
    private_key_to_xml, public_key_from_xml, public_key_to_xml,
)

APP_XML = (
    '<manifest xmlns="urn:bda:bdmv:interactive-cluster" Id="m1">'
    '<markup Id="mk1"><region name="main"/></markup>'
    '<code Id="c1"><script>go()</script></code></manifest>'
)

KEY_HEX = "000102030405060708090a0b0c0d0e0f"


@pytest.fixture
def workspace(tmp_path):
    """A CA, a studio identity, and an unsigned document on disk."""
    ca_key = tmp_path / "ca.key"
    ca_cert = tmp_path / "ca.cert"
    studio_key = tmp_path / "studio.key"
    chain = tmp_path / "studio.chain"
    document = tmp_path / "app.xml"
    document.write_text(APP_XML)
    assert main(["ca-init", "--name", "CN=Test Root", "--seed", "root",
                 "--key-out", str(ca_key),
                 "--cert-out", str(ca_cert)]) == 0
    assert main(["keygen", "--seed", "studio", "-o",
                 str(studio_key)]) == 0
    assert main(["issue", "--ca-key", str(ca_key), "--ca-cert",
                 str(ca_cert), "--subject", "CN=Studio",
                 "--subject-key", str(studio_key), "-o",
                 str(chain)]) == 0
    return tmp_path


def test_sign_and_verify_roundtrip(workspace):
    signed = workspace / "signed.xml"
    assert main(["sign", str(workspace / "app.xml"),
                 "--key", str(workspace / "studio.key"),
                 "--chain", str(workspace / "studio.chain"),
                 "-o", str(signed)]) == 0
    assert main(["verify", str(signed),
                 "--roots", str(workspace / "ca.cert")]) == 0


def test_verify_detects_tampering(workspace):
    signed = workspace / "signed.xml"
    main(["sign", str(workspace / "app.xml"),
          "--key", str(workspace / "studio.key"),
          "--chain", str(workspace / "studio.chain"), "-o", str(signed)])
    bad = workspace / "bad.xml"
    bad.write_text(signed.read_text().replace("go()", "evil()"))
    assert main(["verify", str(bad),
                 "--roots", str(workspace / "ca.cert")]) == 1


def test_verify_without_signature(workspace):
    assert main(["verify", str(workspace / "app.xml")]) == 2


def test_verify_untrusted_without_roots(workspace):
    """Self-asserted KeyValue verifies without --roots but fails with."""
    unsigned = workspace / "app.xml"
    signed = workspace / "kv.xml"
    assert main(["sign", str(unsigned),
                 "--key", str(workspace / "studio.key"),
                 "-o", str(signed)]) == 0  # no chain: bare KeyValue
    assert main(["verify", str(signed)]) == 0
    assert main(["verify", str(signed),
                 "--roots", str(workspace / "ca.cert")]) == 1


def test_encrypt_decrypt_cycle(workspace):
    document = workspace / "app.xml"
    encrypted = workspace / "enc.xml"
    assert main(["encrypt", str(document), "--target-id", "c1",
                 "--key-hex", KEY_HEX, "--key-name", "disc",
                 "--seed", "iv", "-o", str(encrypted)]) == 0
    assert "go()" not in encrypted.read_text()
    decrypted = workspace / "dec.xml"
    assert main(["decrypt", str(encrypted), "--key-hex", KEY_HEX,
                 "--key-name", "disc", "-o", str(decrypted)]) == 0
    assert "go()" in decrypted.read_text()


def test_encrypt_unknown_target(workspace):
    assert main(["encrypt", str(workspace / "app.xml"),
                 "--target-id", "ghost", "--key-hex", KEY_HEX]) == 2


def test_encrypt_refuses_an_ambiguous_target(tmp_path, capsys):
    """Two elements carry the Id: refuse rather than encrypt the first."""
    document = tmp_path / "dup.xml"
    document.write_text(APP_XML.replace('Id="mk1"', 'Id="c1"'))
    assert main(["encrypt", str(document), "--target-id", "c1",
                 "--key-hex", KEY_HEX]) == 2
    assert "duplicate Id 'c1'" in capsys.readouterr().err
    assert document.read_text() == APP_XML.replace('Id="mk1"', 'Id="c1"')


def test_decrypt_wrong_key_fails(workspace):
    document = workspace / "app.xml"
    encrypted = workspace / "enc.xml"
    main(["encrypt", str(document), "--target-id", "c1",
          "--key-hex", KEY_HEX, "--key-name", "disc", "--seed", "iv",
          "-o", str(encrypted)])
    wrong = "ff" * 16
    assert main(["decrypt", str(encrypted), "--key-hex", wrong,
                 "--key-name", "disc",
                 "-o", str(workspace / "x.xml")]) == 2


def test_c14n_command(workspace, capsys):
    assert main(["c14n", str(workspace / "app.xml")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("<manifest")
    assert "<region name=\"main\"></region>" in out


def test_c14n_variants_agree(workspace, tmp_path, capsys):
    a = tmp_path / "a.xml"
    b = tmp_path / "b.xml"
    a.write_text('<r b="2" a="1"/>')
    b.write_text("<r a='1'  b=\"2\" ></r>")
    main(["c14n", str(a)])
    out_a = capsys.readouterr().out
    main(["c14n", str(b)])
    out_b = capsys.readouterr().out
    assert out_a == out_b


def test_inspect_command(workspace, capsys):
    signed = workspace / "signed.xml"
    main(["sign", str(workspace / "app.xml"),
          "--key", str(workspace / "studio.key"),
          "--chain", str(workspace / "studio.chain"), "-o", str(signed)])
    main(["encrypt", str(signed), "--target-id", "c1",
          "--key-hex", KEY_HEX])
    assert main(["inspect", str(signed)]) == 0
    out = capsys.readouterr().out
    assert "signatures: 1" in out
    assert "encrypted regions: 1" in out


def test_missing_file_error(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "missing.xml")]) == 2


def test_keystore_roundtrips(pki):
    key = pki.studio.key
    again = private_key_from_xml(private_key_to_xml(key))
    assert again == key
    public = key.public_key()
    assert public_key_from_xml(public_key_to_xml(public)) == public
    bundle = certificates_to_xml(pki.studio.chain)
    certificates = certificates_from_xml(bundle)
    assert [c.subject for c in certificates] == \
        [c.subject for c in pki.studio.chain]


def test_keystore_rejects_wrong_files(pki):
    from repro.errors import KeyError_
    with pytest.raises(KeyError_):
        private_key_from_xml("<NotAKey/>")
    with pytest.raises(KeyError_):
        public_key_from_xml("<NotAKey/>")
    with pytest.raises(KeyError_):
        certificates_from_xml("<Junk/>")


MANIFEST_XML = (
    '<manifest xmlns="urn:bda:bdmv:interactive-cluster" Id="m1" '
    'name="cli-app"><markup Id="mk1">'
    '<submarkup kind="layout" Id="sm1">'
    '<layout xmlns="urn:bda:bdmv:interactive-cluster">'
    '<region regionName="main" width="1" height="1"/></layout>'
    '</submarkup></markup>'
    '<code Id="c1"><script Id="s1" language="ecmascript">'
    'player.log("cli");</script></code></manifest>'
)


@pytest.fixture
def package_workspace(workspace):
    """Extends the CA workspace with a player key pair + manifest."""
    from repro.tools.keystore import (
        private_key_from_xml, public_key_to_xml,
    )
    player_key = workspace / "player.key"
    assert main(["keygen", "--seed", "player", "-o",
                 str(player_key)]) == 0
    key = private_key_from_xml(player_key.read_bytes())
    (workspace / "player.pub").write_text(
        public_key_to_xml(key.public_key())
    )
    (workspace / "manifest.xml").write_text(MANIFEST_XML)
    return workspace


def test_package_and_open_roundtrip(package_workspace):
    ws = package_workspace
    assert main(["package", str(ws / "manifest.xml"),
                 "--key", str(ws / "studio.key"),
                 "--chain", str(ws / "studio.chain"),
                 "--recipient-key", str(ws / "player.pub"),
                 "--encrypt-code", "--seed", "pkg",
                 "-o", str(ws / "app.pkg")]) == 0
    # The encrypted package hides the script.
    assert b"player.log" not in (ws / "app.pkg").read_bytes()
    assert main(["open-package", str(ws / "app.pkg"),
                 "--roots", str(ws / "ca.cert"),
                 "--device-key", str(ws / "player.key"),
                 "-o", str(ws / "opened.xml")]) == 0
    assert "player.log" in (ws / "opened.xml").read_text()


def test_open_package_bars_tampering(package_workspace):
    ws = package_workspace
    main(["package", str(ws / "manifest.xml"),
          "--key", str(ws / "studio.key"),
          "--chain", str(ws / "studio.chain"),
          "--recipient-key", str(ws / "player.pub"),
          "--seed", "pkg", "-o", str(ws / "app.pkg")])
    tampered = (ws / "app.pkg").read_bytes().replace(
        b"cli-app", b"bad-app",
    )
    (ws / "bad.pkg").write_bytes(tampered)
    assert main(["open-package", str(ws / "bad.pkg"),
                 "--roots", str(ws / "ca.cert"),
                 "--device-key", str(ws / "player.key")]) == 1


def test_open_package_without_device_key(package_workspace):
    ws = package_workspace
    main(["package", str(ws / "manifest.xml"),
          "--key", str(ws / "studio.key"),
          "--chain", str(ws / "studio.chain"),
          "--recipient-key", str(ws / "player.pub"),
          "--encrypt-code", "--seed", "pkg",
          "-o", str(ws / "app.pkg")])
    # Without the device key, the decryption transform fails → barred.
    assert main(["open-package", str(ws / "app.pkg"),
                 "--roots", str(ws / "ca.cert")]) == 1
