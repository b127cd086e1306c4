"""Security profiles and whole-disc signing."""

import pytest

from repro.core import (
    ALL_PROFILES, ProtectionLevel, SIGNED_AND_ENCRYPTED, STUDIO_GRADE,
    UNPROTECTED, profile_by_name, sign_disc_image,
)
from repro.core.package import PACKAGE_ID, build_package_element, \
    parse_package
from repro.disc import ApplicationManifest, DiscAuthor
from repro.dsig import Signer
from repro.player import DiscPlayer
from repro.threat import corrupt_stream
from repro.xmlcore import DSIG_NS, parse_element, serialize_bytes


def test_profiles_are_named_and_unique():
    names = [profile.name for profile in ALL_PROFILES]
    assert len(names) == len(set(names))
    for profile in ALL_PROFILES:
        assert profile_by_name(profile.name) is profile
    with pytest.raises(KeyError):
        profile_by_name("no-such-profile")


def test_profile_semantics():
    assert UNPROTECTED.sign_level is None
    assert not UNPROTECTED.encrypt_levels
    assert ProtectionLevel.CODE in SIGNED_AND_ENCRYPTED.encrypt_levels
    assert STUDIO_GRADE.signature_method.endswith("rsa-sha256")
    assert STUDIO_GRADE.encryption_algorithm.endswith("aes256-cbc")


def _disc(pki, rng):
    author = DiscAuthor("Profile Disc", rng=rng)
    clip = author.add_clip(5.0, packets_per_second=25)
    author.add_feature("main", [clip])
    manifest = ApplicationManifest("menu")
    manifest.add_submarkup("layout", parse_element(
        '<layout xmlns="urn:bda:bdmv:interactive-cluster">'
        '<region regionName="main" width="1" height="1"/></layout>'
    ))
    manifest.add_script("var x = 1;")
    author.add_application(manifest)
    return author.master()


@pytest.mark.parametrize("level", [ProtectionLevel.CLUSTER,
                                   ProtectionLevel.TRACK,
                                   ProtectionLevel.MANIFEST])
def test_sign_disc_image_levels(pki, trust_store, rng, level):
    image = _disc(pki, rng)
    signer = Signer(pki.studio.key, identity=pki.studio)
    result = sign_disc_image(image, signer, level=level)
    assert result.level is level
    assert result.stream_uris == ["bd://BDMV/STREAM/00001.m2ts"]
    session = DiscPlayer(trust_store).insert_disc(image)
    assert session.authenticated


def test_sign_disc_without_streams(pki, trust_store, rng):
    image = _disc(pki, rng)
    signer = Signer(pki.studio.key, identity=pki.studio)
    result = sign_disc_image(image, signer, include_streams=False)
    assert result.stream_uris == []
    # Disc authenticates (markup is signed)...
    assert DiscPlayer(trust_store).insert_disc(image).authenticated
    # ...but stream tampering is invisible — the signer's discretion
    # (§5.3), with its consequence.
    tampered = corrupt_stream(image, "00001")
    assert DiscPlayer(trust_store).insert_disc(tampered).authenticated


def test_sign_disc_with_streams_catches_tampering(pki, trust_store, rng):
    image = _disc(pki, rng)
    sign_disc_image(image, Signer(pki.studio.key, identity=pki.studio),
                    include_streams=True)
    tampered = corrupt_stream(image, "00001")
    assert not DiscPlayer(trust_store).insert_disc(tampered).authenticated


def test_untrusted_disc_signer(pki, trust_store, rng):
    image = _disc(pki, rng)
    sign_disc_image(image, Signer(pki.attacker.key,
                                  identity=pki.attacker))
    assert not DiscPlayer(trust_store).insert_disc(image).authenticated


# -- package module edges ----------------------------------------------------


def test_build_package_element_shape():
    manifest = ApplicationManifest("p")
    manifest.add_submarkup("layout", parse_element(
        '<layout xmlns="urn:bda:bdmv:interactive-cluster"/>'
    ))
    manifest.add_script("1;")
    package = build_package_element(manifest.to_element(), None)
    assert package.get("Id") == PACKAGE_ID
    view = parse_package(serialize_bytes(package))
    assert view.root.first_child("Signature", DSIG_NS) is None
    assert view.permission_file is None
    assert view.manifest().name == "p"


def test_parse_package_accepts_element_input():
    manifest = ApplicationManifest("p2")
    manifest.add_submarkup("layout", parse_element(
        '<layout xmlns="urn:bda:bdmv:interactive-cluster"/>'
    ))
    manifest.add_script("1;")
    package = build_package_element(manifest.to_element(), None)
    view = parse_package(package)
    assert view.root is package
