"""End-to-end authoring/playback pipelines with the Decryption Transform
(Fig 9) and the application package format."""

import pytest

from repro.core import (
    AuthoringPipeline, PlaybackPipeline, parse_package,
)
from repro.disc import ApplicationManifest
from repro.errors import ApplicationRejectedError, AuthoringError
from repro.permissions import (
    PERM_LOCAL_STORAGE, PermissionRequestFile,
)
from repro.primitives.keys import SymmetricKey
from repro.primitives.random import DeterministicRandomSource
from repro.primitives.rsa import generate_keypair
from repro.threat import inject_script, strip_signature, \
    tamper_package_bytes
from repro.xmlcore import DSIG_NS, parse_element


@pytest.fixture(scope="module")
def device_key():
    return generate_keypair(1024,
                            DeterministicRandomSource(b"device-key"))


def build_manifest() -> ApplicationManifest:
    manifest = ApplicationManifest("bonus-game")
    manifest.add_submarkup("layout", parse_element(
        '<layout xmlns="urn:bda:bdmv:interactive-cluster">'
        '<region regionName="main" width="2" height="2"/></layout>'
    ))
    manifest.add_script("var secretAlgorithm = 'proprietary';")
    return manifest


def permission_file() -> PermissionRequestFile:
    prf = PermissionRequestFile("bonus-game", "org.studio")
    prf.request(PERM_LOCAL_STORAGE, quota_bytes=2048)
    return prf


@pytest.fixture
def authoring(pki, device_key, rng):
    return AuthoringPipeline(pki.studio,
                             recipient_key=device_key.public_key(),
                             rng=rng)


@pytest.fixture
def playback(pki, trust_store, device_key):
    return PlaybackPipeline(trust_store=trust_store,
                            device_key=device_key)


def test_signed_encrypted_roundtrip(authoring, playback):
    manifest = build_manifest()
    package = authoring.build_package(
        manifest, permission_file=permission_file(),
        encrypt_ids=(manifest.code_id,),
    )
    assert package.signed
    assert b"secretAlgorithm" not in package.data  # confidential
    application = playback.open_package(package.data)
    assert application.trusted
    assert application.signer_subject == "CN=Contoso Studios"
    assert "secretAlgorithm" in application.manifest.scripts[0].source
    assert application.grants.has(PERM_LOCAL_STORAGE)


def test_sign_only(authoring, playback):
    package = authoring.build_package(build_manifest())
    assert b"secretAlgorithm" in package.data  # not confidential
    application = playback.open_package(package.data)
    assert application.trusted


def test_encrypt_before_sign_except_list(authoring, playback):
    """Fig 9 alternative order: signature covers the ciphertext."""
    manifest = build_manifest()
    package = authoring.build_package(
        manifest, pre_encrypt_ids=(manifest.code_id,),
    )
    assert package.pre_encrypted_ids == [f"enc-{manifest.code_id}"]
    signature = parse_package(package.data).root.first_child(
        "Signature", DSIG_NS)
    assert signature.find("Except").get("URI") == \
        f"#enc-{manifest.code_id}"
    application = playback.open_package(package.data)
    assert application.trusted
    assert "secretAlgorithm" in application.manifest.scripts[0].source


def test_package_sealed_to_another_player_degrades(authoring, trust_store):
    """Code encrypted before signing to another device key: the
    signature verifies, the unlock does not, and the download is barred
    instead of escaping as a DecryptionError."""
    from repro.network import Channel, ContentServer, DownloadClient
    from repro.player import DiscPlayer

    manifest = build_manifest()
    package = authoring.build_package(
        manifest, pre_encrypt_ids=(manifest.code_id,),
    )
    server = ContentServer()
    server.publish("/apps/sealed.pkg", package.data)
    client = DownloadClient(server, Channel())
    other_key = generate_keypair(
        1024, DeterministicRandomSource(b"another-device"))
    player = DiscPlayer(trust_store, device_key=other_key)

    assert player.download_application(
        client, "/apps/sealed.pkg", secure=False, optional=True,
    ) is None
    downloads = player.degradation.for_component("download")
    assert [event.resource for event in downloads] == ["/apps/sealed.pkg"]
    unlocks = player.degradation.for_component("package")
    assert [event.resource for event in unlocks] == ["decrypt"]
    with pytest.raises(ApplicationRejectedError,
                       match="does not decrypt for this player"):
        player.download_application(client, "/apps/sealed.pkg",
                                    secure=False)


def test_tampered_package_barred(authoring, playback):
    package = authoring.build_package(build_manifest())
    for attack in (
        lambda d: tamper_package_bytes(d, b"bonus-game", b"evil!-game"),
        lambda d: inject_script(d, "stealKeys()"),
    ):
        with pytest.raises(ApplicationRejectedError):
            playback.open_package(attack(package.data))


def test_signature_stripping_barred(authoring, playback):
    package = authoring.build_package(build_manifest())
    stripped = strip_signature(package.data)
    assert b"ds:Signature" not in stripped
    with pytest.raises(ApplicationRejectedError, match="unsigned"):
        playback.open_package(stripped)


def test_unsigned_allowed_by_lenient_policy(authoring, pki, trust_store,
                                            device_key):
    package = authoring.build_package(build_manifest(), sign=False)
    lenient = PlaybackPipeline(
        trust_store=trust_store, device_key=device_key,
        require_signature=False,
    )
    application = lenient.open_package(package.data)
    assert not application.trusted
    # Untrusted applications don't get sensitive grants.
    assert not application.grants.has(PERM_LOCAL_STORAGE)


def test_untrusted_signer_barred(pki, device_key, playback, rng):
    rogue = AuthoringPipeline(pki.attacker,
                              recipient_key=device_key.public_key(),
                              rng=rng)
    package = rogue.build_package(build_manifest())
    with pytest.raises(ApplicationRejectedError):
        playback.open_package(package.data)


def test_shared_kek_transport(pki, trust_store, rng):
    kek = SymmetricKey(rng.read(16))
    authoring = AuthoringPipeline(pki.studio,
                                  shared_kek=("factory-kek", kek),
                                  rng=rng)
    manifest = build_manifest()
    package = authoring.build_package(manifest,
                                      encrypt_ids=(manifest.code_id,))
    playback = PlaybackPipeline(trust_store=trust_store,
                                key_slots={"factory-kek": kek})
    application = playback.open_package(package.data)
    assert application.trusted
    assert "secretAlgorithm" in application.manifest.scripts[0].source


def test_wrong_device_cannot_decrypt(authoring, pki, trust_store, rng):
    manifest = build_manifest()
    package = authoring.build_package(manifest,
                                      encrypt_ids=(manifest.code_id,))
    other_device = generate_keypair(1024, rng)
    playback = PlaybackPipeline(trust_store=trust_store,
                                device_key=other_device)
    # Verification itself fails: the decryption transform cannot
    # recover the signed plaintext without the right device key.
    with pytest.raises(ApplicationRejectedError):
        playback.open_package(package.data)


def test_pipeline_requires_key_material(pki):
    pipeline = AuthoringPipeline(pki.studio)
    with pytest.raises(AuthoringError):
        pipeline.build_package(build_manifest())


def test_bad_encrypt_target(authoring):
    with pytest.raises(AuthoringError, match="no element"):
        authoring.build_package(build_manifest(),
                                encrypt_ids=("no-such-id",))


def test_package_view_parsing(authoring):
    manifest = build_manifest()
    package = authoring.build_package(
        manifest, permission_file=permission_file(),
    )
    view = parse_package(package.data)
    assert view.root.first_child("Signature", DSIG_NS) is not None
    assert view.manifest().name == "bonus-game"
    assert view.permission_file.app_id == "bonus-game"
    assert view.to_bytes()


def test_parse_package_rejects_other_roots():
    from repro.errors import DiscFormatError
    with pytest.raises(DiscFormatError):
        parse_package(b"<somethingElse/>")
