"""One trust decision, read on disc insert and launch and on package open.

A verified signature vouches for the element it was judged on, on the
tree it verified, and for nothing that decryption reveals later.
Three wrapping moves probe each reader:

* a package whose signed manifest is moved into a wrapper at the end,
  with an injected manifest put first: every digest holds, and the
  manifest that would run is one no signature covers;
* a TRACK-signed disc whose menu manifest is encrypted, next to an
  unsigned track holding ciphertext sealed to the player's *public*
  device key: its plaintext is a track carrying a signed track's Id
  around an injected ``menu``, an Id no signature ever saw;
* a root signed whole (``URI=""``, enveloped) whose manifest is wholly
  encrypted, with an injected ``menu`` planted in a ds:Object of that
  signature: the enveloped-signature transform leaves it out of the
  digest, so the root's coverage must not reach it.
"""

from __future__ import annotations

import pytest

from repro.core import AuthoringPipeline, PlaybackPipeline, \
    ProtectionLevel, build_package_element, sign_disc_image
from repro.disc import ApplicationManifest, DiscAuthor, DiscImage, \
    generate_transport_stream
from repro.dsig import Signer
from repro.errors import ApplicationRejectedError
from repro.network import Channel, ContentServer, DownloadClient
from repro.player import DiscPlayer
from repro.primitives.keys import SymmetricKey
from repro.primitives.random import DeterministicRandomSource
from repro.primitives.rsa import generate_keypair
from repro.xmlcore import DSIG_NS, element, parse_element, \
    serialize_bytes
from repro.xmlenc import Encryptor

NS = "urn:bda:bdmv:interactive-cluster"
DISC_KEY = SymmetricKey(bytes(range(16)))
WRAPPING = r"not covered by any (package|disc) signature " \
    r"\(wrapping attack suspected\)"


@pytest.fixture(scope="module")
def device_key():
    return generate_keypair(1024, DeterministicRandomSource(b"trust-dev"))


def application(name: str, line: str) -> ApplicationManifest:
    app = ApplicationManifest(name)
    app.add_submarkup("layout", parse_element(
        f'<layout xmlns="{NS}"><root-layout width="1920" height="1080"/>'
        '<region regionName="main" width="1920" height="880"/></layout>'))
    app.add_script(f'player.log("{line}");')
    return app


def plant_in(signature) -> None:
    """Plant a ds:Object holding an injected ``menu`` in *signature*."""
    planted = element("ds:Object", DSIG_NS)
    planted.append(application("menu", "EVIL").to_element())
    signature.append(planted)


# -- the package reader ---------------------------------------------------


def moved_manifest_package(pki) -> bytes:
    """A studio signs ``#manifest-N`` detached; the attacker moves the
    signed manifest into a same-namespace wrapper appended last and
    puts an injected ``menu`` manifest first."""
    manifest = application("menu", "GOOD").to_element()
    package = build_package_element(manifest, None)
    Signer(pki.studio.key, identity=pki.studio).sign_detached(
        f"#{manifest.get('Id')}", parent=package)
    wrapper = element("shelf", NS, nsmap={None: NS})
    package.append(wrapper)
    wrapper.append(manifest)
    package.insert(0, application("menu", "EVIL").to_element())
    return serialize_bytes(package)


def test_moved_manifest_package_is_barred(pki, trust_store):
    data = moved_manifest_package(pki)
    pipeline = PlaybackPipeline(trust_store=trust_store)
    with pytest.raises(ApplicationRejectedError, match=WRAPPING):
        pipeline.open_package(data)
    server = ContentServer()
    server.publish("/apps/moved.pkg", data)
    player = DiscPlayer(trust_store)
    with pytest.raises(ApplicationRejectedError, match=WRAPPING):
        player.download_application(DownloadClient(server, Channel()),
                                    "/apps/moved.pkg", secure=False)


def test_moved_manifest_package_runs_untrusted_without_the_policy(
        pki, trust_store):
    lenient = PlaybackPipeline(trust_store=trust_store,
                               require_signature=False)
    application = lenient.open_package(moved_manifest_package(pki))
    assert not application.trusted
    assert application.report.valid


def test_package_needs_every_root_signature(pki, trust_store):
    """A second root signature by an untrusted signer bars the package,
    as it would fail a disc.  The application reports the first root
    signature's signer, though a later one shares its reference URI."""
    manifest = application("bonus", "bonus").to_element()
    package = build_package_element(manifest, None)
    pipeline = PlaybackPipeline(trust_store=trust_store)
    studio = Signer(pki.studio.key, identity=pki.studio)
    studio.sign_detached(f"#{manifest.get('Id')}", parent=package)
    alone = pipeline.open_package(serialize_bytes(package))
    assert alone.trusted and alone.signer_subject
    author = Signer(pki.author.key, identity=pki.author)
    author.sign_detached(f"#{manifest.get('Id')}", parent=package)
    both = pipeline.open_package(serialize_bytes(package))
    assert both.trusted
    assert both.signer_subject == alone.signer_subject \
        != pki.author.certificate.subject
    rogue = Signer(pki.attacker.key, identity=pki.attacker)
    rogue.sign_detached(f"#{manifest.get('Id')}", parent=package)
    with pytest.raises(ApplicationRejectedError,
                       match="signature verification failed"):
        pipeline.open_package(serialize_bytes(package))


def test_manifest_planted_in_a_package_signature_never_runs(
        pki, trust_store, device_key):
    """A package signed whole, its manifest encrypted after signing,
    with an injected ``menu`` planted in a ds:Object of its
    signature: the player looks for no manifest inside the signature,
    and the package's coverage does not reach it."""
    authoring = AuthoringPipeline(
        pki.studio, recipient_key=device_key.public_key(),
        rng=DeterministicRandomSource(b"trust-package"))
    manifest = application("menu", "GOOD")
    package = parse_element(authoring.build_package(
        manifest, encrypt_ids=(manifest.manifest_id,)).data)
    plant_in(package.first_child("Signature", DSIG_NS))
    data = serialize_bytes(package)
    pipeline = PlaybackPipeline(trust_store=trust_store,
                                device_key=device_key)
    trust = pipeline.verify_root(parse_element(data))
    (signature,) = trust.signatures
    assert trust.authenticated
    assert not trust.covers(signature.find("manifest"))
    player = DiscPlayer(trust_store, device_key=device_key)
    run = player.run_application(pipeline.open_package(data))
    assert run.trusted and run.console == ["GOOD"]


# -- the disc reader ------------------------------------------------------


def master_encrypted_menu(pki, level: ProtectionLevel) -> DiscImage:
    """A disc signed at *level* whose menu manifest was encrypted
    under the ``disc-key`` slot before signing."""
    disc = DiscAuthor("Encrypted menu")
    clip = disc.add_clip(2.0, stream=generate_transport_stream(
        2, rng=DeterministicRandomSource(b"trust-clip")))
    disc.add_feature("feature", [clip])
    disc.add_application(application("menu", "GOOD"))
    disc.add_application(application("extras", "extras"))
    image = disc.master()
    cluster = image.cluster_element()
    menu = next(m for m in cluster.iter("manifest", NS)
                if m.get("name") == "menu")
    Encryptor(rng=DeterministicRandomSource(b"trust-enc")).encrypt_element(
        menu, DISC_KEY, key_name="disc-key")
    image.write(image.layout.cluster_path(), serialize_bytes(cluster))
    sign_disc_image(image, Signer(pki.studio.key, identity=pki.studio),
                    level=level)
    return image


@pytest.fixture(scope="module")
def encrypted_menu_disc(pki):
    return master_encrypted_menu(pki, ProtectionLevel.TRACK)


def sealed_injection(image, device_key):
    """The disc plus an unsigned first track holding ciphertext sealed
    to the player's public key: a ``track`` carrying the menu track's
    Id around an injected ``menu``."""
    cluster = image.cluster_element()
    tracks = list(cluster.iter("track", NS))
    menu_track = next(t for t in tracks if t.get("kind") == "application")
    decoy = element("track", NS, nsmap={None: NS},
                    attrs={"Id": menu_track.get("Id"),
                           "kind": "application"})
    decoy.append(application("menu", "EVIL").to_element())
    unsigned = element("track", NS,
                       attrs={"Id": "track-unsigned", "kind": "application"})
    unsigned.append(decoy)
    Encryptor(rng=DeterministicRandomSource(b"trust-seal")) \
        .session_encrypt_element(decoy, device_key.public_key())
    cluster.insert(cluster.index(tracks[0]), unsigned)
    attacked = DiscImage({p: image.read(p) for p in image.paths()},
                         layout=image.layout)
    attacked.write(attacked.layout.cluster_path(),
                   serialize_bytes(cluster))
    return attacked


def disc_player(trust_store, device_key) -> DiscPlayer:
    return DiscPlayer(trust_store, device_key=device_key,
                      key_slots={"disc-key": DISC_KEY})


def test_clean_encrypted_menu_launches_trusted(encrypted_menu_disc,
                                               trust_store, device_key):
    player = disc_player(trust_store, device_key)
    assert player.insert_disc(encrypted_menu_disc).authenticated
    run = player.launch_disc_application("menu")
    assert run.trusted and run.console == ["GOOD"]


def test_sealed_injection_never_runs_trusted(encrypted_menu_disc,
                                             trust_store, device_key):
    clean = disc_player(trust_store, device_key).insert_disc(
        encrypted_menu_disc)
    player = disc_player(trust_store, device_key)
    session = player.insert_disc(
        sealed_injection(encrypted_menu_disc, device_key))
    # The injection leaves every signature and the coverage map alone.
    assert session.authenticated
    tracks = [t.get("Id") for t in clean.cluster_element.iter("track", NS)]
    assert session.signed_ids == clean.signed_ids == set(tracks)
    assert {uri: report.valid
            for uri, report in session.signature_reports.items()} == \
        {uri: True for uri in clean.signature_reports}
    with pytest.raises(ApplicationRejectedError, match=WRAPPING):
        player.launch_disc_application("menu")
    assert player.launch_disc_application("extras").trusted



def test_manifest_planted_in_a_cluster_signature_never_runs(
        pki, trust_store, device_key):
    """A CLUSTER-signed disc with an encrypted menu and an injected
    ``menu`` planted in a ds:Object of its whole-cluster signature: the
    disc still authenticates, and the real menu runs."""
    image = master_encrypted_menu(pki, ProtectionLevel.CLUSTER)
    cluster = image.cluster_element()
    (whole,) = [signature for signature
                in cluster.iter("Signature", DSIG_NS)
                if signature.find("Reference", DSIG_NS).get("URI") == ""]
    plant_in(whole)
    image.write(image.layout.cluster_path(), serialize_bytes(cluster))
    player = disc_player(trust_store, device_key)
    session = player.insert_disc(image)
    assert session.authenticated and session.whole_document_signed
    planted = next(signature.find("manifest", NS) for signature
                   in session.cluster_element.iter("Signature", DSIG_NS)
                   if signature.find("manifest", NS) is not None)
    assert not session.covers(planted)
    run = player.launch_disc_application("menu")
    assert run.trusted and run.console == ["GOOD"]
