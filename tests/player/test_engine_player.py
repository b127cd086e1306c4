"""The Interactive Application Engine and the full player (Figs 3, 11)."""

import pytest

from repro.core import (
    AuthoringPipeline, PlaybackPipeline, ProtectionLevel, sign_disc_image,
)
from repro.disc import ApplicationManifest, DiscAuthor
from repro.dsig import Signer
from repro.errors import (
    ApplicationRejectedError, DiscError, PermissionDeniedError,
    PlayerError, ScriptRuntimeError,
)
from repro.network import Channel, ContentServer, DownloadClient
from repro.permissions import (
    PERM_LOCAL_STORAGE, PERM_RETURN_CHANNEL, PermissionRequestFile,
)
from repro.player import DiscPlayer, InteractiveApplicationEngine
from repro.primitives.random import DeterministicRandomSource
from repro.primitives.rsa import generate_keypair
from repro.threat import RUNAWAY_SCRIPT, corrupt_stream
from repro.xmlcore import parse_element

LAYOUT = (
    '<layout xmlns="urn:bda:bdmv:interactive-cluster">'
    '<root-layout width="1920" height="1080"/>'
    '<region regionName="main" width="1920" height="1080"/></layout>'
)


@pytest.fixture(scope="module")
def device_key():
    return generate_keypair(
        1024, DeterministicRandomSource(b"engine-device")
    )


def make_manifest(script: str, name: str = "app") -> ApplicationManifest:
    manifest = ApplicationManifest(name)
    manifest.add_submarkup("layout", parse_element(LAYOUT))
    manifest.add_script(script)
    return manifest


def make_package(pki, device_key, rng, script: str,
                 permissions=(), name: str = "app"):
    manifest = make_manifest(script, name)
    prf = PermissionRequestFile(name, "org.test")
    for permission, kwargs in permissions:
        prf.request(permission, **kwargs)
    pipeline = AuthoringPipeline(
        pki.studio, recipient_key=device_key.public_key(), rng=rng,
    )
    return pipeline.build_package(manifest, permission_file=prf)


def make_engine(pki, trust_store, device_key, **kwargs):
    pipeline = PlaybackPipeline(trust_store=trust_store,
                                device_key=device_key)
    return InteractiveApplicationEngine(pipeline, **kwargs)


# -- engine ----------------------------------------------------------------------


def test_execute_trusted_app_with_storage(pki, trust_store, device_key,
                                          rng):
    package = make_package(
        pki, device_key, rng,
        """
        storage.write("level", 3);
        var level = storage.read("level");
        player.log("resumed at level " + level);
        """,
        permissions=[(PERM_LOCAL_STORAGE, {"quota_bytes": 1024})],
    )
    engine = make_engine(pki, trust_store, device_key)
    application = engine.load_package(package.data)
    session = engine.execute(application)
    assert session.trusted
    assert session.console == ["resumed at level 3"]
    assert "write:level" in session.storage_ops


def test_untrusted_app_denied_storage(pki, trust_store, device_key, rng):
    package = make_package(
        pki, device_key, rng,
        'storage.write("x", 1);',
        permissions=[(PERM_LOCAL_STORAGE, {})],
    )
    pipeline = PlaybackPipeline(trust_store=pki.trust_store(),
                                device_key=device_key,
                                require_signature=False)
    engine = InteractiveApplicationEngine(pipeline)
    # Strip the signature → app loads as untrusted under lenient policy.
    from repro.threat import strip_signature
    application = engine.load_package(strip_signature(package.data))
    assert not application.trusted
    with pytest.raises(PermissionDeniedError):
        engine.execute(application)


def test_app_quota_enforced(pki, trust_store, device_key, rng):
    package = make_package(
        pki, device_key, rng,
        'storage.write("big", "' + "x" * 64 + '");',
        permissions=[(PERM_LOCAL_STORAGE, {"quota_bytes": 32})],
    )
    engine = make_engine(pki, trust_store, device_key)
    application = engine.load_package(package.data)
    with pytest.raises(PermissionDeniedError, match="quota"):
        engine.execute(application)


def test_network_access_gated_by_grant(pki, trust_store, device_key, rng):
    fetched = []

    def fetch(host, path):
        fetched.append((host, path))
        return b"bonus-data"

    script = 'var d = network.get("cdn.studio.example", "/extra");' \
             'player.log(d);'
    allowed = make_package(
        pki, device_key, rng, script,
        permissions=[(PERM_RETURN_CHANNEL,
                      {"hosts": ("cdn.studio.example",)})],
    )
    engine = make_engine(pki, trust_store, device_key,
                         network_fetch=fetch)
    session = engine.execute(engine.load_package(allowed.data))
    assert session.console == ["bonus-data"]
    assert fetched == [("cdn.studio.example", "/extra")]

    denied = make_package(pki, device_key, rng, script)  # no permission
    with pytest.raises(PermissionDeniedError):
        engine.execute(engine.load_package(denied.data))
    assert len(fetched) == 1  # the denied call never reached the network


def test_runaway_script_aborted(pki, trust_store, device_key, rng):
    package = make_package(pki, device_key, rng, RUNAWAY_SCRIPT)
    engine = make_engine(pki, trust_store, device_key)
    engine.max_instructions = 20_000
    application = engine.load_package(package.data)
    with pytest.raises(ScriptRuntimeError, match="budget"):
        engine.execute(application)


def test_undefined_region_rejected(pki, trust_store, device_key, rng):
    manifest = ApplicationManifest("bad-regions")
    manifest.add_submarkup("layout", parse_element(LAYOUT))
    manifest.add_submarkup("timing", parse_element(
        '<seq xmlns="urn:bda:bdmv:interactive-cluster">'
        '<video src="x" region="ghost" dur="1s"/></seq>'
    ))
    manifest.add_script("var x = 1;")
    pipeline = AuthoringPipeline(
        pki.studio, recipient_key=device_key.public_key(), rng=rng,
    )
    package = pipeline.build_package(manifest)
    engine = make_engine(pki, trust_store, device_key)
    with pytest.raises(ApplicationRejectedError, match="regions"):
        engine.execute(engine.load_package(package.data))


def test_event_dispatch(pki, trust_store, device_key, rng):
    package = make_package(
        pki, device_key, rng,
        """
        var presses = 0;
        function onKey(code) { presses++; return presses; }
        """,
    )
    engine = make_engine(pki, trust_store, device_key)
    session = engine.execute(
        engine.load_package(package.data),
        events=[("onKey", 38.0), ("onKey", 40.0)],
    )
    assert session.script_globals["presses"] == 2.0
    assert session.dispatch("onKey", 13.0) == 3.0


# -- player -------------------------------------------------------------------------


def build_disc(pki, rng, *, sign=True, script='player.log("menu");'):
    author = DiscAuthor("Player Test Disc", rng=rng)
    clip = author.add_clip(8.0, packets_per_second=25)
    author.add_feature("main", [clip])
    author.add_application(make_manifest(script, name="menu"))
    image = author.master()
    if sign:
        signer = Signer(pki.studio.key, identity=pki.studio)
        sign_disc_image(image, signer, level=ProtectionLevel.TRACK)
    return image


def test_disc_insertion_and_playback(pki, trust_store, rng):
    player = DiscPlayer(trust_store)
    session = player.insert_disc(build_disc(pki, rng))
    assert session.authenticated
    report = player.play_title("main")
    assert report.duration_s == 8.0
    assert report.total_packets == 200
    with pytest.raises(PlayerError):
        player.play_title("no-such-title")


def test_disc_application_trusted_on_authenticated_disc(pki, trust_store,
                                                        rng):
    player = DiscPlayer(trust_store)
    player.insert_disc(build_disc(pki, rng))
    session = player.launch_disc_application("menu")
    assert session.trusted
    assert session.console == ["menu"]
    with pytest.raises(PlayerError):
        player.launch_disc_application("ghost-app")


def test_unsigned_disc_apps_run_untrusted(pki, trust_store, rng):
    player = DiscPlayer(trust_store)
    session = player.insert_disc(build_disc(pki, rng, sign=False))
    assert not session.authenticated
    app_session = player.launch_disc_application("menu")
    assert not app_session.trusted


def test_strict_player_bars_unauthenticated_disc_apps(pki, trust_store,
                                                      rng):
    player = DiscPlayer(trust_store,
                        allow_unauthenticated_disc_apps=False)
    player.insert_disc(build_disc(pki, rng, sign=False))
    with pytest.raises(ApplicationRejectedError):
        player.launch_disc_application("menu")


def test_stream_tampering_breaks_disc_authentication(pki, trust_store,
                                                     rng):
    image = build_disc(pki, rng)
    tampered = corrupt_stream(image, "00001")
    player = DiscPlayer(trust_store)
    assert not player.insert_disc(tampered).authenticated


@pytest.mark.parametrize("order", ["rogue-first", "rogue-last"])
def test_rogue_signature_over_a_signed_track_bars_authentication(
        pki, trust_store, rng, order):
    """An untrusted signer's signature over a track the studio also
    signed leaves the disc unauthenticated, wherever it sits."""
    from repro.xmlcore import parse_element, serialize_bytes

    image = build_disc(pki, rng, sign=False)
    rogue = Signer(pki.attacker.key, identity=pki.attacker)
    studio = Signer(pki.studio.key, identity=pki.studio)
    path = image.cluster_path()

    def add_rogue_signature():
        cluster = parse_element(image.read(path))
        track = next(cluster.iter("track"))
        rogue.sign_detached(f"#{track.get('Id')}", parent=cluster)
        image.write(path, serialize_bytes(cluster))

    if order == "rogue-first":
        add_rogue_signature()
        sign_disc_image(image, studio, level=ProtectionLevel.TRACK)
    else:
        sign_disc_image(image, studio, level=ProtectionLevel.TRACK)
        add_rogue_signature()
    session = DiscPlayer(trust_store).insert_disc(image)
    assert not session.authenticated


def test_structurally_broken_disc_rejected(pki, trust_store, rng):
    from repro.disc import DiscImage
    image = build_disc(pki, rng)
    broken = DiscImage({
        p: image.read(p) for p in image.paths()
        if not p.endswith(".m2ts")
    })
    with pytest.raises(DiscError, match="rejected"):
        DiscPlayer(trust_store).insert_disc(broken)


def test_no_disc_inserted(trust_store):
    player = DiscPlayer(trust_store)
    with pytest.raises(PlayerError, match="no disc"):
        player.play_title("main")


def test_download_and_run(pki, trust_store, device_key, rng):
    package = make_package(
        pki, device_key, rng, 'player.log("downloaded ok");',
        name="bonus",
    )
    from repro.certs import SigningIdentity
    identity = SigningIdentity.create(
        "CN=content.example", pki.root,
        rng=DeterministicRandomSource(b"dl-server"),
    )
    server = ContentServer(identity=identity)
    server.publish("/apps/bonus.pkg", package.data)
    client = DownloadClient(server, Channel(), trust_store=trust_store)
    player = DiscPlayer(trust_store, device_key=device_key)
    application = player.download_application(client, "/apps/bonus.pkg")
    assert application.trusted
    session = player.run_application(application)
    assert session.console == ["downloaded ok"]


def test_downloaded_tampered_package_barred(pki, trust_store, device_key,
                                            rng):
    from repro.threat import tamper_package_bytes
    package = make_package(pki, device_key, rng, "var x=1;",
                           name="bonus")
    from repro.certs import SigningIdentity
    identity = SigningIdentity.create(
        "CN=content.example", pki.root,
        rng=DeterministicRandomSource(b"dl-server-2"),
    )
    server = ContentServer(identity=identity)
    server.publish("/apps/bonus.pkg",
                   tamper_package_bytes(package.data))
    client = DownloadClient(server, Channel(), trust_store=trust_store)
    player = DiscPlayer(trust_store, device_key=device_key)
    with pytest.raises(ApplicationRejectedError):
        player.download_application(client, "/apps/bonus.pkg")


def test_manifest_signed_disc(pki, trust_store, rng):
    """ds:Manifest disc signing: one signature, per-entry checking."""
    image = build_disc(pki, rng, sign=False)
    signer = Signer(pki.studio.key, identity=pki.studio)
    result = sign_disc_image(image, signer, use_manifest=True)
    assert result.stream_uris == ["bd://BDMV/STREAM/00001.m2ts"]

    player = DiscPlayer(trust_store)
    session = player.insert_disc(image)
    assert session.authenticated
    assert session.manifest_validations
    validation = next(iter(session.manifest_validations.values()))
    assert validation.all_valid

    # Tampering a stream: core signature still verifies, but the disc
    # is no longer authenticated because the manifest entry fails.
    tampered = corrupt_stream(image, "00001")
    session2 = DiscPlayer(trust_store).insert_disc(tampered)
    assert not session2.authenticated
    assert all(r.valid for r in session2.signature_reports.values())
