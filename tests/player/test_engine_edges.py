"""Engine/host-API edge cases."""

import pytest

from repro.core import AuthoringPipeline, PlaybackPipeline
from repro.disc import ApplicationManifest
from repro.errors import ApplicationRejectedError, PermissionDeniedError
from repro.permissions import PERM_LOCAL_STORAGE, PermissionRequestFile
from repro.player import InteractiveApplicationEngine, LocalStorage
from repro.primitives.keys import SymmetricKey
from repro.primitives.random import DeterministicRandomSource
from repro.primitives.rsa import generate_keypair
from repro.xmlcore import parse_element

LAYOUT = (
    '<layout xmlns="urn:bda:bdmv:interactive-cluster">'
    '<region regionName="main" width="10" height="10"/></layout>'
)


@pytest.fixture(scope="module")
def device_key():
    return generate_keypair(
        1024, DeterministicRandomSource(b"engine-edges")
    )


def build(pki, device_key, rng, script, *, language="ecmascript",
          storage_quota=0):
    manifest = ApplicationManifest("edge-app")
    manifest.add_submarkup("layout", parse_element(LAYOUT))
    manifest.scripts.append(
        __import__("repro.disc.manifest",
                   fromlist=["Script"]).Script(script, language)
    )
    prf = PermissionRequestFile("edge-app", "org.test")
    if storage_quota:
        prf.request(PERM_LOCAL_STORAGE, quota_bytes=storage_quota)
    pipeline = AuthoringPipeline(
        pki.studio, recipient_key=device_key.public_key(), rng=rng,
    )
    return pipeline.build_package(manifest, permission_file=prf)


def make_engine(pki, trust_store, device_key, **kwargs):
    return InteractiveApplicationEngine(PlaybackPipeline(
        trust_store=trust_store, device_key=device_key,
    ), **kwargs)


def test_unknown_script_language_rejected(pki, trust_store, device_key,
                                          rng):
    package = build(pki, device_key, rng, "10 PRINT 'HI'",
                    language="basic")
    engine = make_engine(pki, trust_store, device_key)
    with pytest.raises(ApplicationRejectedError, match="language"):
        engine.execute(engine.load_package(package.data))


def test_storage_read_missing_returns_null(pki, trust_store, device_key,
                                           rng):
    package = build(
        pki, device_key, rng,
        'var v = storage.read("never-written");'
        'player.log(v == null ? "empty" : "found");',
        storage_quota=1024,
    )
    engine = make_engine(pki, trust_store, device_key)
    session = engine.execute(engine.load_package(package.data))
    assert session.console == ["empty"]


def test_storage_remove(pki, trust_store, device_key, rng):
    package = build(
        pki, device_key, rng,
        'storage.write("k", 1); storage.remove("k");'
        'player.log(storage.read("k") == null ? "gone" : "still");',
        storage_quota=1024,
    )
    engine = make_engine(pki, trust_store, device_key)
    session = engine.execute(engine.load_package(package.data))
    assert session.console == ["gone"]



def test_storage_remove_needs_the_local_storage_grant(pki, trust_store,
                                                     device_key, rng):
    """An untrusted application holds no local-storage grant; its
    permission file claims another application's id, yet neither its
    write nor its remove reaches that application's stored value."""
    storage = LocalStorage()
    storage.write("game", "score", b"120")
    manifest = ApplicationManifest("intruder")
    manifest.add_submarkup("layout", parse_element(LAYOUT))
    manifest.add_script('function write() { storage.write("score", 0); }'
                        'function wipe() { storage.remove("score"); }')
    package = AuthoringPipeline(
        pki.studio, recipient_key=device_key.public_key(), rng=rng,
    ).build_package(manifest, sign=False,
                    permission_file=PermissionRequestFile("game", "org.x"))
    engine = InteractiveApplicationEngine(PlaybackPipeline(
        trust_store=trust_store, device_key=device_key,
        require_signature=False,
    ), storage=storage)
    session = engine.execute(engine.load_package(package.data))
    assert not session.trusted
    for handler in ("write", "wipe"):
        with pytest.raises(PermissionDeniedError):
            session.dispatch(handler)
    assert session.denied_ops == ["storage.write(score)",
                                  "storage.remove(score)"]
    assert storage.read("game", "score") == b"120"

def test_write_secure_without_player_key(pki, trust_store, device_key,
                                         rng):
    package = build(pki, device_key, rng,
                    'storage.writeSecure("k", 1);', storage_quota=1024)
    engine = make_engine(pki, trust_store, device_key)  # no storage_key
    with pytest.raises(PermissionDeniedError, match="storage encryption"):
        engine.execute(engine.load_package(package.data))


def test_secure_storage_roundtrip_through_scripts(pki, trust_store,
                                                  device_key, rng):
    storage = LocalStorage()
    storage_key = SymmetricKey(rng.read(16))
    engine = InteractiveApplicationEngine(PlaybackPipeline(
        trust_store=trust_store, device_key=device_key,
    ), storage=storage, storage_key=storage_key)
    writer = build(pki, device_key, rng,
                   'storage.writeSecure("hs", 777);',
                   storage_quota=1024)
    engine.execute(engine.load_package(writer.data))
    # The raw slot is ciphertext...
    assert b"777" not in storage.read("edge-app", "hs")
    # ...but a later script reads it back transparently.
    reader = build(pki, device_key, rng,
                   'player.log("hs=" + storage.read("hs"));',
                   storage_quota=1024)
    session = engine.execute(engine.load_package(reader.data))
    assert session.console == ["hs=777"]


def test_network_offline(pki, trust_store, device_key, rng):
    manifest = ApplicationManifest("edge-app")
    manifest.add_submarkup("layout", parse_element(LAYOUT))
    manifest.add_script('network.get("host", "/p");')
    prf = PermissionRequestFile("edge-app", "org.test")
    from repro.permissions import PERM_RETURN_CHANNEL
    prf.request(PERM_RETURN_CHANNEL)
    package = AuthoringPipeline(
        pki.studio, recipient_key=device_key.public_key(), rng=rng,
    ).build_package(manifest, permission_file=prf)
    engine = make_engine(pki, trust_store, device_key)  # no network_fetch
    with pytest.raises(PermissionDeniedError, match="offline"):
        engine.execute(engine.load_package(package.data))


def test_presentation_host_object(pki, trust_store, device_key, rng):
    package = build(
        pki, device_key, rng,
        'player.log("regions=" + presentation.regionCount());'
        'player.log("w=" + presentation.width);',
    )
    engine = make_engine(pki, trust_store, device_key)
    session = engine.execute(engine.load_package(package.data))
    assert session.console == ["regions=1", "w=1920"]


def test_denied_ops_are_recorded(pki, trust_store, device_key, rng):
    package = build(pki, device_key, rng, 'storage.write("x", 1);')
    engine = make_engine(pki, trust_store, device_key)
    application = engine.load_package(package.data)
    session_err = None
    try:
        engine.execute(application)
    except PermissionDeniedError as exc:
        session_err = exc
    assert session_err is not None
