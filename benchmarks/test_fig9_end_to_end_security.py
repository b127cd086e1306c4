"""FIG9 — The end-to-end encryption/signing order with the Decryption
Transform.

Fig 9's pipeline: create → sign (with the W3C Decryption Transform
naming what to decrypt before digesting) → encrypt → transmit →
decrypt/verify → execute.  "The resulting application contains
sufficient information in the form of additional markup that enables
the player to identify how the application needs to be decrypted and
verified."

Regenerated rows: pipeline timing for both orders (sign-then-encrypt,
encrypt-then-sign/Except) and the ordering-information check: without
the transform's bookkeeping, verification of an encrypted package is
impossible.
"""

import pytest

from _workloads import build_manifest, report
from repro.core import AuthoringPipeline, PlaybackPipeline, parse_package
from repro.errors import ApplicationRejectedError
from repro.permissions import PERM_LOCAL_STORAGE, PermissionRequestFile
from repro.xmlcore import DSIG_NS


@pytest.fixture(scope="module")
def authoring(world):
    return AuthoringPipeline(
        world.studio, recipient_key=world.device_key.public_key(),
        rng=world.fresh_rng(b"fig9"),
    )


@pytest.fixture(scope="module")
def playback(world):
    return PlaybackPipeline(trust_store=world.trust_store,
                            device_key=world.device_key)


def _prf():
    prf = PermissionRequestFile("fig9-app", "org.contoso")
    prf.request(PERM_LOCAL_STORAGE, quota_bytes=4096)
    return prf


def test_fig9_sign_then_encrypt_pipeline(authoring, playback, benchmark):
    def run():
        manifest = build_manifest("fig9-app")
        package = authoring.build_package(
            manifest, permission_file=_prf(),
            encrypt_ids=(manifest.code_id,),
        )
        return playback.open_package(package.data)

    application = benchmark(run)
    assert application.trusted
    assert application.grants.has(PERM_LOCAL_STORAGE)


def test_fig9_encrypt_then_sign_pipeline(authoring, playback, benchmark):
    def run():
        manifest = build_manifest("fig9-app")
        package = authoring.build_package(
            manifest, permission_file=_prf(),
            pre_encrypt_ids=(manifest.code_id,),
        )
        return playback.open_package(package.data)

    application = benchmark(run)
    assert application.trusted


def test_fig9_ordering_information_is_essential(authoring, playback,
                                                benchmark):
    """Strip the decryption-transform markup → the player can no longer
    reconcile the signature with the encrypted content."""

    def run():
        manifest = build_manifest("fig9-app")
        package = authoring.build_package(
            manifest, encrypt_ids=(manifest.code_id,),
        )
        view = parse_package(package.data)
        signature = view.root.first_child("Signature", DSIG_NS)
        transforms = signature.find("Transforms", DSIG_NS)
        decrypt_transform = transforms.child_elements()[0]
        assert "decrypt" in (decrypt_transform.get("Algorithm") or "")
        transforms.remove(decrypt_transform)
        try:
            playback.open_package(view.to_bytes())
            return "EXECUTED"
        except ApplicationRejectedError:
            return "BARRED"

    outcome = benchmark.pedantic(run, rounds=3, iterations=1)
    report("FIG9 end-to-end ordering", [
        "package without Decryption Transform markup -> " + outcome,
        "(the transform is the 'additional markup' that tells the "
        "player how to decrypt-then-verify)",
    ])
    assert outcome == "BARRED"


def test_fig9_full_network_roundtrip(world, authoring, benchmark):
    """The complete Fig 9 path including the TLS-like transport."""
    from repro.network import Channel, ContentServer, DownloadClient
    from repro.player import DiscPlayer

    manifest = build_manifest("fig9-app")
    package = authoring.build_package(
        manifest, permission_file=_prf(),
        encrypt_ids=(manifest.code_id,),
    )
    server = ContentServer(identity=world.server_identity)
    server.publish("/apps/fig9.pkg", package.data)
    player = DiscPlayer(world.trust_store,
                        device_key=world.device_key)

    def run():
        client = DownloadClient(server, Channel(),
                                trust_store=world.trust_store)
        application = player.download_application(
            client, "/apps/fig9.pkg", secure=True,
        )
        return player.run_application(application)

    session = benchmark(run)
    assert session.trusted
