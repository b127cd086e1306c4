"""Resource-attack corpus: DoS payloads against every entry point.

The paper's STRIDE row for Denial of Service, made executable: each
test crafts one attack artifact (attribute flood, giant text,
reference bomb, decrypt bomb, hostile package) and asserts the stack
contains it — a typed error, an invalid verification report or a
recorded degradation, never a crash and never ``trusted=True``.
"""

import pytest

from repro.core import AuthoringPipeline, PlaybackPipeline
from repro.disc import ApplicationManifest
from repro.errors import (
    ApplicationRejectedError, ReproError, ResourceLimitExceeded,
    ScriptRuntimeError, ScriptSyntaxError,
)
from repro.network import Channel, ContentServer, DownloadClient
from repro.permissions import PermissionRequestFile
from repro.player import DiscPlayer
from repro.primitives.keys import SymmetricKey
from repro.resilience import (
    REASON_RESOURCE, ResourceGuard, ResourceLimits,
)
from repro.xmlcore import DSIG_NS, element, parse_element
from repro.xmlenc import Decryptor, Encryptor

LAYOUT = (
    '<layout xmlns="urn:bda:bdmv:interactive-cluster">'
    '<region regionName="main" width="1920" height="1080"/></layout>'
)


def signed_package(pki, device_key, rng,
                   script: str = 'player.log("running");') -> bytes:
    manifest = ApplicationManifest("corpus-app")
    manifest.add_submarkup("layout", parse_element(LAYOUT))
    manifest.add_script(script)
    prf = PermissionRequestFile("corpus-app", "org.studio")
    pipeline = AuthoringPipeline(
        pki.studio, recipient_key=device_key.public_key(), rng=rng,
    )
    return pipeline.build_package(manifest, permission_file=prf).data


@pytest.fixture()
def device_key(pki, rng):
    from repro.certs import SigningIdentity
    return SigningIdentity.create("CN=Corpus Player", pki.root,
                                  rng=rng).key


# -- parser-level attack artifacts -------------------------------------------


def test_attribute_flood_artifact_refused():
    attrs = " ".join(f'a{i}="v{i}"' for i in range(1000))
    with pytest.raises(ResourceLimitExceeded) as excinfo:
        parse_element(f'<cluster {attrs}/>')
    assert excinfo.value.limit_name == "max_attributes_per_element"


def test_giant_text_artifact_refused():
    limits = ResourceLimits.default().replace(max_text_bytes=10_000)
    with pytest.raises(ResourceLimitExceeded):
        parse_element(f"<script>{'A' * 50_000}</script>",
                      guard=ResourceGuard(limits))


# -- many-Reference signatures -----------------------------------------------


def test_reference_bomb_yields_invalid_report_not_crash(pki, trust_store,
                                                        device_key, rng):
    """A signature naming a flood of references must be refused before
    the verifier dereferences and digests each one."""
    from repro.dsig import Verifier

    root = parse_element(signed_package(pki, device_key, rng),
                         guard=ResourceGuard.unlimited())
    signature = next(root.iter("Signature", DSIG_NS))
    signed_info = signature.first_child("SignedInfo", DSIG_NS)
    reference = signed_info.first_child("Reference", DSIG_NS)
    for _ in range(100):
        signed_info.append(reference.copy())

    guard = ResourceGuard()   # default: 64 references max
    verifier = Verifier(trust_store=trust_store,
                        require_trusted_key=True, guard=guard)
    report = verifier.verify(signature)
    assert not report.valid
    assert "refusing signature" in (report.error or "")
    assert guard.trips[0].limit_name == "max_references_per_signature"


# -- decrypt expansion bombs -------------------------------------------------


def test_decrypt_bomb_trips_plaintext_quota(rng):
    doc = element("package", None)
    blob = element("blob", None)
    blob.append_text("A" * 30_000)
    doc.append(blob)
    key = SymmetricKey(b"corpus-aes-key!!")
    Encryptor(rng=rng).encrypt_element(blob, key, key_name="k")

    limits = ResourceLimits.default().replace(
        max_decrypt_output_bytes=10_000,
    )
    guard = ResourceGuard(limits)
    decryptor = Decryptor(keys={"k": key}, guard=guard)
    with pytest.raises(ResourceLimitExceeded) as excinfo:
        decryptor.decrypt_in_place(doc)
    assert excinfo.value.limit_name == "max_decrypt_output_bytes"
    assert guard.within_limits()


def test_decrypt_bomb_barred_by_pipeline_with_degradation(
        pki, trust_store, device_key, rng):
    """Through the full pipeline: an encrypted package whose plaintext
    busts the quota is barred and the decision is on the log."""
    manifest = ApplicationManifest("bomb-app")
    manifest.add_submarkup("layout", parse_element(LAYOUT))
    manifest.add_script('player.log("' + "A" * 20_000 + '");')
    pipeline = AuthoringPipeline(
        pki.studio, recipient_key=device_key.public_key(), rng=rng,
    )
    package = pipeline.build_package(
        manifest,
        permission_file=PermissionRequestFile("bomb-app", "org.studio"),
        encrypt_ids=(manifest.code_id,),
    ).data

    player_pipeline = PlaybackPipeline(
        trust_store=trust_store, device_key=device_key,
        limits=ResourceLimits.default().replace(
            max_decrypt_output_bytes=5_000,
        ),
    )
    with pytest.raises(ApplicationRejectedError, match="decrypt"):
        player_pipeline.open_package(package)
    events = player_pipeline.degradation.for_component("package")
    assert events and events[-1].reason == REASON_RESOURCE


# -- hostile packages at the pipeline ----------------------------------------


@pytest.mark.parametrize("bomb,kind", [
    ((("<package>" + "<a>" * 500) + ("</a>" * 500 + "</package>")
      ).encode(), "depth"),
    (("<package>" + "<i/>" * 3000 + "</package>").encode(), "nodes"),
])
def test_package_bomb_barred_with_resource_reason(trust_store, device_key,
                                                  bomb, kind):
    pipeline = PlaybackPipeline(
        trust_store=trust_store, device_key=device_key,
        limits=ResourceLimits.default().replace(max_node_count=2000),
    )
    with pytest.raises(ApplicationRejectedError, match="resource"):
        pipeline.open_package(bomb)
    events = pipeline.degradation.for_component("package")
    assert events and events[-1].reason == REASON_RESOURCE


# -- player-level graceful degradation ---------------------------------------


def test_optional_bomb_download_degrades_playback_continues(
        pki, trust_store, device_key, rng):
    """The whole story: a hostile server feeds a resource bomb; the
    optional download is barred (None, logged), playback continues,
    and the legitimate application still runs trusted."""
    server = ContentServer()
    depth_bomb = (("<package>" + "<a>" * 500)
                  + ("</a>" * 500 + "</package>")).encode()
    server.publish("/apps/bomb.pkg", depth_bomb)
    server.publish("/apps/good.pkg", signed_package(pki, device_key, rng))
    client = DownloadClient(server, Channel())
    player = DiscPlayer(trust_store, device_key=device_key)

    barred = player.download_application(client, "/apps/bomb.pkg",
                                         secure=False, optional=True)
    assert barred is None
    events = player.degradation.for_component("download")
    assert events and events[-1].resource == "/apps/bomb.pkg"

    good = player.download_application(client, "/apps/good.pkg",
                                       secure=False)
    assert good is not None and good.trusted
    session = player.run_application(good)
    assert session.console == ["running"]


def test_mandatory_bomb_download_raises_typed_error(trust_store,
                                                    device_key):
    server = ContentServer()
    server.publish("/apps/bomb.pkg",
                   ("<p>" + "<a>" * 500 + "</a>" * 500 + "</p>").encode())
    client = DownloadClient(server, Channel())
    player = DiscPlayer(trust_store, device_key=device_key)
    with pytest.raises(ReproError):
        player.download_application(client, "/apps/bomb.pkg",
                                    secure=False)


def test_bomb_never_executes_with_trust(trust_store, device_key):
    """Even when quotas are raised enough to parse it, an unsigned
    bomb package stays untrusted/barred — resource limits never
    substitute for signature policy."""
    pipeline = PlaybackPipeline(
        trust_store=trust_store, device_key=device_key,
        limits=ResourceLimits.unlimited(),
    )
    bomb = ("<applicationPackage>" + "<a>" * 500 + "</a>" * 500
            + "</applicationPackage>").encode()
    with pytest.raises(ApplicationRejectedError, match="unsigned"):
        pipeline.open_package(bomb)


# -- hostile scripts in a signed package -------------------------------------


@pytest.mark.parametrize("script,error", [
    ("var x = \u00b2;", ScriptSyntaxError),
    ("var x = " + "(" * 3000 + "1" + ")" * 3000 + ";", ScriptSyntaxError),
    ("{" * 3000 + "}" * 3000, ScriptSyntaxError),
    ("var x = " + " + ".join(["1"] * 5000) + ";", ScriptSyntaxError),
    ("function f(n) { return f(n + 1); } f(0);", ScriptRuntimeError),
], ids=["non-decimal-digit", "nested-parens", "nested-blocks",
        "long-chain", "runaway-recursion"])
def test_hostile_script_in_signed_download_fails_typed(
        pki, trust_store, device_key, rng, script, error):
    """A signature vouches for who wrote a script, not for what it
    does: a trusted package whose script would exhaust the player's
    stack or feed the number parser a non-decimal digit fails with a
    typed script error that chains no Python traceback."""
    server = ContentServer()
    server.publish("/apps/hostile.pkg",
                   signed_package(pki, device_key, rng, script))
    player = DiscPlayer(trust_store, device_key=device_key)
    application = player.download_application(
        DownloadClient(server, Channel()), "/apps/hostile.pkg",
        secure=False)
    assert application.trusted
    with pytest.raises(error) as excinfo:
        player.run_application(application)
    assert excinfo.value.__cause__ is None
    assert excinfo.value.__context__ is None \
        or excinfo.value.__suppress_context__
