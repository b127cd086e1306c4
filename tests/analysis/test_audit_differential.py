"""The artifact auditor and the studio's level signing against pins.

The auditor's findings and coverage maps are pinned by SHA-256 on
three sets:

* the 27 discs of ``tests/player/test_coverage_differential.py``
  (every signing scheme, clean, with an injected application and with
  the menu's script replaced at rest);
* ``examples/artifacts``, audited as one tree;
* 20 perfbench-shaped releases: two to eight applications of two to
  six submarkups and a 20-120 line script, mastered and signed at
  TRACK level with the stream; one in four then gets a script
  injected into a signed track at rest, and one in four an unsigned
  application.

``sign_at_level``'s ``protected_bytes`` is pinned per level on the
FIG4 cluster (four A/V tracks and an application track) and the FIG5
manifest shapes.  All pins were recorded from the auditor that tested
every node against every signature and from the level signing that
canonicalized each target a second time to count its octets.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
import random

import pytest

from repro.analysis import ArtifactAuditor
from repro.core import ProtectionLevel, sign_at_level, sign_disc_image
from repro.disc import (
    ApplicationManifest, DiscAuthor, InteractiveCluster, Playlist,
    generate_transport_stream,
)
from repro.dsig import Signer
from repro.primitives.random import DeterministicRandomSource
from repro.threat import inject_script, inject_wrapped_manifest
from repro.xmlcore import parse_element

from tests.player import test_coverage_differential as coverage

ARTIFACTS = pathlib.Path(__file__).resolve().parents[2] / "examples" / \
    "artifacts"
NS = "urn:bda:bdmv:interactive-cluster"
RELEASE_SEED = 20261019
RELEASES = 20

#: SHA-256 of the audit transcripts of the coverage differential's discs.
COVERAGE_DISCS_SHA256 = (
    "fa7186c86c79193abf1e640a8f9b1c8229a4484072db4f20d6136ba34d6e51d6"
)
#: SHA-256 of the audit transcript of ``examples/artifacts``.
EXAMPLES_SHA256 = (
    "52e268d713df0679ce6e466346611a1c7eaa94798c5d2f261fb3e020211e5338"
)
#: SHA-256 of the audit transcripts of the perfbench-shaped releases.
RELEASES_SHA256 = (
    "11a9fab8a909972c1ad8b60b8844f35ea2e86aed257988d2a9c4dd614391b018"
)
#: ``(protected_bytes, signatures)`` per level.  The cluster level
#: counts the signed document, its enveloped signature included.
FIG4_PROTECTED = {"cluster": (6116, 1), "track": (3635, 5)}
FIG5_PROTECTED = {"manifest": (3469, 1), "markup": (617, 1),
                  "code": (2848, 1), "submarkup": (708, 4),
                  "script": (2904, 3)}


@pytest.fixture
def fresh_ids():
    """Disc, track and manifest Ids come from process-wide counters:
    restart them, so the pinned documents do not depend on which tests
    ran before."""
    from repro.disc import hierarchy, manifest
    from repro.dsig import manifest as dsig_manifest

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hierarchy, "_track_ids", itertools.count(1))
        patch.setattr(manifest, "_ids", itertools.count(1))
        patch.setattr(dsig_manifest, "_ids", itertools.count(1))
        yield


def transcript(result) -> list[str]:
    parts = [f"scanned {result.scanned}"]
    for finding in result.findings:
        parts.append(f"{finding.rule_id} {finding.severity.name} "
                     f"{finding.location} | {finding.message} | "
                     f"{finding.line} | {finding.detail}")
    parts += [json.dumps(entry, sort_keys=True) for entry in result.coverage]
    return parts


def digest(parts: list[str]) -> str:
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


def audited(image, name: str = "disc") -> list[str]:
    auditor = ArtifactAuditor()
    auditor.audit_disc_image(image, name)
    return transcript(auditor.finish())


# -- the three sets ------------------------------------------------------------


def coverage_disc_transcripts(pki) -> list[str]:
    parts = []
    for scheme in coverage.SCHEMES:
        image = coverage.master(scheme)
        coverage.sign(image, scheme,
                      Signer(pki.studio.key, identity=pki.studio))
        for kind in coverage.ATTACKS:
            parts += [f"{scheme}/{kind}",
                      *audited(coverage.attack(image, kind))]
    return parts


def examples_transcript() -> list[str]:
    auditor = ArtifactAuditor()
    auditor.audit_path(str(ARTIFACTS))
    return transcript(auditor.finish())


def release_application(rng: random.Random, name: str
                        ) -> ApplicationManifest:
    app = ApplicationManifest(name)
    app.add_submarkup("layout", parse_element(
        f'<layout xmlns="{NS}"><root-layout width="1920" height="1080"/>'
        '<region regionName="main" width="1920" height="880"/>'
        '<region regionName="menu" top="880" width="1920" height="200"/>'
        "</layout>"))
    app.add_submarkup("timing", parse_element(
        f'<seq xmlns="{NS}"><video src="bd://BDMV/STREAM/00001.m2ts" '
        'region="main"/><par><img src="bd://BDMV/AUXDATA/banner.png" '
        'region="menu" begin="1s" dur="4s"/></par></seq>'))
    for extra in range(rng.randint(0, 4)):
        items = "".join(f'<item v="{rng.randrange(10_000)}"/>'
                        for _ in range(rng.randint(1, 4)))
        app.add_submarkup(f"aux-{extra}", parse_element(
            f'<aux xmlns="{NS}" n="{extra}">{items}</aux>'))
    body = ["var acc = 17;",
            "function step(x, k) { return (x * 31 + k) % 1000003; }"]
    for _ in range(rng.randint(20, 120)):
        if rng.random() < 0.2:
            body.append(f"for (var i = 0; i < {rng.randint(2, 6)}; "
                        "i = i + 1) { acc = step(acc, i); }")
        else:
            body.append(f"acc = step(acc, {rng.randrange(1000)});")
    body.append(f'player.log("{name}:" + acc);')
    app.add_script("\n".join(body) + "\n")
    return app


def release_transcripts(pki) -> list[str]:
    signer = Signer(pki.studio.key, identity=pki.studio)
    parts = []
    for index in range(RELEASES):
        rng = random.Random(f"{RELEASE_SEED}:release:{index}")
        disc = DiscAuthor(f"Title {index}")
        clip = disc.add_clip(6.0, stream=generate_transport_stream(
            4, rng=DeterministicRandomSource(f"rel-clip:{index}".encode())))
        disc.add_feature("feature", [clip])
        for k in range(rng.randint(2, 8)):
            disc.add_application(release_application(
                rng, "menu" if k == 0 else f"app{k}"))
        image = disc.master()
        sign_disc_image(image, signer, level=ProtectionLevel.TRACK,
                        include_streams=True)
        if index % 4 == 2:
            path = image.layout.cluster_path()
            image.write(path, inject_script(image.read(path)))
        elif index % 4 == 3:
            image = inject_wrapped_manifest(
                image, "evil-app", payload='player.log("INJECTED");')
        parts += [f"release-{index}", *audited(image, f"release-{index}")]
    return parts


def test_coverage_discs_audit_as_pinned(pki, fresh_ids):
    parts = coverage_disc_transcripts(pki)
    assert sum(p.startswith("SEC02") for p in parts) > 10
    assert digest(parts) == COVERAGE_DISCS_SHA256


def test_example_artifacts_audit_as_pinned():
    assert digest(examples_transcript()) == EXAMPLES_SHA256


def test_perfbench_shaped_releases_audit_as_pinned(pki, fresh_ids):
    parts = release_transcripts(pki)
    assert any(p.startswith("SEC020") for p in parts)
    assert digest(parts) == RELEASES_SHA256


# -- protected bytes -----------------------------------------------------------


def fig_manifest(name: str, scripts: int, script_lines: int,
                 submarkups: int) -> ApplicationManifest:
    """The benchmarks' reference application (Fig 10 shape)."""
    manifest = ApplicationManifest(name)
    manifest.add_submarkup("layout", parse_element(
        f'<layout xmlns="{NS}"><root-layout width="1920" height="1080"/>'
        '<region regionName="main" width="1920" height="880"/></layout>'))
    if submarkups >= 2:
        manifest.add_submarkup("timing", parse_element(
            f'<seq xmlns="{NS}"><video src="bd://BDMV/STREAM/00001.m2ts" '
            'region="main" dur="90s"/></seq>'))
    for extra in range(max(0, submarkups - 2)):
        manifest.add_submarkup(f"aux-{extra}", parse_element(
            f'<aux xmlns="{NS}" n="{extra}"><item v="1"/>'
            '<item v="2"/></aux>'))
    body = ("var state = 0;\n" + "state = state + 1; // tick\n" * script_lines
            + "function onKey(k) { state += k; return state; }\n")
    for _ in range(scripts):
        manifest.add_script(body)
    return manifest


def fig4_root():
    cluster = InteractiveCluster("Fig4 Disc")
    for index in range(4):
        playlist = Playlist(f"title-{index}", playlist_id=f"pl-{index}")
        playlist.add_item(f"{index + 1:05d}", 0.0, 60.0)
        cluster.add_av_track(playlist)
    cluster.add_application_track(fig_manifest("fig4-app", 2, 40, 2))
    return cluster.to_element()


def fig5_root():
    cluster = InteractiveCluster("Fig5 Disc")
    cluster.add_application_track(fig_manifest("fig5-app", 3, 30, 4))
    return cluster.to_element()


def protected(pki, build, levels) -> dict[str, tuple[int, int]]:
    signer = Signer(pki.studio.key, identity=pki.studio)
    sizes = {}
    for level in levels:
        result = sign_at_level(build(), level, signer)
        sizes[level.value] = (result.protected_bytes,
                              len(result.signatures))
    return sizes


def test_fig4_protected_bytes_as_pinned(pki, fresh_ids):
    assert protected(pki, fig4_root, (
        ProtectionLevel.CLUSTER, ProtectionLevel.TRACK,
    )) == FIG4_PROTECTED


def test_fig5_protected_bytes_as_pinned(pki, fresh_ids):
    assert protected(pki, fig5_root, (
        ProtectionLevel.MANIFEST, ProtectionLevel.MARKUP,
        ProtectionLevel.CODE, ProtectionLevel.SUBMARKUP,
        ProtectionLevel.SCRIPT,
    )) == FIG5_PROTECTED
