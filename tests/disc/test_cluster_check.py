"""One cluster parse per disc: the player and the auditor check a
disc's structure on the cluster element they verify or audit.

The expected ``DiscError`` texts and SEC041 findings below were
recorded from the player and auditor that parsed the cluster a second
time through :meth:`DiscImage.validate_structure`."""

import functools
import os

import pytest

from repro.analysis import ArtifactAuditor, audit_paths
from repro.disc import (
    BD_ROM, ApplicationManifest, DiscAuthor, DiscImage, InteractiveCluster,
)
from repro.errors import DiscError
from repro.player import DiscPlayer
from repro.primitives.random import DeterministicRandomSource
from repro.xmlcore import parse_element

CLUSTER = BD_ROM.cluster_path()

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class CountingImage(DiscImage):
    """A disc image that counts reads of its cluster file."""

    cluster_reads = 0

    def read(self, path: str) -> bytes:
        if path == CLUSTER:
            self.cluster_reads += 1
        return super().read(path)


@functools.cache
def mastered_files() -> dict[str, bytes]:
    author = DiscAuthor("Check Disc",
                        rng=DeterministicRandomSource(b"cluster-check"))
    info = author.add_clip(2.0, packets_per_second=25)
    author.add_feature("main", [info])
    manifest = ApplicationManifest("menu")
    manifest.add_submarkup("layout", parse_element(
        '<layout xmlns="urn:bda:bdmv:interactive-cluster">'
        '<region regionName="main" width="1" height="1"/></layout>'
    ))
    manifest.add_script("var x = 0;")
    author.add_application(manifest)
    image = author.master()
    return {path: image.read(path) for path in image.paths()}


def variant(name: str) -> CountingImage:
    files = dict(mastered_files())
    if name == "unparsable-cluster":
        files[CLUSTER] = files[CLUSTER][:40]
    elif name == "not-a-cluster":
        files[CLUSTER] = b'<track xmlns="urn:x"/>'
    elif name == "missing-cluster":
        del files[CLUSTER]
    elif name == "missing-clip":
        files = {path: data for path, data in files.items()
                 if not path.endswith((".m2ts", ".clpi"))}
    return CountingImage(files)


#: What each broken image reports: validate_structure()'s problems,
#: which are also the player's DiscError and the auditor's SEC041s.
PROBLEMS = {
    "unparsable-cluster": [
        "cluster does not parse: unterminated start tag (line 1, column 41)"
    ],
    "not-a-cluster": [
        "cluster does not parse: expected cluster, got 'track'"
    ],
    "missing-cluster": ["missing BDMV/CLUSTER/cluster.xml"],
    "missing-clip": [
        "clip 00001: missing stream file", "clip 00001: missing clip info",
    ],
}

UNSIGNED = ("SEC040", "disc!BDMV/CLUSTER/cluster.xml",
            "cluster markup carries no ds:Signature")

#: The auditor's findings on each image: (rule, location, message).
FINDINGS = {
    "clean": [UNSIGNED],
    "unparsable-cluster": [
        ("SEC041", "disc", "cluster does not parse: unterminated start "
                           "tag (line 1, column 41)"),
        ("SEC041", "disc!BDMV/CLUSTER/cluster.xml",
         "does not parse: unterminated start tag (line 1, column 41)"),
        UNSIGNED,
    ],
    "not-a-cluster": [
        ("SEC041", "disc",
         "cluster does not parse: expected cluster, got 'track'"),
        UNSIGNED,
    ],
    "missing-cluster": [
        ("SEC041", "disc", "missing BDMV/CLUSTER/cluster.xml"),
    ],
    "missing-clip": [
        ("SEC041", "disc", "clip 00001: missing stream file"),
        ("SEC041", "disc", "clip 00001: missing clip info"),
        UNSIGNED,
    ],
}


def findings(image) -> list[tuple[str, str, str]]:
    auditor = ArtifactAuditor()
    auditor.audit_disc_image(image, "disc")
    return [(f.rule_id, f.location, f.message)
            for f in auditor.finish().findings]


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_validate_structure_reports_each_break(name):
    assert variant(name).validate_structure() == PROBLEMS[name]


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_player_rejects_each_break_with_the_same_text(name, trust_store):
    player = DiscPlayer(trust_store)
    with pytest.raises(DiscError) as raised:
        player.insert_disc(variant(name))
    assert str(raised.value) == "disc rejected: " + "; ".join(PROBLEMS[name])


@pytest.mark.parametrize("name", sorted(FINDINGS))
def test_auditor_findings_are_pinned(name):
    assert findings(variant(name)) == FINDINGS[name]


def test_examples_artifacts_findings_are_pinned():
    result = audit_paths([os.path.join(REPO_ROOT, "examples", "artifacts")])
    assert [(f.rule_id, f.location, f.message) for f in result.findings] \
        == []
    assert (result.scanned, len(result.coverage)) == (4, 2)


def test_player_reads_the_cluster_once(trust_store):
    image = variant("clean")
    DiscPlayer(trust_store).insert_disc(image)
    assert image.cluster_reads == 1


def test_player_builds_the_cluster_once(trust_store, monkeypatch):
    # Each build deep-copies every submarkup body, so the structure
    # check and the session share one InteractiveCluster.
    built = []
    from_element = InteractiveCluster.from_element.__func__

    def counting(cls, node):
        built.append(node)
        return from_element(cls, node)

    monkeypatch.setattr(InteractiveCluster, "from_element",
                        classmethod(counting))
    session = DiscPlayer(trust_store).insert_disc(variant("clean"))
    assert len(built) == 1
    assert built[0] is session.cluster_element


def test_auditor_reads_the_cluster_once():
    image = variant("clean")
    findings(image)
    assert image.cluster_reads == 1
