"""Batch verification: one loop, in document order, on the caller's thread.

``BatchVerifier.verify_all`` is the only loop that verifies the
signatures under a root.  ``batch_transcripts.json`` pins what it must
produce on a corpus: the ABL-GUARD manifest under three c14n-output
quotas, 20 perfbench-shaped TRACK-signed discs clean and with a script
injected at rest, and one signed cluster grafted next to a second
element carrying a signed track's Id.  Each transcript lists, per
signature in document order, its validity, its error and each
reference's ``(uri, valid, error)``, then the guard's
``c14n_output_bytes``.  They were recorded from the sequential path
this loop replaced: one ``Verifier.verify`` per signature against its
whole document.  The thread-pooled path that ran alongside it passed
the subtree as the document root and so accepted the grafted cluster.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import random
import threading
from dataclasses import dataclass

import pytest

from repro.core import verify_signatures
from repro.dsig import Verifier
from repro.perf import metrics
from repro.perf.batch import BatchVerifier
from repro.perf.cache import C14NDigestCache
from repro.xmlcore import DSIG_NS, parse_element

CLUSTER_XML = """\
<cluster xmlns="urn:bda:bdmv:interactive-cluster" Id="cluster-1">
  <track Id="track-1" kind="av"><clip ref="00001"/></track>
  <track Id="track-2" kind="av"><clip ref="00002"/></track>
  <track Id="track-3" kind="application">
    <script Id="script-3">var x = 1;</script>
  </track>
</cluster>
"""

NS = "urn:bda:bdmv:interactive-cluster"
TRANSCRIPTS_PATH = pathlib.Path(__file__).with_name("batch_transcripts.json")
CORPUS_SEED = 20050902
QUOTAS = (600, 1500, None)
DISCS = 20
CASE_NAMES = (
    [f"guard-{quota}" for quota in QUOTAS]
    + [f"disc-{index:02d}-{kind}" for index in range(DISCS)
       for kind in ("clean", "injected")]
    + ["grafted"]
)


@pytest.fixture
def cluster():
    return parse_element(CLUSTER_XML)


def signed_cluster(signer, cluster, uris=None):
    uris = uris or ("#track-1", "#track-2", "#track-3")
    for uri in uris:
        signer.sign_detached(uri, parent=cluster)
    return cluster


# -- the pinned corpus ---------------------------------------------------------


@dataclass
class Case:
    """A root to verify and the verifier policy it is verified under."""

    root: object
    trust_store: object
    resolver: object = None
    quota: int | None = None

    def verifier(self) -> Verifier:
        from repro.resilience import ResourceGuard, ResourceLimits

        return Verifier(
            trust_store=self.trust_store, require_trusted_key=True,
            resolver=self.resolver, cache=C14NDigestCache(),
            guard=ResourceGuard(ResourceLimits(
                max_c14n_output_bytes=self.quota)),
        )


def guard_manifest(signer):
    """The ABL-GUARD shape: eight signed sub-markups and a script."""
    from repro.disc import ApplicationManifest

    ns = f'xmlns="{NS}"'
    manifest = ApplicationManifest("abl-guard")
    manifest.add_submarkup("layout", parse_element(
        f'<layout {ns}><root-layout width="1920" height="1080"/>'
        '<region regionName="main" width="1920" height="880"/>'
        '<region regionName="menu" top="880" width="1920" height="200"/>'
        "</layout>"))
    manifest.add_submarkup("timing", parse_element(
        f'<seq {ns}><video src="bd://BDMV/STREAM/00001.m2ts" '
        'region="main" dur="90s"/><par><video '
        'src="bd://BDMV/STREAM/00002.m2ts" region="main" dur="30s"/>'
        '<img src="bd://BDMV/AUXDATA/banner.png" region="menu" '
        'begin="2s" dur="8s"/></par></seq>'))
    for extra in range(6):
        manifest.add_submarkup(f"aux-{extra}", parse_element(
            f'<aux {ns} n="{extra}"><item v="1"/><item v="2"/></aux>'))
    manifest.add_script("var state = 0;\n"
                        + "state = state + 1; // tick\n" * 120)
    root = manifest.to_element()
    for target in root.iter("submarkup"):
        signer.sign_detached(f"#{target.get('Id')}", parent=root)
    return root


def application(rng, name):
    """A perfbench-shaped application: layout, timing, a short script."""
    from repro.disc import ApplicationManifest

    app = ApplicationManifest(name)
    app.add_submarkup("layout", parse_element(
        f'<layout xmlns="{NS}"><root-layout width="1920" height="1080"/>'
        '<region regionName="main" width="1920" height="880"/></layout>'))
    app.add_submarkup("timing", parse_element(
        f'<seq xmlns="{NS}"><video src="bd://BDMV/STREAM/00001.m2ts" '
        'region="main"/></seq>'))
    body = ["var acc = 17;"]
    for _ in range(rng.randint(3, 20)):
        body.append(f"acc = (acc * 31 + {rng.randrange(1000)}) % 1000003;")
    body.append(f'player.log("{name}:" + acc);')
    app.add_script("\n".join(body) + "\n")
    return app


def signed_disc(rng, index, signer):
    """Master and TRACK-sign one disc, its stream signed as well."""
    from repro.core import ProtectionLevel, sign_disc_image
    from repro.disc import DiscAuthor, generate_transport_stream
    from repro.primitives.random import DeterministicRandomSource

    disc = DiscAuthor(f"Title {index}")
    clip = disc.add_clip(6.0, stream=generate_transport_stream(
        4, rng=DeterministicRandomSource(f"batch-clip:{index}".encode())))
    disc.add_feature("feature", [clip])
    for k in range(rng.randint(1, 3)):
        disc.add_application(application(rng, "menu" if k == 0
                                         else f"app{k}"))
    image = disc.master()
    sign_disc_image(image, signer, level=ProtectionLevel.TRACK,
                    include_streams=True)
    return image


def build_cases(pki) -> dict[str, Case]:
    """Every pinned case by name, built the same way in every run.

    Disc, track and manifest Ids come from process-wide counters, so
    they are restarted first: the Ids, and with them the transcripts,
    then do not depend on which tests ran before.
    """
    from repro.disc import hierarchy, manifest
    from repro.dsig import Signer, manifest as dsig_manifest
    from repro.threat import inject_script

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hierarchy, "_track_ids", itertools.count(1))
        patch.setattr(manifest, "_ids", itertools.count(1))
        patch.setattr(dsig_manifest, "_ids", itertools.count(1))
        signer = Signer(pki.studio.key, identity=pki.studio)
        trust_store = pki.trust_store()
        cases = {}
        guarded = guard_manifest(signer)
        for quota in QUOTAS:
            cases[f"guard-{quota}"] = Case(guarded, trust_store,
                                           quota=quota)
        images = []
        for index in range(DISCS):
            rng = random.Random(f"{CORPUS_SEED}:batch-disc:{index}")
            image = signed_disc(rng, index, signer)
            images.append(image)
            signed = image.read(image.cluster_path())
            for kind, data in (("clean", signed),
                               ("injected", inject_script(signed))):
                cases[f"disc-{index:02d}-{kind}"] = Case(
                    parse_element(data), trust_store,
                    resolver=image.resolver)
        cluster = images[0].cluster_element()
        decoy = next(cluster.iter("track")).get("Id")
        shelf = parse_element(
            f'<shelf xmlns="{NS}"><track Id="{decoy}" kind="av"/></shelf>')
        shelf.append(cluster)
        cases["grafted"] = Case(cluster, trust_store,
                                resolver=images[0].resolver)
    assert list(cases) == CASE_NAMES
    return cases


def signatures_of(root) -> list:
    return [child for child in root.child_elements()
            if child.local == "Signature" and child.ns_uri == DSIG_NS]


def first_uri(signature) -> str:
    reference = signature.find("Reference", DSIG_NS)
    return "" if reference is None else reference.get("URI") or ""


def transcript(reports, guard) -> dict:
    """The pinned form of one verify pass."""
    return json.loads(json.dumps({
        "signatures": [
            [report.valid, report.error,
             [[r.uri, r.valid, r.error] for r in report.references]]
            for report in reports
        ],
        "c14n_output_bytes": guard.c14n_output_bytes,
    }))


def verify_in_loop(case: Case):
    """``verify_all`` on *case*, with every ``verify`` call it makes."""
    verifier = case.verifier()
    made = []
    verify = verifier.verify

    def recording(signature, **kwargs):
        report = verify(signature, **kwargs)
        made.append((signature, report))
        return report

    verifier.verify = recording
    outcome = BatchVerifier(verifier).verify_all(case.root)
    return made, outcome, verifier.guard


@pytest.fixture(scope="module")
def cases(pki):
    return build_cases(pki)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(TRANSCRIPTS_PATH.read_text())


# -- the one loop against the pinned transcripts -------------------------------


def test_pinned_corpus_covers_every_case(pinned):
    assert list(pinned) == CASE_NAMES
    discs = [pinned[f"disc-{i:02d}-{kind}"]
             for i in range(DISCS) for kind in ("clean", "injected")]
    valid = [[signature[0] for signature in disc["signatures"]]
             for disc in discs]
    assert all(all(verdicts) for verdicts in valid[0::2])
    assert not any(all(verdicts) for verdicts in valid[1::2])
    for quota in (600, 1500):
        verdicts = [s[0] for s in pinned[f"guard-{quota}"]["signatures"]]
        assert len(verdicts) == 8 and not all(verdicts)
        assert 0 < pinned[f"guard-{quota}"]["c14n_output_bytes"] <= quota
    assert all(s[0] for s in pinned["guard-None"]["signatures"])


@pytest.mark.parametrize("name", CASE_NAMES)
def test_verify_all_matches_the_pinned_transcript(cases, pinned, name):
    case = cases[name]
    made, outcome, guard = verify_in_loop(case)
    # One verify call per signature, in document order.
    assert [signature for signature, _ in made] == signatures_of(case.root)
    assert transcript([report for _, report in made], guard) \
        == pinned[name]
    # Per first-reference URI the outcome keeps the first invalid
    # report, or else the last one.
    kept = {}
    for signature, report in made:
        uri = first_uri(signature)
        if uri not in kept or kept[uri].valid:
            kept[uri] = report
    assert {uri: id(r) for uri, r in outcome.reports.items()} == \
        {uri: id(r) for uri, r in kept.items()}


def test_grafted_cluster_next_to_a_duplicate_id_is_refused(cases):
    case = cases["grafted"]
    decoy = next(case.root.iter("track")).get("Id")
    reports = verify_signatures(case.root, case.verifier())
    assert not reports[f"#{decoy}"].valid
    errors = [r.error for r in reports[f"#{decoy}"].references]
    assert any(f"duplicate Id {decoy!r}" in error for error in errors)


@pytest.mark.parametrize("rogue_first", [True, False])
def test_an_invalid_report_is_never_replaced(pki, signer, verifier,
                                             cluster, rogue_first):
    from repro.dsig import Signer

    rogue = Signer(pki.attacker.key, identity=pki.attacker)
    first, last = (rogue, signer) if rogue_first else (signer, rogue)
    first.sign_detached("#track-1", parent=cluster)
    last.sign_detached("#track-1", parent=cluster)
    outcome = BatchVerifier(verifier).verify_all(cluster)
    assert not outcome.reports["#track-1"].valid
    assert not outcome.all_valid


def test_second_signature_over_a_track_is_a_digest_hit(registry, signer,
                                                       verifier, cluster):
    signed_cluster(signer, cluster,
                   uris=("#track-1", "#track-1", "#track-2"))
    hits = registry.counter("perf.cache.digest.hit")
    seen = []
    verify = verifier.verify

    def recording(signature, **kwargs):
        report = verify(signature, **kwargs)
        seen.append(hits.value)
        return report

    verifier.verify = recording
    outcome = BatchVerifier(verifier).verify_all(cluster)
    assert outcome.all_valid
    assert outcome.total_references == 3
    # Cold cache: track-1 is digested by the first signature, served
    # to the second, and track-2 is digested afresh.
    assert seen == [0, 1, 1]
    assert registry.counter("perf.cache.digest.miss").value == 2


def test_verify_all_starts_no_thread(signer, verifier, cluster,
                                     monkeypatch):
    signed_cluster(signer, cluster)
    started = []
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread))
    callers = set()
    verify = verifier.verify

    def recording(signature, **kwargs):
        callers.add(threading.get_ident())
        return verify(signature, **kwargs)

    verifier.verify = recording
    assert BatchVerifier(verifier).verify_all(cluster).all_valid
    assert started == []
    assert callers == {threading.get_ident()}


# -- verdicts, metrics and the warm cache --------------------------------------


def test_batch_flags_tampered_track_only(signer, verifier, cluster):
    signed_cluster(signer, cluster)
    cluster.find("script").children[0].data = "var x = 666;"
    outcome = BatchVerifier(verifier).verify_all(cluster)
    assert not outcome.all_valid
    assert outcome.reports["#track-1"].valid
    assert outcome.reports["#track-2"].valid
    assert not outcome.reports["#track-3"].valid


def test_batch_on_unsigned_root(verifier, cluster):
    outcome = BatchVerifier(verifier).verify_all(cluster)
    assert outcome.reports == {}
    assert outcome.total_references == 0
    assert not outcome.all_valid        # vacuously nothing verified


def test_batch_emits_metrics(registry, signer, verifier, cluster):
    signed_cluster(signer, cluster)
    BatchVerifier(verifier).verify_all(cluster)
    assert metrics.counter("dsig.batch.references").value == 3
    timer = metrics.get_registry().timer("dsig.batch.verify_all")
    assert timer.count == 1


def test_batch_warm_cache_serves_digests(registry, signer, trust_store,
                                         cluster):
    verifier = Verifier(trust_store=trust_store,
                        require_trusted_key=True,
                        cache=C14NDigestCache())
    signed_cluster(signer, cluster)
    engine = BatchVerifier(verifier)
    assert engine.verify_all(cluster).all_valid   # cold: fills cache
    assert engine.verify_all(cluster).all_valid   # warm
    assert metrics.ratio("perf.cache.digest").hits > 0


def test_batch_warm_cache_rejects_after_tamper(signer, trust_store,
                                               cluster):
    """The acceptance criterion, end to end: warm the batch engine,
    mutate a signed track, and the next batch run must fail it."""
    verifier = Verifier(trust_store=trust_store,
                        require_trusted_key=True,
                        cache=C14NDigestCache())
    signed_cluster(signer, cluster)
    engine = BatchVerifier(verifier)
    assert engine.verify_all(cluster).all_valid
    cluster.find("clip").set("ref", "99999")
    outcome = engine.verify_all(cluster)
    assert not outcome.reports["#track-1"].valid
    assert outcome.reports["#track-2"].valid
