"""Batch verification engine: same verdicts, deduped work."""

import pytest

from repro.core import verify_signatures
from repro.dsig import Verifier
from repro.perf import metrics
from repro.perf.batch import (
    BatchVerifier, auto_worker_count,
)
from repro.perf.cache import C14NDigestCache
from repro.xmlcore import parse_element

CLUSTER_XML = """\
<cluster xmlns="urn:bda:bdmv:interactive-cluster" Id="cluster-1">
  <track Id="track-1" kind="av"><clip ref="00001"/></track>
  <track Id="track-2" kind="av"><clip ref="00002"/></track>
  <track Id="track-3" kind="application">
    <script Id="script-3">var x = 1;</script>
  </track>
</cluster>
"""


@pytest.fixture
def cluster():
    return parse_element(CLUSTER_XML)


def signed_cluster(signer, cluster, uris=None):
    uris = uris or ("#track-1", "#track-2", "#track-3")
    for uri in uris:
        signer.sign_detached(uri, parent=cluster)
    return cluster


def test_auto_worker_count_bounds():
    assert auto_worker_count(1) == 1
    assert 1 <= auto_worker_count() <= 8
    assert auto_worker_count(1000) <= 8
    assert auto_worker_count(0) == 1


# The id names the pool the batch engine fans out on.
@pytest.mark.parametrize("pool", ["thread"])
def test_batch_matches_sequential_verdicts(signer, verifier, cluster,
                                           pool):
    signed_cluster(signer, cluster)
    sequential = verify_signatures(cluster, verifier)
    outcome = BatchVerifier(verifier).verify_all(cluster)
    assert outcome.all_valid
    assert set(outcome.reports) == set(sequential)
    for uri, report in outcome.reports.items():
        assert report.valid == sequential[uri].valid
        assert [r.valid for r in report.references] == \
            [r.valid for r in sequential[uri].references]


def test_batch_flags_tampered_track_only(signer, verifier, cluster):
    signed_cluster(signer, cluster)
    cluster.find("script").children[0].data = "var x = 666;"
    outcome = BatchVerifier(verifier).verify_all(cluster)
    assert not outcome.all_valid
    assert outcome.reports["#track-1"].valid
    assert outcome.reports["#track-2"].valid
    assert not outcome.reports["#track-3"].valid


def test_batch_counts_and_dedups_references(signer, verifier, cluster):
    # Two signatures over the same track: one digest, computed once.
    signed_cluster(signer, cluster,
                   uris=("#track-1", "#track-1", "#track-2"))
    outcome = BatchVerifier(verifier).verify_all(cluster)
    assert outcome.total_references == 3
    assert outcome.deduplicated == 1
    assert outcome.all_valid


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


def test_explicit_worker_count_respected(signer, verifier, cluster):
    signed_cluster(signer, cluster)
    outcome = BatchVerifier(verifier, max_workers=2).verify_all(cluster)
    assert outcome.workers == 2
    assert outcome.all_valid


def guard_manifest(signer):
    """The ABL-GUARD shape: eight signed sub-markups and a script."""
    from repro.disc import ApplicationManifest

    ns = 'xmlns="urn:bda:bdmv:interactive-cluster"'
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


@pytest.mark.parametrize("quota", [600, 1500, None])
def test_batch_meters_the_digests_it_warms(pki, trust_store, signer,
                                           quota):
    """The dedup pass charges the verifier's guard for every digest it
    makes, in document order, so the batch path trips the c14n-output
    quota on the same references as the sequential path and meters
    the same octets."""
    from repro.resilience import ResourceGuard, ResourceLimits

    root = guard_manifest(signer)
    outcomes = {}
    for batch in (False, True):
        seen = set()
        for _ in range(20):
            guard = ResourceGuard(ResourceLimits(
                max_c14n_output_bytes=quota))
            verifier = Verifier(trust_store=trust_store,
                                require_trusted_key=True,
                                cache=C14NDigestCache(), guard=guard)
            reports = verify_signatures(root, verifier, batch=batch)
            seen.add((tuple(sorted((uri, report.valid)
                                   for uri, report in reports.items())),
                      guard.c14n_output_bytes))
        assert len(seen) == 1
        outcomes[batch] = seen.pop()
    assert outcomes[True] == outcomes[False]
    verdicts, metered = outcomes[True]
    assert len(verdicts) == 8
    assert metered > 0
    if quota is not None:
        assert metered <= quota
        assert sum(valid for _, valid in verdicts) < 8
