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
