"""Deterministic threaded stress tests for the shared security state.

The CON3xx analyzer proves lock discipline statically; these tests
hammer the same objects dynamically: barrier-started verifier threads
over one shared tree and trust store, a mutator thread revoking and
adding intermediates mid-flight, and a provider-swap thread flipping
the late-bound crypto provider — asserting *exact* counter outcomes
(no lost updates), verdicts identical to the sequential path, and no
torn breaker/log state.  Thread interleavings are inherently
nondeterministic; determinism here means every assertion is an exact
invariant that must hold under *any* interleaving, across three
pinned shuffle seeds.
"""

from __future__ import annotations

import random
import threading
from types import SimpleNamespace

import pytest

from repro.certs import TrustStore
from repro.core import verify_signatures
from repro.dsig import Signer, Verifier
from repro.errors import CircuitOpenError
from repro.perf import metrics
from repro.perf.batch import BatchVerifier
from repro.perf.cache import C14NDigestCache
from repro.primitives.provider import get_provider
from repro.resilience.degradation import DegradationLog
from repro.resilience.retry import STATE_OPEN, CircuitBreaker
from repro.xmlcore import parse_element

SEEDS = [20050902, 7, 31337]

CLUSTER_XML = """\
<cluster xmlns="urn:bda:bdmv:interactive-cluster" Id="cluster-1">
  <track Id="track-1" kind="av"><clip ref="00001"/></track>
  <track Id="track-2" kind="av"><clip ref="00002"/></track>
  <track Id="track-3" kind="application">
    <script Id="script-3">var x = 1;</script>
  </track>
</cluster>
"""


def _run_all(workers):
    """Start *workers* behind a common barrier and join them all."""
    barrier = threading.Barrier(len(workers))
    errors = []

    def wrap(fn):
        def run():
            barrier.wait()
            try:
                fn()
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)
        return run

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_verify_hammer_with_live_mutations(pki, seed):
    """Verifier threads + trust mutator + provider swapper, one store.

    Verdicts must equal the sequential baseline on every iteration,
    and the generation stamp must count every mutation exactly.
    """
    cluster = parse_element(CLUSTER_XML)
    signer = Signer(pki.studio.key, identity=pki.studio)
    for uri in ("#track-1", "#track-2", "#track-3"):
        signer.sign_detached(uri, parent=cluster)

    store = TrustStore(roots=[pki.root.certificate])
    verifier = Verifier(trust_store=store, require_trusted_key=True,
                        cache=C14NDigestCache())
    sequential = verify_signatures(cluster, verifier)
    assert all(report.valid for report in sequential.values())

    generation_before = store.generation
    rounds, mutations = 4, 16
    rng = random.Random(seed)

    def verify_worker():
        batch = BatchVerifier(verifier, max_workers=2)
        for _ in range(rounds):
            outcome = batch.verify_all(cluster)
            assert set(outcome.reports) == set(sequential)
            for uri, report in outcome.reports.items():
                assert report.valid == sequential[uri].valid

    def mutator_worker():
        ops = (["intermediate"] * mutations
               + ["revoke"] * mutations)
        rng.shuffle(ops)
        serial = 0
        for op in ops:
            if op == "intermediate":
                store.add_intermediate(pki.intermediate.certificate)
            else:
                serial += 1
                # Unrelated issuer: never on the studio chain.
                store.crl.revoke_entry("CN=Nobody Special", serial)

    def swap_worker():
        for index in range(mutations):
            verifier.provider = get_provider("pure") if index % 2 \
                else None
            store.provider = get_provider("pure") if index % 2 \
                else None

    _run_all([verify_worker, verify_worker, verify_worker,
              mutator_worker, swap_worker])

    # Exact mutation accounting: no lost generation bumps.
    generation_after = store.generation
    assert generation_after[0] == generation_before[0] + mutations
    assert generation_after[1] == generation_before[1] + mutations
    # The swapper's last write (index mutations - 1, odd) installed
    # the pure provider, whatever the default provider is.
    assert (mutations - 1) % 2 == 1
    assert verifier.provider is get_provider("pure")
    # The tree was never mutated, so verdicts still match afterwards.
    after = verify_signatures(cluster, verifier)
    assert {u: r.valid for u, r in after.items()} == \
        {u: r.valid for u, r in sequential.items()}


@pytest.mark.parametrize("seed", SEEDS)
def test_circuit_breaker_hammer_counts_every_failure(seed):
    """N threads x M failures: exact counts, exactly one opening."""
    threads, failures = 8, 25
    breaker = CircuitBreaker(failure_threshold=threads * failures + 1)
    rng = random.Random(seed)
    jitter = [rng.random() for _ in range(threads)]

    def failure_worker(index):
        def run():
            for _ in range(failures):
                if jitter[index] > 0.5:
                    breaker.before_call()
                breaker.record_failure()
        return run

    _run_all([failure_worker(i) for i in range(threads)])
    assert breaker.consecutive_failures == threads * failures
    assert breaker.times_opened == 0  # threshold is one above the total

    breaker.record_failure()  # the straw: exactly one transition
    assert breaker.state == STATE_OPEN
    assert breaker.times_opened == 1
    with pytest.raises(CircuitOpenError):
        breaker.before_call()
    assert breaker.short_circuits == 1


def test_degradation_log_hammer_loses_no_events():
    threads, events = 8, 50
    log = DegradationLog()

    def recorder(index):
        def run():
            for count in range(events):
                log.record("xkms", f"thread-{index}", "timeout",
                           detail=str(count))
        return run

    _run_all([recorder(i) for i in range(threads)])
    assert len(log.events) == threads * events
    for index in range(threads):
        mine = [e for e in log.events if e.resource == f"thread-{index}"]
        assert sorted(int(e.detail) for e in mine) == list(range(events))


def test_signature_memo_single_flight_dedups_concurrent_misses():
    """Eight simultaneous identical misses: one compute, seven dedups."""
    workers = 8
    cache = C14NDigestCache()
    key = SimpleNamespace(n=0xC0FFEE, e=65537)
    go = threading.Event()
    computed = []
    results = []
    results_lock = threading.Lock()

    def compute():
        go.wait()
        computed.append(1)
        return True

    def worker():
        verdict = cache.signature_verification(
            "rsa-sha256", key, b"octets", b"signature", compute)
        with results_lock:
            results.append(verdict)

    metrics.push_registry()
    try:
        barrier = threading.Barrier(workers)

        def gated():
            barrier.wait()
            worker()

        threads = [threading.Thread(target=gated)
                   for _ in range(workers)]
        for thread in threads:
            thread.start()
        # Every thread is past the barrier and inside
        # signature_verification (or about to be) before the leader's
        # compute is released; followers park on the in-flight event.
        threading.Event().wait(0.5)
        go.set()
        for thread in threads:
            thread.join()

        assert results == [True] * workers
        assert len(computed) == 1
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["perf.cache.sigverify.miss"] == 1
        assert snapshot["counters"][
            "perf.cache.singleflight.dedup"] == workers - 1
    finally:
        metrics.pop_registry()


def test_single_flight_leader_failure_hands_over():
    """A leader whose compute raises must not wedge the followers."""
    cache = C14NDigestCache()
    key = SimpleNamespace(n=0xDECAF, e=3)

    def boom():
        raise ValueError("transient")

    with pytest.raises(ValueError):
        cache.signature_verification("rsa-sha1", key, b"o", b"s", boom)
    # The in-flight ledger is clean: the next caller computes normally.
    assert cache.signature_verification(
        "rsa-sha1", key, b"o", b"s", lambda: True) is True
