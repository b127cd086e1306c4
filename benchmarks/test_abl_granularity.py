"""ABL-GRAN — Ablation: partial protection ⇒ better performance.

The conclusion's claim (§9): "The content authors may use the
flexibility of partially signing or encrypting the applications.  For
player platforms, this flexibility translates into better performance."

Regenerated series: player-side cost (decrypt / verify) as a function
of the protected fraction of the application, 0% → 100%.  Shape
expectation: cost grows with the protected fraction, so partial
protection is strictly cheaper than whole-application protection.
"""

import pytest

from _workloads import build_manifest, measure, report
from repro.core import verify_signatures
from repro.dsig import Signer, Verifier
from repro.perf import BatchVerifier, C14NDigestCache
from repro.perf.cache import NullCache
from repro.primitives.keys import SymmetricKey
from repro.xmlcore import parse_element, serialize_bytes
from repro.xmlenc import Decryptor, Encryptor

TOTAL_SUBMARKUPS = 8
FRACTIONS = (0, 2, 4, 8)   # submarkups protected out of 8


def fat_manifest():
    return build_manifest("abl-gran", scripts=1, script_lines=120,
                          submarkups=TOTAL_SUBMARKUPS).to_element()


def _submarkups(root):
    return [el for el in root.iter("submarkup")]


@pytest.mark.parametrize("count", FRACTIONS)
def test_ablgran_decrypt_fraction(world, benchmark, count):
    key = SymmetricKey(world.fresh_rng(b"abl-key").read(16))
    encryptor = Encryptor(rng=world.fresh_rng(b"abl-%d" % count))
    root = fat_manifest()
    for target in _submarkups(root)[:count]:
        encryptor.encrypt_element(target, key, key_name="k")
    payload = serialize_bytes(root)
    decryptor = Decryptor(keys={"k": key})

    def run():
        tree = parse_element(payload)
        return decryptor.decrypt_in_place(tree)

    assert benchmark(run) == count


def test_ablgran_decrypt_series(world, benchmark):
    key = SymmetricKey(world.fresh_rng(b"abl-key").read(16))
    decryptor = Decryptor(keys={"k": key})

    def run():
        series = {}
        for count in FRACTIONS:
            encryptor = Encryptor(
                rng=world.fresh_rng(b"abl-series-%d" % count)
            )
            root = fat_manifest()
            for target in _submarkups(root)[:count]:
                encryptor.encrypt_element(target, key, key_name="k")
            payload = serialize_bytes(root)

            def unlock(payload=payload):
                decryptor.decrypt_in_place(parse_element(payload))

            series[count] = measure(unlock, warmup=1, repeat=5)
        return series

    series = benchmark.pedantic(run, rounds=3, iterations=1)
    rows = [
        f"protected {count}/{TOTAL_SUBMARKUPS} submarkups: "
        f"unlock={t * 1e3:7.2f}ms"
        for count, t in series.items()
    ]
    report("ABL-GRAN partial encryption sweep (player unlock cost)",
           rows)
    # More protection ⇒ more player work; full > none by a clear margin.
    assert series[8] > series[0]
    assert series[4] >= series[0]


def _signed_manifest(signer, count):
    root = fat_manifest()
    for target in _submarkups(root)[:count]:
        signer.sign_detached(f"#{target.get('Id')}", parent=root)
    return root


def test_ablgran_verify_series(world, benchmark):
    signer = Signer(world.studio.key, identity=world.studio)
    # NullCache keeps this the *sequential* player cost — the batched /
    # cached engine is measured against it in
    # test_ablgran_batch_vs_sequential below.
    verifier = Verifier(trust_store=world.trust_store,
                        require_trusted_key=True, cache=NullCache())

    def run():
        series = {}
        for count in FRACTIONS:
            root = _signed_manifest(signer, count)
            reports = verify_signatures(root, verifier)
            assert len(reports) == count
            assert all(r.valid for r in reports.values())
            series[count] = measure(
                lambda root=root: verify_signatures(root, verifier),
                warmup=0, repeat=3,
            )
        return series

    series = benchmark.pedantic(run, rounds=3, iterations=1)
    rows = [
        f"signed {count}/{TOTAL_SUBMARKUPS} submarkups: "
        f"verify={t * 1e3:7.2f}ms"
        for count, t in series.items()
    ]
    report("ABL-GRAN partial signing sweep (player verify cost)", rows)
    assert series[8] > series[0]


def test_ablgran_batch_vs_sequential(world, benchmark):
    """The verify loop with a warm cache vs without a cache at 8/8.

    Acceptance: ≥ 3× faster once the cache is warm — every reference
    digest, certificate-chain validation and SignedInfo signature
    check is served from the revision-stamped cache, leaving only
    parse/dispatch work.
    """
    signer = Signer(world.studio.key, identity=world.studio)
    root = _signed_manifest(signer, TOTAL_SUBMARKUPS)

    sequential = Verifier(trust_store=world.trust_store,
                          require_trusted_key=True, cache=NullCache())
    seq_time = measure(
        lambda: verify_signatures(root, sequential), warmup=1, repeat=5,
    )

    batch_verifier = Verifier(trust_store=world.trust_store,
                              require_trusted_key=True,
                              cache=C14NDigestCache())
    engine = BatchVerifier(batch_verifier)
    outcome = engine.verify_all(root)   # cold run primes the cache
    assert outcome.all_valid
    assert outcome.total_references == TOTAL_SUBMARKUPS
    warm_time = measure(
        lambda: engine.verify_all(root), warmup=1, repeat=5,
    )

    speedup = seq_time / warm_time
    report("ABL-GRAN batch verification engine (8/8 signed)", [
        f"sequential (no cache):   {seq_time * 1e3:7.2f}ms",
        f"batch + warm cache:      {warm_time * 1e3:7.2f}ms",
        f"speedup:                 {speedup:7.1f}x",
    ])
    assert speedup >= 3.0
