"""ABL-STREAM — Ablation: streaming C14N and provider-routed digests.

PR 7's hot-path rework: reference digests stream canonical chunks into
the provider's incremental hash context instead of materialising the
whole canonical octet string first, and the accelerated provider (when
its backends are importable) carries the digest/RSA work.  This bench
pins the two claims:

* chunked emission costs about the same as whole-tree serialization
  (the sink indirection is in the noise), and the streamed digest
  never allocates the full canonical string;
* the end-to-end sign/verify workloads speed up >= 5x under the
  accelerated provider relative to the pure baseline.
"""

import pytest

from _workloads import (
    build_manifest, measure, measure_pair, report,
)
from repro.dsig import Signer, Verifier
from repro.perf.cache import NullCache
from repro.primitives.provider import (
    available_providers, get_provider, set_default_provider,
)
from repro.xmlcore import canonicalize
from repro.xmlcore.c14n import canonicalize_into, digest_canonical

PROVIDERS = [
    name for name in ("pure", "accelerated")
    if name in available_providers()
]

accelerated_only = pytest.mark.skipif(
    "accelerated" not in available_providers(),
    reason="accelerated backends unavailable",
)


@pytest.fixture(scope="module")
def manifest():
    return build_manifest(
        "abl-stream", scripts=1, script_lines=120, submarkups=8,
    ).to_element()


def test_ablstream_chunked_output_identical(manifest):
    chunks: list[bytes] = []
    total = canonicalize_into(manifest, chunks.append)
    whole = canonicalize(manifest)
    assert b"".join(chunks) == whole
    assert total == len(whole)
    # Chunked means chunked: a fat manifest must not arrive in one
    # piece (the 4096-char flush bound).
    assert len(chunks) > 1


def test_ablstream_streaming_overhead(manifest, benchmark):
    whole_time = measure(
        lambda: canonicalize(manifest), warmup=1, repeat=5,
    )

    def stream():
        return canonicalize_into(manifest, lambda chunk: None)

    stream_time = measure(stream, warmup=1, repeat=5)
    benchmark(stream)
    ratio = stream_time / whole_time
    report("ABL-STREAM chunked emission vs whole-tree", [
        f"whole-tree canonicalize: {whole_time * 1e3:8.3f} ms",
        f"streamed canonicalize:   {stream_time * 1e3:8.3f} ms",
        f"ratio (stream/whole):    {ratio:8.2f}",
    ])
    # The sink indirection must stay cheap; 1.5x is generous for noise.
    assert ratio < 1.5


@pytest.mark.parametrize("provider_name", PROVIDERS)
def test_ablstream_digest_matches_whole_tree(manifest, provider_name):
    provider = get_provider(provider_name)
    assert digest_canonical(
        manifest, "sha256", provider=provider
    ) == provider.digest("sha256", canonicalize(manifest))


@accelerated_only
def test_ablstream_provider_speedup(world, benchmark):
    """End-to-end sign + sequential verify under both providers."""
    signer = Signer(world.studio.key, identity=world.studio)
    REPEAT = 9

    def build_unsigned():
        return build_manifest(
            "abl-stream-e2e", scripts=1, script_lines=120, submarkups=8,
        ).to_element()

    def sign_all(root):
        for target in root.iter("submarkup"):
            signer.sign_detached(f"#{target.get('Id')}", parent=root)
        return root

    def verify_all(root):
        from repro.core import verify_signatures

        verifier = Verifier(
            trust_store=world.trust_store,
            require_trusted_key=True,
            cache=NullCache(),
        )
        reports = verify_signatures(root, verifier)
        assert reports and all(r.valid for r in reports.values())
        return reports

    def run():
        # Manifest construction is provider-independent; build the
        # fresh roots outside the timed region so the speedup measures
        # the security work, not tree setup.  The two provider legs
        # are sampled *interleaved* (measure_pair): the accelerated
        # leg is milliseconds, so back-to-back blocks would let
        # scheduler/GC drift swamp it and distort the ratio.
        pools = {
            name: [build_unsigned() for _ in range(REPEAT + 2)]
            for name in PROVIDERS
        }
        previous = get_provider().name
        try:
            def leg(name, work):
                def call():
                    set_default_provider(name)
                    return work(name)
                return call

            for name in PROVIDERS:      # one untimed warmup pass each
                leg(name, lambda n: sign_all(pools[n].pop()))()
            pure_sign, accel_sign = measure_pair(
                leg("pure", lambda n: sign_all(pools[n].pop())),
                leg("accelerated", lambda n: sign_all(pools[n].pop())),
                repeat=REPEAT,
            )
            signed = sign_all(build_unsigned())
            pure_verify, accel_verify = measure_pair(
                leg("pure", lambda n: verify_all(signed)),
                leg("accelerated", lambda n: verify_all(signed)),
                repeat=REPEAT,
            )
        finally:
            set_default_provider(previous)
        return {
            "pure": (pure_sign, pure_verify),
            "accelerated": (accel_sign, accel_verify),
        }

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    sign_speedup = times["pure"][0] / times["accelerated"][0]
    verify_speedup = times["pure"][1] / times["accelerated"][1]
    report("ABL-STREAM provider speedup (8-signature manifest)", [
        f"{'provider':>12s} {'sign 8x (ms)':>14s} {'verify 8x (ms)':>15s}",
        *(
            f"{name:>12s} {times[name][0] * 1e3:14.2f} "
            f"{times[name][1] * 1e3:15.2f}"
            for name in PROVIDERS
        ),
        f"sign speedup:   {sign_speedup:6.1f}x",
        f"verify speedup: {verify_speedup:6.1f}x",
        "acceptance: >= 5x on both paths (ISSUE 7 tentpole)",
    ])
    assert sign_speedup >= 5.0
    assert verify_speedup >= 5.0
