"""FIG11 — The layered software architecture of the player.

Fig 11 stacks the Interactive Application Engine over the XML security
components (Verifier/Decryptor/Signer/Encryptor) over the crypto
provider over the platform.

Regenerated rows: per-layer micro-timings for the operations the
engine chains when launching an application — parse, verify, decrypt,
schedule, execute — i.e. where a CE player's launch budget actually
goes.
"""

import pytest

from _workloads import build_manifest, report, timed
from repro.core import AuthoringPipeline, PlaybackPipeline
from repro.dsig import Verifier
from repro.player import InteractiveApplicationEngine
from repro.xmlcore import DSIG_NS, parse_element
from repro.xmlenc import Decryptor


@pytest.fixture(scope="module")
def package(world):
    pipeline = AuthoringPipeline(
        world.studio, recipient_key=world.device_key.public_key(),
        rng=world.fresh_rng(b"fig11"),
    )
    manifest = build_manifest("fig11-app", scripts=2, script_lines=40)
    return pipeline.build_package(manifest,
                                  encrypt_ids=(manifest.code_id,))


def test_fig11_layer_parse(package, benchmark):
    root = benchmark(lambda: parse_element(package.data))
    assert root.local == "applicationPackage"


def test_fig11_layer_verify(world, package, benchmark):
    root = parse_element(package.data)
    signature = root.first_child("Signature", DSIG_NS)
    verifier = Verifier(trust_store=world.trust_store,
                        require_trusted_key=True)
    decryptor = Decryptor(rsa_key=world.device_key)
    result = benchmark(
        lambda: verifier.verify(signature, decryptor=decryptor)
    )
    assert result.valid


def test_fig11_layer_decrypt(world, package, benchmark):
    decryptor = Decryptor(rsa_key=world.device_key)

    def run():
        root = parse_element(package.data)
        return decryptor.decrypt_in_place(root)

    assert benchmark(run) == 1


def test_fig11_layer_execute(world, package, benchmark):
    engine = InteractiveApplicationEngine(PlaybackPipeline(
        trust_store=world.trust_store, device_key=world.device_key,
    ))
    application = engine.load_package(package.data)
    session = benchmark(lambda: engine.execute(application))
    assert session.trusted


def test_fig11_layer_breakdown(world, package, benchmark):
    engine = InteractiveApplicationEngine(PlaybackPipeline(
        trust_store=world.trust_store, device_key=world.device_key,
    ))
    verifier = Verifier(trust_store=world.trust_store,
                        require_trusted_key=True)

    def run():
        layers = {}
        layers["xml parse"], root = timed(
            lambda: parse_element(package.data)
        )
        signature = root.first_child("Signature", DSIG_NS)
        decryptor = Decryptor(rsa_key=world.device_key)
        layers["verifier (XMLDSig)"], outcome = timed(
            lambda: verifier.verify(signature, decryptor=decryptor)
        )
        assert outcome.valid
        layers["decryptor (XMLEnc)"], _ = timed(
            lambda: decryptor.decrypt_in_place(root)
        )
        layers["engine (full launch)"], session = timed(
            lambda: engine.execute(engine.load_package(package.data))
        )
        assert session.trusted
        return layers

    layers = benchmark.pedantic(run, rounds=5, iterations=1)
    total = sum(layers.values())
    report("FIG11 engine layer breakdown", [
        f"{name:22s} {t * 1e3:8.2f}ms ({t / total * 100:4.1f}%)"
        for name, t in layers.items()
    ])
