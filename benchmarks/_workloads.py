"""Workload builders and reporting for the benchmark harness.

Every bench prints the paper-style rows it regenerates via
:func:`report`; rows are also appended to ``bench_report.txt`` at the
repository root so EXPERIMENTS.md can be refreshed from a plain run.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass

from repro.certs import CertificateAuthority, SigningIdentity, TrustStore
from repro.disc import ApplicationManifest
from repro.primitives.keys import RSAPrivateKey
from repro.primitives.random import DeterministicRandomSource
from repro.primitives.rsa import generate_keypair
from repro.xmlcore import parse_element

REPORT_PATH = os.path.join(os.path.dirname(__file__), "..",
                           "bench_report.txt")


def measure(fn, *, warmup: int = 1, repeat: int = 5) -> float:
    """Median wall-clock seconds of one ``fn()`` call.

    Runs *warmup* throwaway calls (interpreter warm-up, cache priming
    where that is the point of the bench) and then *repeat* timed
    calls, returning the median — the robust summary all benches and
    the regression gate share.  Callables that are not idempotent must
    rebuild their state inside ``fn`` or pass ``warmup=0, repeat=1``.
    """
    for _ in range(max(0, warmup)):
        fn()
    samples = []
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def measure_pair(fn_a, fn_b, *, repeat: int = 25) -> tuple[float, float]:
    """Median seconds of two callables, sampled *interleaved*.

    For overhead ratios between two fast paths (e.g. guarded vs
    unguarded warm batch verify): two back-to-back :func:`measure`
    blocks let scheduler drift swamp a small real difference, while
    alternating the callables makes any drift hit both sample sets
    equally — the ratio of the medians then isolates the actual delta.
    """
    a_samples: list[float] = []
    b_samples: list[float] = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn_a()
        a_samples.append(time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        b_samples.append(time.perf_counter() - start)
    a_samples.sort()
    b_samples.sort()
    return a_samples[repeat // 2], b_samples[repeat // 2]


def timed(fn) -> tuple[float, object]:
    """``(seconds, result)`` of a single ``fn()`` call.

    For one-shot stage timings (authoring, disc insert, decrypt in
    place) where repetition would change semantics; sweeps should use
    :func:`measure`.
    """
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result

LAYOUT = (
    '<layout xmlns="urn:bda:bdmv:interactive-cluster">'
    '<root-layout width="1920" height="1080"/>'
    '<region regionName="main" width="1920" height="880"/>'
    '<region regionName="menu" top="880" width="1920" height="200"/>'
    "</layout>"
)

TIMING = (
    '<seq xmlns="urn:bda:bdmv:interactive-cluster">'
    '<video src="bd://BDMV/STREAM/00001.m2ts" region="main" dur="90s"/>'
    '<par><video src="bd://BDMV/STREAM/00002.m2ts" region="main" '
    'dur="30s"/>'
    '<img src="bd://BDMV/AUXDATA/banner.png" region="menu" begin="2s" '
    'dur="8s"/></par></seq>'
)


@dataclass
class BenchWorld:
    root: CertificateAuthority
    studio: SigningIdentity
    attacker: SigningIdentity
    server_identity: SigningIdentity
    trust_store: TrustStore
    device_key: RSAPrivateKey

    def fresh_rng(self, label: bytes) -> DeterministicRandomSource:
        return DeterministicRandomSource(b"bench|" + label)


def build_world() -> BenchWorld:
    rng = DeterministicRandomSource(b"bench-world")
    root = CertificateAuthority.create_root("CN=BD Root CA", rng=rng)
    studio = SigningIdentity.create("CN=Contoso Studios", root, rng=rng)
    rogue = CertificateAuthority.create_root("CN=Rogue", rng=rng)
    attacker = SigningIdentity.create("CN=Mallory", rogue, rng=rng)
    server_identity = SigningIdentity.create(
        "CN=content.contoso.example", root, rng=rng,
    )
    return BenchWorld(
        root=root, studio=studio, attacker=attacker,
        server_identity=server_identity,
        trust_store=TrustStore(roots=[root.certificate]),
        device_key=generate_keypair(1024, rng),
    )


def build_manifest(name: str = "bench-app", *, scripts: int = 1,
                   script_lines: int = 20,
                   submarkups: int = 2) -> ApplicationManifest:
    """A parameterized reference application (Fig 10 shape)."""
    manifest = ApplicationManifest(name)
    manifest.add_submarkup("layout", parse_element(LAYOUT))
    if submarkups >= 2:
        manifest.add_submarkup("timing", parse_element(TIMING))
    for extra in range(max(0, submarkups - 2)):
        manifest.add_submarkup(f"aux-{extra}", parse_element(
            f'<aux xmlns="urn:bda:bdmv:interactive-cluster" '
            f'n="{extra}"><item v="1"/><item v="2"/></aux>'
        ))
    body = "var state = 0;\n" + \
        "state = state + 1; // tick\n" * script_lines + \
        "function onKey(k) { state += k; return state; }\n"
    for _ in range(scripts):
        manifest.add_script(body)
    return manifest


#: Modulus of the pinned script's running value: small enough that
#: every intermediate product stays exact in a float.
SCRIPT_MODULUS = 1_000_003


def pinned_script(lines: int = 70, seed: int = 20050902) -> tuple[str, str]:
    """A *lines*-line menu script and the console line it must print.

    The shape is the player's launch-path script: a running value
    stepped through a helper function, one statement per line, with
    a short counted loop on about one line in five.
    """
    rng = random.Random(seed)
    acc = rng.randrange(1, SCRIPT_MODULUS)
    mult = rng.randrange(2, 997)
    body = [
        f"var acc = {acc};",
        f"function step(x, k) {{ return (x * {mult} + k) % "
        f"{SCRIPT_MODULUS}; }}",
    ]
    while len(body) < lines - 1:
        if rng.random() < 0.2:
            rounds = rng.randint(2, 6)
            body.append(
                f"for (var i = 0; i < {rounds}; i = i + 1) "
                "{ acc = step(acc, i); }"
            )
            for i in range(rounds):
                acc = (acc * mult + i) % SCRIPT_MODULUS
        else:
            k = rng.randrange(1000)
            body.append(f"acc = step(acc, {k});")
            acc = (acc * mult + k) % SCRIPT_MODULUS
    body.append('player.log("menu:" + acc);')
    return "\n".join(body) + "\n", f"menu:{acc}"


def pinned_cluster(world: BenchWorld, apps: int = 6) -> bytes:
    """The parse gate's input: a signed disc cluster (about 32 KB).

    *apps* applications, each with four sub-markups and a pinned menu
    script (whose loops carry ``&lt;``), mastered and signed at TRACK
    level with stream signatures, as a studio release is.  The keys
    and the signature scheme are deterministic, so the bytes are too.
    """
    from repro.core import ProtectionLevel, disc_security
    from repro.disc import DiscAuthor
    from repro.dsig import Signer

    disc = DiscAuthor("Bench Title")
    clip = disc.add_clip(6.0, stream=bytes(188 * 4))
    disc.add_feature("feature", [clip])
    for index in range(apps):
        manifest = build_manifest(f"app{index}", scripts=0, submarkups=4)
        manifest.add_script(pinned_script(70, seed=20050902 + index)[0])
        disc.add_application(manifest)
    image = disc.master()
    disc_security.sign_disc_image(
        image,
        Signer(world.studio.key, identity=world.studio),
        level=ProtectionLevel.TRACK,
        include_streams=True,
    )
    return image.read(image.cluster_path())


def run_pinned_script(source: str) -> tuple[list[str], int]:
    """Run *source* with a logging ``player`` host object; return the
    console lines and the instruction count."""
    from repro.markup import HostObject, Interpreter

    console: list[str] = []
    player = HostObject("player", methods={"log": console.append})
    result = Interpreter({"player": player}).run(source)
    return console, result.instructions


def report(experiment: str, lines: list[str]) -> None:
    """Print paper-style rows and append them to bench_report.txt."""
    banner = f"\n===== {experiment} ====="
    print(banner)
    for line in lines:
        print(line)
    with open(REPORT_PATH, "a") as handle:
        handle.write(banner + "\n")
        for line in lines:
            handle.write(line + "\n")
