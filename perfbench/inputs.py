"""Seeded inputs: the PKI, disc and package shapes, and their scripts.

Every input is a function of the ``--seed`` argument; the keys of
the PKI are fixed.  Each
generated script computes a value with a known closed form, so the
benchmark knows exactly what the application must print.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.certs import CertificateAuthority, SigningIdentity, TrustStore
from repro.core import AuthoringPipeline, ProtectionLevel, disc_security
from repro.disc import ApplicationManifest, DiscAuthor
from repro.disc.image import DiscImage
from repro.disc.tsgen import generate_transport_stream
from repro.dsig import Signer
from repro.primitives.keys import RSAPrivateKey
from repro.primitives.random import DeterministicRandomSource
from repro.primitives.rsa import generate_keypair
from repro.threat import inject_script, tamper_package_bytes
from repro.xmlcore import parse_element

#: Modulus of the scripts' running value: small enough that every
#: intermediate product stays exact in a float.
MODULUS = 1_000_003

#: Share of discs and packages altered at rest after signing.
ALTERED_SHARE = 0.05

CLIP = "bd://BDMV/STREAM/00001.m2ts"

LAYOUT = (
    '<layout xmlns="urn:bda:bdmv:interactive-cluster">'
    '<root-layout width="1920" height="1080"/>'
    '<region regionName="main" width="1920" height="880"/>'
    '<region regionName="menu" top="880" width="1920" height="200"/>'
    "</layout>"
)

TIMING = (
    '<seq xmlns="urn:bda:bdmv:interactive-cluster">'
    f'<video src="{CLIP}" region="main"/>'
    '<par><img src="bd://BDMV/AUXDATA/banner.png" region="menu" '
    'begin="1s" dur="4s"/>'
    f'<video src="{CLIP}" region="main" dur="2s"/></par></seq>'
)


@dataclass
class World:
    """The fixed cast: a root CA, the studio, a content server and
    one player's device key."""

    root: CertificateAuthority
    studio: SigningIdentity
    server_identity: SigningIdentity
    device_key: RSAPrivateKey
    trust_store: TrustStore


def build_world() -> World:
    """The same keys in every run, so set-up time does not depend on
    how long the seed's prime search happens to take."""
    rng = DeterministicRandomSource(b"perfbench-world")
    root = CertificateAuthority.create_root("CN=BD Root CA", rng=rng)
    studio = SigningIdentity.create("CN=Contoso Studios", root, rng=rng)
    server_identity = SigningIdentity.create(
        "CN=content.contoso.example", root, rng=rng)
    return World(
        root=root, studio=studio, server_identity=server_identity,
        device_key=generate_keypair(1024, rng),
        trust_store=TrustStore(roots=[root.certificate]),
    )


def base_clip(seed: int, packets: int = 200) -> bytes:
    """One short transport stream, generated once at set-up."""
    rng = DeterministicRandomSource(f"perfbench-clip:{seed}".encode())
    return generate_transport_stream(packets, rng=rng)


def unique_clip(clip: bytes, index: int) -> bytes:
    """*clip* with the disc index written into its first payload, so
    every disc's stream signature covers never-seen bytes."""
    out = bytearray(clip)
    out[4:12] = index.to_bytes(8, "big")
    return bytes(out)


def script(rng: random.Random, lines: int, label: str
           ) -> tuple[str, str]:
    """A *lines*-line script and the one console line it must print."""
    acc = rng.randrange(1, MODULUS)
    mult = rng.randrange(2, 997)
    body = [
        f"var acc = {acc};",
        f"function step(x, k) {{ return (x * {mult} + k) % {MODULUS}; }}",
    ]
    while len(body) < lines - 1:
        if rng.random() < 0.2:
            rounds = rng.randint(2, 6)
            body.append(f"for (var i = 0; i < {rounds}; i = i + 1) "
                        "{ acc = step(acc, i); }")
            for i in range(rounds):
                acc = (acc * mult + i) % MODULUS
        else:
            k = rng.randrange(1000)
            body.append(f"acc = step(acc, {k});")
            acc = (acc * mult + k) % MODULUS
    body.append(f'player.log("{label}:" + acc);')
    return "\n".join(body) + "\n", f"{label}:{acc}"


@dataclass
class AppShape:
    name: str
    submarkups: int
    script_lines: int


def app_shapes(rng: random.Random, count: int, menu_lines: int
               ) -> list[AppShape]:
    """Shapes of a disc's *count* applications; the first is the menu."""
    return [AppShape("menu" if i == 0 else f"app{i}", rng.randint(2, 6),
                     menu_lines if i == 0 else rng.randint(20, 120))
            for i in range(count)]


def manifest(rng: random.Random, shape: AppShape
             ) -> tuple[ApplicationManifest, str]:
    """An application of *shape* and the console line it must print."""
    app = ApplicationManifest(shape.name)
    app.add_submarkup("layout", parse_element(LAYOUT))
    app.add_submarkup("timing", parse_element(TIMING))
    for extra in range(shape.submarkups - 2):
        items = "".join(f'<item v="{rng.randrange(10_000)}"/>'
                        for _ in range(rng.randint(1, 4)))
        app.add_submarkup(f"aux-{extra}", parse_element(
            '<aux xmlns="urn:bda:bdmv:interactive-cluster" '
            f'n="{extra}">{items}</aux>'))
    source, expected = script(rng, shape.script_lines, shape.name)
    app.add_script(source)
    return app, expected


@dataclass
class Release:
    """One mastered and signed disc, plus what its menu must print."""

    image: DiscImage
    menu_output: str
    altered: bool


def stratified(seed: int, label: str, low: int, high: int,
               block: int = 7):
    """Integers in [*low*, *high*]: every block of *block* draws takes
    one value from each of *block* equal strata, in a seeded order, so
    the shape mix of a run hardly depends on the seed."""
    rng = random.Random(f"{seed}:{label}")
    width = (high - low + 1) / block
    while True:
        order = list(range(block))
        rng.shuffle(order)
        for k in order:
            yield low + int((k + rng.random()) * width)


class Shapes:
    """The seeded shape streams: applications per disc (2-8) and the
    script lengths (20-120 lines) of the menu and the bonus package."""

    def __init__(self, seed: int):
        self.apps = stratified(seed, "apps", 2, 8)
        self.menu_lines = stratified(seed, "menu-lines", 20, 120)
        self.bonus_lines = stratified(seed, "bonus-lines", 20, 120)


def applications(rng: random.Random, apps: int, menu_lines: int
                 ) -> tuple[list[ApplicationManifest], dict[str, str]]:
    """*apps* applications (the first is the menu) and what each
    must print."""
    manifests, expected = [], {}
    for shape in app_shapes(rng, apps, menu_lines):
        app, line = manifest(rng, shape)
        manifests.append(app)
        expected[shape.name] = line
    return manifests, expected


def author(index: int, clip: bytes, apps: list[ApplicationManifest]
           ) -> DiscAuthor:
    """A disc author loaded with *apps* and one never-seen clip."""
    disc = DiscAuthor(f"Title {index}")
    info = disc.add_clip(6.0, stream=unique_clip(clip, index))
    disc.add_feature("feature", [info])
    for app in apps:
        disc.add_application(app)
    return disc


def sign(image: DiscImage, studio: SigningIdentity) -> None:
    # Looked up on the module at call time, so the tracer's wrapper of
    # sign_disc_image is the one called.
    disc_security.sign_disc_image(
        image, Signer(studio.key, identity=studio),
        level=ProtectionLevel.TRACK, include_streams=True)


def release(seed: int, index: int, world: World, clip: bytes,
            shapes: Shapes) -> Release:
    """Master and sign disc *index*; about one in twenty is then
    altered at rest (a script injected into its cluster)."""
    rng = random.Random(f"{seed}:disc:{index}")
    manifests, expected = applications(rng, next(shapes.apps),
                                       next(shapes.menu_lines))
    image = author(index, clip, manifests).master()
    sign(image, world.studio)
    altered = rng.random() < ALTERED_SHARE
    if altered:
        path = image.layout.cluster_path()
        image.write(path, inject_script(image.read(path)))
    return Release(image=image, menu_output=expected["menu"],
                   altered=altered)


@dataclass
class Bonus:
    """One sealed bonus package and what its script must print."""

    data: bytes
    output: str
    altered: bool


def bonus_manifest(rng: random.Random, lines: int
                   ) -> tuple[ApplicationManifest, str]:
    return manifest(rng, AppShape("bonus", rng.randint(2, 6), lines))


def seal(world: World, app: ApplicationManifest, index: int) -> bytes:
    """Sign the package and encrypt its code to the device key."""
    pipeline = AuthoringPipeline(
        world.studio, recipient_key=world.device_key.public_key(),
        rng=DeterministicRandomSource(f"perfbench-seal:{index}".encode()))
    return pipeline.build_package(app, encrypt_ids=(app.code_id,)).data


def bonus(seed: int, index: int, world: World, shapes: Shapes) -> Bonus:
    """Seal bonus package *index*; about one in twenty is altered at
    rest (a signed attribute changed)."""
    rng = random.Random(f"{seed}:bonus:{index}")
    app, output = bonus_manifest(rng, next(shapes.bonus_lines))
    data = seal(world, app, index)
    altered = rng.random() < ALTERED_SHARE
    if altered:
        data = tamper_package_bytes(data, b'width="1920"',
                                    b'width="1921"')
    return Bonus(data=data, output=output, altered=altered)
