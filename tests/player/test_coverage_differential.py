"""Verifier against auditor: one coverage rule, two readers.

The player's wrapping defence (:meth:`DiscSession.covers`, fed at
insert) and the artifact auditor's coverage map both read
:func:`repro.dsig.reference.signature_coverage`.  The corpus is seeded
and perfbench-shaped: discs of two to four applications, each with a
layout, a timing and auxiliary submarkups and a script with a known
output, signed at CLUSTER, TRACK, CODE and SCRIPT level, through a
ds:Manifest, and through XPath, base64 and decryption transform
chains, each clean, with an unsigned application injected and with
the menu's script replaced at rest.  On every disc the player
authenticates, each element outside the signatures is covered by the
player exactly when it lies in a subtree the auditor's coverage map
lists, and no replaced or injected code runs as trusted.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.analysis import ArtifactAuditor
from repro.core import ProtectionLevel, sign_disc_image
from repro.disc import (
    ApplicationManifest, DiscAuthor, DiscImage, generate_transport_stream,
)
from repro.dsig import BASE64, DECRYPT_XML, MANIFEST_TYPE, XPATH, \
    Reference, Signer, Transform, build_manifest_element
from repro.dsig.reference import ReferenceContext, compute_reference_digest
from repro.errors import ApplicationRejectedError
from repro.player import DiscPlayer
from repro.primitives.keys import SymmetricKey
from repro.primitives.random import DeterministicRandomSource
from repro.threat import inject_wrapped_manifest
from repro.xmlcore import (
    C14N, DSIG_NS, element, parse_element, serialize_bytes,
)
from repro.xmlenc import Decryptor, Encryptor

NS = "urn:bda:bdmv:interactive-cluster"
CORPUS_SEED = 20260521
DISC_KEY = SymmetricKey(bytes(range(16)))
MODULUS = 1_000_003

LEVELS = {
    "cluster": ProtectionLevel.CLUSTER,
    "track": ProtectionLevel.TRACK,
    "code": ProtectionLevel.CODE,
    "script": ProtectionLevel.SCRIPT,
}
SCHEMES = [*LEVELS, "manifest", "xpath-id", "xpath-subset", "base64",
           "decrypt"]
ATTACKS = ["clean", "injected", "replaced"]


def application(rng: random.Random, name: str) -> ApplicationManifest:
    """A perfbench-shaped application whose script prints
    ``name:<value>`` for a value known in closed form."""
    app = ApplicationManifest(name)
    app.add_submarkup("layout", parse_element(
        f'<layout xmlns="{NS}"><root-layout width="1920" height="1080"/>'
        '<region regionName="main" width="1920" height="880"/></layout>'))
    app.add_submarkup("timing", parse_element(
        f'<seq xmlns="{NS}"><video src="bd://BDMV/STREAM/00001.m2ts" '
        'region="main"/></seq>'))
    for extra in range(rng.randint(0, 2)):
        items = "".join(f'<item v="{rng.randrange(10_000)}"/>'
                        for _ in range(rng.randint(1, 3)))
        app.add_submarkup(f"aux-{extra}", parse_element(
            f'<aux xmlns="{NS}" n="{extra}">{items}</aux>'))
    # Base64 text, so a base64 transform chain can name this part.
    app.add_submarkup("blob", parse_element(
        f'<blob xmlns="{NS}">aGVsbG8gd29ybGQ=</blob>'))
    acc = rng.randrange(1, MODULUS)
    body = [f"var acc = {acc};"]
    for _ in range(rng.randint(3, 12)):
        k = rng.randrange(1000)
        body.append(f"acc = (acc * 31 + {k}) % {MODULUS};")
    body.append(f'player.log("{name}:" + acc);')
    app.add_script("\n".join(body) + "\n")
    return app


def master(scheme: str) -> DiscImage:
    rng = random.Random(f"{CORPUS_SEED}:{scheme}")
    disc = DiscAuthor(f"Coverage {scheme}")
    clip = disc.add_clip(6.0, stream=generate_transport_stream(
        4, rng=DeterministicRandomSource(f"cov-clip:{scheme}".encode())))
    disc.add_feature("feature", [clip])
    for k in range(rng.randint(2, 4)):
        disc.add_application(application(rng, "menu" if k == 0
                                         else f"app{k}"))
    return disc.master()


def app_tracks(cluster):
    return [t for t in cluster.iter("track", NS)
            if t.get("kind") == "application"]


def sign_references(image: DiscImage, signer: Signer, per_track) -> None:
    """One signature per application track over ``per_track(track)``."""
    cluster = image.cluster_element()
    decryptor = Decryptor(keys={"disc-key": DISC_KEY})
    for track in app_tracks(cluster):
        signer.sign_references([per_track(track)], parent=cluster,
                               resolver=image.resolver,
                               decryptor=decryptor)
    image.write(image.layout.cluster_path(), serialize_bytes(cluster))


def sign(image: DiscImage, scheme: str, signer: Signer) -> None:
    if scheme in LEVELS:
        sign_disc_image(image, signer, level=LEVELS[scheme])
    elif scheme == "manifest":
        sign_disc_image(image, signer, use_manifest=True)
    elif scheme == "xpath-id":
        # One cluster signature whose XPath keeps only the last track.
        cluster = image.cluster_element()
        last = app_tracks(cluster)[-1].get("Id")
        signer.sign_references([Reference(uri="", transforms=[
            Transform(XPATH, xpath=f"id('{last}')"), Transform(C14N)])],
            parent=cluster)
        image.write(image.layout.cluster_path(), serialize_bytes(cluster))
    elif scheme == "xpath-subset":
        sign_references(image, signer, lambda track: Reference(
            uri=f"#{track.get('Id')}", transforms=[
                Transform(XPATH, xpath=".//submarkup"), Transform(C14N)]))
    elif scheme == "base64":
        sign_references(image, signer, lambda track: Reference(
            uri="#" + next(s.get("Id") for s in track.iter("submarkup", NS)
                           if s.get("kind") == "blob"),
            transforms=[Transform(BASE64)]))
    elif scheme == "decrypt":
        # The menu's code is encrypted after signing, so the player must
        # decrypt it before digesting: a Decryption Transform chain.
        sign_references(image, signer, lambda track: Reference(
            uri=f"#{track.get('Id')}",
            transforms=[Transform(DECRYPT_XML), Transform(C14N)]))
        cluster = image.cluster_element()
        code = next(app_tracks(cluster)[0].iter("code", NS))
        Encryptor(rng=DeterministicRandomSource(b"cov-encrypt")) \
            .encrypt_element(code, DISC_KEY, key_name="disc-key")
        image.write(image.layout.cluster_path(), serialize_bytes(cluster))
    else:
        raise AssertionError(scheme)


def attack(image: DiscImage, kind: str) -> DiscImage:
    if kind == "clean":
        return image
    if kind == "injected":
        return inject_wrapped_manifest(image, "evil-app",
                                       payload='player.log("INJECTED");')
    attacked = DiscImage({p: image.read(p) for p in image.paths()},
                         layout=image.layout)
    path = attacked.layout.cluster_path()
    attacked.write(path, attacked.read(path).replace(
        b'player.log("menu:"', b'player.log("INJECTED:"'))
    return attacked


_SIGNED: dict[str, DiscImage] = {}


@pytest.fixture
def disc(pki):
    """``disc(scheme, kind)``: the scheme's signed disc, attacked."""
    def build(scheme: str, kind: str = "clean") -> DiscImage:
        if scheme not in _SIGNED:
            image = master(scheme)
            sign(image, scheme, Signer(pki.studio.key, identity=pki.studio))
            _SIGNED[scheme] = image
        return attack(_SIGNED[scheme], kind)
    return build


def player(trust_store) -> DiscPlayer:
    return DiscPlayer(trust_store, key_slots={"disc-key": DISC_KEY})


def audit(image: DiscImage):
    auditor = ArtifactAuditor()
    auditor.audit_disc_image(image, "disc")
    return auditor.finish()


def locate(root, locator: str):
    """The element an auditor locator (``#id`` or a path) names."""
    if locator.startswith("#"):
        (node,) = root.id_index()[locator[1:]]
        return node
    segments = locator.strip("/").split("/")
    assert segments[0] == root.local
    node = root
    for segment in segments[1:]:
        name, _, index = segment.partition("[")
        same = [c for c in node.child_elements() if c.local == name]
        node = same[int(index[:-1]) - 1 if index else 0]
    return node


def audited_coverage(result, root) -> set:
    """Ids of every element in a subtree the coverage map lists."""
    covered = set()
    for signature in result.coverage:
        for entry in signature["references"]:
            locator = entry["covers"]
            if locator and locator[0] in "#/":
                covered.update(id(el) for el in locate(root, locator).iter())
    return covered


def outside_signatures(root):
    signatures = list(root.iter("Signature", DSIG_NS))
    for node in root.iter():
        ancestor = node
        while ancestor is not None and ancestor not in signatures:
            ancestor = ancestor.parent
        if ancestor is None:
            yield node


@pytest.mark.parametrize("kind", ATTACKS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_player_covers_what_the_auditor_lists(disc, trust_store, scheme,
                                              kind):
    image = disc(scheme, kind)
    session = player(trust_store).insert_disc(image)
    if kind == "clean":
        assert session.authenticated
    if not session.authenticated:
        return
    root = session.cluster_element
    listed = audited_coverage(audit(image), root)
    disagreements = [
        (node.local, node.id_values())
        for node in outside_signatures(root)
        if session.covers(node) != (id(node) in listed)
    ]
    assert disagreements == []


@pytest.mark.parametrize("kind", ATTACKS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_no_unsigned_code_runs_trusted(disc, trust_store, scheme, kind):
    """Whatever the scheme, replaced or injected code never runs as
    trusted (an unauthenticated disc's applications run untrusted)."""
    disc_player = player(trust_store)
    disc_player.insert_disc(disc(scheme, kind))
    for name in ("menu", "evil-app") if kind == "injected" else ("menu",):
        try:
            run = disc_player.launch_disc_application(name)
        except ApplicationRejectedError:
            continue
        injected = any("INJECTED" in line for line in run.console)
        assert not (injected and run.trusted), (name, run.console)


def test_xpath_id_cluster_signature_bars_injected_application(
        disc, trust_store):
    """A ``URI=""`` signature whose XPath keeps one track vouches for
    nothing: the disc authenticates, the injected application is
    barred, and the auditor flags the same scripts as unsigned."""
    image = disc("xpath-id", "injected")
    disc_player = player(trust_store)
    session = disc_player.insert_disc(image)
    assert session.authenticated
    assert not session.whole_document_signed
    with pytest.raises(ApplicationRejectedError, match="not covered"):
        disc_player.launch_disc_application("evil-app")
    scripts = len(list(session.cluster_element.iter("script", NS)))
    findings = Counter(f.rule_id for f in audit(image).findings)
    assert findings["SEC020"] == 2 * scripts   # each script and its code


def test_xpath_subset_track_signatures_bar_replaced_script(disc,
                                                          trust_store):
    """Track signatures that keep only the submarkups do not vouch for
    the scripts: a script replaced at rest is barred, not run."""
    disc_player = player(trust_store)
    session = disc_player.insert_disc(disc("xpath-subset", "replaced"))
    assert session.authenticated
    assert session.signed_ids == set()
    with pytest.raises(ApplicationRejectedError, match="not covered"):
        disc_player.launch_disc_application("menu")


@pytest.mark.parametrize("scheme", ["code", "script"])
def test_partly_signed_application_is_barred_without_blaming_an_attack(
        disc, trust_store, scheme):
    """CODE and SCRIPT signatures cover a part of each manifest, never
    the manifest: its application is barred as signed only below
    manifest level, while an application injected next to it, which no
    signature reaches into, is still barred as a wrapping attack."""
    clean = player(trust_store)
    assert clean.insert_disc(disc(scheme)).authenticated
    with pytest.raises(ApplicationRejectedError, match=(
            "application 'menu' is not covered by a disc signature as a "
            "whole: only parts of it are signed, below manifest level")
            ) as rejected:
        clean.launch_disc_application("menu")
    assert "attack" not in str(rejected.value)
    injected = player(trust_store)
    assert injected.insert_disc(disc(scheme, "injected")).authenticated
    with pytest.raises(ApplicationRejectedError,
                       match="only parts of it are signed"):
        injected.launch_disc_application("menu")
    with pytest.raises(ApplicationRejectedError, match=(
            "application 'evil-app' is not covered by any disc signature "
            r"\(wrapping attack suspected\)")):
        injected.launch_disc_application("evil-app")


@pytest.mark.parametrize("scheme", ["code", "script"])
def test_signed_part_moved_into_an_injected_application(disc, trust_store,
                                                       scheme):
    """A wrapping move: the menu's signed part and an injected
    application's unsigned one trade places, and the part's ``#id``
    reference still finds it with its digest intact.  Both applications
    are barred.  The injected one holds a signed part, so its message
    names the move as one reading and claims no whole-application
    signature; the menu holds none and is barred as a wrapping
    attack."""
    attacked = inject_wrapped_manifest(disc(scheme), "evil-app",
                                       payload='player.log("INJECTED");')
    cluster = attacked.cluster_element()
    evil, menu = app_tracks(cluster)[:2]
    signed = next(menu.iter(scheme, NS))
    unsigned = next(evil.iter(scheme, NS))
    menu_side, evil_side = signed.parent, unsigned.parent
    slot = element(scheme, NS)
    menu_side.replace(signed, slot)
    evil_side.replace(unsigned, signed)
    menu_side.replace(slot, unsigned)
    attacked.write(attacked.layout.cluster_path(), serialize_bytes(cluster))
    disc_player = player(trust_store)
    assert disc_player.insert_disc(attacked).authenticated
    with pytest.raises(ApplicationRejectedError, match=(
            "application 'evil-app' is not covered by a disc signature as "
            "a whole: only parts of it are signed, below manifest level "
            r"\(a disc signed at that level, or signed parts moved into "
            r"it\)")):
        disc_player.launch_disc_application("evil-app")
    with pytest.raises(ApplicationRejectedError, match=(
            "application 'menu' is not covered by any disc signature "
            r"\(wrapping attack suspected\)")):
        disc_player.launch_disc_application("menu")


def test_manifest_signed_disc_audits_like_the_player_covers(disc,
                                                           trust_store):
    """The auditor reads the manifest entries the player validates, so
    it flags no node the player covers."""
    image = disc("manifest")
    disc_player = player(trust_store)
    session = disc_player.insert_disc(image)
    assert session.authenticated
    assert {t.get("Id") for t in session.cluster_element.iter("track", NS)} \
        <= session.signed_ids
    result = audit(image)
    assert not {"SEC020", "SEC021"} & {f.rule_id for f in result.findings}
    assert disc_player.launch_disc_application("menu").console[0] \
        .startswith("menu:")


def runs_trusted(disc_player: DiscPlayer, name: str) -> bool:
    try:
        return disc_player.launch_disc_application(name).trusted
    except ApplicationRejectedError:
        return False


def digested(reference: Reference, image: DiscImage, cluster,
             signer: Signer) -> Reference:
    context = ReferenceContext(root=cluster, resolver=image.resolver)
    reference.digest_value = compute_reference_digest(reference, context,
                                                      signer.provider)
    return reference


def test_decoy_manifest_in_a_signature_object_covers_nothing(
        disc, pki, trust_store):
    """A ds:Object planted first in the signature, naming a decoy
    ds:Manifest whose one entry digests correctly, does not stand in
    for the signed manifest: the player validates the entries of the
    manifest its coverage map reads, so a replaced script stays
    untrusted."""
    image = disc("manifest", "replaced")
    cluster = image.cluster_element()
    signature = cluster.first_child("Signature", DSIG_NS)
    stream = next(image.layout.path_to_uri(p) for p in image.paths()
                  if p.endswith(image.layout.stream_extension))
    signer = Signer(pki.studio.key, identity=pki.studio)
    decoy = build_manifest_element(
        [digested(Reference(uri=stream), image, cluster, signer)], "decoy")
    planted = element("ds:Object", DSIG_NS)
    planted.append(Reference(uri="#decoy", transforms=[Transform(C14N)],
                             reference_type=MANIFEST_TYPE).to_element())
    planted.append(decoy)
    signature.insert(0, planted)
    image.write(image.layout.cluster_path(), serialize_bytes(cluster))
    disc_player = player(trust_store)
    session = disc_player.insert_disc(image)
    assert all(report.valid for report in session.signature_reports.values())
    assert not session.authenticated
    assert not runs_trusted(disc_player, "menu")


def test_every_manifest_a_signature_names_is_validated(pki, trust_store):
    """SignedInfo names two manifests; the menu's track is listed only
    in the second.  Its script replaced at rest fails that manifest's
    check, so the disc is not authenticated and the menu stays
    untrusted."""
    image = master("two-manifests")
    cluster = image.cluster_element()
    signer = Signer(pki.studio.key, identity=pki.studio)
    tracks = app_tracks(cluster)
    for manifest_id, listed in (("m1", tracks[1:]), ("m2", tracks[:1])):
        cluster.append(build_manifest_element([digested(Reference(
            uri=f"#{track.get('Id')}", transforms=[Transform(C14N)],
            digest_method=signer.digest_method), image, cluster, signer)
            for track in listed], manifest_id))
    signer.sign_references([
        Reference(uri=f"#{manifest_id}", transforms=[Transform(C14N)],
                  digest_method=signer.digest_method,
                  reference_type=MANIFEST_TYPE)
        for manifest_id in ("m1", "m2")], parent=cluster)
    image.write(image.layout.cluster_path(), serialize_bytes(cluster))
    clean = player(trust_store)
    session = clean.insert_disc(image)
    assert session.authenticated
    assert tracks[0].get("Id") in session.signed_ids
    assert clean.launch_disc_application("menu").console[0] \
        .startswith("menu:")
    replaced = player(trust_store)
    assert not replaced.insert_disc(attack(image, "replaced")).authenticated
    assert not runs_trusted(replaced, "menu")
