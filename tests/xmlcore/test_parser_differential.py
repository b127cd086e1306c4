"""The XML front end against pinned parses.

A seeded corpus of documents goes through :func:`parse_document`:

* the documents the other tests build (:mod:`parser_corpus`);
* ``examples/artifacts/**/*.xml``, read as bytes;
* perfbench-shaped signed disc clusters and sealed bonus packages;
* generated well-formed documents (namespaces and undeclarations,
  references, CDATA, comments, PIs, CRLF, non-ASCII names and text);
* ill-formed mutations of those, random and targeted (truncation, bad
  names, duplicate attributes, undeclared prefixes, illegal
  characters, ``]]>``, mismatched tags), and hand-written ones.

Each entry has two SHA-256 pins in ``parser_pins.json``.  The parse pin
hashes the tree dump, the :func:`serialize` output and the inclusive and
exclusive C14N output of a well-formed entry, or the error type,
message, line and column of an ill-formed one.  The trip pin sweeps
each parse-time :class:`ResourceLimits` field on its own: it bisects
for the smallest limit that lets the entry through and records the
outcome (``limit_name``, ``limit``, ``actual`` of the first trip, or
the error, or the node count) at that boundary and at spread limits
below it.

The pins were recorded from the character-at-a-time element parser
that the token-regex element loop replaced.  The entries in
:data:`REPINNED` were re-pinned since, each for a fault of that
parser: the ``charref-*`` entries hold character references it
accepted against XML 1.0 production [66] (``int()`` took signs,
``_``, spaces and non-ASCII digits, and ``&#X`` passed for ``&#x``),
which now raise the "bad character reference" error at the ``&``, as
does the ``&#X41;`` among the well-formed references of
``handwritten-23``; ``mutated-170`` and ``mutated-194`` end right
after an attribute's ``=``, where it leaked a ``KeyError``, and now
raise "attribute value must be quoted".
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
import random

import pytest

from repro.errors import ReproError, ResourceLimitExceeded
from repro.resilience import ResourceGuard, ResourceLimits
from repro.xmlcore import (
    C14N_WITH_COMMENTS, EXC_C14N, Comment, Element, ProcessingInstruction,
    Text, canonicalize, parse_document, serialize,
)

from tests.xmlcore.parser_corpus import TEST_DOCUMENTS

PINS_PATH = pathlib.Path(__file__).with_name("parser_pins.json")
ARTIFACTS = pathlib.Path(__file__).resolve().parents[2] / "examples" / \
    "artifacts"

CORPUS_SEED = 20050902
GENERATED = 120
MUTATED = 240

#: The parse-time quotas the trip pin sweeps.
SWEPT_LIMITS = (
    "max_input_bytes", "max_element_depth", "max_node_count",
    "max_attributes_per_element", "max_text_bytes",
)

#: Malformed character references: XML 1.0 [66] allows only
#: ``&#[0-9]+;`` and ``&#x[0-9a-fA-F]+;``.
BAD_CHARREFS = ("&#x4_1;", "&#+65;", "&#x 41;", "&#65 ;", "&#٦٥;",
                "&#X41;")

#: Entries re-pinned after the recording (see the module docstring).
REPINNED = frozenset(
    [f"charref-text-{i}" for i in range(len(BAD_CHARREFS))]
    + [f"charref-attr-{i}" for i in range(len(BAD_CHARREFS))]
    + ["handwritten-23", "mutated-170", "mutated-194"]
)

# -- generated documents ------------------------------------------------------

ASCII_NAMES = ("a", "item", "x-y", "n.1", "_u", "seq", "Region", "b2")
UNICODE_NAMES = ("café", "名前", "Ωμέγα", "aé", "éa", "x·y")
URIS = ("urn:d", "urn:p", "urn:q", "http://example.com/ns#", "urn:a&b")
TEXTS = (
    "plain", "two words", "a &amp; b", "x &lt; y", "1 &gt; 0", "a > b",
    "]] ok", "]", "tab\there", "line1\r\nline2", "cr\ronly", "Grüße, 世界",
    "&#65;&#x42;&#x1F600;", "&apos;&quot;", "  ", "\n", "é&#xE9;é",
    "for (i = 0; i &lt; 3; i++) {}", "]]&gt;", "]&#93;>",
)
ATTR_VALUES = (
    "1", "", "one\ttwo\nthree", "a&amp;b", "&lt;&gt;", "x > y", "é",
    "&#x9;&#10;&#13;", "&quot;q&apos;", "名", "  spaced  ", "#id-1",
)
MUTATION_CHARS = "<>&;\"'=/:]![-?x1 \té\x01￾"


class DocumentGenerator:
    """Random well-formed documents over the parser's whole surface."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def pick(self, options):
        return options[self.rng.randrange(len(options))]

    def document(self) -> str:
        rng = self.rng
        parts = []
        if rng.random() < 0.4:
            parts.append(self.pick((
                '<?xml version="1.0"?>',
                "<?xml version='1.0' encoding='UTF-8'?>\n",
            )))
        for _ in range(rng.randint(0, 2)):
            parts.append(self.misc())
        if rng.random() < 0.15:
            parts.append(self.pick((
                "<!DOCTYPE r>", "<!DOCTYPE r [<!ELEMENT r ANY>]>\n",
                '<!DOCTYPE r SYSTEM "r.dtd">',
            )))
        parts.append(self.element(0, {}))
        for _ in range(rng.randint(0, 2)):
            parts.append(self.misc())
        return "".join(parts)

    def misc(self) -> str:
        return self.pick((
            "<!-- note -->", "<?app do-it?>", "<?pi?>", "\n", " ",
            "<!--é-->", "<?t  spaced data ?>",
        ))

    def name(self, scope: dict) -> str:
        rng = self.rng
        local = self.pick(UNICODE_NAMES) if rng.random() < 0.15 \
            else self.pick(ASCII_NAMES)
        prefixes = [p for p in scope if p]
        if prefixes and rng.random() < 0.3:
            return f"{self.pick(prefixes)}:{local}"
        return local

    def ws(self) -> str:
        return self.pick((" ", " ", " ", "  ", "\n  ", "\t", "\r\n "))

    def start_tag(self, scope: dict) -> tuple[str, str, dict]:
        rng = self.rng
        scope = dict(scope)
        decls = []
        if rng.random() < 0.25:
            prefix = self.pick(("p", "q", "ns1"))
            uri = self.pick(URIS)
            decls.append(f'xmlns:{prefix}="{uri.replace("&", "&amp;")}"')
            scope[prefix] = uri
        if rng.random() < 0.2:
            uri = self.pick(URIS + ("",))
            decls.append(f'xmlns="{uri.replace("&", "&amp;")}"')
        qname = self.name(scope)
        attrs = list(decls)
        used = set()
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3, 5))):
            attr = self.name(scope)
            if attr in used:
                continue
            used.add(attr)
            value = self.pick(ATTR_VALUES)
            quote = self.pick(('"', "'"))
            if quote == "'":
                value = value.replace("'", "&apos;")
            else:
                value = value.replace('"', "&quot;")
            attrs.append(f"{attr}{self.pick(('=', ' = ', '='))}"
                         f"{quote}{value}{quote}")
        if rng.random() < 0.1:
            attrs.append('xml:lang="en"')
        text = "".join(self.ws() + a for a in attrs)
        if rng.random() < 0.1:
            text += self.ws()
        return f"<{qname}{text}", qname, scope

    def element(self, depth: int, scope: dict) -> str:
        rng = self.rng
        opening, qname, scope = self.start_tag(scope)
        if rng.random() < 0.2 or depth > 4:
            return opening + self.pick(("/>", " />"))
        content = []
        for _ in range(rng.randint(0, 4)):
            kind = rng.random()
            if kind < 0.4 and depth < 5:
                content.append(self.element(depth + 1, scope))
            elif kind < 0.75:
                content.append(self.pick(TEXTS))
            elif kind < 0.83:
                content.append(self.pick((
                    "<![CDATA[<raw> & ]]]>", "<![CDATA[]]>",
                    "<![CDATA[x]y]]>", "<![CDATA[é\n]]>",
                )))
            elif kind < 0.91:
                content.append(self.pick(("<!-- c -->", "<!---->",
                                          "<!-- a-b -->")))
            else:
                content.append(self.pick(("<?pi data?>", "<?pi?>",
                                          "<?x-y   z?>")))
        close = self.pick(("", "", " ", "\n"))
        return f"{opening}>{''.join(content)}</{qname}{close}>"


def mutate(rng: random.Random, source: str) -> str:
    """*source* with one edit: random, or aimed at one error class."""
    if not source:
        return source
    at = rng.randrange(len(source))
    edit = rng.randrange(10)
    if edit == 0:
        return source[:at]
    if edit == 1:
        return source[:at] + source[at + 1:]
    if edit == 2:
        return source[:at] + rng.choice(MUTATION_CHARS) + source[at:]
    if edit == 3:
        return source[:at] + source[at + 1:at + 2] + \
            source[at:at + 1] + source[at + 2:]
    if edit == 4:
        # A bad name, including a local part that is not a name.
        bad = rng.choice(("a:1b", "1a", "-x", "a:", ":a", "a:b:c", "é:1"))
        start = source.find("<", at)
        if start < 0 or start + 1 >= len(source) or \
                source[start + 1] in "/!?":
            return source[:at] + f"<{bad}/>" + source[at:]
        return source[:start + 1] + bad + source[start + 1:]
    if edit == 5:
        # Duplicate an attribute, or give one the same expanded name.
        start = source.find("<", at)
        end = source.find(">", start)
        if start < 0 or end < 0 or source[start + 1:start + 2] in "/!?":
            return source + '<d a="1" a="2"/>'
        tail = "/" if source[end - 1] == "/" else ""
        body = source[start:end - len(tail)]
        return source[:start] + body + rng.choice((
            ' x="1" x="2"', ' xmlns:p="urn:p" p:x="1" xmlns:q="urn:p" '
            'q:x="2"', ' x="1"x="2"',
        )) + tail + source[end:]
    if edit == 6:
        # An undeclared prefix on an element or attribute.
        start = source.find("<", at)
        if start < 0 or source[start + 1:start + 2] in "/!?":
            return "<zz:r/>" + source
        return source[:start + 1] + "zz:" + source[start + 1:]
    if edit == 7:
        return source[:at] + rng.choice(
            ("\x00", "\x01", "\x0b", "￾", "￿", "\ud800")) + \
            source[at:]
    if edit == 8:
        return source[:at] + rng.choice(("]]>", "]]&gt;", "]]]>")) + \
            source[at:]
    # A mismatched end tag.
    start = source.find("</", at)
    if start < 0:
        start = source.rfind("</")
    if start < 0:
        return source + "</extra>"
    return source[:start + 2] + "m" + source[start + 2:]


#: Hand-written inputs: one per error class of the parser, prolog and
#: trailer forms, and the quota-shaped ones.
HANDWRITTEN = (
    "<a:1b/>", "<p:a xmlns:p='urn:p'><p:1b/></p:a>", "<a 1b='x'/>",
    "<a b:1c='x' xmlns:b='urn:b'/>", "<a xmlns:='urn:x'/>",
    "<a xmlns:p=''/>", "<a xmlns:xmlns='urn:x'/>",
    "<a xmlns:xml='http://www.w3.org/XML/1998/namespace'/>",
    "<a xml:lang='en'/>", "<é/>", "<aé b='1'/>", "<a·/>", "<·a/>",
    "<a>&#0;</a>", "<a>&#x110000;</a>", "<a>&#xD800;</a>",
    "<a>&#99999999999999999999;</a>", "<a>&#;</a>", "<a>&#x;</a>",
    "<a>&#65</a>", "<a>&amp</a>", "<a>&nbsp;</a>", "<a>& b</a>",
    "<a>&#65;&#x41;&#X41;&#0065;&#x0041;</a>", "<a b='&#x41;&#65;'/>",
    "<a b='x<y'/>", "<a b=x/>", "<a b='x/>", '<a b="x\'/>', "<a b/>",
    "<a b='1' b='1'/>", "<a\tb='1'\nc='2'\r\nd='3'/>", "<a b='1'c='2'/>",
    "<a>]]></a>", "<a>]]]></a>", "<a>]&#93;></a>", "<a>]]&gt;</a>",
    "<a><![CDATA[x]]></a>", "<a><![CDATA[x</a>", "<a><!-- x -- y --></a>",
    "<a><!-- x ---></a>", "<a><!-- x</a>", "<a><?xml bad?></a>",
    "<a><?XmL bad?></a>", "<a><?pi x</a>", "<a><?1pi?></a>", "<a><?pi?></a>",
    "<a></b>", "<a><b></a></b>", "<a></a >", "<a></a\n>", "<a></ a>",
    "<a>", "<a", "<", "", "   ", "text", "<a/><b/>", "<a/>text",
    "<a/><!--c--><?p?>\n", "<?xml version='1.0'?><a/>",
    "<?xml version='1.0'", "<!DOCTYPE a><!DOCTYPE a><a/>",
    "<!DOCTYPE a [<!ENTITY e 'x'>]><a>&e;</a>", "<!DOCTYPE a [", "<!DOC",
    "<!-- c --><a/>", "<?pi?><a/>", "﻿<a/>", "<a>\x01</a>",
    "<a b='\x01'/>", "<a>￾</a>", "<a>x\r\ny\rz</a>",
    "<a b='1\r\n2\r3'/>", "<a><b/><c/></a >", "<a:b xmlns:a='urn:a'/>",
    "<a xmlns='urn:d'><b xmlns=''><c/></b></a>",
    "<a xmlns:p='urn:p'><p:b p:c='1' c='2'/></a>",
    "<a xmlns:p='urn:p' xmlns:q='urn:p'><b p:c='1' q:c='2'/></a>",
    "<a><b xmlns:p='urn:p'/><p:c/></a>", "<p:a/>", "<a p:b='1'/>",
    "<a></a><", "<a>" + "x" * 300 + "&amp;" + "y" * 300 + "</a>",
    "<a b='" + "v" * 500 + "&lt;" + "w" * 20 + "'/>",
    "<r>" + "<a>" * 60 + "t" + "</a>" * 60 + "</r>",
    "<r " + " ".join(f"a{i}='{i}'" for i in range(40)) + "/>",
    "<r>" + "<i/>text<!--c--><?p?><![CDATA[d]]>" * 30 + "</r>",
    "<r>a > b > c ]> ]]x > </r>",
)


def charref_entries() -> list[tuple[str, str]]:
    entries = []
    for i, ref in enumerate(BAD_CHARREFS):
        entries.append((f"charref-text-{i}", f"<r>x{ref}y</r>"))
        entries.append((f"charref-attr-{i}", f"<r a='x{ref}y'/>"))
    return entries


def perfbench_documents(pki) -> list[tuple[str, bytes]]:
    """Signed disc clusters and sealed packages shaped like the
    perfbench inputs: 20-120 line scripts whose loops carry ``&lt;``,
    layout and timing submarkups, TRACK-level signatures."""
    from repro.core import AuthoringPipeline, ProtectionLevel, \
        disc_security
    from repro.disc import ApplicationManifest, DiscAuthor
    from repro.dsig import Signer
    from repro.primitives.random import DeterministicRandomSource
    from repro.primitives.rsa import generate_keypair
    from repro.xmlcore import parse_element

    layout = (
        '<layout xmlns="urn:bda:bdmv:interactive-cluster">'
        '<root-layout width="1920" height="1080"/>'
        '<region regionName="main" width="1920" height="880"/>'
        "</layout>"
    )
    timing = (
        '<seq xmlns="urn:bda:bdmv:interactive-cluster">'
        '<video src="bd://BDMV/STREAM/00001.m2ts" region="main"/>'
        '<par><img src="bd://BDMV/AUXDATA/banner.png" region="main" '
        'begin="1s" dur="4s"/></par></seq>'
    )

    def application(rng, name, lines):
        app = ApplicationManifest(name)
        app.add_submarkup("layout", parse_element(layout))
        app.add_submarkup("timing", parse_element(timing))
        items = "".join(f'<item v="{rng.randrange(10_000)}"/>'
                        for _ in range(rng.randint(1, 4)))
        app.add_submarkup("aux-0", parse_element(
            '<aux xmlns="urn:bda:bdmv:interactive-cluster" n="0">'
            f"{items}</aux>"))
        body = ["var acc = 17;",
                "function step(x, k) { return (x * 31 + k) % 1000003; }"]
        while len(body) < lines:
            if rng.random() < 0.2:
                body.append(f"for (var i = 0; i < {rng.randint(2, 6)}; "
                            "i = i + 1) { acc = step(acc, i); }")
            else:
                body.append(f"acc = step(acc, {rng.randrange(1000)});")
        body.append(f'player.log("{name}:" + acc);')
        app.add_script("\n".join(body) + "\n")
        return app

    documents = []
    signer = Signer(pki.studio.key, identity=pki.studio)
    for index, apps in enumerate((8, 3)):
        rng = random.Random(f"{CORPUS_SEED}:disc:{index}")
        disc = DiscAuthor(f"Title {index}")
        clip = disc.add_clip(6.0, stream=bytes(188 * 4))
        disc.add_feature("feature", [clip])
        for k in range(apps):
            disc.add_application(application(
                rng, "menu" if k == 0 else f"app{k}",
                rng.randint(20, 120)))
        image = disc.master()
        disc_security.sign_disc_image(
            image, signer, level=ProtectionLevel.TRACK,
            include_streams=True)
        documents.append((f"perfbench-cluster-{index}",
                          image.read(image.cluster_path())))
    device_key = generate_keypair(
        1024, DeterministicRandomSource(b"parser-corpus-device"))
    for index in range(2):
        rng = random.Random(f"{CORPUS_SEED}:bonus:{index}")
        app = application(rng, "bonus", rng.randint(20, 120))
        pipeline = AuthoringPipeline(
            pki.studio, recipient_key=device_key.public_key(),
            rng=DeterministicRandomSource(
                f"parser-corpus-seal:{index}".encode()))
        documents.append((
            f"perfbench-package-{index}",
            pipeline.build_package(app, encrypt_ids=(app.code_id,)).data,
        ))
    return documents


def corpus(pki) -> list[tuple[str, str | bytes]]:
    """``(name, source)`` for every entry, in a fixed order."""
    rng = random.Random(CORPUS_SEED)
    generator = DocumentGenerator(rng)
    generated = [generator.document() for _ in range(GENERATED)]
    entries: list[tuple[str, str | bytes]] = []
    entries += [(f"test-{i}", doc) for i, doc in enumerate(TEST_DOCUMENTS)]
    entries += [
        (f"artifact-{path.relative_to(ARTIFACTS).as_posix()}",
         path.read_bytes())
        for path in sorted(ARTIFACTS.rglob("*.xml"))
    ]
    entries += perfbench_documents(pki)
    entries += [(f"generated-{i}", doc) for i, doc in enumerate(generated)]
    entries += [(f"generated-bytes-{i}", doc.encode("utf-8"))
                for i, doc in enumerate(generated[:10])]
    pool = generated + list(TEST_DOCUMENTS)
    entries += [(f"mutated-{i}", mutate(rng, rng.choice(pool)))
                for i in range(MUTATED)]
    entries += [(f"handwritten-{i}", doc)
                for i, doc in enumerate(HANDWRITTEN)]
    entries += charref_entries()
    entries += [("bytes-bad-utf8", b"<r>\xff\xfe</r>"),
                ("bytes-bom", "﻿<r>héllo</r>".encode("utf-8"))]
    return entries


# -- transcripts ---------------------------------------------------------------


def dump(node, out: list[str], depth: int = 0) -> None:
    pad = " " * depth
    if isinstance(node, Element):
        out.append(f"{pad}E {node.prefix!r} {node.local!r} {node.ns_uri!r} "
                   f"{sorted(node.ns_decls.items(), key=repr)!r}")
        for attr in node.attrs:
            out.append(f"{pad} @ {attr.prefix!r} {attr.local!r} "
                       f"{attr.ns_uri!r} {attr.value!r}")
        for child in node.children:
            dump(child, out, depth + 1)
    elif isinstance(node, Text):
        out.append(f"{pad}T {node.is_cdata} {node.data!r}")
    elif isinstance(node, Comment):
        out.append(f"{pad}C {node.data!r}")
    elif isinstance(node, ProcessingInstruction):
        out.append(f"{pad}P {node.target!r} {node.data!r}")
    else:
        out.append(f"{pad}? {type(node).__name__}")


def describe(exc: BaseException) -> str:
    return (f"{type(exc).__name__}: {exc} "
            f"@{getattr(exc, 'line', None)}:{getattr(exc, 'column', None)}")


def parse_transcript(source: str | bytes) -> list[str]:
    guard = ResourceGuard()
    try:
        document = parse_document(source, guard=guard)
    except Exception as exc:
        return [describe(exc)]
    out = [f"nodes {guard.node_count}"]
    for child in document.children:
        dump(child, out)
    for render in (
        lambda: serialize(document),
        lambda: canonicalize(document, C14N_WITH_COMMENTS).decode(),
        lambda: canonicalize(document, EXC_C14N).decode(),
    ):
        try:
            out.append(render())
        except ReproError as exc:
            out.append(describe(exc))
    return out


def outcome(source: str | bytes, name: str, limit: int) -> str:
    guard = ResourceGuard(ResourceLimits.unlimited().replace(
        **{name: limit}))
    try:
        parse_document(source, guard=guard)
    except ResourceLimitExceeded as exc:
        return f"trip {exc.limit_name} {exc.limit:g} {exc.actual:g}"
    except Exception as exc:
        return describe(exc)
    return f"ok {guard.node_count}"


def trip_transcript(source: str | bytes) -> list[str]:
    """Outcomes of a sweep of each parse-time quota on its own."""
    out = []
    for name in SWEPT_LIMITS:
        # Every counter is bounded by the input length, so a limit of
        # len(source) never trips; bisect down to the boundary.
        low, high = 0, len(source)
        while low < high:
            middle = (low + high) // 2
            if outcome(source, name, middle).startswith("trip "):
                low = middle + 1
            else:
                high = middle
        need = low
        points = {0, 1, 2, need - 1, need}
        points.update(need * k // 8 for k in range(1, 8))
        for limit in sorted(p for p in points if p >= 0):
            out.append(f"{name}={limit}: {outcome(source, name, limit)}")
    return out


def digest(parts: list[str]) -> str:
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


def pins() -> dict[str, list[str]]:
    return json.loads(PINS_PATH.read_text())


@pytest.fixture(scope="module")
def entries(pki):
    # Disc, track and manifest Ids come from process-wide counters:
    # restart them, so the perfbench-shaped documents do not depend on
    # which tests ran before.
    from repro.disc import hierarchy, manifest
    from repro.dsig import manifest as dsig_manifest

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hierarchy, "_track_ids", itertools.count(1))
        patch.setattr(manifest, "_ids", itertools.count(1))
        patch.setattr(dsig_manifest, "_ids", itertools.count(1))
        return corpus(pki)


# -- tests ---------------------------------------------------------------------


def test_corpus_covers_the_front_end(entries):
    names = [name for name, _ in entries]
    assert len(names) == len(set(names))
    assert set(names) == set(pins())
    outcomes = [parse_transcript(source)[0] for _, source in entries]
    well_formed = sum(o.startswith("nodes ") for o in outcomes)
    assert well_formed > 250 and len(outcomes) - well_formed > 200
    clusters = [source for name, source in entries
                if name.startswith("perfbench-cluster-")]
    assert max(len(c) for c in clusters) >= 20_000
    assert all(b"&lt;" in c for c in clusters)


def test_parse_pins_match(entries):
    expected = pins()
    changed = [name for name, source in entries
               if digest(parse_transcript(source)) != expected[name][0]]
    assert changed == []


def test_trip_point_pins_match(entries):
    expected = pins()
    changed = [name for name, source in entries
               if digest(trip_transcript(source)) != expected[name][1]]
    assert changed == []


def test_repinned_entries_raise_typed_errors(entries):
    sources = dict(entries)
    for name in sorted(REPINNED):
        first = parse_transcript(sources[name])[0]
        if name.startswith("charref-"):
            assert first.startswith("XMLSyntaxError: bad ")
            assert "character reference" in first
            assert first.endswith("@1:5" if "-text-" in name else "@1:8")
        elif name == "handwritten-23":
            assert first.startswith(
                "XMLSyntaxError: bad character reference &#X41;")
            assert first.endswith("@1:15")
        else:
            assert first.startswith(
                "XMLSyntaxError: attribute value must be quoted")
