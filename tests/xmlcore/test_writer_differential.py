"""The XML writers, the tree copy and the tree walk against pinned output.

A seeded set of trees is built through :func:`element` and the tree
API, with and without ``nsmap``: default namespaces declared, inherited
and undeclared, prefixes bound on the element, by an ancestor or not
at all, plain, prefixed, Clark-named and ``xml:*`` attributes, values
that need escaping, CDATA, comments, PIs, whitespace-only text beside
element children (the ``pretty`` block layout) and mixed content.

* :func:`serialize` (compact, ``pretty``, with and without the XML
  declaration) and :func:`serialize_bytes` of every tree, every
  document around one and every subtree, and the four C14N algorithms
  (and an exclusive ``PrefixList``) of every document, tree and
  subtree at every depth, are pinned by SHA-256, errors included.
* ``Element.copy`` gives a tree with the same dump, a fresh stamp on
  every node and none newer than its parent, and shares nothing
  mutable with its source.
* ``Element.iter`` visits in document order, and what it visits when
  the caller replaces, removes or inserts nodes mid-walk is pinned.
* A tree 5000 elements deep, reachable only with a loosened depth
  quota, walks, copies, serializes and reads its text.
* ``Element.text_content`` reads every element as the recursive
  concatenation of its descendant text nodes did.

The pins were recorded from the recursive serializer, the
per-element namespace computation of the canonicalizer, the
``append``-built copy and the generator-recursion walk that the
one-pass writers, the flat copy and the iterator-stack walk replaced.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.errors import ReproError
from repro.resilience import ResourceGuard, ResourceLimits
from repro.xmlcore import (
    ALL_C14N_ALGORITHMS, EXC_C14N, XML_NS, Comment, Document, Element,
    ProcessingInstruction, Text, canonicalize, element, parse_document,
    serialize, serialize_bytes,
)
from repro.xmlcore import tree as tree_module
from repro.xmlcore.tree import fresh_stamp

SEED = 20240601
TREES = 60

URIS = ("urn:w:one", "urn:w:two", "urn:w:a&b<\"c\">")
PREFIXES = ("p", "q", "r")
LOCALS = ("a", "b", "item", "x-y", "n.1", "_u")
TEXTS = ("plain", "a & b", "<tag>", "x > y", "crlf\r\nend", "tab\tin",
         '"q" \'s\'', "héllo ☃", "]]>", "  ")
ATTR_VALUES = ("v", "a & b", "<lt>", 'say "hi"', "t\tn\nr\r", "]]>",
               "é", "")
WHITESPACE = ("\n", "\n  ", "  ", "\r\n\t")

#: SHA-256 of :func:`serialize_transcript` over the seeded trees.
SERIALIZE_SHA256 = (
    "7675e52d80259ed7cab8f91441e554b7bf33c047ddfc654a58a196522ff33821"
)
#: SHA-256 of :func:`c14n_transcript` over the seeded trees.
C14N_SHA256 = (
    "839b1430dc2e2aae4990035db373f6c247e9a0cfffc16f0ef070df3ad66e8e0e"
)
#: SHA-256 of :func:`iter_transcript`.
ITER_SHA256 = (
    "27925d9081ca429ff8c56c801e5359b52759a8eca1e8cdcc3df8a5a5c536c59b"
)


# -- the seeded trees ----------------------------------------------------------


class TreeBuilder:
    """Builds one random tree through :func:`element` and the tree API."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.serial = 0

    def label(self) -> str:
        self.serial += 1
        return str(self.serial)

    def node(self, depth: int, parent: Element | None) -> Element:
        rng = self.rng
        local = rng.choice(LOCALS)
        uri = rng.choice(URIS)
        prefix = rng.choice(PREFIXES)
        attrs = {"n": self.label()}
        if rng.random() < 0.3:
            attrs["a"] = rng.choice(ATTR_VALUES)
        if rng.random() < 0.2:
            attrs["xml:lang"] = rng.choice(("en", "fr-CA"))
        if rng.random() < 0.1:
            attrs["xml:space"] = "preserve"
        shape = rng.randrange(9)
        if shape == 0:      # no namespace
            el = element(local, attrs=attrs)
        elif shape == 1:    # default namespace, declared
            el = element(local, uri, attrs=attrs, nsmap={None: uri})
        elif shape == 2:    # prefixed, declared, with a prefixed attribute
            attrs[f"{prefix}:k"] = rng.choice(ATTR_VALUES)
            el = element(f"{prefix}:{local}", uri, attrs=attrs,
                         nsmap={prefix: uri})
        elif shape == 3:    # default namespace, never declared
            el = element(local, uri, attrs=attrs)
        elif shape == 4:    # prefixed, never declared
            el = element(f"{prefix}:{local}", uri, attrs=attrs)
        elif shape == 5:    # an explicit default undeclaration
            el = element(local, attrs=attrs, nsmap={None: ""})
        elif shape == 6:    # declarations it does not use
            other = rng.choice(URIS)
            el = element(local, uri, attrs=attrs,
                         nsmap={None: uri, rng.choice(PREFIXES): other})
        elif shape == 7:    # a Clark-named attribute bound on the element
            attrs[f"{{{uri}}}c"] = rng.choice(ATTR_VALUES)
            el = element(local, attrs=attrs, nsmap={prefix: uri})
        else:               # a prefix bound only by the parent's scope
            el = element(local, attrs=attrs)
        if parent is not None:
            parent.append(el)
            if shape == 8 and rng.random() < 0.7:
                bound = [p for p in el.in_scope_namespaces()
                         if p not in (None, "xml")]
                if bound:
                    p = rng.choice(bound)
                    el.set(f"{p}:late", rng.choice(ATTR_VALUES))
                    el.set(f"{{{el.resolve_prefix(p)}}}clark", "c")
        if rng.random() < 0.05:
            el.declare_namespace("xml", XML_NS)
        if depth > 0:
            self.children(el, depth - 1)
        elif rng.random() < 0.6:
            el.append_text(rng.choice(TEXTS))
        return el

    def children(self, el: Element, depth: int) -> None:
        rng = self.rng
        block = rng.random() < 0.5   # whitespace-only text between elements
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(10)
            if block and rng.random() < 0.7:
                el.append(Text(rng.choice(WHITESPACE)))
            if kind < 5:
                self.node(depth, el)
            elif kind == 5 and not block:
                el.append(Text(rng.choice(TEXTS)))
            elif kind == 6 and not block:
                el.append(Text(rng.choice(TEXTS) + " <cdata>",
                               is_cdata=True))
            elif kind == 7:
                el.append(Comment(rng.choice(("note", " spaced ", ""))))
            elif kind == 8:
                el.append(ProcessingInstruction(
                    rng.choice(("pi", "xml-stylesheet")),
                    rng.choice(("", "href='a.css'", "d <x> & y"))))
            else:
                self.node(max(depth - 1, 0), el)
        if block and el.children and rng.random() < 0.7:
            el.append(Text(rng.choice(WHITESPACE)))


def build_trees() -> list[Element]:
    rng = random.Random(SEED)
    return [TreeBuilder(rng).node(rng.randint(0, 5), None)
            for _ in range(TREES)]


def build_documents(trees: list[Element]) -> list[Document]:
    """Documents around copies of the first trees, with PIs and
    comments before and after the root."""
    documents = []
    for index, tree in enumerate(trees[:8]):
        document = Document()
        if index % 2:
            document.append(ProcessingInstruction("xml-stylesheet",
                                                  "href='s.css'"))
        if index % 3:
            document.append(Comment(" before "))
        document.append(tree.copy())
        if index % 4 < 2:
            document.append(Comment("after"))
            document.append(ProcessingInstruction("done"))
        documents.append(document)
    return documents


def elements(root: Element) -> list[Element]:
    """Every element of *root*'s tree, in document order (an explicit
    walk, independent of ``Element.iter``)."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(c for c in reversed(node.children)
                     if isinstance(c, Element))
    return out


# -- transcripts ---------------------------------------------------------------


def attempt(render) -> str:
    try:
        value = render()
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"
    return value.decode("utf-8") if isinstance(value, bytes) else value


def dump(root) -> list[str]:
    out = []
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        pad = " " * depth
        if isinstance(node, (Element, Document)):
            if isinstance(node, Element):
                out.append(
                    f"{pad}E {node.prefix!r} {node.local!r} "
                    f"{node.ns_uri!r} "
                    f"{sorted(node.ns_decls.items(), key=repr)!r}")
                for attr in node.attrs:
                    out.append(f"{pad} @ {attr.prefix!r} {attr.local!r} "
                               f"{attr.ns_uri!r} {attr.value!r}")
            else:
                out.append("D")
            stack.extend((child, depth + 1)
                         for child in reversed(node.children))
        elif isinstance(node, Text):
            out.append(f"{pad}T {node.is_cdata} {node.data!r}")
        elif isinstance(node, Comment):
            out.append(f"{pad}C {node.data!r}")
        else:
            out.append(f"{pad}P {node.target!r} {node.data!r}")
    return out


def serialize_transcript(trees, documents) -> list[str]:
    parts = []
    for node in [*trees, *documents]:
        parts += [
            attempt(lambda: serialize(node)),
            attempt(lambda: serialize(node, pretty=True)),
            attempt(lambda: serialize(node, xml_declaration=True,
                                      pretty=True)),
            attempt(lambda: serialize(node, xml_declaration=True)),
            attempt(lambda: serialize_bytes(node)),
            attempt(lambda: serialize_bytes(node, xml_declaration=False)),
        ]
    for tree in trees:
        for sub in elements(tree)[1:]:
            parts += [attempt(lambda: serialize(sub)),
                      attempt(lambda: serialize(sub, pretty=True))]
    return parts


def c14n_transcript(trees, documents) -> list[str]:
    parts = []
    nodes = [*documents]
    for tree in trees:
        nodes += elements(tree)
    for node in nodes:
        for algorithm in ALL_C14N_ALGORITHMS:
            parts.append(attempt(lambda: canonicalize(node, algorithm)))
        parts.append(attempt(lambda: canonicalize(
            node, EXC_C14N, ("#default", "p", "r"))))
    return parts


def digest(parts: list[str]) -> str:
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


# -- iter under mutation -------------------------------------------------------


def labelled(spec: str) -> Element:
    """A tree from a compact spec: ``a(b(c d) e)`` is ``a`` holding
    ``b`` (holding ``c`` and ``d``) and ``e``; every element carries
    its label in ``n``, and a text node sits before each element."""
    tokens = spec.replace("(", " ( ").replace(")", " ) ").split()
    root = None
    stack: list[Element] = []
    last = None
    for token in tokens:
        if token == "(":
            stack.append(last)
        elif token == ")":
            stack.pop()
        else:
            last = element("e", attrs={"n": token})
            if stack:
                stack[-1].append_text(".")
                stack[-1].append(last)
            else:
                root = last
    return root


def find(root: Element, label: str) -> Element:
    return next(el for el in elements(root) if el.get("n") == label)


def fresh(label: str, kids: str = "") -> Element:
    return labelled(f"{label}({kids})" if kids else label)


def sibling(at: Element, step: int) -> Element:
    """The element *step* places after (or before) *at* among its
    parent's children."""
    siblings = at.parent.child_elements()
    return siblings[siblings.index(at) + step]


#: What the caller does to the tree when the walk yields the node.
MUTATIONS = {
    "replace-next-sibling": lambda root, at: at.parent.replace(
        sibling(at, 1), fresh("E", "E1")),
    "replace-self": lambda root, at: at.parent.replace(at, fresh("S")),
    "remove-self": lambda root, at: at.parent.remove(at),
    "remove-next-sibling": lambda root, at: at.parent.remove(
        sibling(at, 1)),
    "remove-previous-sibling": lambda root, at: at.parent.remove(
        sibling(at, -1)),
    "insert-before-self": lambda root, at: at.parent.insert(
        at.parent.index(at), fresh("I")),
    "insert-after-self": lambda root, at: at.parent.insert(
        at.parent.index(at) + 1, fresh("J", "J1")),
    "append-child": lambda root, at: at.append(fresh("K", "K1")),
    "clear-children": lambda root, at: at.children.clear(),
    "rebind-children": lambda root, at: setattr(
        at, "children", [fresh("R", "R1")]),
    "append-to-root": lambda root, at: root.append(fresh("Z")),
    "move-later-subtree-in": lambda root, at: None
    if at.get("n").startswith("e") else at.append(find(root, "e")),
    "detach-parent": lambda root, at: at.parent.parent.remove(at.parent),
}
MUTATION_TREE = "r(a(a1 a2(a21 a22) b(b1 b2) c) d(d1) e(e1 e2) f)"
MUTATION_POINTS = ("r", "a", "a2", "b", "b1", "c", "d", "d1", "e1")


def walk(root: Element, at: str, mutation, *filters) -> list[str]:
    """The labels the walk yields; *mutation* runs at the first visit
    of *at* (the walk is cut after 200 visits)."""
    seen = []
    done = False
    for node in root.iter(*filters):
        label = node.get("n")
        seen.append(label)
        if label == at and not done:
            done = True
            try:
                mutation(root, node)
            except (ValueError, AttributeError, IndexError) as exc:
                seen.append(f"!{type(exc).__name__}")
        if len(seen) > 200:
            break
    return seen


def iter_transcript() -> list[str]:
    parts = []
    for name, mutation in MUTATIONS.items():
        for at in MUTATION_POINTS:
            root = labelled(MUTATION_TREE)
            parts.append(f"{name}@{at}: {walk(root, at, mutation)}")
    # The name test is applied as each node is reached.
    root = labelled(MUTATION_TREE)
    for node in elements(root):
        if node.get("n").startswith(("a", "e")):
            node.local = "hit"
    parts.append(repr([n.get("n") for n in root.iter("hit")]))
    parts.append(repr(walk(root, "a2", MUTATIONS["append-child"], "hit")))
    return parts


# -- fixtures ------------------------------------------------------------------


@pytest.fixture(scope="module")
def trees():
    return build_trees()


# -- pins ----------------------------------------------------------------------


def test_trees_cover_the_writer_rules(trees):
    all_elements = [el for tree in trees for el in elements(tree)]
    assert len(all_elements) > 300
    text = [serialize(t) for t in trees if attempt(
        lambda t=t: serialize(t)).startswith("<")]
    joined = "".join(text)
    assert 'xmlns=""' in joined and "xml:lang=" in joined
    assert "<![CDATA[" in joined and "<!--" in joined and "<?pi" in joined
    assert any("&amp;" in t and "&quot;" in t for t in text)
    errors = [attempt(lambda t=t: canonicalize(t)) for t in trees]
    assert any(e.startswith("CanonicalizationError") for e in errors)
    assert any(not e.startswith("CanonicalizationError") for e in errors)
    pretty = [serialize(t, pretty=True) for t in trees
              if attempt(lambda t=t: serialize(t)).startswith("<")]
    assert any("\n  <" in p for p in pretty)


def test_serialize_matches_the_recursive_writer(trees):
    documents = build_documents(trees)
    assert digest(serialize_transcript(trees, documents)) == \
        SERIALIZE_SHA256


def test_c14n_matches_the_recorded_canonicalizer(trees):
    documents = build_documents(trees)
    assert digest(c14n_transcript(trees, documents)) == C14N_SHA256


def test_copy_is_an_equal_independent_tree(trees):
    for tree in trees:
        for source in elements(tree):
            before = dump(source)
            revisions = [n.revision for n in elements(source)]
            floor = fresh_stamp()
            clone = source.copy()
            assert clone.parent is None
            assert dump(clone) == before
            stack = [clone]
            while stack:
                node = stack.pop()
                assert node.revision > floor
                if isinstance(node, Element):
                    for child in node.children:
                        assert child.parent is node
                        assert child.revision <= node.revision
                        stack.append(child)
            for original, copied in zip(elements(source), elements(clone)):
                assert original is not copied
                assert original.attrs is not copied.attrs
                assert original.ns_decls is not copied.ns_decls
                assert original.children is not copied.children
                for a, b in zip(original.attrs, copied.attrs):
                    assert a is not b
            # Mutating the clone leaves the source as it was.
            for node in elements(clone):
                node.set("mutated", "yes")
                node.declare_namespace("m", "urn:m")
                node.append(Text("new"))
                for child in node.children:
                    if isinstance(child, (Text, Comment)):
                        child.data = "changed"
            assert dump(source) == before
            assert [n.revision for n in elements(source)] == revisions


def test_document_copy_keeps_the_prolog_and_trailer(trees):
    for document in build_documents(trees):
        assert dump(document.copy()) == dump(document)


def test_iter_visits_in_document_order(trees):
    for tree in trees:
        assert list(tree.iter()) == elements(tree)
        for local in LOCALS:
            assert list(tree.iter(local)) == [
                el for el in elements(tree) if el.local == local]
            for uri in URIS:
                assert list(tree.iter(local, uri)) == [
                    el for el in elements(tree)
                    if el.local == local and el.ns_uri == uri]


def test_iter_under_mutation_matches_the_generator_walk():
    assert digest(iter_transcript()) == ITER_SHA256


# -- depth ---------------------------------------------------------------------


DEEP = 5000


def test_deep_tree_walks_copies_and_serializes():
    source = "<d>" * DEEP + "x" + "</d>" * DEEP
    guard = ResourceGuard(ResourceLimits(max_element_depth=None))
    root = parse_document(source, guard=guard).root
    assert sum(1 for _ in root.iter()) == DEEP
    assert sum(1 for _ in root.iter("d")) == DEEP
    clone = root.copy()
    depth, node = 1, clone
    while node.children and isinstance(node.children[0], Element):
        assert node.children[0].revision <= node.revision
        node = node.children[0]
        depth += 1
    assert depth == DEEP and node.children[0].data == "x"
    assert serialize(clone) == source
    assert serialize(root) == source
    assert serialize_bytes(root) == \
        b'<?xml version="1.0" encoding="UTF-8"?>' + source.encode()
    assert canonicalize(clone) == source.encode()



def recursive_text(node: Element) -> str:
    """``text_content`` as it was written before: a recursion over
    child elements."""
    return "".join(child.data if isinstance(child, Text)
                   else recursive_text(child)
                   for child in node.children
                   if isinstance(child, (Text, Element)))


def test_text_content_matches_the_recursive_reading(trees):
    for tree in trees:
        for node in elements(tree):
            assert node.text_content() == recursive_text(node)


def test_deep_tree_reads_its_text():
    source = "<d>" * DEEP + "x" + "<e>y</e>" + "</d>" * DEEP
    guard = ResourceGuard(ResourceLimits(max_element_depth=None))
    root = parse_document(source, guard=guard).root
    assert root.text_content() == "xy"

# -- the local-name memo -------------------------------------------------------


def test_name_memo_keeps_no_long_name():
    # The memo outlives every document, so a document's long name must
    # not stay alive in it: parsing, copying and building all skip it.
    long_local = "n" * (tree_module._MEMO_NAME_CHARS + 1)
    source = f'<p:{long_local} xmlns:p="urn:p"><p:short/></p:{long_local}>'
    root = parse_document(source).root
    assert root.local == long_local
    root.copy()
    Element(long_local)
    assert long_local not in tree_module._VALID_LOCAL_NAMES
    assert "short" in tree_module._VALID_LOCAL_NAMES
    # A long name is still checked on every use.
    with pytest.raises(ReproError):
        parse_document(f'<p:1{long_local} xmlns:p="urn:p"/>')
    with pytest.raises(ReproError):
        Element("1" + long_local)
