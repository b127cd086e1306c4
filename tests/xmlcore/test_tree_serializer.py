"""Tree manipulation and plain serialization round trips."""

import pytest

from repro.errors import NamespaceError, ReferenceError_, XMLError
from repro.xmlcore import (
    C14N, canonicalize, element, parse_element, serialize,
    serialize_bytes,
)
from repro.xmlcore.tree import Comment, Document, Element, Text


def test_element_builder():
    node = element(
        "app:manifest", "urn:app", nsmap={"app": "urn:app"},
        attrs={"Id": "m1"}, text="body",
    )
    assert node.qname == "app:manifest"
    assert node.get("Id") == "m1"
    assert node.text_content() == "body"


def test_append_reparents():
    a = Element("a")
    b = Element("b")
    child = Element("c")
    a.append(child)
    b.append(child)
    assert child.parent is b
    assert not a.children


def test_replace_and_insert():
    root = parse_element("<r><a/><b/><c/></r>")
    a, b, c = root.child_elements()
    new = Element("x")
    root.replace(b, new)
    assert [e.local for e in root.child_elements()] == ["a", "x", "c"]
    assert b.parent is None
    root.insert(0, Element("first"))
    assert root.child_elements()[0].local == "first"


def test_attribute_name_forms():
    root = parse_element('<r xmlns:p="urn:p" plain="1" p:scoped="2"/>')
    assert root.get("plain") == "1"
    assert root.get("p:scoped") == "2"
    assert root.get("{urn:p}scoped") == "2"
    assert root.get("missing") is None
    assert root.get("missing", "dflt") == "dflt"
    root.set("{urn:p}other", "3")
    assert root.get("p:other") == "3"
    assert root.delete_attr("plain")
    assert not root.delete_attr("plain")


def test_set_with_unbound_prefix_fails():
    root = Element("r")
    with pytest.raises(NamespaceError):
        root.set("nope:attr", "x")


def test_in_scope_namespaces_and_resolution():
    root = parse_element(
        '<r xmlns="urn:d" xmlns:a="urn:a"><c xmlns:b="urn:b"/></r>'
    )
    child = root.child_elements()[0]
    scope = child.in_scope_namespaces()
    assert scope[None] == "urn:d"
    assert scope["a"] == "urn:a"
    assert scope["b"] == "urn:b"
    assert child.resolve_prefix("a") == "urn:a"
    assert child.resolve_prefix("nope") is None
    assert child.prefix_for("urn:b") == "b"


def test_element_by_id():
    root = parse_element('<r><a Id="one"/><b id="two"/><c ID="three"/></r>')
    assert root.element_by_id("one").local == "a"
    assert root.element_by_id("two").local == "b"
    assert root.element_by_id("three").local == "c"
    assert root.element_by_id("nope") is None
    # One element with two Id attributes of one value is not ambiguous.
    assert parse_element('<r><a Id="x" id="x"/></r>') \
        .element_by_id("x").local == "a"


def test_element_by_id_refuses_a_duplicate():
    """Every Id lookup refuses an Id two elements carry (wrapping)."""
    root = parse_element('<r><a Id="x"/><b><c id="x"/></b></r>')
    with pytest.raises(ReferenceError_, match="duplicate Id 'x'"):
        root.element_by_id("x")
    assert [e.local for e in root.id_index()["x"]] == ["a", "c"]
    assert root.find("b").element_by_id("x").local == "c"


def test_iter_and_find():
    root = parse_element(
        '<r xmlns:a="urn:a"><x/><a:x/><y><x/></y></r>'
    )
    assert len(root.findall("x")) == 3
    assert len(root.findall("x", "urn:a")) == 1
    assert root.first_child("y").local == "y"
    assert root.first_child("nope") is None


def test_detached_copy_pins_namespaces():
    root = parse_element('<r xmlns:a="urn:a"><a:c><a:gc/></a:c></r>')
    sub = root.child_elements()[0].detached_copy()
    assert sub.parent is None
    assert canonicalize(sub) == canonicalize(root.child_elements()[0])


def test_document_constraints():
    doc = Document(Element("root"))
    with pytest.raises(XMLError):
        doc.append(Element("second-root"))
    with pytest.raises(XMLError):
        doc.append(Text("loose text"))
    doc.append(Comment("fine"))
    assert doc.root.local == "root"
    with pytest.raises(XMLError):
        Document().root


def test_serializer_roundtrip_preserves_canonical_form():
    source = (
        '<r xmlns="urn:d" xmlns:a="urn:a" a:x="1">'
        "<c>text &amp; more</c><a:c attr='\"'/>"
        "<!-- note --><?pi data?></r>"
    )
    root = parse_element(source)
    again = parse_element(serialize(root))
    assert canonicalize(again, C14N) == canonicalize(root, C14N)


def test_serializer_auto_declares_missing_namespaces():
    node = element("x:leaf", "urn:x")  # no nsmap declared
    text = serialize(node)
    assert 'xmlns:x="urn:x"' in text
    assert parse_element(text).ns_uri == "urn:x"


def test_serialize_bytes_has_declaration():
    payload = serialize_bytes(Element("r"))
    assert payload.startswith(b"<?xml")


def test_pretty_print_reparses_equal():
    root = parse_element(
        "<cluster><track><playlist/></track><track/></cluster>"
    )
    pretty = serialize(root, pretty=True)
    assert "\n" in pretty
    reparsed = parse_element(pretty)
    assert len(reparsed.findall("track")) == 2


def test_cdata_preserved_by_serializer():
    root = parse_element("<r><![CDATA[a < b]]></r>")
    assert "<![CDATA[a < b]]>" in serialize(root)


def test_text_content_concatenation():
    root = parse_element("<r>a<b>b</b>c<d><e>d</e></d></r>")
    assert root.text_content() == "abcd"


# -- revision stamps of a parsed tree ----------------------------------------

STAMPED = (
    '<?pi x?><root xmlns="urn:x" xmlns:p="urn:p"><!--c--><a Id="a" p:k="v">'
    "<b>leaf</b><c/>t&amp;u<d><![CDATA[raw]]><?q?></d></a>"
    "<é>non-ascii</é><f a=\"x&#10;y\">\n</f></root><!--after-->"
)


def _walk(node):
    yield node
    for child in getattr(node, "children", ()):
        yield from _walk(child)


def test_parsed_nodes_carry_fresh_stamps_ordered_to_the_root():
    """The parser links children without ``append`` and stamps each
    element when it closes: every node's stamp is newer than anything
    before the parse, and no node's stamp is newer than its parent's,
    as if each had been appended through the tree API."""
    from repro.xmlcore import parse_document
    from repro.xmlcore.tree import fresh_stamp

    before = fresh_stamp()
    document = parse_document(STAMPED)
    nodes = list(_walk(document))
    assert len(nodes) == 17
    for node in nodes:
        assert node.revision > before
        if node.parent is not None:
            assert node.revision <= node.parent.revision
    for element in document.root.iter():
        for child in element.children:
            if isinstance(child, Element):
                # Closed (and stamped) after everything inside it.
                assert all(n.revision <= child.revision
                           for n in _walk(child))


def test_mutating_a_parsed_tree_restamps_the_path_to_the_root():
    from repro.xmlcore import parse_document

    document = parse_document(STAMPED)
    leaf = document.root.find("b").children[0]
    path = [leaf, leaf.parent, leaf.parent.parent, document.root, document]
    newest = max(n.revision for n in _walk(document))
    sibling = document.root.find("c")
    sibling_stamp = sibling.revision
    leaf.data = "changed"
    assert all(node.revision > newest for node in path)
    assert sibling.revision == sibling_stamp
