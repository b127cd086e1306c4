"""Well-formedness, namespace processing and parser error reporting."""

import pytest

from repro.errors import XMLSyntaxError
from repro.xmlcore import parse_document, parse_element
from repro.xmlcore.tree import Comment, ProcessingInstruction, Text


def test_basic_document():
    doc = parse_document("<root><child>text</child></root>")
    assert doc.root.local == "root"
    assert doc.root.find("child").text_content() == "text"


def test_xml_declaration_and_doctype_skipped():
    doc = parse_document(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        "<!DOCTYPE root [<!ELEMENT root ANY>]>\n"
        "<root/>"
    )
    assert doc.root.local == "root"


def test_entity_definitions_rejected():
    with pytest.raises(XMLSyntaxError, match="security"):
        parse_document(
            '<!DOCTYPE r [<!ENTITY bomb "boom">]><r>&bomb;</r>'
        )


def test_predefined_entities():
    root = parse_element("<r>&lt;&gt;&amp;&apos;&quot;</r>")
    assert root.text_content() == "<>&'\""


def test_character_references():
    root = parse_element("<r>&#65;&#x42;&#x1F600;</r>")
    assert root.text_content() == "AB\U0001F600"


def test_undefined_entity_rejected():
    with pytest.raises(XMLSyntaxError, match="undefined entity"):
        parse_element("<r>&nbsp;</r>")


def test_illegal_character_reference_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_element("<r>&#0;</r>")
    with pytest.raises(XMLSyntaxError):
        parse_element("<r>&#x110000;</r>")


def test_cdata_section():
    root = parse_element("<r><![CDATA[<not><parsed> & raw]]></r>")
    text = root.children[0]
    assert isinstance(text, Text) and text.is_cdata
    assert text.data == "<not><parsed> & raw"


def test_comments_and_pis_in_content():
    root = parse_element("<r><!-- note --><?app do-it?></r>")
    assert isinstance(root.children[0], Comment)
    pi = root.children[1]
    assert isinstance(pi, ProcessingInstruction)
    assert pi.target == "app" and pi.data == "do-it"


def test_mismatched_tags():
    with pytest.raises(XMLSyntaxError, match="mismatched end tag"):
        parse_document("<a><b></a></b>")


def test_duplicate_attribute_rejected():
    with pytest.raises(XMLSyntaxError, match="duplicate attribute"):
        parse_element('<r a="1" a="2"/>')


def test_namespace_aware_duplicate_rejected():
    with pytest.raises(XMLSyntaxError, match="duplicate attribute"):
        parse_element(
            '<r xmlns:p="urn:x" xmlns:q="urn:x" p:a="1" q:a="2"/>'
        )


def test_same_local_different_ns_allowed():
    root = parse_element(
        '<r xmlns:p="urn:x" xmlns:q="urn:y" p:a="1" q:a="2"/>'
    )
    assert root.get("p:a") == "1"
    assert root.get("q:a") == "2"


def test_undeclared_prefix_rejected():
    with pytest.raises(XMLSyntaxError, match="undeclared prefix"):
        parse_element("<p:root/>")
    with pytest.raises(XMLSyntaxError, match="undeclared prefix"):
        parse_element('<root p:a="1"/>')


def test_namespace_resolution():
    root = parse_element(
        '<r xmlns="urn:d" xmlns:a="urn:a"><a:c/><c/></r>'
    )
    assert root.ns_uri == "urn:d"
    a_child, d_child = root.child_elements()
    assert a_child.ns_uri == "urn:a" and a_child.prefix == "a"
    assert d_child.ns_uri == "urn:d" and d_child.prefix is None


def test_default_ns_does_not_apply_to_attributes():
    root = parse_element('<r xmlns="urn:d" a="1"/>')
    assert root.attrs[0].ns_uri is None


def test_default_namespace_undeclaration():
    root = parse_element('<r xmlns="urn:d"><c xmlns=""><gc/></c></r>')
    child = root.child_elements()[0]
    assert child.ns_uri is None
    assert child.child_elements()[0].ns_uri is None


def test_prefix_undeclaration_rejected_in_xml10():
    with pytest.raises(XMLSyntaxError, match="undeclare"):
        parse_element('<r xmlns:p="urn:x"><c xmlns:p=""/></r>')


def test_attribute_value_normalization():
    root = parse_element('<r a="one\ttwo\nthree"/>')
    assert root.get("a") == "one two three"
    # Character references escape normalization.
    root = parse_element('<r a="one&#x9;two"/>')
    assert root.get("a") == "one\ttwo"


def test_crlf_normalization():
    root = parse_element("<r>line1\r\nline2\rline3</r>")
    assert root.text_content() == "line1\nline2\nline3"


def test_lt_in_attribute_rejected():
    with pytest.raises(XMLSyntaxError, match="'<'"):
        parse_element('<r a="x<y"/>')


def test_cdata_end_in_text_rejected():
    with pytest.raises(XMLSyntaxError, match="]]>"):
        parse_element("<r>data ]]> more</r>")


def test_double_hyphen_in_comment_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_element("<r><!-- bad -- comment --></r>")


def test_error_reports_position():
    try:
        parse_document("<root>\n  <child>\n</root>")
    except XMLSyntaxError as exc:
        assert exc.line == 3
    else:
        pytest.fail("expected a syntax error")


def test_content_after_root_rejected():
    with pytest.raises(XMLSyntaxError, match="after document root"):
        parse_document("<a/><b/>")


def test_trailing_misc_allowed():
    doc = parse_document("<a/><!-- done --><?pi x?>")
    assert len(doc.children) == 3


def test_utf8_bytes_input_with_bom():
    doc = parse_document("﻿<r>héllo</r>".encode("utf-8"))
    assert doc.root.text_content() == "héllo"


def test_invalid_utf8_rejected():
    with pytest.raises(XMLSyntaxError, match="UTF-8"):
        parse_document(b"<r>\xff\xfe</r>")


def test_unterminated_constructs():
    for source in ["<r>", "<r", "<r a='1'", "<r><!-- x", "<r><![CDATA[x",
                   "<r>&amp"]:
        with pytest.raises(XMLSyntaxError):
            parse_document(source)


def test_whitespace_required_between_attributes():
    with pytest.raises(XMLSyntaxError, match="whitespace"):
        parse_element('<r a="1"b="2"/>')


def test_xmlns_prefix_rebinding_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_element('<r xmlns:xmlns="urn:evil"/>')
    with pytest.raises(XMLSyntaxError):
        parse_element('<r xmlns:xml="urn:evil"/>')


#: Character references a lenient reader takes but XML 1.0 production
#: [66] does not: only ``[0-9]+`` after ``&#`` and ``[0-9a-fA-F]+``
#: after a lower-case ``&#x``.  Each one spells ``A`` to such a reader.
MALFORMED_CHARREFS = ("&#x4_1;", "&#+65;", "&#x 41;", "&#65 ;", "&#٦٥;",
                      "&#X41;")


@pytest.mark.parametrize("ref", MALFORMED_CHARREFS)
def test_malformed_character_reference_in_text_rejected(ref):
    with pytest.raises(XMLSyntaxError, match="bad (hex )?character "
                       "reference") as excinfo:
        parse_element(f"<r>x{ref}</r>")
    assert (excinfo.value.line, excinfo.value.column) == (1, 5)


@pytest.mark.parametrize("ref", MALFORMED_CHARREFS)
def test_malformed_character_reference_in_attribute_rejected(ref):
    with pytest.raises(XMLSyntaxError, match="bad (hex )?character "
                       "reference") as excinfo:
        parse_element(f"<r a='x{ref}'/>")
    assert (excinfo.value.line, excinfo.value.column) == (1, 8)


def test_attribute_value_missing_at_end_of_input_is_a_syntax_error():
    with pytest.raises(XMLSyntaxError, match="must be quoted"):
        parse_element("<r a=")
