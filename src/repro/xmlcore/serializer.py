"""Plain (non-canonical) XML serialization.

Produces well-formed output that re-parses to an equivalent tree.
Signature-relevant byte streams always go through
:mod:`repro.xmlcore.c14n`; this serializer is for storage and display,
and offers optional pretty-printing for the examples.

One iterative writer serves both layouts.  Like the canonicalizer it
threads the in-scope bindings down the tree, copied on write: an
element that declares nothing, is bound as it needs and has no
namespaced attribute but ``xml:*`` shares its parent's scope.
"""

from __future__ import annotations

from repro.errors import NamespaceError
from repro.xmlcore.escape import escape_attribute, escape_text
from repro.xmlcore.names import XML_NS
from repro.xmlcore.tree import (
    Comment, Document, Element, Node, ProcessingInstruction, Text,
)

#: The bindings in scope above a serialized node; never mutated.
_ROOT_SCOPE = {"xml": XML_NS}
_LEAVES = (Text, Comment, ProcessingInstruction)


def serialize(node: Node, xml_declaration: bool = False,
              pretty: bool = False) -> str:
    """Serialize an :class:`Element` or :class:`Document` to text."""
    parts: list[str] = []
    if xml_declaration:
        parts.append('<?xml version="1.0" encoding="UTF-8"?>')
        if pretty:
            parts.append("\n")
    if isinstance(node, Document):
        for i, child in enumerate(node.children):
            _write(child, parts, pretty)
            if pretty and i < len(node.children) - 1:
                parts.append("\n")
    else:
        _write(node, parts, pretty)
    if pretty:
        parts.append("\n")
    return "".join(parts)


def serialize_bytes(node: Node, xml_declaration: bool = True) -> bytes:
    """Serialize to UTF-8 bytes (the on-disc representation)."""
    return serialize(node, xml_declaration=xml_declaration).encode("utf-8")


def _write(top: Node, parts: list[str], pretty: bool) -> None:
    """Append *top*'s serialization to *parts*.

    A work item is a literal ``str`` or ``(node, scope, pretty,
    depth)``.  In the ``pretty`` layout an element with element
    children and no text but whitespace is laid out as an indented
    block; below any other element the output is compact.
    """
    write = parts.append
    stack: list = [(top, _ROOT_SCOPE, pretty, 0)]
    push = stack.append
    pop = stack.pop
    while stack:
        item = pop()
        if item.__class__ is str:
            write(item)
            continue
        node, inherited, pretty, depth = item
        indent = "  " * depth if pretty else ""
        if not isinstance(node, Element):
            write(_leaf(node, indent))
            continue

        # The in-scope bindings, copied on write: an element that
        # declares nothing and finds every binding it needs in its
        # parent's scope shares that scope.  A binding the tree was
        # built without (programmatically) is declared where its
        # element or attribute first needs it.
        scope = inherited
        decls = node.ns_decls
        if decls:
            scope = dict(inherited)
            decls = dict(decls)
            scope.update({p: u for p, u in decls.items() if u})
            if decls.get(None) == "":
                scope.pop(None, None)
        ns_uri = node.ns_uri
        prefix = node.prefix
        if ns_uri and scope.get(prefix) != ns_uri:
            if scope is inherited:
                scope, decls = dict(inherited), {}
            decls[prefix] = ns_uri
            scope[prefix] = ns_uri
        elif ns_uri is None and prefix is None and scope.get(None):
            if scope is inherited:
                scope, decls = dict(inherited), {}
            decls[None] = ""
            scope.pop(None, None)
        attrs = node.attrs
        for attr in attrs:
            attr_uri = attr.ns_uri
            if attr_uri and attr_uri != XML_NS:
                if attr.prefix is None:
                    raise NamespaceError(
                        f"namespaced attribute {attr.local!r} needs a prefix"
                    )
                if scope.get(attr.prefix) != attr_uri:
                    if scope is inherited:
                        scope, decls = dict(inherited), {}
                    decls[attr.prefix] = attr_uri
                    scope[attr.prefix] = attr_uri

        qname = node.qname
        write(f"{indent}<{qname}")
        if decls:
            for key in sorted(decls, key=_declaration_order):
                name = f"xmlns:{key}" if key else "xmlns"
                write(f' {name}="{escape_attribute(decls[key])}"')
        for attr in attrs:
            write(f' {attr.qname}="{escape_attribute(attr.value)}"')

        children = node.children
        if not children:
            write("/>")
            continue
        write(">")
        if pretty and _is_block(children):
            push(f"\n{indent}</{qname}>")
            depth += 1
            for index in range(len(children) - 1, -1, -1):
                child = children[index]
                if not isinstance(child, Text):
                    push((child, scope, True, depth))
                    push("\n")
        else:
            push(f"</{qname}>")
            for index in range(len(children) - 1, -1, -1):
                child = children[index]
                if isinstance(child, _LEAVES):
                    push(_leaf(child, ""))
                else:
                    push((child, scope, False, 0))


def _leaf(node: Node, indent: str) -> str:
    if isinstance(node, Text):
        if node.is_cdata:
            return f"<![CDATA[{node.data}]]>"
        return escape_text(node.data)
    if isinstance(node, Comment):
        return f"{indent}<!--{node.data}-->"
    if isinstance(node, ProcessingInstruction):
        data = f" {node.data}" if node.data else ""
        return f"{indent}<?{node.target}{data}?>"
    raise TypeError(f"cannot serialize {type(node).__name__}")


def _declaration_order(prefix: str | None) -> tuple[bool, str]:
    return (prefix is not None, prefix or "")


def _is_block(children: list[Node]) -> bool:
    """Element children and nothing but whitespace as text."""
    has_element = False
    for child in children:
        if isinstance(child, Element):
            has_element = True
        elif isinstance(child, Text) and child.data.strip():
            return False
    return has_element
