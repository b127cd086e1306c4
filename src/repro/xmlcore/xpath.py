"""XPath-lite: the location-path subset the security stack needs.

XMLDSig references same-document URIs and optional XPath transforms;
XACML selectors and the player engine want simple queries.  Rather than
a full XPath 1.0 engine this implements the practically used subset:

* absolute (``/a/b``) and relative (``a/b``) child paths
* descendant-or-self ``//``
* wildcard ``*``, ``.`` and ``..`` steps
* attribute selection ``@name`` as the final step
* predicates: positional ``[3]``, attribute existence ``[@a]``,
  attribute equality ``[@a='v']``, child-text equality ``[name='v']``
* the ``id('value')`` function as the first step, resolved by
  :meth:`~repro.xmlcore.tree.Element.element_by_id` (an Id that several
  elements carry raises, as a ``#id`` reference does)

Namespace prefixes in expressions resolve through a caller-supplied
mapping; unprefixed names match local names in *any* namespace, which is
the convenient behaviour for querying single-vocabulary documents.
"""

from __future__ import annotations

import re

from repro.errors import XPathError
from repro.xmlcore.tree import Document, Element, Node

_TOKEN_RE = re.compile(
    r"""
    (?P<slash2>//) | (?P<slash>/) |
    (?P<id>id\('(?P<idval>[^']*)'\)) |
    (?P<attr>@(?P<attrname>[\w.:-]+|\*)) |
    (?P<dots>\.\.) | (?P<dot>\.) |
    (?P<name>[\w.:-]+|\*) |
    (?P<pred>\[[^\]]*\])
    """,
    re.VERBOSE,
)

_PRED_ATTR_EQ = re.compile(r"^@([\w.:-]+)\s*=\s*'([^']*)'$")
_PRED_ATTR = re.compile(r"^@([\w.:-]+)$")
_PRED_CHILD_EQ = re.compile(r"^([\w.:-]+)\s*=\s*'([^']*)'$")
_PRED_POS = re.compile(r"^\d+$")


class _Step:
    __slots__ = ("axis", "name", "predicates")

    def __init__(self, axis: str, name: str):
        self.axis = axis          # "child" | "descendant" | "self" | "parent" | "attribute" | "id"
        self.name = name
        self.predicates: list[str] = []


def _tokenize(expression: str) -> list[_Step]:
    steps: list[_Step] = []
    pos = 0
    pending_axis = "child"
    absolute = False
    if expression.startswith("//"):
        pending_axis = "descendant"
        absolute = True
        pos = 2
    elif expression.startswith("/"):
        absolute = True
        pos = 1
    if absolute:
        marker = _Step("root", "")
        steps.append(marker)
    while pos < len(expression):
        match = _TOKEN_RE.match(expression, pos)
        if not match:
            raise XPathError(
                f"cannot parse XPath-lite expression at {expression[pos:]!r}"
            )
        pos = match.end()
        if match.group("slash2"):
            pending_axis = "descendant"
        elif match.group("slash"):
            if pending_axis == "descendant":
                raise XPathError("'///' is not valid")
            pending_axis = "child"
        elif match.group("id"):
            step = _Step("id", match.group("idval"))
            steps.append(step)
            pending_axis = "child"
        elif match.group("attr"):
            steps.append(_Step("attribute", match.group("attrname")))
            pending_axis = "child"
        elif match.group("dots"):
            steps.append(_Step("parent", ".."))
            pending_axis = "child"
        elif match.group("dot"):
            steps.append(_Step("self", "."))
            pending_axis = "child"
        elif match.group("name"):
            steps.append(_Step(pending_axis, match.group("name")))
            pending_axis = "child"
        elif match.group("pred"):
            if not steps:
                raise XPathError("predicate with no preceding step")
            steps[-1].predicates.append(match.group("pred")[1:-1].strip())
    return steps


def _name_matches(element: Element, name: str,
                  namespaces: dict[str, str]) -> bool:
    if name == "*":
        return True
    if ":" in name:
        prefix, _, local = name.partition(":")
        uri = namespaces.get(prefix)
        if uri is None:
            raise XPathError(f"unbound prefix {prefix!r} in expression")
        return element.local == local and element.ns_uri == uri
    return element.local == name


def _apply_predicates(candidates: list[Element], predicates: list[str],
                      namespaces: dict[str, str]) -> list[Element]:
    for predicate in predicates:
        if _PRED_POS.match(predicate):
            index = int(predicate)
            candidates = (
                [candidates[index - 1]] if 1 <= index <= len(candidates)
                else []
            )
            continue
        match = _PRED_ATTR_EQ.match(predicate)
        if match:
            name, value = match.groups()
            candidates = [
                e for e in candidates if e.get(name) == value
            ]
            continue
        match = _PRED_ATTR.match(predicate)
        if match:
            name = match.group(1)
            candidates = [e for e in candidates if e.get(name) is not None]
            continue
        match = _PRED_CHILD_EQ.match(predicate)
        if match:
            name, value = match.groups()
            filtered = []
            for e in candidates:
                for child in e.child_elements():
                    if _name_matches(child, name, namespaces) \
                            and child.text_content() == value:
                        filtered.append(e)
                        break
            candidates = filtered
            continue
        raise XPathError(f"unsupported predicate [{predicate}]")
    return candidates


def find_all(context: Node, expression: str,
             namespaces: dict[str, str] | None = None) -> list:
    """Evaluate *expression* from *context*; returns elements or
    attribute-value strings (for ``@name`` final steps)."""
    namespaces = namespaces or {}
    steps = _tokenize(expression)

    if isinstance(context, Document):
        doc_root: Element | None = context.root
    elif isinstance(context, Element):
        top: Node = context
        while isinstance(top.parent, Element):
            top = top.parent
        doc_root = top if isinstance(top, Element) else None
    else:
        raise XPathError("context must be a Document or Element")

    # at_document_level: the current "node" is the document node itself,
    # whose only element child is the root element.
    at_document_level = isinstance(context, Document)
    current: list[Element] = [] if at_document_level else [context]

    for step in steps:
        if step.axis == "root":
            if doc_root is None:
                raise XPathError(
                    "expression is absolute but context has no root"
                )
            at_document_level = True
            current = []
            continue
        if step.axis == "id":
            base = doc_root if doc_root is not None else \
                (current[0] if current else None)
            found = base.element_by_id(step.name) if base else None
            current = [found] if found is not None else []
            at_document_level = False
            continue
        if step.axis == "attribute":
            values = []
            for e in current:
                if step.name == "*":
                    values.extend(a.value for a in e.attrs)
                else:
                    v = e.get(step.name)
                    if v is not None:
                        values.append(v)
            return values
        if step.axis == "self":
            continue
        if step.axis == "parent":
            parents = []
            for e in current:
                if isinstance(e.parent, Element) and e.parent not in parents:
                    parents.append(e.parent)
            current = parents
            at_document_level = False
            continue

        # child / descendant name steps
        if at_document_level:
            assert doc_root is not None
            pools = [
                list(doc_root.iter()) if step.axis == "descendant"
                else [doc_root]
            ]
            at_document_level = False
        else:
            pools = [
                list(e.iter()) if step.axis == "descendant"
                else e.child_elements()
                for e in current
            ]
        next_nodes: list[Element] = []
        for pool in pools:
            matched = [
                n for n in pool if _name_matches(n, step.name, namespaces)
            ]
            matched = _apply_predicates(matched, step.predicates, namespaces)
            for n in matched:
                if n not in next_nodes:
                    next_nodes.append(n)
        current = next_nodes
    return current


def find_first(context: Node, expression: str,
               namespaces: dict[str, str] | None = None):
    """First result of :func:`find_all`, or ``None``."""
    results = find_all(context, expression, namespaces)
    return results[0] if results else None
