"""In-memory XML tree model (a compact DOM).

The node classes here are the substrate every higher layer works on:
the parser builds them, the serializer and the canonicalizer consume
them, and XMLDSig/XMLEnc splice signature and encryption markup into
them.  Namespace handling is explicit: each element records the
namespace declarations *syntactically present* on it (``ns_decls``), and
its resolved ``ns_uri``; in-scope namespaces are computed by walking
parents, which is exactly the shape Canonical XML needs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import NamespaceError, ReferenceError_, XMLError
from repro.xmlcore.names import XML_NS, is_valid_name, split_qname

_ID_ATTRIBUTE_NAMES = ("Id", "ID", "id")

# Global monotonic mutation stamps.  Every node carries the stamp of the
# last mutation observed *in its subtree*: a mutation stamps the mutated
# node and every ancestor up to the root.  Stamps are process-unique and
# never reused, so a ``(node, revision)`` pair identifies one exact
# subtree state — the invariant the C14N/digest cache
# (:mod:`repro.perf.cache`) binds cached bytes to.  A cached digest can
# therefore never validate a tampered subtree: any mutation anywhere in
# the tree gives the root (and the mutated path) a fresh stamp.
_mutation_stamps = itertools.count(1)

#: A fresh stamp.  The parser builds a tree without ``append`` (whose
#: walk to the root costs each node its depth) and stamps each element
#: when it closes, so a finished tree still satisfies the invariant:
#: every node's stamp is newer than any earlier state of it, and no
#: descendant's stamp is newer than its ancestors'.
fresh_stamp = _mutation_stamps.__next__


class Node:
    """Base class for all tree nodes.

    Attributes:
        revision: monotonic mutation stamp of this node's subtree; see
            :data:`_mutation_stamps`.
    """

    parent: "Element | Document | None"
    revision: int

    def __init__(self):
        self.parent = None
        self.revision = next(_mutation_stamps)

    def mark_mutated(self) -> None:
        """Stamp this node and every ancestor with a fresh revision.

        Called by every mutating operation on the tree.  Callers that
        mutate node state directly (rather than through the tree API)
        must call this themselves, or revision-keyed caches will not
        see the change.
        """
        stamp = next(_mutation_stamps)
        node: Node | None = self
        while node is not None:
            node.revision = stamp
            node = node.parent

    def copy(self) -> "Node":
        """Deep-copy this node (parent link cleared)."""
        raise NotImplementedError


class _CharacterData(Node):
    """Shared base for nodes whose payload is a mutable string."""

    def __init__(self, data: str):
        super().__init__()
        self._data = data

    @property
    def data(self) -> str:
        return self._data

    @data.setter
    def data(self, value: str) -> None:
        self._data = value
        self.mark_mutated()


class Text(_CharacterData):
    """Character data.  ``is_cdata`` records CDATA origin for round trips."""

    def __init__(self, data: str, is_cdata: bool = False):
        super().__init__(data)
        self.is_cdata = is_cdata

    def copy(self) -> "Text":
        return Text(self.data, self.is_cdata)

    def __repr__(self):
        return f"Text({self.data!r})"


class Comment(_CharacterData):
    """An XML comment."""

    def copy(self) -> "Comment":
        return Comment(self.data)

    def __repr__(self):
        return f"Comment({self.data!r})"


class ProcessingInstruction(_CharacterData):
    """A processing instruction ``<?target data?>``."""

    def __init__(self, target: str, data: str = ""):
        super().__init__(data)
        self.target = target

    def copy(self) -> "ProcessingInstruction":
        return ProcessingInstruction(self.target, self.data)

    def __repr__(self):
        return f"PI({self.target!r}, {self.data!r})"


@dataclass
class Attr:
    """A (non-namespace-declaration) attribute."""

    local: str
    value: str
    prefix: str | None = None
    ns_uri: str | None = None

    @property
    def qname(self) -> str:
        return f"{self.prefix}:{self.local}" if self.prefix else self.local

    def copy(self) -> "Attr":
        return Attr(self.local, self.value, self.prefix, self.ns_uri)


class Element(Node):
    """An element node.

    Attributes:
        local: local name.
        prefix: namespace prefix used in the source (or ``None``).
        ns_uri: resolved namespace URI (or ``None``).
        attrs: ordered list of :class:`Attr` (namespace declarations are
            *not* stored here).
        ns_decls: namespace declarations syntactically on this element;
            maps prefix (``None`` for the default namespace) to URI.
        children: ordered child nodes.
    """

    def __init__(self, local: str, ns_uri: str | None = None,
                 prefix: str | None = None):
        super().__init__()
        _check_local_name(local)
        self.local = local
        self.prefix = prefix
        self.ns_uri = ns_uri
        self.attrs: list[Attr] = []
        self.ns_decls: dict[str | None, str] = {}
        self.children: list[Node] = []

    # -- identity -------------------------------------------------------------

    @property
    def qname(self) -> str:
        return f"{self.prefix}:{self.local}" if self.prefix else self.local

    def matches(self, local: str, ns_uri: str | None = None) -> bool:
        """Name test: local name plus (when given) namespace URI."""
        if self.local != local:
            return False
        return ns_uri is None or self.ns_uri == ns_uri

    # -- child management -------------------------------------------------------

    def append(self, node: Node) -> Node:
        """Append *node* (re-parenting it) and return it."""
        if node.parent is not None:
            node.parent.remove(node)
        node.parent = self
        self.children.append(node)
        node.mark_mutated()
        return node

    def extend(self, nodes) -> None:
        for node in list(nodes):
            self.append(node)

    def insert(self, index: int, node: Node) -> Node:
        if node.parent is not None:
            node.parent.remove(node)
        node.parent = self
        self.children.insert(index, node)
        node.mark_mutated()
        return node

    def remove(self, node: Node) -> None:
        self.children.remove(node)
        node.parent = None
        self.mark_mutated()

    def replace(self, old: Node, new: Node) -> None:
        """Replace child *old* with *new* in place."""
        index = self.children.index(old)
        if new.parent is not None:
            new.parent.remove(new)
        self.children[index] = new
        new.parent = self
        old.parent = None
        new.mark_mutated()

    def index(self, node: Node) -> int:
        return self.children.index(node)

    def append_text(self, data: str) -> Text:
        """Convenience: append a text node."""
        text = Text(data)
        return self.append(text)  # type: ignore[return-value]

    # -- attribute access ---------------------------------------------------------

    def _match_attr(self, name: str) -> Attr | None:
        if name.startswith("{"):
            uri, _, local = name[1:].partition("}")
            for attr in self.attrs:
                if attr.local == local and attr.ns_uri == uri:
                    return attr
            return None
        prefix, local = split_qname(name)
        if prefix is not None:
            uri = self.resolve_prefix(prefix)
            for attr in self.attrs:
                if attr.local == local and attr.ns_uri == uri:
                    return attr
            return None
        for attr in self.attrs:
            if attr.local == local and attr.ns_uri is None:
                return attr
        return None

    def get(self, name: str, default: str | None = None) -> str | None:
        """Get an attribute value.

        *name* may be a bare local name (no-namespace attribute),
        ``prefix:local`` (prefix resolved in this element's scope) or
        Clark notation ``{uri}local``.
        """
        attr = self._match_attr(name)
        return attr.value if attr is not None else default

    def set(self, name: str, value: str) -> None:
        """Set (or overwrite) an attribute.

        Accepts the same name forms as :meth:`get`.  For
        ``prefix:local`` names the prefix must already be resolvable in
        scope.
        """
        existing = self._match_attr(name)
        if existing is not None:
            existing.value = value
            self.mark_mutated()
            return
        if name.startswith("{"):
            uri, _, local = name[1:].partition("}")
            prefix = self.prefix_for(uri)
            self.attrs.append(Attr(local, value, prefix, uri))
            self.mark_mutated()
            return
        prefix, local = split_qname(name)
        if prefix is None:
            self.attrs.append(Attr(local, value))
        else:
            uri = self.resolve_prefix(prefix)
            if uri is None:
                raise NamespaceError(
                    f"prefix {prefix!r} is not bound in scope"
                )
            self.attrs.append(Attr(local, value, prefix, uri))
        self.mark_mutated()

    def delete_attr(self, name: str) -> bool:
        """Remove an attribute if present; returns whether it existed."""
        attr = self._match_attr(name)
        if attr is None:
            return False
        self.attrs.remove(attr)
        self.mark_mutated()
        return True

    # -- namespaces -----------------------------------------------------------

    def declare_namespace(self, prefix: str | None, uri: str) -> None:
        """Add an ``xmlns`` declaration on this element."""
        if prefix is not None and not is_valid_name(prefix):
            raise NamespaceError(f"invalid namespace prefix {prefix!r}")
        self.ns_decls[prefix] = uri
        self.mark_mutated()

    def in_scope_namespaces(self) -> dict[str | None, str]:
        """All namespace bindings in scope at this element.

        The ``xml`` prefix is implicitly bound; a default-namespace
        binding to ``""`` (an undeclaration) is dropped from the result.
        """
        bindings: dict[str | None, str] = {"xml": XML_NS}
        chain: list[Element] = []
        node: Node | None = self
        while isinstance(node, Element):
            chain.append(node)
            node = node.parent
        for element in reversed(chain):
            bindings.update(element.ns_decls)
        if bindings.get(None) == "":
            del bindings[None]
        return bindings

    def resolve_prefix(self, prefix: str | None) -> str | None:
        """Resolve *prefix* against in-scope bindings (``None`` = default)."""
        if prefix == "xml":
            return XML_NS
        node: Node | None = self
        while isinstance(node, Element):
            if prefix in node.ns_decls:
                uri = node.ns_decls[prefix]
                return uri or None
            node = node.parent
        return None

    def prefix_for(self, uri: str) -> str | None:
        """Find an in-scope prefix bound to *uri* (``None`` if default)."""
        for prefix, bound in self.in_scope_namespaces().items():
            if bound == uri:
                return prefix
        raise NamespaceError(f"no in-scope prefix for namespace {uri!r}")

    # -- traversal --------------------------------------------------------------

    def iter(self, local: str | None = None, ns_uri: str | None = None):
        """Yield this element and all descendant elements, document order.

        With *local* (and optionally *ns_uri*) given, only matching
        elements are yielded.  The walk holds one iterator per open
        child list, so it reads each list as a generator recursion
        would (a caller may mutate the tree between yields, with the
        same effect) and reaches any depth.
        """
        if local is None or self.matches(local, ns_uri):
            yield self
        stack = [iter(self.children)]
        while stack:
            for child in stack[-1]:
                if isinstance(child, Element):
                    if local is None or child.matches(local, ns_uri):
                        yield child
                    stack.append(iter(child.children))
                    break
            else:
                stack.pop()

    def child_elements(self) -> list["Element"]:
        """Direct element children."""
        return [c for c in self.children if isinstance(c, Element)]

    def find(self, local: str, ns_uri: str | None = None) -> "Element | None":
        """First descendant element matching the name test."""
        for element in self.iter(local, ns_uri):
            if element is not self:
                return element
        return None

    def findall(self, local: str, ns_uri: str | None = None) -> list["Element"]:
        """All descendant elements matching the name test."""
        return [e for e in self.iter(local, ns_uri) if e is not self]

    def first_child(self, local: str,
                    ns_uri: str | None = None) -> "Element | None":
        """First *direct* child element matching the name test."""
        for child in self.child_elements():
            if child.matches(local, ns_uri):
                return child
        return None

    def text_content(self) -> str:
        """Concatenated character data of all descendant text nodes."""
        parts = []
        stack = [iter(self.children)]  # as in iter: no recursion
        while stack:
            for child in stack[-1]:
                if isinstance(child, Text):
                    parts.append(child.data)
                elif isinstance(child, Element):
                    stack.append(iter(child.children))
                    break
            else:
                stack.pop()
        return "".join(parts)

    def element_by_id(self, value: str) -> "Element | None":
        """The one descendant-or-self element whose Id/ID/id is *value*.

        The library's only Id resolver (``#id`` references, ds:Manifest
        lookup, XPath ``id()``).  ``None`` when no element carries the
        Id.  Several carrying it is the signature wrapping vector (a
        planted decoy next to the signed original), so that raises
        :class:`ReferenceError_` instead of taking the first match.
        """
        matches = self.id_index().get(value)
        if not matches:
            return None
        if len(matches) > 1:
            raise ReferenceError_(
                f"duplicate Id {value!r}: multiple elements carry it; "
                "refusing ambiguous reference (wrapping defence)"
            )
        return matches[0]

    def id_values(self) -> list[str]:
        """The values of this element's own Id/ID/id attributes."""
        return [attr.value for attr in self.attrs
                if attr.local in _ID_ATTRIBUTE_NAMES]

    def id_index(self) -> dict[str, tuple["Element", ...]]:
        """Id → elements (document order) for this subtree, memoized.

        The memo is keyed on this element's revision stamp, which every
        mutation in the subtree refreshes (``mark_mutated`` stamps all
        ancestors), so the index is rebuilt the moment the subtree
        changes in any way.
        """
        cached = self.__dict__.get("_id_index_memo")
        if cached is not None and cached[0] == self.revision:
            return cached[1]
        index: dict[str, list[Element]] = {}
        stack: list[Element] = [self]
        while stack:
            node = stack.pop()
            node_ids = None
            for attr in node.attrs:
                if attr.local in _ID_ATTRIBUTE_NAMES:
                    value = attr.value
                    if node_ids is None:
                        node_ids = [value]
                    elif value in node_ids:
                        # One element never matches twice for one value
                        # (the pre-index scan broke after a match).
                        continue
                    else:
                        node_ids.append(value)
                    index.setdefault(value, []).append(node)
            children = node.children
            for i in range(len(children) - 1, -1, -1):
                child = children[i]
                if isinstance(child, Element):
                    stack.append(child)
        frozen = {value: tuple(nodes) for value, nodes in index.items()}
        self._id_index_memo = (self.revision, frozen)
        return frozen

    # -- copying ---------------------------------------------------------------

    def copy(self) -> "Element":
        """Deep-copy this subtree (parent link cleared).

        The clone is built without ``append`` and its walk to the root:
        every clone node takes one fresh stamp, so none is newer than
        its parent (DESIGN §3.2).  Each local name gets the
        constructor's check.
        """
        stamp = fresh_stamp()
        clone = _cloned_element(self, None, stamp)
        stack = [(self, clone)]
        while stack:
            source, target = stack.pop()
            siblings = target.children
            for child in source.children:
                if isinstance(child, Element):
                    copied = _cloned_element(child, target, stamp)
                    if child.children:
                        stack.append((child, copied))
                else:
                    # Text, comment or PI: every field is immutable.
                    copied = _new_node(child.__class__)
                    copied.__dict__.update(child.__dict__)
                    copied.parent = target
                    copied.revision = stamp
                siblings.append(copied)
        return clone

    def detached_copy(self) -> "Element":
        """Deep copy that *pins the inherited namespace context*.

        Namespace bindings that were inherited from ancestors are
        re-declared on the copy, so the clone means the same thing
        standing alone.  Used when moving subtrees between documents
        (e.g. lifting a manifest out of a cluster for signing).
        """
        clone = self.copy()
        inherited = self.in_scope_namespaces()
        del inherited["xml"]
        for prefix, uri in inherited.items():
            clone.ns_decls.setdefault(prefix, uri)
        clone.mark_mutated()
        return clone

    def __repr__(self):
        return f"<Element {self.qname} attrs={len(self.attrs)} children={len(self.children)}>"


class Document(Node):
    """A document node: optional PIs/comments around exactly one root."""

    def __init__(self, root: Element | None = None):
        super().__init__()
        self.children: list[Node] = []
        if root is not None:
            self.append(root)

    @property
    def root(self) -> Element:
        for child in self.children:
            if isinstance(child, Element):
                return child
        raise XMLError("document has no root element")

    def append(self, node: Node) -> Node:
        if isinstance(node, Text):
            raise XMLError("text is not allowed at document level")
        if isinstance(node, Element) and any(
            isinstance(c, Element) for c in self.children
        ):
            raise XMLError("document already has a root element")
        if node.parent is not None:
            node.parent.remove(node)
        node.parent = self
        self.children.append(node)
        node.mark_mutated()
        return node

    def remove(self, node: Node) -> None:
        self.children.remove(node)
        node.parent = None
        self.mark_mutated()

    def copy(self) -> "Document":
        doc = Document()
        for child in self.children:
            doc.append(child.copy())
        return doc

    def __repr__(self):
        try:
            return f"<Document root={self.root.qname}>"
        except XMLError:
            return "<Document (empty)>"


#: Local names already found valid, so a name check is mostly one set
#: lookup.  A name's validity never changes, so the memo is shared by
#: every caller and outlives each document.  Names come from untrusted
#: documents, so it keeps only names of vocabulary length, and only up
#: to its bound: at most ``_MEMO_NAMES * _MEMO_NAME_CHARS`` characters
#: stay alive across documents.  Other names are checked in full.
_VALID_LOCAL_NAMES: set[str] = set()
_MEMO_NAMES = 4096
_MEMO_NAME_CHARS = 64


def _check_local_name(local: str) -> None:
    if local in _VALID_LOCAL_NAMES:
        return
    if not is_valid_name(local) or ":" in local:
        raise XMLError(f"invalid element local name {local!r}")
    if len(local) <= _MEMO_NAME_CHARS \
            and len(_VALID_LOCAL_NAMES) < _MEMO_NAMES:
        _VALID_LOCAL_NAMES.add(local)


# -- the parser's node factories ---------------------------------------------
#
# The parser builds nodes through these instead of the constructors:
# its scanner has already read the name, the node is linked to
# *parent* without ``append``'s walk to the root, and an element gets
# its final stamp from the parser when it closes (see
# :data:`fresh_stamp`).  Text never changes after creation, so its
# creation stamp is final.

_new_node = object.__new__


def parsed_element(local: str, ns_uri: str | None, prefix: str | None,
                   parent: "Element | None",
                   ns_decls: dict[str | None, str]) -> Element:
    """An element as parsed, linked to *parent* (``None`` for a root).

    The scanner read the whole QName as an XML Name, so only the local
    part after a prefix can still be malformed (``a:1b``); it gets the
    constructor's check.
    """
    if prefix is not None:
        _check_local_name(local)
    node = _new_node(Element)
    node.parent = parent
    node.revision = fresh_stamp()
    node.local = local
    node.prefix = prefix
    node.ns_uri = ns_uri
    node.attrs = []
    node.ns_decls = ns_decls
    node.children = []
    if parent is not None:
        parent.children.append(node)
    return node


def _cloned_element(source: Element, parent: "Element | None",
                    stamp: int) -> Element:
    """A copy of *source* alone (no children yet), linked to *parent*."""
    local = source.local
    _check_local_name(local)
    node = _new_node(Element)
    node.parent = parent
    node.revision = stamp
    node.local = local
    node.prefix = source.prefix
    node.ns_uri = source.ns_uri
    node.attrs = [attr.copy() for attr in source.attrs]
    node.ns_decls = dict(source.ns_decls)
    node.children = []
    return node


def parsed_text(data: str, parent: "Element",
                is_cdata: bool = False) -> Text:
    """A text child of *parent*, as parsed."""
    node = _new_node(Text)
    node.parent = parent
    node.revision = fresh_stamp()
    node._data = data
    node.is_cdata = is_cdata
    parent.children.append(node)
    return node


def element(qname: str, ns_uri: str | None = None, *,
            attrs: dict[str, str] | None = None,
            text: str | None = None,
            children: list[Element] | None = None,
            nsmap: dict[str | None, str] | None = None) -> Element:
    """Build an element tree declaratively.

    ``qname`` may be ``prefix:local``; when *ns_uri* is given, the
    element is placed in that namespace (declared via *nsmap* or bound
    by an ancestor at serialization time).
    """
    prefix, local = split_qname(qname)
    node = Element(local, ns_uri, prefix)
    if nsmap:
        for p, uri in nsmap.items():
            node.declare_namespace(p, uri)
    if attrs:
        for name, value in attrs.items():
            node.set(name, value)
    if text is not None:
        node.append_text(text)
    if children:
        node.extend(children)
    return node
