"""Canonical XML 1.0 (XML-C14N) and Exclusive XML Canonicalization.

The paper (§5.4, Fig 6) motivates canonicalization precisely: XML allows
syntactic variation among semantically equivalent documents, and hash
functions are sensitive to syntax, so a signature must be computed over
a canonical byte stream.  This module renders a :class:`Document` or an
element subtree to the canonical octet sequence defined by:

* Canonical XML 1.0 (W3C Recommendation, 15 March 2001) — the paper's
  reference [32]; and
* Exclusive XML Canonicalization 1.0 — the variant used when signed
  subtrees are re-enveloped, with ``InclusiveNamespaces PrefixList``
  support.

Both come in with- and without-comments flavours.  Subtree
canonicalization honours the inherited namespace context and (inclusive
form only) inherits ``xml:*`` attributes from excluded ancestors, per
the respective specs.

Two consumption models share one serializer:

* :func:`canonicalize` materialises the whole canonical octet string —
  the reference semantics, and what the digest cache stores.
* :func:`canonicalize_into` streams canonical octets through a sink
  callback in bounded chunks, never holding the full output;
  :func:`digest_canonical` feeds those chunks straight into a
  provider-supplied incremental hash context.  The chunk sequence
  concatenates to exactly the :func:`canonicalize` output (the
  differential fuzz suite in ``tests/xmlcore/test_c14n_stream.py``
  holds this byte-identity across algorithms and guard trips).
"""

from __future__ import annotations

from repro.errors import CanonicalizationError
from repro.perf import metrics
from repro.xmlcore.escape import escape_attribute, escape_text
from repro.xmlcore.names import XML_NS
from repro.xmlcore.tree import (
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
)

# Algorithm identifiers, as used in ds:CanonicalizationMethod/@Algorithm.
C14N = "http://www.w3.org/TR/2001/REC-xml-c14n-20010315"
C14N_WITH_COMMENTS = C14N + "#WithComments"
EXC_C14N = "http://www.w3.org/2001/10/xml-exc-c14n#"
EXC_C14N_WITH_COMMENTS = EXC_C14N + "WithComments"

ALL_C14N_ALGORITHMS = (
    C14N,
    C14N_WITH_COMMENTS,
    EXC_C14N,
    EXC_C14N_WITH_COMMENTS,
)

# Streaming flush threshold, in characters of pending canonical text.
# Chunks therefore stay small regardless of document size; the guard is
# charged per flushed chunk, so a quota trip truncates the stream at a
# chunk boundary — a strict prefix of the whole-tree output.
_CHUNK_CHARS = 4096


def canonicalize(node: Node, algorithm: str = C14N,
                 inclusive_prefixes: tuple[str, ...] = (),
                 *, guard=None) -> bytes:
    """Render *node* (Document or Element subtree) canonically.

    Args:
        node: the document or apex element to canonicalize.
        algorithm: one of the four C14N algorithm URIs.
        inclusive_prefixes: for exclusive C14N, the
            ``InclusiveNamespaces PrefixList`` entries (``"#default"``
            names the default namespace).
        guard: optional :class:`~repro.resilience.limits.ResourceGuard`;
            when set, the produced octets are charged against its
            cumulative c14n-output quota and its deadline is checked,
            so a hostile document cannot canonicalize into unbounded
            memory during verification.

    Returns:
        The canonical octet sequence (UTF-8).
    """
    exclusive, with_comments = _parse_algorithm(algorithm)
    if guard is not None:
        guard.check_deadline()
    with metrics.timer("c14n.canonicalize"):
        out: list[str] = []
        writer = _Canonicalizer(
            exclusive,
            with_comments,
            frozenset(inclusive_prefixes),
            out.append,
        )
        writer.write_node(node)
        octets = "".join(out).encode("utf-8")
    metrics.counter("c14n.octets").increment(len(octets))
    if guard is not None:
        guard.charge_c14n_output(len(octets))
    return octets


def canonicalize_into(node: Node, write, algorithm: str = C14N,
                      inclusive_prefixes: tuple[str, ...] = (),
                      *, guard=None) -> int:
    """Stream the canonical form of *node* into the *write* callback.

    *write* receives ``bytes`` chunks whose concatenation is exactly
    the :func:`canonicalize` output; no full output string is ever
    materialised.  With *guard* set, each chunk is charged against the
    c14n-output quota **before** it is emitted, so on a quota trip the
    sink has received a strict prefix of the canonical octets and the
    guard has committed only what was emitted.

    Returns:
        The total number of octets emitted.
    """
    exclusive, with_comments = _parse_algorithm(algorithm)
    if guard is not None:
        guard.check_deadline()
    with metrics.timer("c14n.stream"):
        sink = _ChunkSink(write, guard)
        writer = _Canonicalizer(
            exclusive,
            with_comments,
            frozenset(inclusive_prefixes),
            sink.write,
        )
        writer.write_node(node)
        sink.flush()
    metrics.counter("c14n.octets").increment(sink.total)
    return sink.total


def digest_canonical(node: Node, digest_algorithm: str,
                     c14n_algorithm: str = C14N,
                     inclusive_prefixes: tuple[str, ...] = (),
                     *, provider=None, guard=None) -> bytes:
    """Digest the canonical form of *node* without materialising it.

    Canonical chunks are fed straight into an incremental hash context
    from *provider* (default provider when ``None``), so the peak
    memory cost is one chunk rather than the whole canonical string.
    This is the streaming fast path the XMLDSig reference processor
    rides when the digest cache holds no precomputed octets.
    """
    if provider is None:
        from repro.primitives.provider import get_provider
        provider = get_provider()
    context = provider.hash_context(digest_algorithm)
    canonicalize_into(
        node,
        context.update,
        c14n_algorithm,
        inclusive_prefixes,
        guard=guard,
    )
    return context.digest()


def _parse_algorithm(algorithm: str) -> tuple[bool, bool]:
    """Map an algorithm URI to ``(exclusive, with_comments)`` flags."""
    if algorithm not in ALL_C14N_ALGORITHMS:
        raise CanonicalizationError(f"unknown c14n algorithm {algorithm!r}")
    exclusive = algorithm in (EXC_C14N, EXC_C14N_WITH_COMMENTS)
    with_comments = algorithm in (C14N_WITH_COMMENTS, EXC_C14N_WITH_COMMENTS)
    return exclusive, with_comments


class _ChunkSink:
    """Accumulates canonical text and flushes bounded UTF-8 chunks.

    The guard is charged per flushed chunk (check-before-commit), so a
    trip mid-stream leaves the cumulative charge equal to the octets
    actually delivered downstream.
    """

    __slots__ = ("_emit", "_guard", "_parts", "_pending", "total")

    def __init__(self, emit, guard):
        self._emit = emit
        self._guard = guard
        self._parts: list[str] = []
        self._pending = 0
        self.total = 0

    def write(self, piece: str) -> None:
        self._parts.append(piece)
        self._pending += len(piece)
        if self._pending >= _CHUNK_CHARS:
            self.flush()

    def flush(self) -> None:
        if not self._parts:
            return
        data = "".join(self._parts).encode("utf-8")
        self._parts.clear()
        self._pending = 0
        guard = self._guard
        if guard is not None:
            guard.check_deadline()
            guard.charge_c14n_output(len(data))
        self.total += len(data)
        self._emit(data)


class _Canonicalizer:
    """Streams canonical text pieces into a ``write(str)`` callback.

    The element walk is iterative (explicit work stack) and threads the
    in-scope namespace axis incrementally: each element's axis is its
    parent's axis updated with the element's own declarations, so the
    per-element cost no longer grows with tree depth the way repeated
    ``in_scope_namespaces()`` ancestor walks did.  A work item is a
    literal ``str`` to write or an element tuple.
    """

    def __init__(self, exclusive: bool, with_comments: bool,
                 inclusive_prefixes: frozenset[str], write):
        self.exclusive = exclusive
        self.with_comments = with_comments
        self.inclusive_prefixes = inclusive_prefixes
        self.write = write

    # -- top-level entry points -------------------------------------------------

    def write_node(self, node: Node) -> None:
        if isinstance(node, Document):
            self.write_document(node)
        elif isinstance(node, Element):
            self.write_subtree(node)
        else:
            raise CanonicalizationError(
                f"cannot canonicalize a {type(node).__name__} node"
            )

    def write_document(self, document: Document) -> None:
        root_seen = False
        for child in document.children:
            if isinstance(child, Element):
                root_seen = True
                self._element(child, rendered={}, apex=True)
            elif isinstance(child, ProcessingInstruction):
                if root_seen:
                    self.write("\n")
                self._pi(child)
                if not root_seen:
                    self.write("\n")
            elif isinstance(child, Comment) and self.with_comments:
                if root_seen:
                    self.write("\n")
                self._comment(child)
                if not root_seen:
                    self.write("\n")

    def write_subtree(self, element: Element) -> None:
        self._element(element, rendered={}, apex=True)

    # -- node renderers ------------------------------------------------------------

    def _element(self, element: Element, rendered: dict[str | None, str],
                 apex: bool) -> None:
        write = self.write
        exclusive = self.exclusive
        with_comments = self.with_comments
        # The apex namespace axis still needs the ancestor walk; every
        # descendant axis is derived incrementally in the loop below.
        apex_axis = element.in_scope_namespaces()
        apex_axis.pop("xml", None)  # the implicit xml binding: never emitted
        stack: list = [(element, rendered, apex_axis, apex)]
        push = stack.append
        pop = stack.pop
        while stack:
            item = pop()
            if item.__class__ is str:
                write(item)
                continue
            element, rendered, ns_axis, apex = item

            if apex or exclusive or element.ns_decls:
                if exclusive:
                    to_render = self._exclusive_ns(element, ns_axis,
                                                   rendered)
                else:
                    to_render = {
                        prefix: uri for prefix, uri in ns_axis.items()
                        if rendered.get(prefix) != uri
                    }
                emit_default_undecl = (
                    None not in ns_axis
                    and rendered.get(None) not in (None, "")
                )
                if to_render or emit_default_undecl:
                    child_rendered = dict(rendered)
                    child_rendered.update(to_render)
                    if emit_default_undecl:
                        child_rendered.pop(None, None)
                else:
                    child_rendered = rendered
            else:
                # Inclusive, below the apex, declaring nothing: the axis
                # is the parent's and *rendered* is the parent's
                # child_rendered, which maps every prefix of that axis
                # to its URI, so no namespace node and no default
                # undeclaration is rendered (DESIGN §3.2).
                to_render = None
                emit_default_undecl = False
                child_rendered = rendered

            attrs = element.attrs
            if apex and not exclusive \
                    and isinstance(element.parent, Element):
                attrs = self._inherit_xml_attributes(element, list(attrs))

            self._check_prefixes(element, ns_axis)

            qname = element.qname
            write("<" + qname)
            if emit_default_undecl:
                write(' xmlns=""')
            if to_render:
                for prefix in sorted(to_render, key=_prefix_order):
                    name = f"xmlns:{prefix}" if prefix else "xmlns"
                    write(f' {name}="{escape_attribute(to_render[prefix])}"')
            if len(attrs) > 1:
                attrs = sorted(attrs, key=_attribute_order)
            for attr in attrs:
                write(f' {attr.qname}="{escape_attribute(attr.value)}"')
            write(">")

            push(f"</{qname}>")
            children = element.children
            for index in range(len(children) - 1, -1, -1):
                child = children[index]
                if isinstance(child, Element):
                    decls = child.ns_decls
                    if decls:
                        child_axis = dict(ns_axis)
                        for prefix, uri in decls.items():
                            if prefix == "xml":
                                continue
                            if prefix is None and uri == "":
                                child_axis.pop(None, None)
                            else:
                                child_axis[prefix] = uri
                    else:
                        child_axis = ns_axis
                    push((child, child_rendered, child_axis, False))
                elif isinstance(child, Text):
                    push(escape_text(child.data))
                elif isinstance(child, ProcessingInstruction):
                    data = f" {child.data}" if child.data else ""
                    push(f"<?{child.target}{data}?>")
                elif isinstance(child, Comment) and with_comments:
                    push(f"<!--{child.data}-->")

    def _exclusive_ns(self, element: Element,
                      ns_axis: dict[str | None, str],
                      rendered: dict[str | None, str]) -> dict[str | None, str]:
        """Namespace nodes to render under exclusive C14N."""
        utilized: set[str | None] = {element.prefix}
        for attr in element.attrs:
            if attr.prefix is not None:
                utilized.add(attr.prefix)
        for prefix in self.inclusive_prefixes:
            utilized.add(None if prefix == "#default" else prefix)
        to_render = {}
        for prefix in utilized:
            if prefix == "xml":
                continue
            if prefix in ns_axis and rendered.get(prefix) != ns_axis[prefix]:
                to_render[prefix] = ns_axis[prefix]
        return to_render

    @staticmethod
    def _inherit_xml_attributes(element: Element, attrs):
        """Pull ``xml:*`` attributes from excluded ancestors (C14N §2.4)."""
        present = {a.local for a in attrs if a.ns_uri == XML_NS}
        inherited: dict[str, "object"] = {}
        ancestor = element.parent
        while isinstance(ancestor, Element):
            for attr in ancestor.attrs:
                if attr.ns_uri == XML_NS and attr.local not in present \
                        and attr.local not in inherited:
                    inherited[attr.local] = attr
            ancestor = ancestor.parent
        return attrs + [a.copy() for a in inherited.values()]

    def _check_prefixes(self, element: Element,
                        ns_axis: dict[str | None, str]) -> None:
        if element.prefix and element.prefix != "xml" \
                and element.prefix not in ns_axis:
            raise CanonicalizationError(
                f"element prefix {element.prefix!r} is not bound in scope"
            )
        for attr in element.attrs:
            if attr.prefix and attr.prefix != "xml" \
                    and attr.prefix not in ns_axis:
                raise CanonicalizationError(
                    f"attribute prefix {attr.prefix!r} is not bound in scope"
                )

    def _pi(self, pi: ProcessingInstruction) -> None:
        data = f" {pi.data}" if pi.data else ""
        self.write(f"<?{pi.target}{data}?>")

    def _comment(self, comment: Comment) -> None:
        self.write(f"<!--{comment.data}-->")


def _prefix_order(prefix: str | None) -> str:
    return prefix or ""


def _attribute_order(attr) -> tuple[str, str]:
    return (attr.ns_uri or "", attr.local)
