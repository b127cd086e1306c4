"""A namespace-aware XML 1.0 parser built from scratch.

Supports the full surface the security stack needs: elements and
attributes with namespace processing, character/entity references,
CDATA sections, comments, processing instructions, the XML declaration,
and a skipped (but well-formedness-checked) DOCTYPE.  External entities
and DTD-defined entities are deliberately rejected — the classic XML
security posture against entity-expansion attacks, which matters for a
player that parses downloaded applications.

Structural resource attacks are contained by a
:class:`~repro.resilience.limits.ResourceGuard`: element descent runs
on an explicit work stack (never the Python call stack), so nesting
depth is a quota decision — exceeding it raises the typed
:class:`~repro.errors.ResourceLimitExceeded` instead of
``RecursionError`` — and input size, node count, attribute fan-out and
text-node size are metered as the document streams through.  Callers
on untrusted paths pass a guard explicitly (lint rule LIN106); the
documented default is ``ResourceGuard.default()``.

Element content is read by one loop over whole tokens: a start tag
with its attribute list (and, for a leaf of plain text, its text and
end tag), an end tag, a run of text.  Every other construct, and every
token that could raise or trip a quota, goes to the per-construct
helper that has always handled it, at the same offset (DESIGN.md
§3.2).

Errors carry 1-based line/column positions, computed from the offset
only when an error is raised.
"""

from __future__ import annotations

import re

from repro.errors import NamespaceError, XMLSyntaxError
from repro.xmlcore.names import (
    XML_NS, is_name_char, is_name_start_char, is_xml_char,
    split_qname,
)
from repro.xmlcore.tree import (
    Attr, Comment, Document, Element, ProcessingInstruction, fresh_stamp,
    parsed_element, parsed_text,
)

_PREDEFINED_ENTITIES = {
    "amp": "&", "lt": "<", "gt": ">", "apos": "'", "quot": '"',
}

#: A reference that needs no error path: a name, or ``&#`` decimal /
#: ``&#x`` hex digits as XML 1.0 production [66] spells them.
_REFERENCE_RE = re.compile(
    r"&(?:#([0-9]+)|#x([0-9a-fA-F]+)|([A-Za-z_:][A-Za-z0-9_:.\-]*));"
)
#: Production [66] digits.  ``int()`` alone would also take signs,
#: ``_``, surrounding spaces and non-ASCII digits.
_DECIMAL_DIGITS_RE = re.compile("[0-9]+")
_HEX_DIGITS_RE = re.compile("[0-9a-fA-F]+")

#: Sentinel for "no limit" in the hot parse loops (plain ``float``
#: comparison instead of a ``None`` test per character).
_UNLIMITED = float("inf")

#: ASCII prefix of an XML Name.  For pure-ASCII names this is the whole
#: Name production; a non-ASCII continuation falls back to the exact
#: per-character classes (``is_name_char`` accepts more than any cheap
#: regex can enumerate).
_ASCII_NAME_RE = re.compile(r"[A-Za-z_:][A-Za-z0-9_:.\-]*")

#: Characters that are NOT legal XML 1.0 chars — the regex negation of
#: :func:`repro.xmlcore.names.is_xml_char`, used to vet whole runs of
#: text at once instead of per character.
_ILLEGAL_XML_RE = re.compile(
    "[^\t\n\r\u0020-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]"
)

#: A run of attribute-value characters needing no special handling:
#: everything up to the closing quote, ``<``, ``&`` or whitespace
#: normalization.  (Runs are still vetted with ``_ILLEGAL_XML_RE``.)
_ATTR_PLAIN_RE = {
    '"': re.compile('[^"<&\t\n]+'),
    "'": re.compile("[^'<&\t\n]+"),
}

#: A run of character-data characters needing no special handling.
#: ``>`` is excluded only so the ``]]>`` prohibition check keeps seeing
#: every ``>`` individually.
_TEXT_PLAIN_RE = re.compile("[^<&>]+")

#: Whitespace inside markup.  Line ends are normalized to ``\n``
#: before parsing, so ``\r`` never reaches the scanner.
_WS = r"[ \t\n]"

#: A QName of ASCII name characters: at most one colon, with a name
#: start character on each side of it.  Any other name -- non-ASCII,
#: or malformed as a QName -- takes the per-character scanner.
_ASCII_QNAME = r"[A-Za-z_][A-Za-z0-9_.\-]*(?::[A-Za-z_][A-Za-z0-9_.\-]*)?"

#: A quoted attribute value that needs no expansion or normalization:
#: no reference, ``<``, tab or newline between the quotes.
_PLAIN_VALUE = r"\"[^\"<&\t\n]*\"|'[^'<&\t\n]*'"

#: One such attribute: ``(name, quoted value)``.
_ATTR_RE = re.compile(
    rf"{_WS}+({_ASCII_QNAME}){_WS}*={_WS}*({_PLAIN_VALUE})"
)

#: A whole start tag of that shape, and when the element is a leaf
#: of plain text, its text and end tag too: ``(qname, attribute list,
#: "/" or None, leaf text or None)``.
_START_TAG_RE = re.compile(
    rf"<({_ASCII_QNAME})"
    rf"((?:{_WS}+{_ASCII_QNAME}{_WS}*={_WS}*(?:{_PLAIN_VALUE}))*)"
    rf"{_WS}*(?:(/)>|>(?:([^<&>]*)</\1>)?)"
)

#: The content markup other than tags and ``<?`` (a PI).
_MISC_OPENERS = ("<!--", "<![CDATA[")


#: The ASCII characters that are not XML 1.0 characters, as a
#: ``bytes.translate`` table mapping each of them to 0.
_ASCII_ILLEGAL_TABLE = bytes(
    0 if code < 0x20 and code not in (0x9, 0xA, 0xD) else 1
    for code in range(256)
)


def _first_illegal(source: str, start: int) -> int:
    """Offset of the first non-XML character at or after *start*, or
    ``len(source)``.  Input before it needs no per-run vetting."""
    if source.isascii():
        found = source.encode("ascii").translate(
            _ASCII_ILLEGAL_TABLE).find(0, start)
        return found if found >= 0 else len(source)
    bad = _ILLEGAL_XML_RE.search(source, start)
    return bad.start() if bad is not None else len(source)


def _link(parent: Element, node) -> None:
    """Attach a freshly parsed *node* (no ancestor re-stamping: the
    element loop stamps each element when it closes)."""
    node.parent = parent
    parent.children.append(node)


def _default_guard():
    # Imported lazily: repro.resilience pulls in the network stack,
    # which imports repro.xmlcore — a module-level import here would
    # close that cycle while xmlcore is still initializing.
    from repro.resilience.limits import ResourceGuard

    return ResourceGuard.default()


class _Scanner:
    """Cursor over the source text with location-aware errors."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0

    def error(self, message: str, pos: int | None = None) -> XMLSyntaxError:
        at = self.pos if pos is None else pos
        line = self.source.count("\n", 0, at) + 1
        last_nl = self.source.rfind("\n", 0, at)
        column = at - last_nl
        return XMLSyntaxError(message, line, column)

    def eof(self) -> bool:
        return self.pos >= len(self.source)

    def peek(self, n: int = 1) -> str:
        return self.source[self.pos:self.pos + n]

    def advance(self, n: int = 1) -> str:
        chunk = self.source[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def accept(self, literal: str) -> bool:
        if self.source.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.accept(literal):
            raise self.error(f"expected {literal!r}")

    def skip_whitespace(self) -> int:
        source = self.source
        pos = start = self.pos
        size = len(source)
        while pos < size and source[pos] in " \t\r\n":
            pos += 1
        self.pos = pos
        return pos - start

    def read_name(self) -> str:
        source = self.source
        match = _ASCII_NAME_RE.match(source, self.pos)
        if match is not None:
            start, end = self.pos, match.end()
            if end < len(source) and source[end] > "\x7f":
                # Rare: the name continues with non-ASCII characters —
                # finish with the exact per-character classes.
                self.pos = end
                while not self.eof() and is_name_char(source[self.pos]):
                    self.pos += 1
                end = self.pos
            else:
                self.pos = end
            return source[start:end]
        if self.eof() or not is_name_start_char(source[self.pos]):
            raise self.error("expected an XML name")
        start = self.pos
        self.pos += 1
        while not self.eof() and is_name_char(source[self.pos]):
            self.pos += 1
        return source[start:self.pos]

    def read_until(self, terminator: str, what: str) -> str:
        end = self.source.find(terminator, self.pos)
        if end < 0:
            raise self.error(f"unterminated {what}")
        chunk = self.source[self.pos:end]
        self.pos = end + len(terminator)
        return chunk


class Parser:
    """Parses a complete document or a standalone element fragment.

    *guard* meters the input against resource quotas; when omitted,
    a fresh :meth:`ResourceGuard.default` is used.  Pass an explicit
    guard on untrusted paths so the policy decision is visible (and
    so one guard can meter a whole session).
    """

    def __init__(self, source: str | bytes, *, guard=None):
        self.guard = guard if guard is not None else _default_guard()
        self.guard.check_input_size(len(source))
        if isinstance(source, bytes):
            source = self._decode(source)
        # Normalize line endings per XML 1.0 §2.11 before any processing.
        if "\r" in source:
            source = source.replace("\r\n", "\n").replace("\r", "\n")
        self._scanner = _Scanner(source)

    @staticmethod
    def _decode(raw: bytes) -> str:
        if raw.startswith(b"\xef\xbb\xbf"):
            raw = raw[3:]
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise XMLSyntaxError(f"input is not valid UTF-8: {exc}") from None

    # -- entry points -----------------------------------------------------------

    def parse_document(self) -> Document:
        """Parse a full document: prolog, one root element, misc trailer."""
        s = self._scanner
        document = Document()
        self._parse_prolog(document)
        root = self._parse_element(scope=[{None: None, "xml": XML_NS}])
        document.append(root)
        while True:
            s.skip_whitespace()
            if s.eof():
                break
            if s.accept("<!--"):
                document.append(Comment(self._finish_comment()))
            elif s.accept("<?"):
                document.append(self._finish_pi())
            else:
                raise s.error("content after document root")
        return document

    def parse_fragment(self) -> Element:
        """Parse a standalone element (leading prolog allowed)."""
        document = self.parse_document()
        root = document.root
        document.remove(root)
        return root

    # -- prolog -------------------------------------------------------------------

    def _parse_prolog(self, document: Document) -> None:
        s = self._scanner
        if s.accept("<?xml"):
            s.read_until("?>", "XML declaration")
        seen_doctype = False
        while True:
            s.skip_whitespace()
            if s.accept("<!--"):
                document.append(Comment(self._finish_comment()))
            elif s.peek(2) == "<?":
                s.advance(2)
                document.append(self._finish_pi())
            elif s.peek(9) == "<!DOCTYPE":
                if seen_doctype:
                    raise s.error("multiple DOCTYPE declarations")
                seen_doctype = True
                self._skip_doctype()
            else:
                return

    def _skip_doctype(self) -> None:
        """Skip a DOCTYPE declaration, rejecting entity definitions."""
        s = self._scanner
        s.expect("<!DOCTYPE")
        depth = 0
        start = s.pos
        while True:
            if s.eof():
                raise s.error("unterminated DOCTYPE")
            ch = s.advance()
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == ">" and depth <= 0:
                break
        body = s.source[start:s.pos]
        if "<!ENTITY" in body:
            raise s.error(
                "DTD entity definitions are not allowed "
                "(security hardening)", start,
            )

    # -- element ------------------------------------------------------------------

    def _parse_element(
        self, scope: list[dict[str | None, str | None]]
    ) -> Element:
        """Parse one element and its whole subtree, iteratively.

        Descent runs on explicit stacks (open elements and their end
        tags) rather than Python recursion, so arbitrarily deep input
        can never overflow the interpreter stack: the depth quota is
        enforced by the guard and everything beyond it is a typed
        error.

        Start tags (:data:`_START_TAG_RE`), end tags and text runs
        (:data:`_TEXT_PLAIN_RE`) are taken as whole tokens.  Anything
        else -- references, ``>`` in text, comments, PIs, CDATA,
        non-ASCII names, attribute values that need normalization, a
        mismatched end tag, a quota that could trip inside a tag,
        input past the first illegal character -- goes to the
        per-construct helper at the same offset, so every error and
        every trip comes from the code that has always raised it.
        Both kinds of start tag go through :meth:`_build_element`.
        Children are linked without ``Element.append`` and each
        element is stamped when it closes.
        """
        s = self._scanner
        source = s.source
        size = len(source)
        guard = self.guard
        limits = guard.limits
        max_depth = (limits.max_element_depth
                     if limits.max_element_depth is not None else _UNLIMITED)
        max_text = (limits.max_text_bytes
                    if limits.max_text_bytes is not None else _UNLIMITED)
        # Remaining node budget for this parse; committed to the guard
        # once at the end (or at the moment it would be exceeded), so
        # the hot loop pays one integer compare per node, not a call.
        if limits.max_node_count is not None:
            node_budget = limits.max_node_count - guard.node_count
        else:
            node_budget = _UNLIMITED
        max_attrs = (limits.max_attributes_per_element
                     if limits.max_attributes_per_element is not None
                     else _UNLIMITED)
        nodes = 0
        clean_until = _first_illegal(source, s.pos)
        start_tag = _START_TAG_RE.match
        attributes = _ATTR_RE.findall
        text_run = _TEXT_PLAIN_RE.match

        open_elements: list[Element] = []
        end_tags: list[str] = []
        current = None  # the open element; None before the root
        text_parts: list[str] = []
        text_len = 0
        pos = s.pos

        while True:
            if current is not None:
                if pos >= size:
                    raise s.error(
                        f"unexpected end of input inside <{current.qname}>",
                        pos,
                    )
                ch = source[pos]
                if ch != "<":
                    if ch == "&":
                        s.pos = pos
                        text_parts.append(self._read_reference())
                        pos = s.pos
                        text_len += 1
                    elif ch == ">":
                        # The ']]>' prohibition applies to the *expanded*
                        # text of the current text node; entries in
                        # text_parts are runs or single reference
                        # expansions, so the last two characters may
                        # straddle an entry boundary.
                        last = text_parts[-1] if text_parts else ""
                        if last.endswith("]") and (
                            (len(last) >= 2 and last[-2] == "]")
                            or (len(last) == 1 and len(text_parts) >= 2
                                and text_parts[-2].endswith("]"))
                        ):
                            raise s.error(
                                "']]>' is not allowed in character data",
                                pos,
                            )
                        text_parts.append(">")
                        text_len += 1
                        pos += 1
                    else:
                        # A whole run of ordinary characters at once;
                        # '>' stays out of runs so the ']]>' check
                        # above sees each one.
                        end = text_run(source, pos).end()
                        if end > clean_until:
                            bad = _ILLEGAL_XML_RE.search(source, pos, end)
                            if bad is not None:
                                s.pos = bad.start()
                                self._check_char(source[s.pos])
                        text_parts.append(source[pos:end])
                        text_len += end - pos
                        pos = end
                    if text_len > max_text:
                        guard.check_text_size(text_len)
                    continue

                mark = source[pos + 1:pos + 2]
                if mark == "/":
                    if text_parts:
                        parsed_text("".join(text_parts), current)
                        text_parts = []
                        text_len = 0
                        nodes += 1
                        if nodes > node_budget:
                            guard.charge_nodes(nodes)
                    end_tag = end_tags.pop()
                    if source.startswith(end_tag, pos):
                        pos += len(end_tag)
                    else:
                        open_qname = end_tag[2:-1]
                        s.pos = pos + 2
                        end_name = s.read_name()
                        if end_name != open_qname:
                            raise s.error(
                                f"mismatched end tag </{end_name}> "
                                f"for <{open_qname}>",
                                pos + 2,
                            )
                        s.skip_whitespace()
                        s.expect(">")
                        pos = s.pos
                    current.revision = fresh_stamp()
                    scope.pop()
                    open_elements.pop()
                    if not open_elements:
                        root = current
                        break
                    current = open_elements[-1]
                    continue
                if text_parts:
                    parsed_text("".join(text_parts), current)
                    text_parts = []
                    text_len = 0
                    nodes += 1
                if mark == "?" or source.startswith(_MISC_OPENERS, pos):
                    if mark == "?":
                        s.pos = pos + 2
                        _link(current, self._finish_pi())
                    elif source.startswith("<!--", pos):
                        s.pos = pos + 4
                        _link(current, Comment(self._finish_comment()))
                    else:
                        s.pos = pos + 9
                        data = s.read_until("]]>", "CDATA section")
                        if len(data) > max_text:
                            guard.check_text_size(len(data))
                        parsed_text(data, current, True)
                    pos = s.pos
                    nodes += 1
                    if nodes > node_budget:
                        guard.charge_nodes(nodes)
                    continue

            # A start tag: the root's, or a child of the open element.
            # One that matches _START_TAG_RE before the first illegal
            # character is taken whole, with its text and end tag when
            # it is a leaf of plain text, unless its attribute text or
            # count could trip a quota inside it; any other is scanned
            # a character at a time.
            match = start_tag(source, pos)
            element = None
            if match is not None and match.end() <= clean_until:
                attr_start, attr_end = match.span(2)
                if attr_end - attr_start <= max_text:
                    # No offsets (-1): they only place an error, and a
                    # tag whose names raise is scanned again below.
                    raw_attrs = [
                        (name, quoted[1:-1], -1) for name, quoted
                        in attributes(source, attr_start, attr_end)
                    ]
                    if len(raw_attrs) <= max_attrs:
                        qname, slash, leaf_text = match.group(1, 3, 4)
                        try:
                            element = self._build_element(
                                qname, raw_attrs, scope, -1, current)
                        except XMLSyntaxError:
                            pass  # raised again, and placed, below
                        else:
                            pos = match.end()
                            self_closing = slash is not None
            if element is None:
                s.pos = pos
                element, qname, self_closing = \
                    self._parse_start_tag(scope, current)
                pos = s.pos
                leaf_text = None
            nodes += 1
            if nodes > node_budget:
                guard.charge_nodes(nodes)
            if self_closing:
                element.revision = fresh_stamp()
                scope.pop()
            elif leaf_text is None:
                open_elements.append(element)
                end_tags.append(f"</{qname}>")
                if len(open_elements) > max_depth:
                    guard.check_depth(len(open_elements))
                current = element
                continue
            else:
                # A leaf: its text and end tag were matched too.
                depth = len(open_elements) + 1
                if depth > max_depth:
                    guard.check_depth(depth)
                if leaf_text:
                    if len(leaf_text) > max_text:
                        guard.check_text_size(len(leaf_text))
                    parsed_text(leaf_text, element)
                    nodes += 1
                    if nodes > node_budget:
                        guard.charge_nodes(nodes)
                element.revision = fresh_stamp()
                scope.pop()
            if not open_elements:
                root = element  # self-closing, or a leaf
                break

        s.pos = pos
        guard.charge_nodes(nodes)
        return root

    def _parse_start_tag(
        self, scope: list[dict[str | None, str | None]],
        parent: Element | None,
    ) -> tuple[Element, str, bool]:
        """Scan one start tag; returns ``(element, qname, self_closing)``.

        Pushes the element's namespace bindings onto *scope* (via
        :meth:`_build_element`); the caller pops them when the element
        closes.
        """
        s = self._scanner
        guard = self.guard
        max_attrs = (guard.limits.max_attributes_per_element
                     if guard.limits.max_attributes_per_element is not None
                     else _UNLIMITED)
        s.expect("<")
        open_pos = s.pos
        qname = s.read_name()
        source = s.source
        raw_attrs: list[tuple[str, str, int]] = []
        while True:
            had_space = s.skip_whitespace() > 0
            ch = source[s.pos:s.pos + 1]
            if ch == ">":
                s.pos += 1
                self_closing = False
                break
            if ch == "/" and source.startswith("/>", s.pos):
                s.pos += 2
                self_closing = True
                break
            if not ch:
                raise s.error("unterminated start tag")
            if not had_space:
                raise s.error("whitespace required before attribute")
            attr_pos = s.pos
            attr_name = s.read_name()
            s.skip_whitespace()
            s.expect("=")
            s.skip_whitespace()
            raw_attrs.append((attr_name, self._read_attr_value(), attr_pos))
            if len(raw_attrs) > max_attrs:
                guard.check_attribute_count(len(raw_attrs))

        element = self._build_element(qname, raw_attrs, scope, open_pos,
                                      parent)
        return element, qname, self_closing

    def _build_element(self, qname: str,
                       raw_attrs: list[tuple[str, str, int]],
                       scope: list[dict[str | None, str | None]],
                       open_pos: int, parent: Element | None) -> Element:
        """Apply the namespace rules to a start tag and build its element.

        *raw_attrs* are the tag's ``(name, value, offset)`` triples in
        document order; the offsets and *open_pos* (the tag name's)
        only place an error.  Links the element to *parent* (``None``
        for the root) and, once every check has passed, pushes its
        in-scope bindings onto *scope*: the parent's own dict when the
        tag declares nothing.
        """
        s = self._scanner
        bindings = inherited = scope[-1]
        declared: dict[str | None, str] = {}
        plain: list[tuple[str, str, int]] = []
        seen_raw: set[str] = set()
        for name, value, pos in raw_attrs:
            if name in seen_raw:
                raise s.error(f"duplicate attribute {name!r}", pos)
            seen_raw.add(name)
            if name == "xmlns":
                prefix = None
                uri = value or None
            elif name.startswith("xmlns:"):
                prefix = name[6:]
                if prefix == "xmlns" or (prefix == "xml" and value != XML_NS):
                    raise s.error(f"illegal namespace binding for {prefix!r}", pos)
                if not value:
                    raise s.error(
                        f"cannot undeclare prefix {prefix!r} in XML 1.0", pos
                    )
                uri = value
            else:
                plain.append((name, value, pos))
                continue
            if bindings is inherited:
                bindings = dict(inherited)
            declared[prefix] = value
            bindings[prefix] = uri

        if ":" in qname:
            try:
                prefix, local = split_qname(qname)
            except NamespaceError as exc:
                raise s.error(str(exc), open_pos) from None
            ns_uri = bindings.get(prefix)
            if ns_uri is None:
                raise s.error(f"undeclared prefix {prefix!r}", open_pos)
        else:
            prefix, local, ns_uri = None, qname, bindings.get(None)

        element = parsed_element(local, ns_uri, prefix, parent, declared)
        # An unprefixed name is its own expanded name, and repeated raw
        # names were refused above: only prefixed names can clash.
        seen_expanded: set[tuple[str, str]] = set()
        for name, value, pos in plain:
            if ":" not in name:
                element.attrs.append(Attr(name, value))
                continue
            try:
                a_prefix, a_local = split_qname(name)
            except NamespaceError as exc:
                raise s.error(str(exc), pos) from None
            a_uri = bindings.get(a_prefix)
            if a_uri is None:
                raise s.error(f"undeclared prefix {a_prefix!r}", pos)
            key = (a_uri, a_local)
            if key in seen_expanded:
                raise s.error(
                    f"duplicate attribute {{{a_uri}}}{a_local}", pos
                )
            seen_expanded.add(key)
            element.attrs.append(Attr(a_local, value, a_prefix, a_uri))
        scope.append(bindings)
        return element

    # -- attribute values -----------------------------------------------------------

    def _read_attr_value(self) -> str:
        s = self._scanner
        source = s.source
        max_text = (self.guard.limits.max_text_bytes
                    if self.guard.limits.max_text_bytes is not None
                    else _UNLIMITED)
        quote = s.advance()
        if quote not in ("'", '"'):  # end of input included
            raise s.error("attribute value must be quoted", s.pos - 1)
        plain = _ATTR_PLAIN_RE[quote]
        parts: list[str] = []
        value_len = 0
        while True:
            # Consume a whole run of ordinary characters at once; the
            # loop below only ever sees the closing quote, '<', '&',
            # or whitespace needing normalization.
            match = plain.match(source, s.pos)
            if match is not None:
                run = match.group()
                bad = _ILLEGAL_XML_RE.search(run)
                if bad is not None:
                    s.pos += bad.start()
                    self._check_char(source[s.pos])
                s.pos = match.end()
                parts.append(run)
                value_len += len(run)
                if value_len > max_text:
                    self.guard.check_text_size(value_len)
            if s.eof():
                raise s.error("unterminated attribute value")
            ch = source[s.pos]
            if ch == quote:
                s.pos += 1
                break
            if ch == "<":
                raise s.error("'<' is not allowed in attribute values")
            if ch == "&":
                parts.append(self._read_reference())
            else:
                # Attribute-value normalization (XML 1.0 §3.3.3).
                parts.append(" ")
                s.pos += 1
            value_len += 1
            if value_len > max_text:
                self.guard.check_text_size(value_len)
        return "".join(parts)

    # -- misc constructs ------------------------------------------------------------

    def _read_reference(self) -> str:
        s = self._scanner
        start = s.pos
        match = _REFERENCE_RE.match(s.source, start)
        if match is not None:
            decimal, hexadecimal, name = match.groups()
            if name is not None:
                value = _PREDEFINED_ENTITIES.get(name)
            elif decimal is not None and len(decimal) > 7:
                value = None  # leading zeros, or out of range
            else:
                code = int(decimal) if decimal is not None \
                    else int(hexadecimal, 16)
                value = chr(code) if code <= 0x10FFFF else None
                if value is not None and not is_xml_char(value):
                    value = None
            if value is not None:
                s.pos = match.end()
                return value
        # Everything else is an error; report it as it always was.
        s.expect("&")
        if s.accept("#x"):
            digits = s.read_until(";", "character reference")
            if _HEX_DIGITS_RE.fullmatch(digits) is None:
                raise s.error(f"bad hex character reference &#x{digits};", start)
            code = int(digits, 16)
        elif s.accept("#"):
            digits = s.read_until(";", "character reference")
            try:
                if _DECIMAL_DIGITS_RE.fullmatch(digits) is None:
                    raise ValueError(digits)
                code = int(digits, 10)
            except ValueError:  # also past int()'s digit-count limit
                raise s.error(f"bad character reference &#{digits};", start)
        else:
            name = s.read_name()
            s.expect(";")
            try:
                return _PREDEFINED_ENTITIES[name]
            except KeyError:
                raise s.error(
                    f"undefined entity &{name}; (only predefined entities "
                    "are supported)", start,
                ) from None
        try:
            ch = chr(code)
        except (ValueError, OverflowError):
            raise s.error(f"character reference out of range", start) from None
        if not is_xml_char(ch):
            raise s.error(
                f"character reference to illegal XML character U+{code:04X}",
                start,
            )
        return ch

    def _finish_comment(self) -> str:
        s = self._scanner
        data = s.read_until("-->", "comment")
        if "--" in data or data.endswith("-"):
            raise s.error("'--' is not allowed inside comments")
        return data

    def _finish_pi(self) -> ProcessingInstruction:
        s = self._scanner
        target = s.read_name()
        if target.lower() == "xml":
            raise s.error("processing instruction target may not be 'xml'")
        if s.peek() == "?" :
            s.expect("?>")
            return ProcessingInstruction(target, "")
        s.skip_whitespace()
        data = s.read_until("?>", "processing instruction")
        return ProcessingInstruction(target, data)

    def _check_char(self, ch: str) -> None:
        if not is_xml_char(ch):
            raise self._scanner.error(
                f"illegal XML character U+{ord(ch):04X}"
            )


def parse_document(source: str | bytes, *, guard=None) -> Document:
    """Parse *source* into a :class:`Document`.

    *guard* is the :class:`ResourceGuard` metering this input; when
    omitted a fresh default guard applies the documented CE-device
    limits.
    """
    return Parser(source, guard=guard).parse_document()


def parse_element(source: str | bytes, *, guard=None) -> Element:
    """Parse *source* and return its root :class:`Element`.

    *guard* as for :func:`parse_document`.
    """
    return Parser(source, guard=guard).parse_fragment()
