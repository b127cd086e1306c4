"""Character escaping for XML serialization and canonicalization.

Canonical XML 1.0 prescribes exact escaping rules that differ between
text nodes and attribute values; the plain serializer reuses them so a
parse → serialize round trip is loss-free.

Each rule is a chain of ``str.replace`` calls, ampersand first (so the
``&`` of an inserted reference is never escaped again): every call is
one C-speed pass that returns its input unchanged when the character
is absent.
"""

from __future__ import annotations


def escape_text(value: str) -> str:
    """Escape character data per C14N §2.3 (text nodes)."""
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace("\r", "&#xD;"))


def escape_attribute(value: str) -> str:
    """Escape an attribute value per C14N §2.3 (attribute nodes)."""
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace('"', "&quot;").replace("\t", "&#x9;")
            .replace("\n", "&#xA;").replace("\r", "&#xD;"))
