"""XMLDSig transforms and the transform pipeline.

Implements the transforms the paper's scenarios exercise:

* ``enveloped-signature`` — removes the signature being processed, so a
  signature embedded inside its target (Fig 6, "enveloped") does not
  digest itself;
* the four canonicalization algorithms (inclusive/exclusive, with and
  without comments);
* ``base64`` decoding;
* an XPath selection transform (XPath-lite subset) for selective
  signing of sub-markups (Fig 5);
* the W3C **Decryption Transform** (``decrypt#XML`` / ``decrypt#Binary``)
  of the paper's reference [21], which tells the verifier which
  encrypted regions must be decrypted *before* digesting — the glue
  that fixes the sign/encrypt order in the end-to-end scenario (Fig 9).

A transform pipeline value is an :class:`Element` (node-set stand-in),
a list of elements (XPath result), or ``bytes``; the pipeline finishes
by canonicalizing whatever is left into octets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SignatureError, XMLError
from repro.xmlcore import (
    C14N, DSIG_NS, EXC_C14N, canonicalize, element, find_all,
)
from repro.xmlcore.c14n import ALL_C14N_ALGORITHMS, canonicalize_into
from repro.xmlcore.tree import Element, Node
from repro.primitives.encoding import b64decode

ENVELOPED_SIGNATURE = "http://www.w3.org/2000/09/xmldsig#enveloped-signature"
BASE64 = "http://www.w3.org/2000/09/xmldsig#base64"
XPATH = "http://www.w3.org/TR/1999/REC-xpath-19991116"
DECRYPT_XML = "http://www.w3.org/2002/07/decrypt#XML"
DECRYPT_BINARY = "http://www.w3.org/2002/07/decrypt#Binary"
DECRYPT_TRANSFORM_NS = "http://www.w3.org/2002/07/decrypt#"

KNOWN_TRANSFORMS = ALL_C14N_ALGORITHMS + (
    ENVELOPED_SIGNATURE, BASE64, XPATH, DECRYPT_XML, DECRYPT_BINARY,
)


def node_path(node: Element) -> tuple[int, ...]:
    """Child-index path of *node* from its tree root (for tree copies)."""
    path: list[int] = []
    current: Node = node
    while isinstance(current.parent, Element):
        path.append(current.parent.children.index(current))
        current = current.parent
    return tuple(reversed(path))


def node_at_path(root: Element, path: tuple[int, ...]) -> Element:
    """Inverse of :func:`node_path` on a (copied) tree."""
    node: Node = root
    for index in path:
        if not isinstance(node, Element):
            raise XMLError("node path does not resolve to an element")
        node = node.children[index]
    if not isinstance(node, Element):
        raise XMLError("node path does not resolve to an element")
    return node


@dataclass
class Transform:
    """One ds:Transform step.

    Attributes:
        algorithm: the transform algorithm URI.
        xpath: selection expression (XPath transform only).
        inclusive_prefixes: ``InclusiveNamespaces/@PrefixList`` entries
            (exclusive C14N only).
        except_uris: ``dcrpt:Except/@URI`` values naming encrypted
            regions the decryption transform must *not* decrypt
            (i.e. regions that were encrypted before signing).
    """

    algorithm: str
    xpath: str | None = None
    inclusive_prefixes: tuple[str, ...] = ()
    except_uris: tuple[str, ...] = ()

    def to_element(self) -> Element:
        node = element("ds:Transform", DSIG_NS,
                       attrs={"Algorithm": self.algorithm})
        if self.xpath is not None:
            node.append(element("ds:XPath", DSIG_NS, text=self.xpath))
        if self.inclusive_prefixes:
            inc = element(
                "ec:InclusiveNamespaces", EXC_C14N,
                nsmap={"ec": EXC_C14N},
                attrs={"PrefixList": " ".join(self.inclusive_prefixes)},
            )
            node.append(inc)
        for uri in self.except_uris:
            node.append(element(
                "dcrpt:Except", DECRYPT_TRANSFORM_NS,
                nsmap={"dcrpt": DECRYPT_TRANSFORM_NS},
                attrs={"URI": uri},
            ))
        return node

    @classmethod
    def from_element(cls, node: Element) -> "Transform":
        algorithm = node.get("Algorithm")
        if not algorithm:
            raise SignatureError("ds:Transform lacks an Algorithm")
        xpath = None
        xpath_el = node.first_child("XPath", DSIG_NS) \
            or node.first_child("XPath")
        if xpath_el is not None:
            xpath = xpath_el.text_content()
        prefixes: tuple[str, ...] = ()
        inc = node.first_child("InclusiveNamespaces", EXC_C14N)
        if inc is not None:
            prefixes = tuple((inc.get("PrefixList") or "").split())
        except_uris = tuple(
            child.get("URI") or ""
            for child in node.child_elements()
            if child.local == "Except"
        )
        return cls(algorithm, xpath, prefixes, except_uris)


@dataclass
class TransformContext:
    """Everything a transform pipeline may need.

    Attributes:
        working_root: copy of the document root the current value lives
            in (set by the dereferencer).
        signature_path: path of the ds:Signature being processed inside
            ``working_root`` (enveloped transform), or ``None``.
        decryptor: object with ``decrypt_element(encrypted_data) ->
            list[Node]`` used by the decryption transform.
        namespaces: prefix bindings for XPath expressions.
    """

    working_root: Element | None = None
    signature_path: tuple[int, ...] | None = None
    decryptor: object | None = None
    namespaces: dict[str, str] = field(default_factory=dict)


def stream_transform_octets(value, transforms: list[Transform],
                            context: TransformContext, write,
                            *, guard=None) -> int:
    """Run *value* through *transforms*; stream the final octets into *write*.

    Subtree-selecting transforms pass nodes down the chain, and the
    terminal canonicalization (explicit trailing c14n transform, or the
    implicit node-set-to-octets step) streams chunked UTF-8 straight
    into the sink instead of materialising the canonical string.
    *guard* is charged per emitted chunk.  Returns the octet count.
    """
    if transforms and transforms[-1].algorithm in ALL_C14N_ALGORITHMS:
        last = transforms[-1]
        for transform in transforms[:-1]:
            value = _apply_one(value, transform, context)
        if isinstance(value, list):
            return sum(
                canonicalize_into(
                    node, write, last.algorithm,
                    last.inclusive_prefixes, guard=guard,
                )
                for node in value
            )
        node = _require_node(value, last.algorithm)
        return canonicalize_into(
            node, write, last.algorithm, last.inclusive_prefixes,
            guard=guard,
        )
    for transform in transforms:
        value = _apply_one(value, transform, context)
    if isinstance(value, bytes):
        if guard is not None:
            guard.charge_c14n_output(len(value))
        write(value)
        return len(value)
    if isinstance(value, Element):
        return canonicalize_into(value, write, C14N, guard=guard)
    if isinstance(value, list):
        return sum(
            canonicalize_into(node, write, C14N, guard=guard)
            for node in value
        )
    raise SignatureError(
        f"cannot convert {type(value).__name__} to octets"
    )


def _require_node(value, algorithm: str) -> Element:
    if isinstance(value, list):
        if len(value) != 1:
            raise SignatureError(
                f"{algorithm} requires a single-element node-set"
            )
        value = value[0]
    if not isinstance(value, Element):
        raise SignatureError(
            f"{algorithm} requires node-set input, got "
            f"{type(value).__name__}"
        )
    return value


def _apply_one(value, transform: Transform, context: TransformContext):
    algorithm = transform.algorithm

    if algorithm in ALL_C14N_ALGORITHMS:
        if isinstance(value, list):
            return b"".join(
                canonicalize(n, algorithm, transform.inclusive_prefixes)
                for n in value
            )
        node = _require_node(value, algorithm)
        return canonicalize(node, algorithm, transform.inclusive_prefixes)

    if algorithm == ENVELOPED_SIGNATURE:
        node = _require_node(value, algorithm)
        if context.working_root is None or context.signature_path is None:
            raise SignatureError(
                "enveloped-signature transform needs a signature context"
            )
        signature = node_at_path(context.working_root,
                                 context.signature_path)
        parent = signature.parent
        if isinstance(parent, Element):
            parent.remove(signature)
        return node

    if algorithm == BASE64:
        if isinstance(value, bytes):
            try:
                text = value.decode("utf-8")
            except UnicodeDecodeError:
                raise SignatureError(
                    "base64 transform input is not text"
                ) from None
        else:
            node = _require_node(value, algorithm)
            text = node.text_content()
        return b64decode(text)

    if algorithm == XPATH:
        node = _require_node(value, algorithm)
        if not transform.xpath:
            raise SignatureError("XPath transform lacks an expression")
        selected = find_all(node, transform.xpath, context.namespaces)
        if not all(isinstance(n, Element) for n in selected):
            raise SignatureError(
                "XPath transform must select elements"
            )
        return selected

    if algorithm in (DECRYPT_XML, DECRYPT_BINARY):
        from repro.core.decryption_transform import apply_decryption_transform
        node = _require_node(value, algorithm)
        if context.decryptor is None:
            raise SignatureError(
                "decryption transform needs a decryptor in the context"
            )
        return apply_decryption_transform(
            node, context.decryptor, transform.except_uris,
            binary=(algorithm == DECRYPT_BINARY),
        )

    raise SignatureError(f"unsupported transform {algorithm!r}")
