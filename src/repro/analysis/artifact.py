"""Static security auditor for disc artifacts — no key material needed.

Walks signed manifests, encrypted packages and whole disc images and
reports what a *reviewer* needs to know before mastering: what each
``ds:Reference`` actually covers after transforms, which markup/code
nodes are unsigned, whether the Id landscape is wrapping-susceptible,
which algorithms are weak, whether encrypted-then-signed content is
missing the Decryption Transform, and whether permission-request
claims are consistent with the shipped XACML policy.

Everything here is structural: signatures are not cryptographically
verified (that is the player's job, with keys); the auditor instead
answers the paper's harder question — *what was actually signed?*
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.analysis.engine import register
from repro.analysis.findings import AnalysisResult, Severity, display_path
from repro.dsig.reference import signature_coverage
from repro.dsig.transforms import (
    DECRYPT_BINARY, DECRYPT_XML, ENVELOPED_SIGNATURE,
)
from repro.errors import ReproError
from repro.xacml.model import Policy, Request
from repro.xacml.pdp import PDP
from repro.xmlcore import (
    DSIG_NS, MHP_PERMISSION_NS, XACML_NS, XMLENC_NS, parse_element,
)
from repro.xmlcore.tree import Element

# Algorithm strength policy (the auditor's stance, not the player's).
WEAK_DIGESTS = {
    "http://www.w3.org/2000/09/xmldsig#sha1": "SHA-1",
}
WEAK_SIGNATURES = {
    "http://www.w3.org/2000/09/xmldsig#rsa-sha1": "RSA-SHA1",
    "http://www.w3.org/2000/09/xmldsig#hmac-sha1": "HMAC-SHA1",
}
WEAK_CIPHERS = {
    "http://www.w3.org/2001/04/xmlenc#tripledes-cbc": "Triple-DES-CBC",
    "http://www.w3.org/2001/04/xmlenc#des-cbc": "DES-CBC",
}
LEGACY_KEY_TRANSPORT = {
    "http://www.w3.org/2001/04/xmlenc#rsa-1_5": "RSA PKCS#1 v1.5",
}
MIN_RSA_BITS = 2048

# Node kinds the coverage pass treats as *must-sign* / *should-sign*.
EXECUTABLE_LOCALS = ("script", "code")
MARKUP_LOCALS = ("markup", "submarkup")

SEC001 = register(
    "SEC001", "duplicate Id attributes", Severity.ERROR, "artifact",
    "Two elements carry the same Id value; ID-based references are "
    "ambiguous — the classic signature-wrapping precondition.",
)
SEC002 = register(
    "SEC002", "ID reference not bound to position", Severity.WARNING,
    "artifact",
    "A same-document #id reference is resolved by Id scan only; the "
    "signed subtree can be relocated without breaking the digest.",
)
SEC003 = register(
    "SEC003", "enveloped-transform anomaly", Severity.ERROR, "artifact",
    "An enveloped-signature transform appears on a reference whose "
    "target does not contain the signature, so the transform cannot "
    "remove it; the signed octets are not what they appear to be.",
)
SEC004 = register(
    "SEC004", "dangling same-document reference", Severity.ERROR,
    "artifact",
    "A #id reference names an Id that no element in the document "
    "carries; the signature can never validate as authored.",
)
SEC010 = register(
    "SEC010", "weak digest algorithm", Severity.WARNING, "artifact",
    "A ds:DigestMethod uses a deprecated hash (SHA-1).",
)
SEC011 = register(
    "SEC011", "weak signature algorithm", Severity.WARNING, "artifact",
    "A ds:SignatureMethod uses a deprecated primitive (SHA-1 family).",
)
SEC012 = register(
    "SEC012", "short RSA key", Severity.ERROR, "artifact",
    f"KeyInfo carries an RSA key shorter than {MIN_RSA_BITS} bits.",
)
SEC013 = register(
    "SEC013", "deprecated block cipher", Severity.WARNING, "artifact",
    "An xenc:EncryptionMethod uses DES/Triple-DES.",
)
SEC014 = register(
    "SEC014", "legacy key transport", Severity.INFO, "artifact",
    "EncryptedKey uses RSA PKCS#1 v1.5 key transport "
    "(padding-oracle-prone; acceptable only inside a closed profile).",
)
SEC020 = register(
    "SEC020", "unsigned executable content", Severity.ERROR, "artifact",
    "A script/code node in a signed document is covered by no "
    "ds:Reference; the player would execute unauthenticated code.",
)
SEC021 = register(
    "SEC021", "unsigned markup node", Severity.WARNING, "artifact",
    "A markup/submarkup node in a signed document is covered by no "
    "ds:Reference.",
)
SEC022 = register(
    "SEC022", "encrypted-then-signed without Decryption Transform",
    Severity.WARNING, "artifact",
    "A reference covers EncryptedData but its transform chain has no "
    "Decryption Transform; after decryption the digest cannot be "
    "checked against what was signed.",
)
SEC030 = register(
    "SEC030", "permission request not granted by policy",
    Severity.ERROR, "artifact",
    "The permission request file claims a permission the shipped "
    "XACML policy does not Permit.",
)
SEC040 = register(
    "SEC040", "unsigned interactive cluster", Severity.WARNING,
    "artifact",
    "The disc's cluster markup carries no signature at all.",
)
SEC041 = register(
    "SEC041", "disc structure inconsistent", Severity.ERROR, "artifact",
    "The disc image fails structural validation (missing streams or "
    "clip information for referenced clips).",
)


def _node_locator(root: Element, node: Element) -> str:
    """A stable human locator: ``#id`` when available, else a path."""
    ids = node.id_values()
    if ids:
        return f"#{ids[0]}"
    segments: list[str] = []
    current: Element | None = node
    while isinstance(current, Element):
        parent = current.parent
        if isinstance(parent, Element):
            same = [c for c in parent.child_elements()
                    if c.local == current.local]
            index = same.index(current) + 1
            segments.append(f"{current.local}[{index}]"
                            if len(same) > 1 else current.local)
            current = parent
        else:
            segments.append(current.local)
            break
    return "/" + "/".join(reversed(segments))


def _is_descendant(node: Element, ancestor: Element) -> bool:
    current = node
    while isinstance(current, Element):
        if current is ancestor:
            return True
        current = current.parent  # type: ignore[assignment]
    return False


def _elements(top: Element, skipped, *, opaque: bool = False
              ) -> list[Element]:
    """*top* and its descendant elements in document order, less each
    element of *skipped* with its subtree and, when *opaque*, what
    lies inside an EncryptedData (ciphertext internals)."""
    out: list[Element] = []
    stack = [top]
    while stack:
        node = stack.pop()
        if node in skipped:
            continue
        out.append(node)
        if opaque and node.matches("EncryptedData", XMLENC_NS):
            continue
        children = node.children
        for index in range(len(children) - 1, -1, -1):
            child = children[index]
            if isinstance(child, Element):
                stack.append(child)
    return out


@dataclass
class _DocumentAudit:
    """Per-document working state for one artifact."""

    name: str
    root: Element
    signatures: list[Element] = field(default_factory=list)


class ArtifactAuditor:
    """Audits artifacts and accumulates an :class:`AnalysisResult`.

    One auditor instance is one run: documents audited together share
    the cross-document checks (permission request vs. XACML policy).
    """

    def __init__(self, *, min_rsa_bits: int = MIN_RSA_BITS):
        self.min_rsa_bits = min_rsa_bits
        self.result = AnalysisResult()
        self._requests: list[tuple[str, Element]] = []
        self._policies: list[tuple[str, Policy]] = []

    # -- entry points ---------------------------------------------------------

    def audit_element(self, root: Element, name: str) -> None:
        """Audit one parsed document."""
        self.result.scanned += 1
        doc = _DocumentAudit(name=name, root=root)
        doc.signatures = list(root.iter("Signature", DSIG_NS))
        self._audit_ids(doc)
        self._audit_algorithms(doc)
        covered = self._audit_references(doc)
        self._audit_coverage(doc, covered)
        self._collect_policy_material(doc)

    def audit_bytes(self, data: bytes, name: str) -> None:
        """Audit raw bytes: an XML document or a zipped disc image."""
        if data[:2] == b"PK":
            from repro.disc.image import DiscImage
            import io
            import zipfile
            image = DiscImage()
            with zipfile.ZipFile(io.BytesIO(data)) as archive:
                for member in archive.namelist():
                    image.write(member, archive.read(member))
            self.audit_disc_image(image, name)
            return
        try:
            root = parse_element(data)
        except ReproError as exc:
            self.result.findings.append(SEC041.finding(
                name, f"artifact does not parse as XML: {exc}"
            ))
            self.result.scanned += 1
            return
        self.audit_element(root, name)

    def audit_disc_image(self, image, name: str) -> None:
        """Audit a :class:`~repro.disc.image.DiscImage`.

        The structural check and the audit share one parse of the
        cluster; a cluster the check could not parse is parsed again
        without quotas, so its own parse error is reported as well."""
        cluster, _, problems = image.checked_cluster()
        for problem in problems:
            self.result.findings.append(SEC041.finding(name, problem))
        cluster_path = image.cluster_path()
        had_signature = False
        for path in image.paths():
            if not path.endswith(".xml"):
                continue
            member = f"{name}!{path}"
            if path == cluster_path and cluster is not None:
                root = cluster
            else:
                try:
                    root = parse_element(image.read(path))
                except ReproError as exc:
                    self.result.findings.append(SEC041.finding(
                        member, f"does not parse: {exc}"
                    ))
                    continue
            if path == cluster_path and \
                    root.find("Signature", DSIG_NS) is not None:
                had_signature = True
            self.audit_element(root, member)
        if image.exists(cluster_path) and not had_signature:
            self.result.findings.append(SEC040.finding(
                f"{name}!{cluster_path}",
                "cluster markup carries no ds:Signature",
            ))

    def audit_path(self, path: str) -> None:
        """Audit a file (XML or zipped image) or a directory tree."""
        path = display_path(path)
        if os.path.isdir(path):
            if os.path.isdir(os.path.join(path, "BDMV")):
                from repro.disc.image import DiscImage
                self.audit_disc_image(
                    DiscImage.load_from_directory(path), path,
                )
                return
            # Recurse so nested BDMV trees are audited as whole images,
            # and loose XML/zip artifacts individually.
            for entry in sorted(os.listdir(path)):
                full = os.path.join(path, entry)
                if os.path.isdir(full):
                    self.audit_path(full)
                elif entry.endswith((".xml", ".zip", ".disc")):
                    self.audit_path(full)
            return
        with open(path, "rb") as handle:
            self.audit_bytes(handle.read(), path)

    def finish(self) -> AnalysisResult:
        """Run cross-document checks and return the result."""
        self._audit_permissions()
        return self.result

    # -- per-document passes ---------------------------------------------------

    def _audit_ids(self, doc: _DocumentAudit) -> None:
        for value, nodes in sorted(doc.root.id_index().items()):
            if len(nodes) > 1:
                self.result.findings.append(SEC001.finding(
                    doc.name,
                    f"Id {value!r} appears on {len(nodes)} elements",
                    detail="\n".join(
                        _node_locator(doc.root, n) for n in nodes
                    ),
                ))

    def _audit_algorithms(self, doc: _DocumentAudit) -> None:
        for signature in doc.signatures:
            for method in signature.findall("SignatureMethod", DSIG_NS):
                algorithm = method.get("Algorithm") or ""
                if algorithm in WEAK_SIGNATURES:
                    self.result.findings.append(SEC011.finding(
                        doc.name,
                        f"SignatureMethod {WEAK_SIGNATURES[algorithm]} "
                        "is deprecated",
                    ))
            self._audit_key_info(doc, signature)
        for method in doc.root.iter("EncryptionMethod", XMLENC_NS):
            algorithm = method.get("Algorithm") or ""
            if algorithm in WEAK_CIPHERS:
                self.result.findings.append(SEC013.finding(
                    doc.name,
                    f"EncryptionMethod {WEAK_CIPHERS[algorithm]} "
                    "is deprecated",
                ))
            elif algorithm in LEGACY_KEY_TRANSPORT:
                self.result.findings.append(SEC014.finding(
                    doc.name,
                    f"key transport {LEGACY_KEY_TRANSPORT[algorithm]}",
                ))

    def _audit_key_info(self, doc: _DocumentAudit,
                        signature: Element) -> None:
        key_info_el = signature.first_child("KeyInfo", DSIG_NS)
        if key_info_el is None:
            return
        try:
            from repro.dsig.keyinfo import KeyInfo
            key_info = KeyInfo.from_element(key_info_el)
        except ReproError:
            return
        keys = []
        if key_info.key_value is not None:
            keys.append(("KeyValue", key_info.key_value))
        for certificate in key_info.certificates:
            keys.append((f"certificate {certificate.subject!r}",
                         certificate.public_key))
        for origin, key in keys:
            bits = getattr(key, "bit_length", 0)
            if 0 < bits < self.min_rsa_bits:
                self.result.findings.append(SEC012.finding(
                    doc.name,
                    f"{origin}: {bits}-bit RSA key "
                    f"(< {self.min_rsa_bits})",
                ))

    # -- reference / coverage passes ------------------------------------------

    def _audit_references(self, doc: _DocumentAudit
                          ) -> dict[int, set[int]]:
        """Audit every reference; return per-signature covered node ids.

        The references and what each vouches for come from
        :func:`~repro.dsig.reference.signature_coverage`, the rule the
        player's wrapping defence reads, so the coverage map lists
        exactly the subtrees the player treats as signed.
        """
        covered: dict[int, set[int]] = {}
        for sig_index, signature in enumerate(doc.signatures):
            sig_name = signature.get("Id") or f"signature[{sig_index + 1}]"
            entries = []
            covered_ids: set[int] = set()
            for reference, target in signature_coverage(signature):
                entry = self._audit_one_reference(
                    doc, signature, sig_name, reference, target,
                    covered_ids,
                )
                entries.append(entry)
            covered[id(signature)] = covered_ids
            self.result.coverage.append({
                "artifact": f"{doc.name} {sig_name}",
                "references": entries,
            })
        return covered

    def _audit_one_reference(self, doc: _DocumentAudit,
                             signature: Element, sig_name: str,
                             reference: Element, target: Element | None,
                             covered_ids: set[int]) -> dict:
        where = f"{doc.name} {sig_name}"
        uri = reference.get("URI")
        transforms = [t.get("Algorithm") or ""
                      for t in reference.findall("Transform", DSIG_NS)]
        digest_el = reference.first_child("DigestMethod", DSIG_NS)
        digest_method = (digest_el.get("Algorithm") or ""
                         if digest_el is not None else "")
        enveloped = ENVELOPED_SIGNATURE in transforms
        decrypting = any(t in (DECRYPT_XML, DECRYPT_BINARY)
                         for t in transforms)
        if digest_method in WEAK_DIGESTS:
            self.result.findings.append(SEC010.finding(
                where,
                f"reference {uri!r} digests with "
                f"{WEAK_DIGESTS[digest_method]}",
            ))
        # The elements the URI names, whatever its chain keeps of them.
        if uri == "":
            named: tuple[Element, ...] = (doc.root,)
        elif uri and uri.startswith("#"):
            named = doc.root.id_index().get(uri[1:], ())
        else:
            named = ()
        entry = {"uri": uri, "covers": None, "elements": 0}
        if uri is not None and uri.startswith("#"):
            if not named:
                self.result.findings.append(SEC004.finding(
                    where,
                    f"reference {uri!r} matches no element",
                ))
            elif target is not None and not enveloped and \
                    not _is_descendant(signature, target):
                self.result.findings.append(SEC002.finding(
                    where,
                    f"reference {uri!r} is resolved by Id only; "
                    "its subtree is not position-bound",
                    detail=f"target {_node_locator(doc.root, target)}",
                ))
        if uri not in (None, "") and not uri.startswith("#"):
            entry["covers"] = uri  # external resource
        if enveloped and not any(_is_descendant(signature, el)
                                 for el in named):
            self.result.findings.append(SEC003.finding(
                where,
                f"enveloped-signature transform on {uri!r} but "
                "the signature is not inside the referenced subtree",
            ))
        if target is not None:
            if enveloped and _is_descendant(target, signature):
                subtree = []
            else:
                subtree = _elements(target,
                                    (signature,) if enveloped else ())
            covered_ids.update(id(el) for el in subtree)
            entry["covers"] = _node_locator(doc.root, target)
            entry["elements"] = len(subtree)
            if not decrypting and any(
                el.matches("EncryptedData", XMLENC_NS)
                for el in subtree
            ):
                self.result.findings.append(SEC022.finding(
                    where,
                    f"reference {uri!r} covers EncryptedData "
                    "without a Decryption Transform",
                ))
        return entry

    def _audit_coverage(self, doc: _DocumentAudit,
                        covered: dict[int, set[int]]) -> None:
        if not doc.signatures:
            return
        all_covered: set[int] = set()
        for ids in covered.values():
            all_covered.update(ids)
        unsigned: list[str] = []
        # Signature-internal markup and ciphertext internals are left
        # out of the walk.
        for node in _elements(doc.root, set(doc.signatures), opaque=True):
            if id(node) in all_covered:
                continue
            locator = _node_locator(doc.root, node)
            if node.local in EXECUTABLE_LOCALS:
                self.result.findings.append(SEC020.finding(
                    doc.name,
                    f"executable node {locator} is not covered by any "
                    "signature reference",
                ))
                unsigned.append(locator)
            elif node.local in MARKUP_LOCALS:
                self.result.findings.append(SEC021.finding(
                    doc.name,
                    f"markup node {locator} is not covered by any "
                    "signature reference",
                ))
                unsigned.append(locator)
        if self.result.coverage and unsigned:
            self.result.coverage[-1]["unsigned"] = unsigned

    # -- permission / policy consistency --------------------------------------

    def _collect_policy_material(self, doc: _DocumentAudit) -> None:
        for node in doc.root.iter("permissionrequestfile",
                                  MHP_PERMISSION_NS):
            self._requests.append((doc.name, node))
        for node in doc.root.iter("Policy", XACML_NS):
            try:
                self._policies.append((doc.name, Policy.from_element(node)))
            except ReproError:
                pass

    def _audit_permissions(self) -> None:
        """Cross-check request files against shipped XACML policies.

        Convention (shared with the fixtures and DESIGN.md §8): a
        permission grant is a Permit rule matching
        ``Resource/permission = <name>`` and
        ``Subject/app-id = <appid>`` (or an empty target).  Requests
        are only auditable when at least one policy ships alongside.
        """
        if not self._requests or not self._policies:
            return
        pdp = PDP()
        for name, node in self._requests:
            app_id = node.get("appid") or ""
            for child in node.child_elements():
                if child.get("value") != "true":
                    continue
                request = Request(
                    subject={"app-id": [app_id]},
                    resource={"permission": [child.local]},
                    action={"action-id": ["use"]},
                )
                granted = any(
                    pdp.evaluate_policy(policy, request).value == "Permit"
                    for _source, policy in self._policies
                )
                if not granted:
                    self.result.findings.append(SEC030.finding(
                        name,
                        f"application {app_id!r} requests "
                        f"{child.local!r} but no shipped policy "
                        "permits it",
                    ))


def audit_paths(paths, *, min_rsa_bits: int = MIN_RSA_BITS
                ) -> AnalysisResult:
    """Audit files/directories/images and return the combined result."""
    auditor = ArtifactAuditor(min_rsa_bits=min_rsa_bits)
    for path in paths:
        auditor.audit_path(path)
    return auditor.finish()
