"""The application package: what actually travels from creator to player.

A package bundles the Interactive Application (manifest), the optional
MHP-style permission request file, and the security markup (signature,
encrypted regions) into one XML document — the downloadable unit of
Figs 1, 3 and 9.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DiscFormatError
from repro.disc.manifest import ApplicationManifest
from repro.dsig.reference import outside_signatures
from repro.permissions.request_file import PermissionRequestFile
from repro.xmlcore import (
    DISC_NS, MHP_PERMISSION_NS, element, parse_element, serialize_bytes,
)
from repro.xmlcore.tree import Element

PACKAGE_ID = "application-package"


def build_package_element(manifest_element: Element,
                          permission_file: PermissionRequestFile | None
                          ) -> Element:
    """Assemble the package root around a manifest element."""
    package = element(
        "applicationPackage", DISC_NS, nsmap={None: DISC_NS},
        attrs={"Id": PACKAGE_ID},
    )
    package.append(manifest_element)
    if permission_file is not None:
        package.append(permission_file.to_element())
    return package


@dataclass
class PackageView:
    """A parsed (not yet verified) package."""

    root: Element
    manifest_element: Element
    permission_file: PermissionRequestFile | None = None

    def manifest(self) -> ApplicationManifest:
        return ApplicationManifest.from_element(self.manifest_element)

    def to_bytes(self) -> bytes:
        return serialize_bytes(self.root)


def package_manifest(root: Element) -> Element | None:
    """The manifest in a package root: its first manifest child, else
    the first manifest below it outside every ds:Signature, the disc
    namespace's first."""
    return root.first_child("manifest", DISC_NS) or min(
        (node for node in outside_signatures(root)
         if node.local == "manifest"),
        key=lambda node: node.ns_uri != DISC_NS, default=None)


def parse_package(data: bytes | str | Element, *,
                  guard=None) -> PackageView:
    """Parse package bytes (or an already-parsed root) into a view.

    Downloaded packages are untrusted; *guard* meters the parse (and
    is the guard the pipeline later reuses for decryption), so a
    structural resource attack trips a typed limit here instead of
    exhausting the player.
    """
    root = data if isinstance(data, Element) \
        else parse_element(data, guard=guard)
    if root.local != "applicationPackage":
        raise DiscFormatError(
            f"expected applicationPackage, got {root.local!r}"
        )
    manifest_element = package_manifest(root)
    if manifest_element is None:
        # The manifest may be wholly encrypted; leave it to the
        # playback pipeline to decrypt and find it.
        manifest_element = root
    permission_file = None
    prf_el = root.first_child("permissionrequestfile", MHP_PERMISSION_NS)
    if prf_el is not None:
        permission_file = PermissionRequestFile.from_element(prf_el)
    return PackageView(
        root=root,
        manifest_element=manifest_element,
        permission_file=permission_file,
    )
