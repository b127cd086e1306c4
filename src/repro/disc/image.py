"""The disc image: a virtual file system standing in for a BD-ROM.

The real substrate would be a mastered optical disc; the simulation
(DESIGN.md §2) is a path → bytes mapping with the familiar BDMV-style
layout, a ``bd://`` URI resolver (used by signature references,
CipherReference and the player), and round-tripping to a directory on
the host file system.

Layout::

    BDMV/CLUSTER/cluster.xml    the Interactive Cluster markup
    BDMV/STREAM/<id>.m2ts       transport stream files
    BDMV/CLIPINF/<id>.clpi      clip information files
    BDMV/AUXDATA/...            anything else (ciphertext blobs, certs)

The paths and the URI scheme are the :class:`DiscFormat` layout's
(``BD_ROM`` by default; ``image.layout.stream_path(clip_id)`` etc.).
"""

from __future__ import annotations

import os

from repro.errors import DiscFormatError
from repro.perf import metrics
from repro.disc.clipinfo import ClipInfo
from repro.disc.formats import BD_ROM, DiscFormat
from repro.disc.hierarchy import InteractiveCluster
from repro.resilience.limits import ResourceGuard
from repro.xmlcore import Element, parse_element


class DiscImage:
    """An in-memory mastered disc.

    Args:
        files: initial path → bytes contents.
        layout: the disc format conventions (default BD-ROM); all
            structured accessors and the URI resolver follow it.
    """

    def __init__(self, files: dict[str, bytes] | None = None,
                 layout: DiscFormat = BD_ROM):
        self._files: dict[str, bytes] = dict(files or {})
        self.layout = layout

    # -- file access -------------------------------------------------------------

    def write(self, path: str, data: bytes) -> None:
        if path.startswith("/") or ".." in path.split("/"):
            raise DiscFormatError(f"illegal disc path {path!r}")
        self._files[path] = bytes(data)

    def read(self, path: str) -> bytes:
        try:
            data = self._files[path]
        except KeyError:
            raise DiscFormatError(
                f"disc has no file {path!r}"
            ) from None
        metrics.counter("disc.reads").increment()
        metrics.counter("disc.read_bytes").increment(len(data))
        return data

    def exists(self, path: str) -> bool:
        return path in self._files

    def paths(self) -> list[str]:
        return sorted(self._files)

    def total_bytes(self) -> int:
        return sum(len(v) for v in self._files.values())

    def resolver(self, uri: str) -> bytes:
        """Resolve a disc URI (signature/encryption references)."""
        return self.read(self.layout.uri_to_path(uri))

    # -- structured accessors ---------------------------------------------------------

    def cluster_path(self) -> str:
        return self.layout.cluster_path()

    def cluster(self) -> InteractiveCluster:
        """Parse the Interactive Cluster markup."""
        return InteractiveCluster.from_element(self.cluster_element())

    def cluster_element(self) -> Element:
        """The raw cluster element (for verification in context).

        Disc markup is untrusted input (a hostile disc is the paper's
        first threat vector), so the parse runs under default resource
        quotas.
        """
        return parse_element(self.read(self.layout.cluster_path()),
                             guard=ResourceGuard.default())

    def clip_info(self, clip_id: str) -> ClipInfo:
        return ClipInfo.from_xml(
            self.read(self.layout.clipinfo_path(clip_id))
        )

    def stream(self, clip_id: str) -> bytes:
        return self.read(self.layout.stream_path(clip_id))

    def validate_structure(self) -> list[str]:
        """Return a list of structural problems (empty = consistent).

        Checks that the cluster parses and that every referenced clip
        has both its stream and its clip-information file.
        """
        return self.checked_cluster()[2]

    def checked_cluster(self) -> tuple[Element | None,
                                       InteractiveCluster | None,
                                       list[str]]:
        """Parse the cluster once and check the disc's structure on it.

        Returns ``(element, cluster, problems)``: the cluster element
        as :meth:`cluster_element` parses it (``None`` when the cluster
        is missing or does not parse), the :class:`InteractiveCluster`
        built from it (``None`` when it cannot be built) and the
        problems :meth:`validate_structure` reports.  A reader that
        goes on to verify, audit or play the cluster uses these rather
        than parsing or building the cluster a second time.
        """
        path = self.layout.cluster_path()
        if not self.exists(path):
            return None, None, [f"missing {path}"]
        try:
            element = self.cluster_element()
        except Exception as exc:
            return None, None, [f"cluster does not parse: {exc}"]
        try:
            cluster = InteractiveCluster.from_element(element)
        except Exception as exc:
            return element, None, [f"cluster does not parse: {exc}"]
        problems: list[str] = []
        for ref in cluster.clip_refs():
            if not self.exists(self.layout.stream_path(ref)):
                problems.append(f"clip {ref}: missing stream file")
            if not self.exists(self.layout.clipinfo_path(ref)):
                problems.append(f"clip {ref}: missing clip info")
        return element, cluster, problems

    # -- host file system round trip -----------------------------------------------------

    def save_to_directory(self, directory: str) -> None:
        """Write the image under *directory* (creating subdirectories)."""
        for path, data in self._files.items():
            full = os.path.join(directory, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "wb") as handle:
                handle.write(data)

    def save_to_file(self, path: str) -> None:
        """Write the image as a single archive file (a stand-in for the
        mastered ``.iso``).  Uncompressed, so signed byte identity of
        every member is trivially preserved."""
        import zipfile
        with zipfile.ZipFile(path, "w",
                             compression=zipfile.ZIP_STORED) as archive:
            for member, data in sorted(self._files.items()):
                archive.writestr(member, data)

    @classmethod
    def load_from_file(cls, path: str,
                       layout: DiscFormat = BD_ROM) -> "DiscImage":
        """Read an image written by :meth:`save_to_file`."""
        import zipfile
        image = cls(layout=layout)
        try:
            with zipfile.ZipFile(path) as archive:
                for member in archive.namelist():
                    image.write(member, archive.read(member))
        except zipfile.BadZipFile as exc:
            raise DiscFormatError(
                f"not a disc image file: {exc}"
            ) from None
        return image

    @classmethod
    def load_from_directory(cls, directory: str,
                            layout: DiscFormat = BD_ROM) -> "DiscImage":
        """Read an image previously saved with :meth:`save_to_directory`."""
        image = cls(layout=layout)
        for dirpath, _dirnames, filenames in os.walk(directory):
            for filename in filenames:
                full = os.path.join(dirpath, filename)
                rel = os.path.relpath(full, directory).replace(os.sep, "/")
                with open(full, "rb") as handle:
                    image.write(rel, handle.read())
        return image

    def __repr__(self):
        return (
            f"<DiscImage files={len(self._files)} "
            f"bytes={self.total_bytes()}>"
        )
