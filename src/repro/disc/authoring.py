"""Disc authoring: from content pieces to a mastered disc image.

Models the content-creator side of the end-to-end usage model (Fig 1):
clips are generated (or supplied), clip info derived, playlists and
application manifests assembled into an Interactive Cluster, and the
whole mastered into a :class:`DiscImage`.  Security (signing,
encryption) is applied by :mod:`repro.core.authoring_pipeline` on top
of this content-only layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AuthoringError
from repro.disc.clipinfo import ClipInfo
from repro.disc.hierarchy import InteractiveCluster
from repro.disc.formats import BD_ROM, DiscFormat
from repro.disc.image import DiscImage
from repro.disc.manifest import ApplicationManifest
from repro.disc.playlist import Playlist
from repro.disc.tsgen import TS_PACKET_SIZE, generate_transport_stream
from repro.primitives.random import RandomSource, default_random
from repro.xmlcore import serialize_bytes


@dataclass
class DiscAuthor:
    """Incremental builder for a disc image.

    Args:
        title: disc title (cluster title).
        rng: randomness for synthetic stream payloads.
    """

    title: str
    rng: RandomSource = field(default_factory=default_random)
    disc_format: DiscFormat = BD_ROM

    def __post_init__(self):
        self._cluster = InteractiveCluster(title=self.title)
        self._streams: dict[str, bytes] = {}
        self._clip_infos: dict[str, ClipInfo] = {}
        self._aux: dict[str, bytes] = {}
        self._next_clip = 1

    @property
    def cluster(self) -> InteractiveCluster:
        return self._cluster

    # -- content -----------------------------------------------------------------

    def add_clip(self, duration_s: float, *,
                 stream: bytes | None = None,
                 packets_per_second: int = 200) -> ClipInfo:
        """Add an A/V clip; generates a synthetic stream unless given one.

        *packets_per_second* scales the synthetic stream size (the
        real-world rate of ~16k packets/s would make experiment
        payloads needlessly large; benches override as needed).
        """
        if duration_s <= 0:
            raise AuthoringError("clip duration must be positive")
        clip_id = f"{self._next_clip:05d}"
        self._next_clip += 1
        if stream is None:
            packets = max(1, int(duration_s * packets_per_second))
            stream = generate_transport_stream(packets, rng=self.rng)
        info = ClipInfo(
            clip_id=clip_id,
            stream_uri=self.disc_format.path_to_uri(
                self.disc_format.stream_path(clip_id)
            ),
            duration_s=duration_s,
            packets=len(stream) // TS_PACKET_SIZE,
        )
        self._streams[clip_id] = stream
        self._clip_infos[clip_id] = info
        return info

    def add_feature(self, name: str,
                    chapter_clips: list[ClipInfo]) -> Playlist:
        """Add an A/V track whose chapters are the given clips."""
        playlist = Playlist(name=name)
        for info in chapter_clips:
            playlist.add_item(info.clip_id, 0.0, info.duration_s)
        self._cluster.add_av_track(playlist)
        return playlist

    def add_application(self, manifest: ApplicationManifest) -> None:
        """Add an application track."""
        self._cluster.add_application_track(manifest)

    def add_aux_file(self, path: str, data: bytes) -> None:
        """Stash an auxiliary file (certificates, ciphertext blobs...)."""
        self._aux[path] = data

    # -- mastering ------------------------------------------------------------------

    def master(self) -> DiscImage:
        """Produce the disc image and validate its structure.

        The checks run on the authored cluster, not on a parse of its
        serialization: every clip it references needs a stream and a
        clip-info file, and no auxiliary file may overwrite the
        cluster, a stream or a clip-info file.
        """
        layout = self.disc_format
        problems: list[str] = []
        for ref in self._cluster.clip_refs():
            if ref not in self._streams:
                problems.append(f"clip {ref}: missing stream file")
            if ref not in self._clip_infos:
                problems.append(f"clip {ref}: missing clip info")
        reserved = {layout.cluster_path()}
        for clip_id in self._streams:
            reserved.add(layout.stream_path(clip_id))
            reserved.add(layout.clipinfo_path(clip_id))
        problems += [f"aux file {path} would overwrite authored content"
                     for path in self._aux if path in reserved]
        if problems:
            raise AuthoringError(
                "mastered image is inconsistent: " + "; ".join(problems)
            )
        image = DiscImage(layout=layout)
        image.write(
            layout.cluster_path(),
            serialize_bytes(self._cluster.to_element()),
        )
        for clip_id, stream in self._streams.items():
            image.write(layout.stream_path(clip_id), stream)
            image.write(
                layout.clipinfo_path(clip_id),
                self._clip_infos[clip_id].to_xml().encode("utf-8"),
            )
        for path, data in self._aux.items():
            image.write(path, data)
        return image
