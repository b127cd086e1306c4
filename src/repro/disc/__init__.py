"""Content hierarchy, synthetic streams, disc images and authoring."""

from repro.disc.authoring import DiscAuthor
from repro.disc.clipinfo import ClipInfo
from repro.disc.formats import (
    ALL_FORMATS, BD_ROM, DiscFormat, EDVD, HD_DVD, format_by_name,
)
from repro.disc.hierarchy import (
    TRACK_APPLICATION, TRACK_AV, InteractiveCluster, Track,
)
from repro.disc.image import DiscImage
from repro.disc.manifest import ApplicationManifest, Script, SubMarkup
from repro.disc.playlist import PlayItem, Playlist
from repro.disc.tsgen import (
    TS_PACKET_SIZE, TS_SYNC_BYTE, TransportStreamInfo,
    generate_transport_stream, inspect_transport_stream,
)

__all__ = [
    "DiscAuthor", "DiscImage", "InteractiveCluster", "Track",
    "ApplicationManifest", "SubMarkup", "Script",
    "Playlist", "PlayItem", "ClipInfo",
    "TRACK_AV", "TRACK_APPLICATION",
    "generate_transport_stream", "inspect_transport_stream",
    "TransportStreamInfo", "TS_PACKET_SIZE", "TS_SYNC_BYTE",
    "DiscFormat", "BD_ROM", "HD_DVD", "EDVD", "ALL_FORMATS",
    "format_by_name",
]
