"""Whole-disc signing — the disc-authentication substrate (§5.1, [29]).

"Disc based applications are inherently trusted since they were
authored into the disc by the content providers — provided the disc is
authenticated."  This helper signs a mastered :class:`DiscImage`:

* the Interactive Cluster markup, at a chosen granularity level
  (Figs 4/5); and
* optionally the non-markup A/V content — "It is entirely up to the
  discretion of the Signer if (s)he wishes to sign the non-markup
  audio/video Content, which is nevertheless possible using XML
  Digital Signature" (§5.3) — as detached references to the ``bd://``
  stream URIs.

The player verifies these signatures at insertion time with the image
as the reference resolver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.granularity import (
    LevelProtectionResult, ProtectionLevel, sign_at_level,
)
from repro.disc.image import DiscImage
from repro.dsig.reference import Reference
from repro.dsig.signer import Signer
from repro.xmlcore import serialize_bytes


@dataclass
class DiscSigningResult:
    """What got signed on the disc."""

    level: ProtectionLevel
    markup: LevelProtectionResult
    stream_uris: list[str] = field(default_factory=list)


def sign_disc_image(image: DiscImage, signer: Signer, *,
                    level: ProtectionLevel = ProtectionLevel.TRACK,
                    include_streams: bool = True,
                    use_manifest: bool = False) -> DiscSigningResult:
    """Sign the disc's cluster (and optionally its streams) in place.

    The cluster markup is rewritten on the image with the signatures
    embedded.  Stream signatures are a single detached multi-reference
    signature over every ``.m2ts`` file, appended to the cluster root.

    With *use_manifest* a single signature carries a ``ds:Manifest``
    listing every track and stream instead: core validation covers the
    manifest list (XMLDSig §5.1).  The player validates every entry at
    insert, so one damaged track leaves the disc unauthenticated; the
    FIG4 bench checks only the entries in use (``only_uris``).
    """
    cluster_element = image.cluster_element()

    if use_manifest:
        from repro.dsig.manifest import sign_with_manifest
        from repro.dsig.transforms import Transform
        from repro.xmlcore import C14N
        references = []
        track_ids = []
        for track in cluster_element.iter("track"):
            track_id = track.get("Id") or ""
            track_ids.append(track_id)
            references.append(Reference(
                uri=f"#{track_id}", transforms=[Transform(C14N)],
                digest_method=signer.digest_method,
            ))
        stream_uris = []
        if include_streams:
            for path in image.paths():
                if path.endswith(image.layout.stream_extension):
                    uri = image.layout.path_to_uri(path)
                    stream_uris.append(uri)
                    references.append(Reference(
                        uri=uri, digest_method=signer.digest_method,
                    ))
        sign_with_manifest(signer, references, parent=cluster_element,
                           resolver=image.resolver)
        image.write(image.layout.cluster_path(),
                serialize_bytes(cluster_element))
        return DiscSigningResult(
            level=level,
            markup=LevelProtectionResult(level, target_ids=track_ids),
            stream_uris=stream_uris,
        )

    # Streams are signed FIRST: a whole-document (cluster-level)
    # enveloped signature must be computed over the final document, and
    # its enveloped-signature transform removes only itself — appending
    # the stream signature afterwards would invalidate it.
    stream_uris: list[str] = []
    if include_streams:
        references = []
        for path in image.paths():
            if not path.endswith(image.layout.stream_extension):
                continue
            uri = image.layout.path_to_uri(path)
            stream_uris.append(uri)
            references.append(Reference(
                uri=uri, digest_method=signer.digest_method,
            ))
        if references:
            signer.sign_references(
                references, parent=cluster_element,
                resolver=image.resolver,
            )

    markup_result = sign_at_level(cluster_element, level, signer)

    image.write(image.layout.cluster_path(),
                serialize_bytes(cluster_element))
    return DiscSigningResult(
        level=level, markup=markup_result, stream_uris=stream_uris,
    )
