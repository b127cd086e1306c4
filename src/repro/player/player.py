"""The next-generation optical disc player (the device of Figs 1 and 11).

Combines the engine with disc handling and the download path:

* **Disc applications** — "inherently trusted since they were authored
  into the disc by the content providers — provided the disc is
  authenticated" (§5.1).  Disc authentication is modelled by verifying
  the signatures carried on the Interactive Cluster against the
  player's root store (the AACS substrate of ref. [29] reduced to its
  chain-of-trust essence).
* **Downloaded applications** — "the real security issue" (§5.1):
  fetched from a content server (optionally over the TLS-like channel)
  and passed through the full verification pipeline; failures bar
  execution (Fig 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.certs.store import TrustStore
from repro.core.playback_pipeline import (
    PlaybackPipeline, VerifiedApplication, bar_uncovered, find_manifest,
)
from repro.disc.hierarchy import InteractiveCluster
from repro.disc.image import DiscImage
from repro.disc.manifest import ApplicationManifest
from repro.dsig.reference import outside_signatures
from repro.errors import ApplicationRejectedError, DiscError, PlayerError
from repro.markup.smil import ScheduledItem
from repro.network.server import DownloadClient
from repro.perf.batch import BatchOutcome
from repro.permissions.request_file import (
    PermissionRequestFile, PlatformPermissionPolicy,
)
from repro.player.engine import ApplicationSession, InteractiveApplicationEngine
from repro.player.localstorage import LocalStorage
from repro.primitives.keys import RSAPrivateKey, SymmetricKey
from repro.primitives.provider import CryptoProvider, get_provider
from repro.resilience.degradation import DegradationLog
from repro.xmlcore import DISC_NS


@dataclass
class DiscSession:
    """State of an inserted disc; *authenticated* is *trust*'s
    decision, taken at insert."""

    image: DiscImage
    cluster: InteractiveCluster
    cluster_element: object
    trust: BatchOutcome
    authenticated: bool

    signature_reports = property(lambda self: self.trust.reports)
    manifest_validations = property(
        lambda self: self.trust.manifest_validations)
    whole_document_signed = property(
        lambda self: self.trust.covers(self.cluster_element))

    @property
    def signed_ids(self) -> set[str]:
        """The Ids of the covered elements below the cluster root."""
        return {value for target in self.trust.covered
                if target is not self.cluster_element
                for value in target.id_values()}

    def covers(self, element) -> bool:
        """:meth:`BatchOutcome.covers` on this disc's cluster."""
        return self.trust.covers(element)


@dataclass
class PlaybackReport:
    """Result of playing an A/V title."""

    playlist: str
    items: list[ScheduledItem]
    total_packets: int
    duration_s: float


class DiscPlayer:
    """A consumer optical-disc player with the full security stack.

    Args:
        trust_store: manufacturer-installed root certificates.
        device_key: the player's RSA key pair (content key transport).
        key_slots: named symmetric keys (disc keys, shared KEKs).
        permission_policy: platform permission stance.
        require_signed_downloads: Fig 3 policy for network content.
        allow_unauthenticated_disc_apps: whether apps from an
            unauthenticated disc may run (as untrusted).
        key_locator: XKMS locate hook for ``ds:KeyName`` signatures;
            when the trust service is unreachable the pipeline degrades
            to untrusted execution instead of aborting (the reasons
            land in :attr:`degradation`).
        now: simulation clock for certificate validity.
    """

    def __init__(self, trust_store: TrustStore, *,
                 device_key: RSAPrivateKey | None = None,
                 key_slots: dict[str, SymmetricKey] | None = None,
                 permission_policy: PlatformPermissionPolicy | None = None,
                 require_signed_downloads: bool = True,
                 allow_unauthenticated_disc_apps: bool = True,
                 storage: LocalStorage | None = None,
                 storage_key: SymmetricKey | None = None,
                 network_fetch=None,
                 key_locator=None,
                 provider: CryptoProvider | None = None,
                 model: str = "RBD-1000",
                 now: float = 0.0):
        self.trust_store = trust_store
        self.device_key = device_key
        self.key_slots = dict(key_slots or {})
        self.permission_policy = (permission_policy
                                  or PlatformPermissionPolicy())
        self.allow_unauthenticated_disc_apps = \
            allow_unauthenticated_disc_apps
        self.provider = provider or get_provider()
        self.now = now
        self.model = model
        self.degradation = DegradationLog()
        self.pipeline = PlaybackPipeline(
            trust_store=trust_store, device_key=device_key,
            key_slots=self.key_slots,
            permission_policy=self.permission_policy,
            require_signature=require_signed_downloads,
            key_locator=key_locator,
            degradation=self.degradation,
            provider=self.provider, now=now,
        )
        self.engine = InteractiveApplicationEngine(
            self.pipeline, storage=storage, storage_key=storage_key,
            network_fetch=network_fetch, model=model,
        )
        self._session: DiscSession | None = None

    # -- disc handling ---------------------------------------------------------------

    def insert_disc(self, image: DiscImage) -> DiscSession:
        """Load a disc and authenticate it: every cluster signature and
        every entry of the ds:Manifests they sign must be valid."""
        from repro.perf import metrics
        with metrics.timer("player.insert_disc"):
            return self._insert_disc(image)

    def _insert_disc(self, image: DiscImage) -> DiscSession:
        cluster_element, cluster, problems = image.checked_cluster()
        if problems:
            raise DiscError(
                "disc rejected: " + "; ".join(problems)
            )
        trust = self.pipeline.verify_root(cluster_element,
                                          resolver=image.resolver)
        # Resolve clip durations for the scheduler.
        durations: dict[str, float] = {}
        extension = image.layout.clipinfo_extension
        for path in image.paths():
            if path.endswith(extension):
                clip_id = path.split("/")[-1][: -len(extension)]
                info = image.clip_info(clip_id)
                durations[info.stream_uri] = info.duration_s
                durations[info.clip_id] = info.duration_s
        self.engine.clip_durations = durations
        self._session = DiscSession(
            image=image, cluster=cluster,
            cluster_element=cluster_element, trust=trust,
            authenticated=trust.authenticated,
        )
        return self._session

    @property
    def disc(self) -> DiscSession:
        if self._session is None:
            raise PlayerError("no disc inserted")
        return self._session

    # -- A/V playback -----------------------------------------------------------------

    def play_title(self, playlist_name: str) -> PlaybackReport:
        """Play (simulate) an A/V title: resolve clips, count packets."""
        session = self.disc
        for track in session.cluster.av_tracks():
            playlist = track.playlist
            assert playlist is not None
            if playlist.name != playlist_name:
                continue
            items: list[ScheduledItem] = []
            cursor = 0.0
            total_packets = 0
            for play_item in playlist.items:
                info = session.image.clip_info(play_item.clip_ref)
                stream = session.image.stream(play_item.clip_ref)
                from repro.disc.tsgen import inspect_transport_stream
                ts_info = inspect_transport_stream(stream)
                total_packets += ts_info.packets
                end = play_item.out_time or info.duration_s
                items.append(ScheduledItem(
                    start=cursor, end=cursor + (end - play_item.in_time),
                    kind="video", src=info.stream_uri, region="main",
                ))
                cursor += end - play_item.in_time
            return PlaybackReport(
                playlist=playlist_name, items=items,
                total_packets=total_packets, duration_s=cursor,
            )
        raise PlayerError(f"no playlist named {playlist_name!r}")

    # -- disc applications ---------------------------------------------------------------

    def launch_disc_application(self, name: str, *,
                                events: list[tuple] | None = None
                                ) -> ApplicationSession:
        """Launch an application authored on the disc.

        Trust follows §5.1: authenticated disc ⇒ trusted application,
        when a disc signature covers it (DESIGN §3).  Encrypted
        manifests are unlocked with the player's key slots.
        """
        session = self.disc
        if not session.authenticated \
                and not self.allow_unauthenticated_disc_apps:
            raise ApplicationRejectedError(
                "disc is not authenticated; applications barred"
            )
        decryptor = self.pipeline._decryptor()
        found = find_manifest(
            session.cluster_element, decryptor,
            lambda root: next((candidate for candidate
                               in outside_signatures(root)
                               if candidate.matches("manifest", DISC_NS)
                               and candidate.get("name") == name), None),
        )
        if found is None:
            raise PlayerError(f"disc has no application named {name!r}")
        manifest_element, judged = found
        if session.authenticated:
            bar_uncovered(session.trust, judged, name, "disc")
        working_manifest = manifest_element.detached_copy()
        decryptor.decrypt_in_place(working_manifest)
        manifest = ApplicationManifest.from_element(working_manifest)

        permission_file = self._disc_permission_file(session, name)
        grants = self.permission_policy.decide(
            permission_file, trusted=session.authenticated,
        )
        application = VerifiedApplication(
            manifest=manifest, grants=grants,
            trusted=session.authenticated,
        )
        return self.engine.execute(application, events=events)

    def _disc_permission_file(self, session: DiscSession,
                              name: str) -> PermissionRequestFile:
        path = session.image.layout.auxdata_path(f"{name}.prf")
        if session.image.exists(path):
            return PermissionRequestFile.from_xml(
                session.image.read(path)
            )
        return PermissionRequestFile(app_id=name, org_id="")

    # -- downloaded applications ------------------------------------------------------------

    def download_application(self, client: DownloadClient, path: str, *,
                             secure: bool = True,
                             optional: bool = False
                             ) -> VerifiedApplication | None:
        """Fetch and verify an application package (Figs 1 and 3).

        With ``optional=True`` the download degrades gracefully: a
        transport failure (the client's retry policy already did its
        best) or a barred package records a degradation event and
        returns ``None`` — the disc keeps playing with that bonus
        application barred.  Mandatory downloads re-raise.
        """
        from repro.errors import NetworkError, ResourceLimitExceeded
        try:
            data = client.fetch(path, secure=secure)
            return self.engine.load_package(data)
        except (NetworkError, ApplicationRejectedError,
                ResourceLimitExceeded) as exc:
            # ResourceLimitExceeded covers quota trips surfacing
            # outside the pipeline's own handling (e.g. an oversized
            # response frame refused by the download client).
            if not optional:
                raise
            self.degradation.record("download", path, exc)
            return None

    def download_bonus_content(self, client: DownloadClient,
                               paths: list[str], *,
                               secure: bool = True) -> dict[str, bytes]:
        """Fetch optional bonus resources; failures bar, never abort.

        Returns the resources that arrived intact.  Every failed path
        is recorded in :attr:`degradation` with its failure-mode code
        and playback continues without it.
        """
        from repro.errors import NetworkError, ResourceLimitExceeded
        fetched: dict[str, bytes] = {}
        for path in paths:
            try:
                fetched[path] = client.fetch(path, secure=secure)
            except (NetworkError, ResourceLimitExceeded) as exc:
                self.degradation.record("download", path, exc)
        return fetched

    def run_application(self, application: VerifiedApplication, *,
                        events: list[tuple] | None = None
                        ) -> ApplicationSession:
        return self.engine.execute(application, events=events)
