"""The Interactive Application Engine (Fig 11).

"The Interactive Application Engine is the main component, which has
access to the Interactive Cluster and is responsible for getting the
application contents decrypted, if encrypted, and verified, if signed."

The engine wires together the layered components of Fig 11 — Verifier,
Decryptor (via :class:`repro.core.PlaybackPipeline`), the script
interpreter, the SMIL presentation scheduler and the permission-gated
platform API — and executes applications in a sandbox whose only
outward surface is the host objects registered here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.playback_pipeline import PlaybackPipeline, VerifiedApplication
from repro.disc.manifest import ApplicationManifest
from repro.errors import (
    ApplicationRejectedError, NetworkError, PermissionDeniedError,
    ScriptError,
)
from repro.resilience.degradation import DegradationEvent
from repro.markup.script_interp import HostObject, Interpreter
from repro.markup.smil import Presentation, ScheduledItem, parse_smil
from repro.permissions.request_file import (
    GrantSet, PERM_LOCAL_STORAGE, PERM_NETWORK, PERM_RETURN_CHANNEL,
)
from repro.player.localstorage import LocalStorage
from repro.primitives.keys import SymmetricKey


@dataclass
class ApplicationSession:
    """The observable outcome of executing an application."""

    app_name: str
    trusted: bool
    grants: GrantSet
    console: list[str] = field(default_factory=list)
    timeline: list[ScheduledItem] = field(default_factory=list)
    script_globals: dict[str, object] = field(default_factory=dict)
    instructions: int = 0
    storage_ops: list[str] = field(default_factory=list)
    network_ops: list[str] = field(default_factory=list)
    denied_ops: list[str] = field(default_factory=list)
    degradations: list[DegradationEvent] = field(default_factory=list)
    _interpreter: Interpreter | None = None

    def dispatch(self, handler: str, *args):
        """Invoke a script-defined event handler (``onKey`` etc.)."""
        if self._interpreter is None:
            raise ScriptError("session has no live interpreter")
        return self._interpreter.call_function(handler, *args)


class InteractiveApplicationEngine:
    """Loads, verifies, decrypts and executes interactive applications.

    Args:
        pipeline: the security pipeline (verifier + decryptor +
            permission policy).
        storage: player local storage.
        storage_key: player-secret key for encrypted storage slots.
        network_fetch: optional ``(host, path) -> bytes`` callable the
            ``network`` host object delegates to (grant-gated).
        clip_durations: ``src -> seconds`` used to resolve intrinsic
            media durations when scheduling.
        max_instructions: script runaway budget.
    """

    def __init__(self, pipeline: PlaybackPipeline, *,
                 storage: LocalStorage | None = None,
                 storage_key: SymmetricKey | None = None,
                 network_fetch=None,
                 clip_durations: dict[str, float] | None = None,
                 max_instructions: int = 1_000_000,
                 model: str = "RBD-1000"):
        self.pipeline = pipeline
        self.storage = storage or LocalStorage()
        self.storage_key = storage_key
        self.network_fetch = network_fetch
        self.clip_durations = dict(clip_durations or {})
        self.max_instructions = max_instructions
        self.model = model

    # -- loading ---------------------------------------------------------------------

    def load_package(self, data: bytes) -> VerifiedApplication:
        """Verify/decrypt a downloaded application package (Fig 3)."""
        return self.pipeline.open_package(data)

    # -- presentation ------------------------------------------------------------------

    def build_presentation(self, manifest: ApplicationManifest
                           ) -> Presentation:
        """Assemble the SMIL presentation from layout/timing sub-markups."""
        presentation = Presentation()
        layout_sub = manifest.submarkup("layout")
        if layout_sub is not None:
            presentation.layout = parse_smil(layout_sub.body).layout
        timing_sub = manifest.submarkup("timing")
        if timing_sub is not None:
            presentation.body = parse_smil(timing_sub.body).body
        return presentation

    # -- execution ---------------------------------------------------------------------

    def execute(self, application: VerifiedApplication, *,
                events: list[tuple] | None = None) -> ApplicationSession:
        """Run an application's scripts and schedule its presentation.

        Args:
            application: a verified application from the pipeline.
            events: ``(handler_name, *args)`` tuples dispatched after
                the scripts' top-level code ran.
        """
        manifest = application.manifest
        session = ApplicationSession(
            app_name=manifest.name,
            trusted=application.trusted,
            grants=application.grants,
            degradations=list(application.degradations),
        )
        presentation = self.build_presentation(manifest)
        missing = presentation.validate_regions()
        if missing:
            raise ApplicationRejectedError(
                f"application references undefined regions: {missing}"
            )
        session.timeline = presentation.schedule(self.clip_durations)

        interpreter = Interpreter(
            self._host_objects(session, presentation),
            max_instructions=self.max_instructions,
        )
        session._interpreter = interpreter
        for script in manifest.scripts:
            if script.language != "ecmascript":
                raise ApplicationRejectedError(
                    f"unsupported script language {script.language!r}"
                )
            result = interpreter.run(script.source)
            session.instructions += result.instructions
            session.script_globals.update(result.globals)
        for event in events or []:
            handler, *args = event
            interpreter.call_function(handler, *args)
        from repro.markup.script_interp import ScriptFunction
        session.script_globals = {
            name: value
            for name, value in interpreter.globals.values.items()
            if isinstance(value, ScriptFunction)
            or not (isinstance(value, HostObject) or callable(value))
        }
        return session

    # -- host API ------------------------------------------------------------------------

    def _host_objects(self, session: ApplicationSession,
                      presentation: Presentation) -> dict[str, HostObject]:
        app_id = session.grants.app_id

        def storage_gate(name: str, method):
            # The one local-storage check; it records a refusal.
            def call(key, *args):
                try:
                    session.grants.check(PERM_LOCAL_STORAGE)
                except PermissionDeniedError:
                    session.denied_ops.append(f"storage.{name}({key})")
                    raise
                return method(key, *args)
            return call

        def storage_write(key, value):
            payload = _to_bytes(value)
            grant = session.grants.grant(PERM_LOCAL_STORAGE)
            if grant is not None and grant.quota_bytes:
                used = self.storage.used_bytes(app_id)
                if used + len(payload) > grant.quota_bytes:
                    session.denied_ops.append(f"storage.write({key})")
                    raise PermissionDeniedError(
                        f"application quota exceeded for {app_id!r}"
                    )
            self.storage.write(app_id, str(key), payload)
            session.storage_ops.append(f"write:{key}")

        def storage_write_secure(key, value):
            if self.storage_key is None:
                raise PermissionDeniedError(
                    "player has no storage encryption key"
                )
            self.storage.write_encrypted(
                app_id, str(key), _to_bytes(value), self.storage_key,
            )
            session.storage_ops.append(f"writeSecure:{key}")

        def storage_read(key):
            session.storage_ops.append(f"read:{key}")
            try:
                blob = self.storage.read(app_id, str(key))
            except Exception:
                return None
            if blob.startswith(b"ENC2"):
                if self.storage_key is None:
                    return None
                blob = self.storage.read_encrypted(
                    app_id, str(key), self.storage_key,
                )
            return _from_bytes(blob)

        def network_get(host, path):
            try:
                session.grants.check(PERM_RETURN_CHANNEL, host=str(host))
            except PermissionDeniedError:
                try:
                    session.grants.check(PERM_NETWORK, host=str(host))
                except PermissionDeniedError:
                    session.denied_ops.append(f"network.get({host}{path})")
                    raise
            if self.network_fetch is None:
                raise PermissionDeniedError("player is offline")
            session.network_ops.append(f"get:{host}{path}")
            try:
                data = self.network_fetch(str(host), str(path))
            except NetworkError as exc:
                # Graceful degradation: a dead or exhausted link bars
                # this one resource (the script sees null), it does not
                # abort the application or the disc.
                event = self.pipeline.degradation.record(
                    "network-api", f"{host}{path}", exc,
                )
                session.degradations.append(event)
                return None
            return data.decode("utf-8")

        player = HostObject("player", methods={
            "log": lambda message: session.console.append(
                _stringish(message)
            ),
        }, properties={"model": self.model})
        storage = HostObject("storage", methods={
            name: storage_gate(name, method) for name, method in {
                "write": storage_write,
                "writeSecure": storage_write_secure,
                "read": storage_read,
                "remove": lambda key: self.storage.delete(app_id, str(key)),
            }.items()
        })
        network = HostObject("network", methods={"get": network_get})
        presentation_host = HostObject("presentation", methods={
            "regionCount": lambda: float(
                len(presentation.layout.regions)
            ),
            "duration": lambda: presentation.duration(
                self.clip_durations
            ),
        }, properties={
            "width": float(presentation.layout.width),
            "height": float(presentation.layout.height),
        })
        return {
            "player": player, "storage": storage,
            "network": network, "presentation": presentation_host,
        }


def _to_bytes(value) -> bytes:
    return _stringish(value).encode("utf-8")


def _from_bytes(blob: bytes):
    text = blob.decode("utf-8", "replace")
    try:
        return float(text)
    except ValueError:
        return text


def _stringish(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    return str(value)
