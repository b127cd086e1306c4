"""The taint lattice: labels, sources, sanitizers, sinks, TNT rules.

The paper's trust model is a flow property — disc and network bytes
are untrusted until an XMLDSig verification succeeds, and key material
must never leave the crypto layer — so the catalog below is the
machine-readable form of that model:

* **Sources** attach ``UNTRUSTED`` (payloads from the channel, disc
  image reads, XKMS request bodies, parses on untrusted paths) or
  ``SECRET`` (key constructors, key-file loads).
* **Sanitizers** (successful ``dsig`` verification, XACML enforcement)
  clear ``UNTRUSTED`` and stamp ``VERIFIED``.
* **Sinks** are where a label must not arrive: script execution and
  playback/render for ``UNTRUSTED``; logs, ``repr``, exception text
  and cache keys for ``SECRET``.

Matching is two-tier: by resolved qualified name when the call graph
can resolve the callee, falling back to (callee name, receiver hint)
patterns so the rules still fire on duck-typed call sites and on test
fixtures outside the repo tree.  Bump :data:`SPEC_VERSION` whenever the
catalog changes — it keys the findings cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.astlint import _UNTRUSTED_DIRS, _UNTRUSTED_FILES
from repro.analysis.engine import register
from repro.analysis.findings import Severity

SPEC_VERSION = 1

# -- labels -------------------------------------------------------------------

UNTRUSTED = "untrusted"   # content authenticity not established
SECRET = "secret"         # key material / derived secrets
VERIFIED = "verified"     # passed a sanitizer (dsig verify, XACML)
REPARSED = "reparsed"     # re-parsed after verification (proof discarded)

#: labels that participate in interprocedural summaries (``P0``..``Pn``
#: parameter markers are added dynamically).
CONCRETE_LABELS = (UNTRUSTED, SECRET, VERIFIED, REPARSED)

# -- rules --------------------------------------------------------------------

TNT201 = register(
    "TNT201", "untrusted bytes reach script execution unverified",
    Severity.ERROR, "code",
    "A value derived from network/disc/XKMS input flows into the "
    "ECMAScript interpreter without passing XMLDSig verification; a "
    "hostile disc or peer gets arbitrary script execution.",
)
TNT202 = register(
    "TNT202", "unverified markup reaches playback or output path",
    Severity.ERROR, "code",
    "Parsed-but-unverified markup flows into a playback/render entry "
    "point or back out onto the network; presentation must only ever "
    "consume signature-checked content.",
)
TNT203 = register(
    "TNT203", "secret key material reaches a logging/repr/error sink",
    Severity.ERROR, "code",
    "Key material (or a value derived from it) flows into a log line, "
    "printed output, exception message, findings report or cache key; "
    "secrets must stay inside the crypto layer.",
)
TNT204 = register(
    "TNT204", "verified content re-parsed before use (proof discarded)",
    Severity.WARNING, "code",
    "A value that passed verification was serialized and re-parsed "
    "before reaching its sink; the re-parse severs the connection to "
    "the verified octets (the classic signature-wrapping enabler).",
)

# -- catalog types ------------------------------------------------------------


@dataclass(frozen=True)
class CallPattern:
    """One source/sanitizer/sink entry.

    ``qnames`` match resolved callees exactly; otherwise the callee's
    last name segment must be in ``names`` and, when
    ``receiver_tokens`` is non-empty, some token must be a substring of
    the receiver hint (the identifier the call is made on).
    """

    names: frozenset = frozenset()
    receiver_tokens: frozenset = frozenset()
    qnames: frozenset = frozenset()
    labels: frozenset = frozenset()        # sources only
    kind: str = ""                         # sinks only
    untrusted_module_only: bool = False    # sources only
    origin: str = ""                       # human description

    def matches(self, name: str, receiver_hint: str,
                qname: str | None) -> bool:
        if qname is not None and qname in self.qnames:
            return True
        if name not in self.names:
            return False
        if not self.receiver_tokens:
            return True
        hint = receiver_hint.lower()
        return any(token in hint for token in self.receiver_tokens)


def _pattern(**kwargs) -> CallPattern:
    for key in ("names", "receiver_tokens", "qnames", "labels"):
        if key in kwargs:
            kwargs[key] = frozenset(kwargs[key])
    return CallPattern(**kwargs)


# -- sources ------------------------------------------------------------------

SOURCES = (
    _pattern(
        names={"transfer"}, receiver_tokens={"channel", "chan"},
        qnames={"repro.network.channel:Channel.transfer"},
        labels={UNTRUSTED}, origin="network channel transfer",
    ),
    _pattern(
        names={"fetch", "call"},
        receiver_tokens={"client", "download"},
        qnames={"repro.network.server:DownloadClient.fetch",
                "repro.network.server:DownloadClient.call"},
        labels={UNTRUSTED}, origin="download client payload",
    ),
    _pattern(
        names={"fetch", "completed", "receive"},
        receiver_tokens={"receiver", "carousel"},
        qnames={"repro.network.broadcast:CarouselReceiver.fetch",
                "repro.network.broadcast:CarouselReceiver.completed"},
        labels={UNTRUSTED}, origin="broadcast carousel payload",
    ),
    _pattern(
        names={"read", "stream", "resolver"},
        receiver_tokens={"image", "disc"},
        qnames={"repro.disc.image:DiscImage.read",
                "repro.disc.image:DiscImage.stream"},
        labels={UNTRUSTED}, origin="disc image bytes",
    ),
    _pattern(
        names={"from_xml"},
        receiver_tokens={"request", "result", "xkms"},
        qnames={"repro.xkms.messages:XKMSRequest.from_xml",
                "repro.xkms.messages:XKMSResult.from_xml"},
        labels={UNTRUSTED}, origin="XKMS message body",
    ),
    # Parses on untrusted paths are sources in their own right: even a
    # locally-produced byte string is untrusted once it crossed a
    # trust-boundary module (LIN106's path list).
    _pattern(
        names={"parse_document", "parse_element"},
        labels={UNTRUSTED}, untrusted_module_only=True,
        origin="parse on untrusted path",
    ),
)

SECRET_SOURCES = (
    _pattern(
        names={"generate_keypair"},
        qnames={"repro.primitives.rsa:generate_keypair"},
        labels={SECRET}, origin="generated RSA key pair",
    ),
    _pattern(
        names={"private_key_from_xml"},
        qnames={"repro.tools.keystore:private_key_from_xml"},
        labels={SECRET}, origin="private key file",
    ),
    _pattern(
        names={"SymmetricKey", "RSAPrivateKey"},
        qnames={"repro.primitives.keys:SymmetricKey",
                "repro.primitives.keys:RSAPrivateKey"},
        labels={SECRET}, origin="key object construction",
    ),
)

#: attribute reads that mint SECRET: ``<key-hinted>.data``, ``key.d`` …
SECRET_ATTRS = frozenset({"d", "p", "q", "data"})
SECRET_BASE_TOKENS = frozenset({"key", "secret", "hmac", "private"})

# -- sanitizers ---------------------------------------------------------------

SANITIZERS = (
    _pattern(
        names={"verify", "verify_or_raise", "verify_all",
               "raise_if_invalid", "verify_signatures"},
        receiver_tokens={"verifier", "batch", "report", "engine",
                         "outcome"},
        qnames={"repro.dsig.verifier:Verifier.verify",
                "repro.dsig.verifier:Verifier.verify_or_raise",
                "repro.perf.batch:BatchVerifier.verify_all"},
        origin="XMLDSig verification",
    ),
    _pattern(
        names={"verify_signatures"},
        origin="XMLDSig verification helper",
    ),
    _pattern(
        names={"enforce", "is_permitted", "evaluate"},
        receiver_tokens={"pdp", "pep"},
        qnames={"repro.xacml.pdp:PDP.evaluate",
                "repro.xacml.pdp:PEP.enforce",
                "repro.xacml.pdp:PEP.is_permitted"},
        origin="XACML permission decision",
    ),
    # Grant evaluation over a permission request file is the platform's
    # PDP: only grantable permissions survive and trusted-only ones
    # require a verified signature, so the resulting GrantSet is policy
    # output, not attacker-controlled markup.
    _pattern(
        names={"decide"},
        receiver_tokens={"policy", "pdp", "pep"},
        qnames={"repro.permissions.request_file:"
                "PlatformPermissionPolicy.decide"},
        origin="permission grant decision",
    ),
)

#: Verify-then-release wrappers whose whole contract is "only verified
#: content comes back" (each is covered by tier-1 tests).  Their return
#: value is VERIFIED even though the summary cannot prove the internal
#: reference-coverage argument; DESIGN.md §10 records the rationale.
TRUSTED_WRAPPERS = frozenset({
    "repro.core.playback_pipeline:PlaybackPipeline.open_package",
    "repro.player.engine:InteractiveApplicationEngine.load_package",
})

#: Callables whose results carry no payload data (guards, lengths,
#: constant-time verdicts) or are one-way crypto outputs (signatures,
#: digests, MACs are public by construction even when computed *with*
#: key material) — taint stops here.
TAINT_STOPPERS = frozenset({
    "len", "bool", "int", "float", "isinstance", "hasattr", "id",
    "type", "constant_time_equal", "fingerprint",
    "rsa_sign_digest", "rsassa_sign", "sign", "sign_digest",
    "digest", "hexdigest", "hmac_sha1", "hmac_sha256",
    "public_key",  # the public half of a keypair is public
})

#: Parse entry points (re-parse detection + untrusted-path sources).
PARSE_NAMES = frozenset({"parse_document", "parse_element"})

# -- sinks --------------------------------------------------------------------

SINK_SCRIPT = "script-exec"
SINK_PLAYBACK = "playback"
SINK_NET_OUT = "net-out"
SINK_SECRET_OUT = "secret-out"

#: sink kind -> label that must not arrive there
SINK_TRIGGERS = {
    SINK_SCRIPT: UNTRUSTED,
    SINK_PLAYBACK: UNTRUSTED,
    SINK_NET_OUT: UNTRUSTED,
    SINK_SECRET_OUT: SECRET,
}

#: sink kind -> rule minted when the trigger label arrives
SINK_RULES = {
    SINK_SCRIPT: TNT201,
    SINK_PLAYBACK: TNT202,
    SINK_NET_OUT: TNT202,
    SINK_SECRET_OUT: TNT203,
}

SINKS = (
    _pattern(
        kind=SINK_SCRIPT,
        names={"run", "call_function"},
        receiver_tokens={"interp"},
        qnames={"repro.markup.script_interp:Interpreter.run",
                "repro.markup.script_interp:Interpreter.call_function"},
        origin="script interpreter",
    ),
    _pattern(
        kind=SINK_PLAYBACK,
        names={"execute", "build_presentation", "run_application",
               "play_title", "launch_disc_application"},
        receiver_tokens={"engine", "player"},
        qnames={
            "repro.player.engine:"
            "InteractiveApplicationEngine.execute",
            "repro.player.engine:"
            "InteractiveApplicationEngine.build_presentation",
            "repro.player.player:DiscPlayer.run_application",
            "repro.player.player:DiscPlayer.play_title",
        },
        origin="playback engine",
    ),
    _pattern(
        kind=SINK_NET_OUT,
        names={"send", "respond", "reply", "broadcast", "publish"},
        receiver_tokens={"channel", "server", "carousel", "peer",
                         "socket"},
        origin="network output",
    ),
    _pattern(
        kind=SINK_SECRET_OUT,
        names={"print"},
        origin="printed output",
    ),
    _pattern(
        kind=SINK_SECRET_OUT,
        names={"append", "info", "debug", "warning", "error",
               "exception", "log", "write"},
        receiver_tokens={"log", "audit", "logger"},
        origin="log line",
    ),
    _pattern(
        kind=SINK_SECRET_OUT,
        names={"finding"},
        origin="findings report",
    ),
)

#: receiver hints whose subscript *keys* are secret-out sinks
CACHE_STORE_TOKENS = frozenset({"cache", "memo"})


def module_is_untrusted(path: str) -> bool:
    """Same trust-boundary path list LIN106 uses, plus fixtures that
    place themselves on an untrusted path by directory name."""
    normalized = path.replace("\\", "/")
    return (any(part in normalized for part in _UNTRUSTED_DIRS)
            or normalized.endswith(tuple(_UNTRUSTED_FILES))
            or "/untrusted/" in normalized)
