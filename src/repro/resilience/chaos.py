"""Seeded adversarial chaos harness for the resource-hardened stack.

ISSUE 4's acceptance bar: every resource attack the harness can
generate must be *provably contained* — it either raises a typed
:mod:`repro.errors` exception or lands as a recorded degradation,
never a ``RecursionError``, ``MemoryError`` or raw traceback.  The
harness composes PR 1's deterministic :class:`FaultSchedule`
adversaries (drops, truncation) with resource-attack generators (deep
nesting, attribute floods, giant text nodes, reference bombs, decrypt
bombs, oversized frames) and drives them through the *real* entry
points: the parser, the verifier, the decryptor, the content server's
frame decoder, the XKMS responder and the full
sign→encrypt→transfer→verify→decrypt→playback pipeline.

Everything is deterministic under a fixed seed: attack sizes come from
one ``random.Random(seed)`` stream, the PKI world is built from a
fixed :class:`DeterministicRandomSource`, and fault schedules are
seeded from the same stream — so a CI failure replays bit-for-bit
with ``python -m repro.tools chaos --seed N``.

Invariants asserted per attack (violations fail the run):

* only :class:`~repro.errors.ReproError` subclasses escape an entry
  point — anything else (including ``AssertionError`` from the checks
  below) is a containment violation;
* a tripped :class:`ResourceGuard` still satisfies
  :meth:`~ResourceGuard.within_limits` (check-before-commit);
* servers answer hostile frames with protocol error frames, the XKMS
  responder answers malformed requests with a structured Sender fault;
* pipeline-level rejections land in the :class:`DegradationLog` with
  the ``resource-limit`` taxonomy code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.certs import CertificateAuthority, SigningIdentity, TrustStore
from repro.core import AuthoringPipeline, PlaybackPipeline
from repro.disc import ApplicationManifest
from repro.errors import (
    ApplicationRejectedError, NetworkError, ReproError,
    ResourceLimitExceeded,
)
from repro.network import Channel, ContentServer, DownloadClient
from repro.network.server import _RESP_ERR, _decode
from repro.permissions import PermissionRequestFile
from repro.player import DiscPlayer
from repro.primitives.keys import SymmetricKey
from repro.primitives.random import DeterministicRandomSource
from repro.resilience.clock import SimulatedClock
from repro.resilience.degradation import REASON_RESOURCE
from repro.resilience.faults import (
    DropFault, FaultSchedule, TruncateFault,
)
from repro.resilience.limits import ResourceGuard, ResourceLimits
from repro.resilience.retry import RetryPolicy
from repro.xkms.messages import RESULT_SENDER_FAULT, XKMSResult
from repro.xkms.server import TrustServer
from repro.xmlcore import (
    DSIG_NS, canonicalize, element, parse_element,
)
from repro.xmlenc import Encryptor, Decryptor

PACKAGE_PATH = "/apps/chaos.pkg"

#: Tightened quotas so attack payloads stay small and CI stays fast;
#: the *relative* shape (every limit finite) matches the defaults.
CHAOS_LIMITS = ResourceLimits(
    max_input_bytes=256 * 1024,
    max_element_depth=40,
    max_node_count=4_000,
    max_attributes_per_element=32,
    max_text_bytes=20_000,
    max_references_per_signature=8,
    max_transforms_per_reference=4,
    max_c14n_output_bytes=512 * 1024,
    max_decrypt_output_bytes=50_000,
    max_expansion_ratio=50.0,
    max_frame_bytes=100_000,
)

LAYOUT = (
    '<layout xmlns="urn:bda:bdmv:interactive-cluster">'
    '<root-layout width="1920" height="1080"/>'
    '<region regionName="main" width="1920" height="1080"/></layout>'
)


# -- the deterministic world -------------------------------------------------------


@dataclass
class ChaosWorld:
    """Fixed PKI + one legitimately signed package, seed-independent."""

    root: CertificateAuthority
    studio: SigningIdentity
    trust_store: TrustStore
    device_key: object
    package_data: bytes
    server: ContentServer


_world_cache: ChaosWorld | None = None


def build_world() -> ChaosWorld:
    """Build (once) the fixed world every chaos run attacks.

    Key generation is the expensive part, so the world is cached at
    module level; attacks never mutate it — they parse fresh copies of
    ``package_data`` and construct their own servers/pipelines.
    """
    global _world_cache
    if _world_cache is not None:
        return _world_cache
    rng = DeterministicRandomSource(b"chaos-world")
    root = CertificateAuthority.create_root("CN=Chaos Root CA", rng=rng)
    studio = SigningIdentity.create("CN=Chaos Studio", root, rng=rng)
    trust_store = TrustStore(roots=[root.certificate])
    # The player's RSA transport key, minted like any other identity
    # (keeps raw-primitive access behind the certs layer).
    device_key = SigningIdentity.create("CN=Chaos Player", root,
                                        rng=rng).key

    manifest = ApplicationManifest("chaos-app")
    manifest.add_submarkup("layout", parse_element(LAYOUT))
    manifest.add_script('player.log("chaos running");')
    prf = PermissionRequestFile("chaos-app", "org.chaos")
    package = AuthoringPipeline(
        studio, recipient_key=device_key.public_key(), rng=rng,
    ).build_package(manifest, permission_file=prf)

    server = ContentServer()
    server.publish(PACKAGE_PATH, package.data)
    _world_cache = ChaosWorld(
        root=root, studio=studio, trust_store=trust_store,
        device_key=device_key, package_data=package.data, server=server,
    )
    return _world_cache


# -- outcomes ----------------------------------------------------------------------


@dataclass
class ChaosOutcome:
    """One attack's verdict."""

    attack: str
    contained: bool
    detail: str

    def __str__(self) -> str:
        status = "contained" if self.contained else "VIOLATION"
        return f"{self.attack}: {status} — {self.detail}"


@dataclass
class ChaosReport:
    """Everything one seeded chaos run produced."""

    seed: int
    iterations: int
    outcomes: list[ChaosOutcome] = field(default_factory=list)

    @property
    def violations(self) -> list[ChaosOutcome]:
        return [o for o in self.outcomes if not o.contained]

    @property
    def ok(self) -> bool:
        return not self.violations

    def attack_kinds(self) -> list[str]:
        return sorted({o.attack for o in self.outcomes})

    def summary_lines(self, verbose: bool = False) -> list[str]:
        lines = [
            f"chaos seed={self.seed} iterations={self.iterations}: "
            f"{len(self.outcomes)} attack(s) across "
            f"{len(self.attack_kinds())} kind(s), "
            f"{len(self.violations)} violation(s)"
        ]
        for outcome in self.outcomes:
            if verbose or not outcome.contained:
                lines.append(f"  {outcome}")
        return lines


# -- attack generators -------------------------------------------------------------
#
# Each generator takes (world, limits, rng), drives one *real* entry
# point with hostile input, and asserts the containment invariants.
# Raising AssertionError (or any non-ReproError) marks a violation.


def _assert_guard_tripped(guard: ResourceGuard,
                          exc: ResourceLimitExceeded) -> None:
    assert guard.trips, "guard raised without recording the trip"
    assert guard.within_limits(), \
        "guard counters exceeded quota (charge committed before check)"
    assert isinstance(exc, ResourceLimitExceeded)


def attack_deep_nesting(world, limits, rng) -> str:
    """A tree nested far past the depth quota must trip, not recurse."""
    depth = rng.randint(limits.max_element_depth + 1,
                        limits.max_element_depth * 50)
    payload = ("<a>" * depth) + ("</a>" * depth)
    guard = ResourceGuard(limits)
    try:
        parse_element(payload, guard=guard)
    except ResourceLimitExceeded as exc:
        _assert_guard_tripped(guard, exc)
        assert exc.limit_name == "max_element_depth", exc.limit_name
        return f"depth {depth} refused at quota {limits.max_element_depth}"
    raise AssertionError(f"depth {depth} parsed without tripping")


def attack_attribute_flood(world, limits, rng) -> str:
    """One start tag carrying a flood of attributes."""
    count = rng.randint(limits.max_attributes_per_element + 1,
                        limits.max_attributes_per_element * 20)
    attrs = " ".join(f'a{i}="v"' for i in range(count))
    guard = ResourceGuard(limits)
    try:
        parse_element(f"<doc {attrs}/>", guard=guard)
    except ResourceLimitExceeded as exc:
        _assert_guard_tripped(guard, exc)
        assert exc.limit_name == "max_attributes_per_element"
        return f"{count} attributes refused"
    raise AssertionError(f"{count} attributes parsed without tripping")


def attack_giant_text(world, limits, rng) -> str:
    """A single text node past the per-node size quota."""
    size = rng.randint(limits.max_text_bytes + 1,
                       limits.max_text_bytes * 4)
    guard = ResourceGuard(limits)
    try:
        parse_element(f"<doc>{'A' * size}</doc>", guard=guard)
    except ResourceLimitExceeded as exc:
        _assert_guard_tripped(guard, exc)
        assert exc.limit_name in ("max_text_bytes", "max_input_bytes")
        return f"{size}-octet text refused"
    raise AssertionError(f"{size}-octet text parsed without tripping")


def attack_node_flood(world, limits, rng) -> str:
    """Shallow but wide: more sibling elements than the node quota."""
    count = rng.randint(limits.max_node_count + 1,
                        limits.max_node_count * 2)
    payload = "<doc>" + "<i/>" * count + "</doc>"
    guard = ResourceGuard(limits)
    try:
        parse_element(payload, guard=guard)
    except ResourceLimitExceeded as exc:
        _assert_guard_tripped(guard, exc)
        assert exc.limit_name in ("max_node_count", "max_input_bytes")
        return f"{count} sibling nodes refused"
    raise AssertionError(f"{count} nodes parsed without tripping")


def attack_reference_bomb(world, limits, rng) -> str:
    """A signature naming a flood of ds:Reference elements.

    The verifier must refuse it *before* dereferencing and digesting
    each one, and the refusal surfaces as an invalid report, not an
    exception at the caller.
    """
    from repro.dsig import Verifier

    root = parse_element(world.package_data,
                         guard=ResourceGuard.unlimited())
    signature = next(root.iter("Signature", DSIG_NS))
    signed_info = signature.first_child("SignedInfo", DSIG_NS)
    reference = signed_info.first_child("Reference", DSIG_NS)
    clones = rng.randint(limits.max_references_per_signature + 1, 60)
    for _ in range(clones):
        signed_info.append(reference.copy())
    guard = ResourceGuard(limits)
    verifier = Verifier(trust_store=world.trust_store,
                        require_trusted_key=True, guard=guard)
    report = verifier.verify(signature)
    assert not report.valid, "reference bomb verified as valid"
    assert guard.trips, "verifier accepted the flood without a trip"
    assert guard.trips[0].limit_name == "max_references_per_signature"
    return f"{clones + 1} references refused as invalid report"


def attack_decrypt_bomb(world, limits, rng) -> str:
    """EncryptedData whose plaintext busts the decrypt quota."""
    size = rng.randint(limits.max_decrypt_output_bytes + 1,
                       limits.max_decrypt_output_bytes * 2)
    doc = element("package", None)
    blob = element("blob", None)
    blob.append_text("A" * size)
    doc.append(blob)
    key = SymmetricKey(b"chaos-aes-128-k!")
    enc_rng = DeterministicRandomSource(
        f"chaos-enc-{rng.getrandbits(32)}".encode()
    )
    Encryptor(rng=enc_rng).encrypt_element(blob, key,
                                           key_name="chaos-key")
    guard = ResourceGuard(limits)
    decryptor = Decryptor(keys={"chaos-key": key}, guard=guard)
    try:
        decryptor.decrypt_in_place(doc)
    except ResourceLimitExceeded as exc:
        _assert_guard_tripped(guard, exc)
        assert exc.limit_name == "max_decrypt_output_bytes"
        return f"{size}-octet plaintext refused"
    raise AssertionError(f"{size}-octet plaintext decrypted untripped")


def attack_oversized_frame(world, limits, rng) -> str:
    """Hostile frames on both sides of the wire protocol.

    The server answers an oversized request with a 413 error frame
    (never raises); the client refuses an oversized response with a
    typed error before decoding any part of it.
    """
    size = limits.max_frame_bytes + rng.randint(1, 4096)
    server = ContentServer(limits=limits)
    response = server.handle(b"\x10" + b"A" * size)
    kind, parts = _decode(response)
    assert kind == _RESP_ERR, "oversized frame did not get an error frame"
    assert parts and parts[0].startswith(b"413"), parts
    assert server.request_log[-1] == "OVERSIZED"

    client = DownloadClient(world.server, Channel(), limits=limits)
    try:
        client._parse_response(b"\x20" + b"B" * size)
    except ResourceLimitExceeded as exc:
        assert exc.limit_name == "max_frame_bytes"
        return f"{size}-octet frame: server answered 413, client refused"
    raise AssertionError("client decoded an oversized response frame")


def attack_truncated_frame(world, limits, rng) -> str:
    """PR 1 composition: a TruncateFault cuts the response mid-flight.

    The client must surface a typed NetworkError; the server must
    answer a natively malformed frame with a 400 error frame.
    """
    truncate = TruncateFault(keep_bytes=rng.randint(1, 9),
                             schedule=FaultSchedule.at(1))
    client = DownloadClient(world.server, Channel([truncate]),
                            limits=limits)
    try:
        client.fetch(PACKAGE_PATH, secure=False)
        raise AssertionError("truncated response fetched successfully")
    except NetworkError:
        pass
    assert truncate.fired == 1

    server = ContentServer(limits=limits)
    response = server.handle(b"\x10\x00\x00\x10")   # length field cut short
    kind, parts = _decode(response)
    assert kind == _RESP_ERR and parts[0].startswith(b"400"), parts
    assert server.request_log[-1] == "MALFORMED"
    return "truncated transfer raised typed error; server answered 400"


def attack_malformed_xkms(world, limits, rng) -> str:
    """The trust server must answer garbage with a structured fault."""
    server = TrustServer(limits=limits)
    depth = limits.max_element_depth * 2
    payloads = [
        "this is not XML at all",
        "<xml-but-wrong-root/>",
        ("<a>" * depth) + ("</a>" * depth),
        "<LocateRequest xmlns='urn:wrong:ns'",      # unterminated tag
    ]
    payload = payloads[rng.randrange(len(payloads))]
    response = server.handle_xml(payload)
    result = XKMSResult.from_xml(response)
    assert result.result_major == RESULT_SENDER_FAULT, result.result_major
    assert server.audit_log and \
        server.audit_log[-1].startswith("malformed-request:")
    return f"payload #{payloads.index(payload)} answered with Sender fault"


def attack_package_bomb(world, limits, rng) -> str:
    """A resource bomb at the top of the playback pipeline.

    The pipeline must bar the package with a typed rejection AND put
    the decision on the degradation log under the resource taxonomy.
    """
    if rng.random() < 0.5:
        depth = limits.max_element_depth * 3
        bomb = (("<package>" + "<a>" * depth)
                + ("</a>" * depth + "</package>")).encode()
        shape = f"depth bomb ({depth})"
    else:
        count = limits.max_node_count + 500
        bomb = ("<package>" + "<i/>" * count + "</package>").encode()
        shape = f"node bomb ({count})"
    pipeline = PlaybackPipeline(trust_store=world.trust_store,
                                device_key=world.device_key,
                                limits=limits)
    try:
        pipeline.open_package(bomb)
        raise AssertionError("package bomb opened successfully")
    except ApplicationRejectedError:
        pass
    events = pipeline.degradation.for_component("package")
    assert events, "rejection not recorded on the degradation log"
    assert events[-1].reason == REASON_RESOURCE, events[-1].reason
    return f"{shape} barred and logged as {REASON_RESOURCE}"


def attack_faulty_transfer_legit(world, limits, rng) -> str:
    """The legitimate package over a lossy link (PR 1 adversaries).

    Whatever the seeded drop pattern does, the player either gets the
    trusted application or records a degradation — never a crash.
    """
    drop = DropFault(
        schedule=FaultSchedule.probability(0.4,
                                           seed=rng.getrandbits(32)),
    )
    client = DownloadClient(
        world.server, Channel([drop]),
        retry_policy=RetryPolicy(max_attempts=4, base_delay=0.1,
                                 seed=rng.getrandbits(32),
                                 clock=SimulatedClock()),
    )
    player = DiscPlayer(world.trust_store, device_key=world.device_key)
    application = player.download_application(
        client, PACKAGE_PATH, secure=False, optional=True,
    )
    if application is None:
        events = player.degradation.for_component("download")
        assert events, "barred download left no degradation event"
        return f"link dead (drops={drop.fired}): barred and logged"
    assert application.trusted, "package survived transfer untrusted"
    return f"application survived lossy link (drops={drop.fired})"


def attack_deadline_exhaustion(world, limits, rng) -> str:
    """Wall-clock budget on the injected clock trips deterministically."""
    clock = SimulatedClock()
    budget = 0.5
    guard = ResourceGuard(limits.replace(wall_clock_budget_s=budget),
                          clock=clock)
    clock.advance(budget + rng.random() * 4.0)
    doc = parse_element("<doc><a/><b/></doc>")
    try:
        canonicalize(doc, guard=guard)
    except ResourceLimitExceeded as exc:
        _assert_guard_tripped(guard, exc)
        assert exc.limit_name == "wall_clock_budget_s"
        return "deadline trip fired on the simulated clock"
    raise AssertionError("expired deadline did not trip")


#: name -> generator; ISSUE 4 requires at least five kinds.
ATTACKS = {
    "deep-nesting": attack_deep_nesting,
    "attribute-flood": attack_attribute_flood,
    "giant-text": attack_giant_text,
    "node-flood": attack_node_flood,
    "reference-bomb": attack_reference_bomb,
    "decrypt-bomb": attack_decrypt_bomb,
    "oversized-frame": attack_oversized_frame,
    "truncated-frame": attack_truncated_frame,
    "malformed-xkms": attack_malformed_xkms,
    "package-bomb": attack_package_bomb,
    "faulty-transfer-legit": attack_faulty_transfer_legit,
    "deadline-exhaustion": attack_deadline_exhaustion,
}


# -- the harness -------------------------------------------------------------------


def _execute(name: str, thunk) -> ChaosOutcome:
    """Run one attack and classify containment.

    Typed :class:`ReproError`\\ s and clean returns are contained;
    AssertionError (a violated invariant), RecursionError, MemoryError
    and every other escape are violations.
    """
    try:
        detail = thunk()
        return ChaosOutcome(name, True, detail or "handled")
    except ReproError as exc:
        return ChaosOutcome(
            name, True, f"typed {type(exc).__name__}: {exc}"
        )
    except AssertionError as exc:
        return ChaosOutcome(name, False, f"invariant violated: {exc}")
    except BaseException as exc:
        return ChaosOutcome(
            name, False, f"untyped {type(exc).__name__}: {exc}"
        )


def run_chaos(seed: int, *, iterations: int = 1,
              limits: ResourceLimits = CHAOS_LIMITS) -> ChaosReport:
    """Run every attack *iterations* times under one seeded stream."""
    world = build_world()
    rng = random.Random(seed)
    report = ChaosReport(seed=seed, iterations=iterations)
    for _ in range(iterations):
        for name, generator in ATTACKS.items():
            report.outcomes.append(_execute(
                name, lambda: generator(world, limits, rng)
            ))
    return report
