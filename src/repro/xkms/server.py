"""The XKMS trust server ("trusted source" of §7).

Holds registered key bindings, answers Locate/Validate queries, and
accepts Register/Revoke operations authenticated by a shared secret
(X-KRSS's authentication key).  Validation consults an optional
certificate trust store so a binding's status reflects revocation.

Registration state can be made crash-safe by attaching a
:class:`~repro.resilience.durable.DurableStore`
(:meth:`TrustServer.attach_durable`): every registration and
revocation is journaled and fsynced before the operation is
acknowledged, and a restarted server replays exactly the acknowledged
bindings — a revocation the client was told about can never quietly
un-happen across a power cycle.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.errors import (
    DurableStateError, ResourceLimitExceeded, XKMSError, XMLError,
)
from repro.primitives.hmac import constant_time_equal
from repro.primitives.keys import RSAPublicKey
from repro.primitives.provider import get_provider
from repro.resilience.durable import DurableStore
from repro.resilience.limits import ResourceGuard, ResourceLimits
from repro.xkms.messages import (
    RESULT_NO_MATCH, RESULT_RECEIVER_FAULT, RESULT_REFUSED,
    RESULT_SENDER_FAULT, RESULT_SUCCESS, STATUS_INVALID, STATUS_VALID,
    KeyBinding, XKMSRequest, XKMSResult,
)
from repro.xmlcore import parse_element, serialize


def authentication_proof(secret: bytes, key_name: str) -> str:
    """Compute the X-KRSS authentication value for *key_name*: its
    HMAC-SHA-256 under *secret*, through the crypto provider."""
    return get_provider().hmac(
        "sha256", secret, key_name.encode("utf-8")).hex()


@dataclass
class TrustServer:
    """An in-process XKMS responder.

    Args:
        registration_secrets: shared secrets authorized to register or
            revoke bindings, keyed by key-name prefix ("" = any name).
        limits: resource quotas applied to each incoming request XML —
            a fresh :class:`ResourceGuard` is minted per request so an
            oversized or deeply nested message cannot exhaust the
            responder.
    """

    registration_secrets: dict[str, bytes] = field(default_factory=dict)
    _bindings: dict[str, KeyBinding] = field(default_factory=dict)
    audit_log: list[str] = field(default_factory=list)
    #: Monotonic binding-table version, bumped under ``_lock`` on every
    #: mutation (register, revoke, durable replay).  Caches key their
    #: entries on it, so a revocation invalidates every cached answer
    #: about this shard without enumerating them.
    generation: int = 0
    limits: ResourceLimits = field(default_factory=ResourceLimits.default)
    _durable: DurableStore | None = field(default=None, repr=False)
    # One responder serves every in-flight session (and the ROADMAP's
    # async service multiplies them): binding-table and audit writes
    # must be atomic.  Durable journaling (fsync) and XML parsing
    # always run *outside* this lock.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False)

    #: durable-store namespace the binding records live in.
    DURABLE_NAMESPACE = "xkms-bindings"

    # -- durable registration state --------------------------------------------------

    def attach_durable(self, store: DurableStore) -> None:
        """Replay persisted bindings from *store*, then journal every
        future registration/revocation through it.

        Each record is the binding's XML serialization; replay parses
        it under this server's own resource limits — flash is
        attacker-reachable input, not trusted memory.

        Raises:
            DurableStateError: when a persisted record does not parse
                back into a key binding.
        """
        replayed: dict[str, KeyBinding] = {}
        for key_name in store.keys(self.DURABLE_NAMESPACE):
            raw = store.get(self.DURABLE_NAMESPACE, key_name)
            try:
                node = parse_element(raw,
                                     guard=ResourceGuard(self.limits))
                binding = KeyBinding.from_element(node)
            except (XMLError, XKMSError, ResourceLimitExceeded) as exc:
                raise DurableStateError(
                    "persisted key binding does not parse "
                    f"({type(exc).__name__})", kind="tamper",
                ) from exc
            replayed[binding.key_name] = binding
        with self._lock:
            self._bindings.update(replayed)
            self._durable = store
            self.generation += 1
            self.audit_log.append(
                f"durable-attach:{len(self._bindings)}"
            )

    def _persist_binding(self, binding: KeyBinding) -> None:
        """Journal *binding* and fsync; the commit is what makes the
        operation acknowledgeable."""
        if self._durable is None:
            return
        self._durable.set(
            self.DURABLE_NAMESPACE, binding.key_name,
            serialize(binding.to_element()).encode("utf-8"),
        )
        self._durable.commit()

    # -- direct management (operator console) ---------------------------------------

    def register_binding(self, key_name: str, key: RSAPublicKey,
                         use: str = "signature") -> KeyBinding:
        binding = KeyBinding(key_name, key, STATUS_VALID, use)
        self._persist_binding(binding)
        with self._lock:
            self._bindings[key_name] = binding
            self.generation += 1
        return binding

    def revoke_binding(self, key_name: str) -> None:
        binding = self._bindings.get(key_name)
        if binding is None:
            raise XKMSError(f"no binding named {key_name!r}")
        revoked = KeyBinding(binding.key_name, binding.key,
                             STATUS_INVALID, binding.use)
        self._persist_binding(revoked)
        with self._lock:
            binding.status = STATUS_INVALID
            self.generation += 1

    def binding(self, key_name: str) -> KeyBinding | None:
        return self._bindings.get(key_name)

    # -- protocol ----------------------------------------------------------------------

    def handle(self, request: XKMSRequest) -> XKMSResult:
        """Process one XKMS request."""
        self._audit(f"{request.operation}:{request.key_name}")
        handler = {
            "Locate": self._locate,
            "Validate": self._validate,
            "Register": self._register,
            "Revoke": self._revoke,
        }.get(request.operation)
        if handler is None:
            return XKMSResult(request.operation, RESULT_SENDER_FAULT,
                              request_id=request.request_id)
        return handler(request)

    def handle_xml(self, request_xml: str | bytes) -> str:
        """XML-in/XML-out entry point (what the network service wraps).

        Never leaks a traceback to the peer: malformed, oversized or
        otherwise hostile request XML comes back as a structured XKMS
        failure result (``Sender`` fault), and internal failures as a
        ``Receiver`` fault.
        """
        parsed = self.parse(request_xml, self.limits)
        if isinstance(parsed, XKMSRequest):
            parsed = self.answer(parsed)
        return parsed.to_xml()

    def parse(self, request_xml: str | bytes,
              limits: ResourceLimits) -> XKMSRequest | XKMSResult:
        """Parse one request under a fresh guard over *limits*; a
        malformed, oversized or hostile one is audited and answered
        with a ``Sender`` fault."""
        try:
            return XKMSRequest.from_xml(request_xml,
                                        guard=ResourceGuard(limits))
        except (XMLError, XKMSError, ResourceLimitExceeded) as exc:
            # Audit the exception *type* only: the message text can
            # quote attacker bytes or (for crypto failures) values
            # derived from key material, and the audit log is readable
            # by operators outside the crypto layer (TNT203).
            self._audit(f"malformed-request:{type(exc).__name__}")
            return XKMSResult("Status", RESULT_SENDER_FAULT)

    def answer(self, request: XKMSRequest) -> XKMSResult:
        """:meth:`handle`'s result, or an audited ``Receiver`` fault
        when the responder fails."""
        try:
            return self.handle(request)
        except XKMSError as exc:
            self._audit(f"request-failed:{type(exc).__name__}")
            return XKMSResult(
                request.operation, RESULT_RECEIVER_FAULT,
                request_id=request.request_id,
            )

    def _audit(self, line: str) -> None:
        with self._lock:
            self.audit_log.append(line)

    # -- operations ---------------------------------------------------------------------

    def _locate(self, request: XKMSRequest) -> XKMSResult:
        binding = self._bindings.get(request.key_name)
        if binding is None:
            return XKMSResult("Locate", RESULT_NO_MATCH,
                              request_id=request.request_id)
        return XKMSResult("Locate", RESULT_SUCCESS, [binding],
                          request_id=request.request_id)

    def _validate(self, request: XKMSRequest) -> XKMSResult:
        """Validate returns the binding *with its trust status*.

        Unlike Locate, Validate answers "is this binding currently
        good" — a revoked binding comes back with status Invalid.
        """
        queried = request.binding
        name = queried.key_name if queried is not None else request.key_name
        binding = self._bindings.get(name)
        if binding is None:
            return XKMSResult("Validate", RESULT_NO_MATCH,
                              request_id=request.request_id)
        if queried is not None and queried.key != binding.key:
            # Same name, different key: report the binding as invalid.
            reported = KeyBinding(name, queried.key, STATUS_INVALID,
                                  queried.use)
            return XKMSResult("Validate", RESULT_SUCCESS, [reported],
                              request_id=request.request_id)
        return XKMSResult("Validate", RESULT_SUCCESS, [binding],
                          request_id=request.request_id)

    def _check_authentication(self, request: XKMSRequest) -> bool:
        if not request.authentication:
            return False
        name = request.key_name or (
            request.binding.key_name if request.binding else ""
        )
        for prefix, secret in self.registration_secrets.items():
            if not name.startswith(prefix):
                continue
            expected = authentication_proof(secret, name)
            if constant_time_equal(expected.encode(),
                                   request.authentication.encode()):
                return True
        return False

    def _register(self, request: XKMSRequest) -> XKMSResult:
        if request.binding is None:
            return XKMSResult("Register", RESULT_SENDER_FAULT,
                              request_id=request.request_id)
        if not self._check_authentication(request):
            return XKMSResult("Register", RESULT_REFUSED,
                              request_id=request.request_id)
        binding = KeyBinding(
            request.binding.key_name, request.binding.key,
            STATUS_VALID, request.binding.use,
        )
        self._persist_binding(binding)
        with self._lock:
            self._bindings[binding.key_name] = binding
            self.generation += 1
        return XKMSResult("Register", RESULT_SUCCESS, [binding],
                          request_id=request.request_id)

    def _revoke(self, request: XKMSRequest) -> XKMSResult:
        if not self._check_authentication(request):
            return XKMSResult("Revoke", RESULT_REFUSED,
                              request_id=request.request_id)
        binding = self._bindings.get(request.key_name)
        if binding is None:
            return XKMSResult("Revoke", RESULT_NO_MATCH,
                              request_id=request.request_id)
        revoked = KeyBinding(binding.key_name, binding.key,
                             STATUS_INVALID, binding.use)
        self._persist_binding(revoked)
        with self._lock:
            binding.status = STATUS_INVALID
            self.generation += 1
        return XKMSResult("Revoke", RESULT_SUCCESS, [binding],
                          request_id=request.request_id)
