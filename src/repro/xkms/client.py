"""XKMS client used by players and authoring tools.

The client speaks XML to any transport: a callable
``request_xml -> result_xml`` — in-process server, the simulated
network service, or a TLS-like secure channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import (
    ResourceLimitExceeded, ServiceOverloadError, XKMSError, XMLError,
)
from repro.primitives.keys import RSAPublicKey
from repro.resilience.limits import ResourceGuard, ResourceLimits
from repro.resilience.retry import CircuitBreaker, RetryPolicy
from repro.resilience.service import Deadline
from repro.xkms.messages import (
    STATUS_VALID, KeyBinding, XKMSRequest, XKMSResult,
)
from repro.xkms.server import authentication_proof

Transport = Callable[[str], str]

#: Async transport: ``(request_xml, deadline) -> result_xml``.  The
#: deadline travels with the request so the far side can stop working
#: on it the moment the caller stops caring.
AsyncTransport = Callable[..., object]


def _read_result(request: XKMSRequest, response_xml: str,
                 limits: ResourceLimits) -> XKMSResult:
    """Parse untrusted result XML under *limits* and check that it
    answers *request*; anything else is a typed :class:`XKMSError`."""
    try:
        result = XKMSResult.from_xml(
            response_xml, guard=ResourceGuard(limits),
        )
    except (XMLError, ResourceLimitExceeded) as exc:
        raise XKMSError(
            f"XKMS {request.operation} result is unusable: {exc}"
        ) from exc
    # A result without a request id is as unanswerable as one with
    # the wrong id — accepting it would let any stale or substituted
    # response satisfy our request.
    if result.request_id != request.request_id:
        raise XKMSError(
            "XKMS result does not answer our request "
            f"({result.request_id!r} != {request.request_id!r})"
        )
    return result


# One request builder and one answer reader per operation, shared by
# the sync and the async client.


def _locate_request(key_name: str) -> XKMSRequest:
    return XKMSRequest("Locate", key_name=key_name)


def _located_key(result: XKMSResult) -> RSAPublicKey | None:
    if not result.success or not result.bindings:
        return None
    return result.bindings[0].key


def _validate_request(key_name: str,
                      key: RSAPublicKey | None) -> XKMSRequest:
    binding = (KeyBinding(key_name, key) if key is not None else None)
    return XKMSRequest("Validate", key_name=key_name, binding=binding)


def _is_valid(result: XKMSResult) -> bool:
    if not result.success or not result.bindings:
        return False
    return result.bindings[0].status == STATUS_VALID


def _register_request(key_name: str, key: RSAPublicKey, secret: bytes,
                      use: str) -> XKMSRequest:
    return XKMSRequest(
        "Register",
        binding=KeyBinding(key_name, key, use=use),
        authentication=authentication_proof(secret, key_name),
    )


def _revoke_request(key_name: str, secret: bytes) -> XKMSRequest:
    return XKMSRequest(
        "Revoke", key_name=key_name,
        authentication=authentication_proof(secret, key_name),
    )


@dataclass
class XKMSClient:
    """Convenience wrapper over the XKMS request/result exchange.

    With a *retry_policy*, transport failures are retried under its
    backoff/deadline budget; a *circuit_breaker* short-circuits calls
    to a trust service that keeps failing.  Result XML coming back
    over the wire is untrusted: it is parsed under *limits* (a fresh
    :class:`ResourceGuard` per response) and any malformed or
    oversized result surfaces as a typed :class:`XKMSError` —
    callers' degradation paths already handle that.
    """

    transport: Transport
    retry_policy: RetryPolicy | None = None
    circuit_breaker: CircuitBreaker | None = None
    limits: ResourceLimits = field(default_factory=ResourceLimits.default)

    def _transfer(self, request_xml: str, operation: str) -> str:
        if self.retry_policy is not None:
            return self.retry_policy.execute(
                lambda: self.transport(request_xml),
                breaker=self.circuit_breaker,
                describe=f"XKMS {operation}",
            )
        if self.circuit_breaker is not None:
            with self.circuit_breaker.gate():
                return self.transport(request_xml)
        return self.transport(request_xml)

    def _roundtrip(self, request: XKMSRequest) -> XKMSResult:
        response_xml = self._transfer(request.to_xml(), request.operation)
        return _read_result(request, response_xml, self.limits)

    def locate(self, key_name: str) -> RSAPublicKey | None:
        """Find the public key bound to *key_name* (``None`` if absent).

        Suitable as a :class:`repro.dsig.Verifier` ``key_locator``.
        """
        return _located_key(self._roundtrip(_locate_request(key_name)))

    def validate(self, key_name: str,
                 key: RSAPublicKey | None = None) -> bool:
        """True iff the binding exists and is currently Valid."""
        return _is_valid(self._roundtrip(_validate_request(key_name, key)))

    def register(self, key_name: str, key: RSAPublicKey,
                 secret: bytes, use: str = "signature") -> XKMSResult:
        """Register a binding, proving authorization with *secret*."""
        return self._roundtrip(
            _register_request(key_name, key, secret, use))

    def revoke(self, key_name: str, secret: bytes) -> XKMSResult:
        """Revoke a binding."""
        return self._roundtrip(_revoke_request(key_name, secret))


class MuxXKMSTransport:
    """Adapts an :class:`~repro.network.server.AsyncServiceClient` to
    the async XML transport.

    The service's structured busy answers (``MUX_FAULT`` frames) come
    back as typed :class:`~repro.errors.ServiceOverloadError`, so the
    caller's retry policy backs off and its circuit breaker counts the
    overload as a failure — a busy trust service trips the breaker
    before the fleet can pile on.
    """

    def __init__(self, client, *, tenant: str | None = None):
        self._client = client
        self._tenant = tenant

    async def __call__(self, request_xml: str,
                       deadline: Deadline) -> str:
        from repro.network.server import MUX_RESP

        reply = await self._client.call(
            request_xml.encode("utf-8"),
            tenant=self._tenant, deadline=deadline,
        )
        if reply.kind != MUX_RESP:
            raise ServiceOverloadError(
                "trust service answered busy "
                f"(fault frame 0x{reply.kind:02x})",
                reason="busy",
                tenant=self._tenant or self._client.tenant,
            )
        return reply.payload.decode("utf-8")


@dataclass
class AsyncXKMSClient:
    """:class:`XKMSClient` for the async transport, deadline first.

    Every operation runs under an absolute :class:`Deadline` on the
    shared injected clock: it bounds retry backoff (via ``until``), is
    enforced locally while awaiting the wire, and propagates to the
    service so both sides give up at the same instant.  Failure
    surfaces are all typed: overload as
    :class:`~repro.errors.ServiceOverloadError`, expiry as
    :class:`~repro.errors.TimeoutError`, a tripped breaker as
    :class:`~repro.errors.CircuitOpenError`, unusable result XML as
    :class:`~repro.errors.XKMSError`.
    """

    transport: AsyncTransport
    clock: object
    retry_policy: RetryPolicy | None = None
    circuit_breaker: CircuitBreaker | None = None
    limits: ResourceLimits = field(default_factory=ResourceLimits.default)
    default_timeout_s: float = 30.0

    def deadline(self, timeout_s: float | None = None) -> Deadline:
        budget = (timeout_s if timeout_s is not None
                  else self.default_timeout_s)
        return Deadline.after(self.clock, budget)

    def _attempt_deadline(self, deadline: Deadline) -> Deadline:
        """Cap one attempt's wire wait at the policy's attempt budget.

        A silently dropped frame otherwise blocks the await until the
        *call* deadline — by which point retrying is pointless.  With
        ``attempt_timeout`` set, each attempt gives up early enough to
        leave budget for the next one (never past the call deadline).
        """
        budget = (self.retry_policy.attempt_timeout
                  if self.retry_policy is not None else None)
        if budget is None:
            return deadline
        capped = self.clock.now() + budget
        if capped >= deadline.at:
            return deadline
        return Deadline(capped, self.clock)

    async def _transfer(self, request_xml: str, operation: str,
                        deadline: Deadline) -> str:
        if self.retry_policy is not None:
            return await self.retry_policy.execute_async(
                lambda: self.transport(
                    request_xml, self._attempt_deadline(deadline)),
                breaker=self.circuit_breaker,
                describe=f"XKMS {operation}",
                until=deadline.at,
            )
        if self.circuit_breaker is not None:
            with self.circuit_breaker.gate():
                return await self.transport(request_xml, deadline)
        return await self.transport(request_xml, deadline)

    async def _roundtrip(self, request: XKMSRequest,
                         deadline: Deadline) -> XKMSResult:
        response_xml = await self._transfer(
            request.to_xml(), request.operation, deadline)
        return _read_result(request, response_xml, self.limits)

    async def locate(self, key_name: str, *,
                     timeout_s: float | None = None):
        return _located_key(await self._roundtrip(
            _locate_request(key_name), self.deadline(timeout_s)))

    async def validate(self, key_name: str,
                       key: RSAPublicKey | None = None, *,
                       timeout_s: float | None = None) -> bool:
        return _is_valid(await self._roundtrip(
            _validate_request(key_name, key), self.deadline(timeout_s)))

    async def register(self, key_name: str, key: RSAPublicKey,
                       secret: bytes, use: str = "signature", *,
                       timeout_s: float | None = None) -> XKMSResult:
        return await self._roundtrip(
            _register_request(key_name, key, secret, use),
            self.deadline(timeout_s))

    async def revoke(self, key_name: str, secret: bytes, *,
                     timeout_s: float | None = None) -> XKMSResult:
        return await self._roundtrip(
            _revoke_request(key_name, secret), self.deadline(timeout_s))
