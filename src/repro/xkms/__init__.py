"""XKMS 2.0 key management: messages, trust server, client.

The synchronous pieces (:class:`XKMSClient`, :class:`TrustServer`)
answer one request at a time; the async pieces
(:class:`AsyncXKMSClient`, :class:`AsyncTrustService`) put sharded
responders behind the multiplexed overload-shielded transport.
"""

from repro.xkms.client import (
    AsyncXKMSClient, MuxXKMSTransport, XKMSClient,
)
from repro.xkms.messages import (
    RESULT_NO_MATCH, RESULT_RECEIVER_FAULT, RESULT_REFUSED, RESULT_SUCCESS,
    RESULT_SENDER_FAULT, STATUS_INDETERMINATE, STATUS_INVALID, STATUS_VALID,
    KeyBinding, XKMSRequest, XKMSResult,
)
from repro.xkms.server import TrustServer, authentication_proof
from repro.xkms.service import AsyncTrustService, busy_fault_payload

__all__ = [
    "XKMSClient", "TrustServer", "KeyBinding", "XKMSRequest", "XKMSResult",
    "authentication_proof",
    "AsyncXKMSClient", "AsyncTrustService", "MuxXKMSTransport",
    "busy_fault_payload",
    "RESULT_SUCCESS", "RESULT_NO_MATCH", "RESULT_REFUSED",
    "RESULT_SENDER_FAULT", "RESULT_RECEIVER_FAULT",
    "STATUS_VALID", "STATUS_INVALID", "STATUS_INDETERMINATE",
]
