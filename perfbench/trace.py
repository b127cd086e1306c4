"""Span tracing from outside the program.

:class:`Tracer` wraps the public entry points of each ``repro`` layer
(class methods, and module functions under every name they were
imported as) with span recorders, and undoes it on :meth:`uninstall`.
A span records its name, start, end, parent span, thread and the
request it belongs to.  Spans are kept in memory; :func:`attribute`
turns them into per-layer self times after the run.

Propagation:

* the current span lives in a :class:`contextvars.ContextVar`, which
  follows ``await`` within a task;
* ``repro.perf.batch`` submits work to a thread pool, and
  ``ThreadPoolExecutor.submit`` does not carry contextvars, so while
  the tracer is installed that module's pool class is replaced by one
  that runs each job in a copy of the submitter's context;
* the mux server starts a fresh task per request frame, so the client
  side files each call under its XKMS ``RequestId`` and the server
  side adopts the call span as parent when it dispatches the frame.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

#: (span id, request id) of the innermost open span, or None outside
#: any traced request.
CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)

_REQUEST_ID = re.compile(rb'Id="(xkms-req-\d+)"')

#: Root span name of every traced request; its self time is the part
#: of the request no layer span covers.
ROOT = "bench.request"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    sid: int
    thread: int
    rid: object
    value: float


class _ContextThreadPool(ThreadPoolExecutor):
    """A thread pool whose jobs run in the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        context = contextvars.copy_context()
        return super().submit(context.run, fn, *args, **kwargs)


def _parse_bytes(parser, *args, **kwargs) -> float:
    return len(parser._scanner.source)


def _instructions(result) -> float:
    return result.instructions


class Tracer:
    """Installs span wrappers and collects the spans they record."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._links: dict[bytes, tuple] = {}
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    @contextmanager
    def request(self, rid, *, start: float | None = None):
        """Open the root span of request *rid* (from *start*, when the
        request was due before this code ran)."""
        sid = next(self._ids)
        token = CURRENT.set((sid, rid))
        began = time.perf_counter() if start is None else start
        try:
            yield
        finally:
            CURRENT.reset(token)
            self.spans.append(Span(ROOT, began, time.perf_counter(), 0,
                                   sid, threading.get_ident(), rid, 0.0))

    def _sync(self, fn, name, before=None, after=None):
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current = CURRENT.get()
            if current is None:
                return fn(*args, **kwargs)
            sid = next(ids)
            token = CURRENT.set((sid, current[1]))
            value = before(*args, **kwargs) if before else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    value = after(result)
                return result
            finally:
                end = time.perf_counter()
                CURRENT.reset(token)
                spans.append(Span(name, start, end, current[0], sid,
                                  threading.get_ident(), current[1],
                                  value))
        return wrapper

    def _async(self, fn, name, link=False, adopt=False):
        spans, ids, links = self.spans, self._ids, self._links

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            current = CURRENT.get()
            if adopt and current is None:
                # args: (server, endpoint, frame)
                found = _REQUEST_ID.search(args[2].payload)
                current = links.pop(found.group(1), None) \
                    if found else None
            if current is None:
                return await fn(*args, **kwargs)
            sid = next(ids)
            if link:
                # args: (client, payload)
                found = _REQUEST_ID.search(args[1])
                if found:
                    links[found.group(1)] = (sid, current[1])
            token = CURRENT.set((sid, current[1]))
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                CURRENT.reset(token)
                spans.append(Span(name, start, end, current[0], sid,
                                  threading.get_ident(), current[1], 0.0))
        return wrapper

    def alternate(self, index: int, block: int) -> bool:
        """Whether operation *index* is traced, when blocks of *block*
        operations alternate untraced and traced; installs or removes
        the wrappers at each block's start."""
        traced = (index // block) % 2 == 1
        if index % block == 0:
            (self.install if traced else self.uninstall)()
        return traced

    # -- installation ---------------------------------------------------------

    def _wrap_method(self, owner, attr: str, name: str, **options) -> None:
        for klass in owner.__mro__:
            if attr in vars(klass):
                raw = vars(klass)[attr]
                break
        else:
            raise AttributeError(f"{owner.__name__}.{attr}")
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        if inspect.iscoroutinefunction(fn):
            wrapped = self._async(fn, name, **options)
        else:
            wrapped = self._sync(fn, name, **options)
        own = attr in vars(owner)
        setattr(owner, attr,
                classmethod(wrapped) if is_classmethod else wrapped)
        self._undo.append(
            (lambda: setattr(owner, attr, raw)) if own
            else (lambda: delattr(owner, attr)))

    def _wrap_function(self, fn, name: str) -> None:
        """Rebind *fn* in every ``repro`` module that imported it."""
        wrapped = self._sync(fn, name)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._undo.append(functools.partial(
                        setattr, module, attr, fn))

    def install(self) -> None:
        from repro.analysis.artifact import ArtifactAuditor
        from repro.certs.store import TrustStore
        from repro.core import disc_security
        from repro.core.authoring_pipeline import AuthoringPipeline
        from repro.core.playback_pipeline import PlaybackPipeline
        from repro.disc.authoring import DiscAuthor
        from repro.dsig.signer import Signer
        from repro.dsig.verifier import Verifier
        from repro.markup.script_interp import Interpreter
        from repro.markup.smil import Presentation
        from repro.network import secure
        from repro.network.server import (
            AsyncServiceClient, AsyncServiceServer,
        )
        from repro.perf import batch
        from repro.permissions.request_file import PlatformPermissionPolicy
        from repro.player.engine import InteractiveApplicationEngine
        from repro.player.player import DiscPlayer
        from repro.primitives.keys import RSAPublicKey
        from repro.primitives.provider import get_provider
        from repro.resilience.retry import RetryPolicy
        from repro.resilience.service import (
            AdmissionController, OverloadShield,
        )
        from repro.xkms.client import AsyncXKMSClient
        from repro.xkms.messages import XKMSRequest, XKMSResult
        from repro.xkms.server import TrustServer
        from repro.xkms.service import AsyncTrustService
        from repro.xmlcore import c14n, serializer
        from repro.xmlcore.parser import Parser
        from repro.xmlenc.decryptor import Decryptor
        from repro.xmlenc.encryptor import Encryptor

        provider = type(get_provider("accelerated"))
        methods = [
            (Parser, "parse_document", "xmlcore.parse",
             {"before": _parse_bytes}),
            (provider, "rsa_sign_digest", "primitives.rsa.sign", {}),
            (provider, "rsa_verify_digest", "primitives.rsa.verify", {}),
            (provider, "rsa_decrypt", "primitives.rsa.unwrap", {}),
            (RSAPublicKey, "fingerprint", "primitives.fingerprint", {}),
            (TrustStore, "validate_chain", "certs.chain", {}),
            (Verifier, "verify", "dsig.verify", {}),
            (Signer, "sign_references", "dsig.sign", {}),
            (Signer, "sign_enveloping", "dsig.sign", {}),
            (batch.BatchVerifier, "verify_all", "perf.batch", {}),
            (Decryptor, "decrypt_in_place", "xmlenc.decrypt", {}),
            (Encryptor, "encrypt_element", "xmlenc.encrypt", {}),
            (PlaybackPipeline, "open_package", "core.open_package", {}),
            (AuthoringPipeline, "build_package", "core.build_package", {}),
            (DiscAuthor, "master", "disc.master", {}),
            (Interpreter, "run", "markup.script",
             {"after": _instructions}),
            (Presentation, "schedule", "markup.smil", {}),
            (PlatformPermissionPolicy, "decide", "permissions.decide", {}),
            (DiscPlayer, "insert_disc", "player.insert", {}),
            (DiscPlayer, "launch_disc_application", "player.launch", {}),
            (InteractiveApplicationEngine, "execute", "player.execute",
             {}),
            (AsyncXKMSClient, "locate", "xkms.client", {}),
            (AsyncXKMSClient, "validate", "xkms.client", {}),
            (AsyncXKMSClient, "register", "xkms.client", {}),
            (AsyncXKMSClient, "revoke", "xkms.client", {}),
            (RetryPolicy, "execute_async", "resilience.retry", {}),
            (AsyncServiceClient, "call", "network.mux.call",
             {"link": True}),
            (AsyncServiceServer, "_dispatch", "network.mux.dispatch",
             {"adopt": True}),
            (OverloadShield, "run", "resilience.shield", {}),
            (AdmissionController, "admit", "resilience.admission_wait",
             {}),
            (AsyncTrustService, "handle_request", "xkms.handle", {}),
            (TrustServer, "handle", "xkms.shard", {}),
            (XKMSRequest, "to_xml", "xkms.codec", {}),
            (XKMSRequest, "from_xml", "xkms.codec", {}),
            (XKMSResult, "to_xml", "xkms.codec", {}),
            (XKMSResult, "from_xml", "xkms.codec", {}),
            (ArtifactAuditor, "audit_disc_image", "analysis.audit", {}),
        ]
        functions = [
            (c14n.canonicalize, "xmlcore.c14n"),
            (c14n.canonicalize_into, "xmlcore.c14n"),
            (c14n.digest_canonical, "xmlcore.c14n"),
            (serializer.serialize, "xmlcore.serialize"),
            (serializer.serialize_bytes, "xmlcore.serialize"),
            (disc_security.sign_disc_image, "core.sign_disc"),
            (secure.establish, "network.handshake"),
        ]
        try:
            for owner, attr, name, options in methods:
                self._wrap_method(owner, attr, name, **options)
            for fn, name in functions:
                self._wrap_function(fn, name)
            pool = batch.ThreadPoolExecutor
            batch.ThreadPoolExecutor = _ContextThreadPool
            self._undo.append(functools.partial(
                setattr, batch, "ThreadPoolExecutor", pool))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


@dataclass
class Attribution:
    """Per-layer self time of the traced requests.

    A span's self time is its duration minus the part its child spans
    cover.  Where spans of one request run at once on several threads,
    each instant is split evenly between the spans running then, so
    the self times of a request add up to its root span's duration.
    """

    requests: int = 0
    root_s: float = 0.0
    self_s: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    @property
    def unattributed_s(self) -> float:
        return self.self_s.get(ROOT, 0.0)

    def layer_s(self) -> dict:
        """Self seconds per ``repro`` layer (span-name prefix)."""
        layers: dict[str, float] = {}
        for name, seconds in self.self_s.items():
            if name != ROOT:
                layer = name.split(".", 1)[0]
                layers[layer] = layers.get(layer, 0.0) + seconds
        return layers


def attribute(spans: list[Span], rids=None) -> Attribution:
    """Self times per span name over the requests in *rids* (all
    requests when None)."""
    by_request: dict = {}
    for span in spans:
        if rids is None or span.rid in rids:
            by_request.setdefault(span.rid, []).append(span)
    out = Attribution()
    for request in by_request.values():
        roots = [s for s in request if s.name == ROOT]
        if len(roots) != 1:
            continue
        root = roots[0]
        out.requests += 1
        out.root_s += root.end - root.start
        names = {s.sid: s.name for s in request}
        for s in request:
            if s.name != ROOT and names.get(s.parent) != s.name:
                out.calls[s.name] = out.calls.get(s.name, 0) + 1
            out.values[s.name] = out.values.get(s.name, 0.0) + s.value
        for sid, seconds in _split_self(request, root).items():
            name = names[sid]
            out.self_s[name] = out.self_s.get(name, 0.0) + seconds
    return out


def _split_self(request: list[Span], root: Span) -> dict:
    """Sweep the request's spans in time; at each instant the open
    spans with no open child share the elapsed time."""
    low, high = root.start, root.end
    events = []
    for s in request:
        start, end = max(s.start, low), min(s.end, high)
        if end > start or s is root:
            events.append((start, 1, s))
            events.append((end, 0, s))
    # At one instant: ends before starts, children end before their
    # parents and start after them (span ids grow with opening order).
    events.sort(key=lambda e: (e[0], e[1], e[2].sid if e[1] else -e[2].sid))
    open_children: dict[int, int] = {}
    is_open: set[int] = set()
    active: set[int] = set()
    self_s: dict[int, float] = {}
    last = low
    for at, starting, s in events:
        if active and at > last:
            share = (at - last) / len(active)
            for sid in active:
                self_s[sid] = self_s.get(sid, 0.0) + share
        last = at
        if starting:
            is_open.add(s.sid)
            if not open_children.get(s.sid):
                active.add(s.sid)
            if s.parent in is_open:
                open_children[s.parent] = \
                    open_children.get(s.parent, 0) + 1
                active.discard(s.parent)
        else:
            is_open.discard(s.sid)
            active.discard(s.sid)
            if s.parent in is_open:
                open_children[s.parent] -= 1
                if not open_children[s.parent]:
                    active.add(s.parent)
    return self_s
