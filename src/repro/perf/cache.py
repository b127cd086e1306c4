"""Content-addressed C14N/digest cache with revision-based invalidation.

Canonicalizing and digesting a subtree is the player's hottest
verification path: the ABL-GRAN sweep shows verify cost growing
linearly with the number of signed sub-markups because every
``ds:Reference`` re-canonicalizes its target from scratch.  This cache
memoizes those digests, keyed by::

    (subtree identity, c14n parameters, digest algorithm)

**Security invariant** (the signature-wrapping literature's warning,
made explicit): *a cached result is bound to the exact canonicalized
bytes it was computed over, and can never be served for a mutated
tree.*  The binding is the revision stamp from
:mod:`repro.xmlcore.tree`: every mutation anywhere in a tree gives the
mutated node **and all its ancestors** a fresh, process-unique stamp.
A cache key therefore includes both the target's and the tree root's
``revision`` — the root stamp changes on *any* mutation in the
document (including ancestor namespace re-declarations that alter the
target's inherited c14n context), so stale entries simply never match
again.  Entry identity is additionally pinned by weak references to
the exact node objects, guarding against ``id()`` reuse after garbage
collection.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict

from repro.perf import metrics


def _subtree_key(root, target) -> tuple:
    return (id(root), root.revision, id(target), target.revision)


def _certificate_key(certificate) -> tuple:
    """Value identity of a certificate (every signed/checked field)."""
    return (
        certificate.subject, certificate.issuer, certificate.serial,
        certificate.public_key.n, certificate.public_key.e,
        certificate.not_before, certificate.not_after,
        certificate.is_ca, certificate.key_usage,
        certificate.signature, certificate.signature_digest,
    )


class C14NDigestCache:
    """Bounded LRU memo of the verify path's four repeatable results.

    The tables are reference digests, canonical ds:SignedInfo octets,
    certificate-chain verdicts and public-key signature verdicts.  Ids
    are not memoized here: references resolve through the tree's own
    revision-stamped Id index
    (:meth:`~repro.xmlcore.tree.Element.element_by_id`).

    Args:
        max_entries: LRU bound per table (octets and digests are
            cached in separate tables so a digest entry does not pin
            the usually much larger octet string).
    """

    def __init__(self, max_entries: int = 4096):
        self.max_entries = max_entries
        self._digests: OrderedDict[tuple, tuple] = OrderedDict()
        self._octets: OrderedDict[tuple, tuple] = OrderedDict()
        self._chains: OrderedDict[tuple, tuple] = OrderedDict()
        self._sigchecks: OrderedDict[tuple, bool] = OrderedDict()
        self._lock = threading.Lock()
        # Single-flight ledger: memo key -> Event set by the context
        # currently computing that key, so concurrent misses wait for
        # one RSA verification instead of all redoing it.
        self._inflight: dict[tuple, threading.Event] = {}

    # -- generic keyed lookup ---------------------------------------------------

    def _get(self, table: OrderedDict, key: tuple, root, target,
             what: str):
        with self._lock:
            entry = table.get(key)
            if entry is None:
                metrics.counter(f"perf.cache.{what}.miss").increment()
                return None
            root_ref, target_ref, value = entry
            # id() can be reused once the original objects are garbage
            # collected; the weakrefs pin identity to the exact nodes.
            if root_ref() is not root or target_ref() is not target:
                del table[key]
                metrics.counter(f"perf.cache.{what}.miss").increment()
                return None
            table.move_to_end(key)
            metrics.counter(f"perf.cache.{what}.hit").increment()
            return value

    def _put(self, table: OrderedDict, key: tuple, root, target,
             value) -> None:
        try:
            entry = (weakref.ref(root), weakref.ref(target), value)
        except TypeError:  # un-weakref-able stand-ins (tests)
            return
        with self._lock:
            table[key] = entry
            table.move_to_end(key)
            while len(table) > self.max_entries:
                table.popitem(last=False)

    # -- public API -------------------------------------------------------------

    def canonical_octets(self, root, target, algorithm: str,
                         inclusive_prefixes: tuple[str, ...],
                         compute) -> bytes:
        """Canonical octets of *target* within *root*'s tree.

        *compute* is a zero-argument callable producing the octets on a
        miss.  The verifier caches ds:SignedInfo here; reference
        targets are digested as they stream and never materialised.
        """
        key = _subtree_key(root, target) + (
            algorithm, inclusive_prefixes,
        )
        value = self._get(self._octets, key, root, target, "c14n")
        if value is None:
            value = compute()
            self._put(self._octets, key, root, target, value)
        return value

    def reference_digest(self, root, target, algorithm: str,
                         inclusive_prefixes: tuple[str, ...],
                         digest_method: str, compute) -> bytes:
        """Digest of *target*'s canonical octets under *digest_method*."""
        key = _subtree_key(root, target) + (
            algorithm, inclusive_prefixes, digest_method,
        )
        value = self._get(self._digests, key, root, target, "digest")
        if value is None:
            value = compute()
            self._put(self._digests, key, root, target, value)
        return value

    def chain_validation(self, store, chain, now: float, usage,
                         compute):
        """Memoized :meth:`repro.certs.store.TrustStore.validate_chain`.

        Sound because the key captures everything the validation reads:
        the full value of every supplied certificate, the evaluation
        time, the usage constraint, and the store's ``generation``
        stamp — which changes on any anchor/intermediate addition or
        revocation, so a revoked chain can never be served from cache.
        """
        key = (
            id(store), getattr(store, "generation", None), now, usage,
            tuple(_certificate_key(c) for c in chain),
        )
        value = self._get(self._chains, key, store, store, "chain")
        if value is None:
            value = compute()
            self._put(self._chains, key, store, store, value)
        return value

    def signature_verification(self, algorithm: str, key, octets: bytes,
                               signature_value: bytes, compute) -> bool:
        """Memoized public-key signature check.

        Verification of ``(algorithm, public key, octets, signature)``
        is a pure function, so identical inputs — the common case when
        the same signed subtree is checked repeatedly — skip the
        digest-and-RSA work entirely.  Secret-keyed (HMAC) checks are
        never memoized: their key material stays out of cache keys.
        """
        modulus = getattr(key, "n", None)
        exponent = getattr(key, "e", None)
        if modulus is None or exponent is None:
            return compute()
        memo_key = (algorithm, modulus, exponent, octets, signature_value)
        waited = False
        while True:
            with self._lock:
                if memo_key in self._sigchecks:
                    self._sigchecks.move_to_end(memo_key)
                    metrics.counter("perf.cache.sigverify.hit").increment()
                    if waited:
                        metrics.counter(
                            "perf.cache.singleflight.dedup"
                        ).increment()
                    return self._sigchecks[memo_key]
                leader = self._inflight.get(memo_key)
                if leader is None:
                    # This context computes; everyone else waits on the
                    # event and re-fetches.
                    done = threading.Event()
                    self._inflight[memo_key] = done
                    metrics.counter("perf.cache.sigverify.miss").increment()
                    break
            leader.wait()
            # Re-fetch under the lock: normally a hit now.  If the
            # leader's compute raised, the entry is absent and this
            # context takes over as the new leader.
            waited = True
        try:
            value = bool(compute())
            with self._lock:
                self._sigchecks[memo_key] = value
                self._sigchecks.move_to_end(memo_key)
                while len(self._sigchecks) > self.max_entries:
                    self._sigchecks.popitem(last=False)
            return value
        finally:
            # Store-then-release ordering: followers woken by set()
            # must observe the stored value (or its absence, on error)
            # with no window where neither is true.
            with self._lock:
                self._inflight.pop(memo_key, None)
            done.set()

    # -- maintenance ------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return (len(self._digests) + len(self._octets)
                    + len(self._chains) + len(self._sigchecks))

    def clear(self) -> None:
        with self._lock:
            self._digests.clear()
            self._octets.clear()
            self._chains.clear()
            self._sigchecks.clear()


class NullCache(C14NDigestCache):
    """A cache that never stores anything (sequential baseline)."""

    def __init__(self):
        super().__init__(max_entries=0)

    def canonical_octets(self, root, target, algorithm,
                         inclusive_prefixes, compute) -> bytes:
        return compute()

    def reference_digest(self, root, target, algorithm,
                         inclusive_prefixes, digest_method,
                         compute) -> bytes:
        return compute()

    def chain_validation(self, store, chain, now, usage, compute):
        return compute()

    def signature_verification(self, algorithm, key, octets,
                               signature_value, compute) -> bool:
        return compute()


_default_cache = C14NDigestCache()
_default_lock = threading.Lock()


def get_default_cache() -> C14NDigestCache:
    """The process-wide shared cache (used by verifiers by default)."""
    return _default_cache


def set_default_cache(cache: C14NDigestCache) -> C14NDigestCache:
    """Replace the process-wide cache; returns the previous one."""
    global _default_cache
    with _default_lock:
        previous = _default_cache
        _default_cache = cache
    return previous
