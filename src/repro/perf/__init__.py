"""Performance subsystem: metrics, the C14N/digest cache, batch verify.

Three layers, from passive to active:

* :mod:`repro.perf.metrics` — counters, timers and hit/miss ratios
  threaded through c14n, digesting, signing, verification,
  encryption/decryption and the playback pipeline;
* :mod:`repro.perf.cache` — a content-addressed C14N/digest cache with
  revision-based invalidation (a cached digest can never validate a
  tampered subtree);
* :mod:`repro.perf.batch` — the one loop that verifies every signature
  under a root, in document order on the calling thread; the cache
  makes a second signature over a subtree a digest hit.
"""

from repro.perf import metrics
from repro.perf.cache import (
    C14NDigestCache,
    NullCache,
    get_default_cache,
    set_default_cache,
)

__all__ = [
    "metrics",
    "C14NDigestCache",
    "NullCache",
    "get_default_cache",
    "set_default_cache",
    "BatchVerifier",
    "BatchOutcome",
]


def __getattr__(name):
    # Lazy: batch imports the verifier, which imports the cache; eager
    # re-export here would make the package initialization circular.
    if name in ("BatchVerifier", "BatchOutcome"):
        from repro.perf import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
