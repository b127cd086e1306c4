"""Key fingerprints hash through the default provider, bit-identically
under every provider."""

import pytest

from repro.primitives import sha
from repro.primitives.keys import RSAPrivateKey, RSAPublicKey, SymmetricKey
from repro.primitives.provider import (
    available_providers, get_provider, set_default_provider,
)

PUBLIC = RSAPublicKey(n=(1 << 1023) + 12345, e=65537)
SYMMETRIC = SymmetricKey(b"\x01" * 16, "aes")

#: Recorded from the fingerprints computed with repro.primitives.sha.
PUBLIC_HEX = "ef18d0018a459796202a35d33db4d0a1"
SYMMETRIC_HEX = "cc8cd41cef907c4d216069122c4b8993"


@pytest.fixture(params=["pure", "accelerated"])
def provider(request):
    if request.param not in available_providers():
        pytest.skip(f"{request.param} provider not installed")
    previous = set_default_provider(request.param)
    try:
        yield get_provider()
    finally:
        set_default_provider(previous)


def test_fingerprints_are_pinned_under_each_provider(provider):
    assert PUBLIC.fingerprint() == PUBLIC_HEX
    assert SYMMETRIC.fingerprint() == SYMMETRIC_HEX
    private = RSAPrivateKey(n=PUBLIC.n, e=PUBLIC.e, d=3, p=5, q=7)
    assert private.fingerprint() == PUBLIC_HEX


def test_fingerprints_hash_through_the_provider(provider, monkeypatch):
    calls = []
    digest = type(provider).digest

    def spy(self, algorithm, data):
        calls.append(algorithm)
        return digest(self, algorithm, data)

    def forbidden(*args, **kwargs):
        raise AssertionError("fingerprint bypassed the provider")

    monkeypatch.setattr(type(provider), "digest", spy)
    if provider.name != "pure":
        monkeypatch.setattr(sha, "sha256", forbidden)
        monkeypatch.setattr(sha, "new", forbidden)
    assert PUBLIC.fingerprint() == PUBLIC_HEX
    assert SYMMETRIC.fingerprint() == SYMMETRIC_HEX
    assert calls == ["sha256", "sha256"]
