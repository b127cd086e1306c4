"""Primality testing, prime generation and random sources."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.primitives.encoding import int_to_bytes
from repro.primitives.prime import generate_prime, is_probable_prime
from repro.primitives.random import (
    DeterministicRandomSource, SystemRandomSource, default_random,
    set_default_random,
)
from repro.primitives.rsa import generate_keypair

SMALL_PRIMES = [2, 3, 5, 7, 11, 101, 997]
SMALL_COMPOSITES = [0, 1, 4, 9, 100, 561, 1001, 999]  # 561 is a Carmichael


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_small_primes(p):
    assert is_probable_prime(p)


@pytest.mark.parametrize("c", SMALL_COMPOSITES)
def test_small_composites(c):
    assert not is_probable_prime(c)


def test_known_large_prime():
    # 2^127 - 1 is a Mersenne prime.
    assert is_probable_prime(2 ** 127 - 1)
    assert not is_probable_prime((2 ** 127 - 1) * 3)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=64, max_value=128))
def test_generated_prime_has_exact_bits(bits):
    rng = DeterministicRandomSource(bits)
    p = generate_prime(bits, rng)
    assert p.bit_length() == bits
    assert p % 2 == 1
    assert is_probable_prime(p, rng=rng)


def test_generate_prime_rejects_tiny():
    with pytest.raises(ValueError):
        generate_prime(4)


def test_deterministic_source_reproduces():
    a = DeterministicRandomSource(b"seed")
    b = DeterministicRandomSource(b"seed")
    assert a.read(100) == b.read(100)
    assert DeterministicRandomSource(b"other").read(100) != \
        DeterministicRandomSource(b"seed").read(100)


def test_deterministic_source_seed_types():
    assert DeterministicRandomSource("text").read(8) == \
        DeterministicRandomSource(b"text").read(8)
    DeterministicRandomSource(12345).read(8)  # int seeds accepted


# Known answers, pinned by SHA-256.  They were recorded from the DRBG
# that hashed each block with the pure-Python SHA-256 core; every
# seeded key, IV and replay depends on these bytes.
@pytest.mark.parametrize("seed, pin", [
    (b"seed",
     "317f1af7b1454c5ca6fe822e45f7ba5c2856271e0abbfe1602178e079c5d05d3"),
    ("text",
     "7bb99ff9f83884910cb312a6594210f66686ce77a8bcf9d44f93cbc817bb08ea"),
    (12345,
     "3103cea10f4c46f7b8d54dea50eaa2749b1b41beb8b4224383215603a3f13a24"),
])
def test_deterministic_source_known_answers(seed, pin):
    first = DeterministicRandomSource(seed).read(100)
    assert hashlib.sha256(first).hexdigest() == pin


def test_deterministic_source_reads_straddle_blocks():
    rng = DeterministicRandomSource(b"straddle")
    reads = [rng.read(n) for n in (1, 31, 33, 65)]
    assert [len(r) for r in reads] == [1, 31, 33, 65]
    joined = b"".join(reads)
    assert joined == DeterministicRandomSource(b"straddle").read(130)
    assert hashlib.sha256(joined).hexdigest() == (
        "4840d1b8796270e117a9119beb3427e9cdac135c1818fa7c528e5fb3338b942e")


def test_perfbench_world_key_is_pinned():
    key = generate_keypair(1024, DeterministicRandomSource(b"perfbench-world"))
    assert hashlib.sha256(int_to_bytes(key.n)).hexdigest() == (
        "b883b9635bc086496e272b0909882899c19a4bc82919df72e5f4683859d84e1b")


def test_randint_below_is_in_range():
    rng = DeterministicRandomSource(b"range")
    for upper in (1, 2, 7, 255, 256, 1000):
        for _ in range(50):
            assert 0 <= rng.randint_below(upper) < upper
    with pytest.raises(ValueError):
        rng.randint_below(0)


def test_randint_bits_sets_top_bit():
    rng = DeterministicRandomSource(b"bits")
    for bits in (8, 9, 17, 64):
        value = rng.randint_bits(bits)
        assert value.bit_length() == bits


def test_system_source_reads():
    data = SystemRandomSource().read(32)
    assert len(data) == 32


def test_default_random_swap():
    original = default_random()
    replacement = DeterministicRandomSource(b"swap")
    previous = set_default_random(replacement)
    try:
        assert default_random() is replacement
        assert previous is original
    finally:
        set_default_random(original)
