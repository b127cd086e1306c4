"""``rsa-1_5`` key transport answers every bad ciphertext alike.

Under implicit rejection an EncryptedKey always unwraps to some CEK, so
a mutated EncryptedKey, a mutated content CipherValue and a package
sealed for another device must all fail the same way: one error type,
one message, the same degradation events.  Any difference between them
is a padding oracle (Jager, Schinzel and Somorovsky, "Bleichenbacher's
Attack Strikes Again", ESORICS 2012).  The reference case is the
package opened by a device it was not sealed for, an answer anyone can
already get.
"""

import base64
import re

import pytest

from repro.core import AuthoringPipeline, PlaybackPipeline, parse_package
from repro.disc import ApplicationManifest
from repro.errors import ApplicationRejectedError, DecryptionError
from repro.primitives.provider import available_providers, get_provider
from repro.primitives.random import DeterministicRandomSource
from repro.primitives import rsa
from repro.primitives.rsa import generate_keypair
from repro.xmlcore import parse_element
from repro.xmlenc import Decryptor
from repro.xmlenc.algorithms import DECRYPT_FAILURE

_CIPHER_VALUE = re.compile(
    rb"(<xenc:CipherValue>)([^<]*)(</xenc:CipherValue>)")


@pytest.fixture(scope="module")
def sealed(pki):
    """A signed package whose code is encrypted after signing (the
    Decryption Transform case), the device it is sealed for, another
    device, and the trust store that accepts the studio."""
    rng = DeterministicRandomSource(b"transport-oracle")
    device = generate_keypair(1024, rng)
    other_device = generate_keypair(1024, rng)
    manifest = ApplicationManifest("bonus-game")
    manifest.add_submarkup("layout", parse_element(
        '<layout xmlns="urn:bda:bdmv:interactive-cluster">'
        '<region regionName="main" width="2" height="2"/></layout>'
    ))
    manifest.add_script("var secretAlgorithm = 'proprietary';")
    package = AuthoringPipeline(
        pki.studio, recipient_key=device.public_key(), rng=rng,
    ).build_package(manifest, encrypt_ids=(manifest.code_id,))
    return package.data, device, other_device, pki.trust_store()


def replace_cipher_value(data: bytes, which: int, octets: bytes) -> bytes:
    """Put *octets* in the *which*-th CipherValue (0 is the
    EncryptedKey, 1 the content)."""
    matches = list(_CIPHER_VALUE.finditer(data))
    assert len(matches) == 2
    match = matches[which]
    return (data[:match.start(2)] + base64.b64encode(octets)
            + data[match.end(2):])


def cipher_value(data: bytes, which: int) -> bytes:
    return base64.b64decode(_CIPHER_VALUE.findall(data)[which][1])


def flip(which: int, index: int):
    """Flip the low bit of octet *index* of a CipherValue."""
    def mutate(data: bytes, device) -> bytes:
        octets = bytearray(cipher_value(data, which))
        octets[index] ^= 0x01
        return replace_cipher_value(data, which, bytes(octets))
    return mutate


def rewrap(cek_length: int):
    """Replace the EncryptedKey by a well-padded one for the device,
    wrapping a fresh CEK of *cek_length* octets (not the sealed one)."""
    def mutate(data: bytes, device) -> bytes:
        rng = DeterministicRandomSource(f"rewrap-{cek_length}")
        return replace_cipher_value(data, 0, rsa.encrypt(
            device.public_key(), rng.read(cek_length), rng))
    return mutate


def trim_content(cut: int):
    """Keep the first *cut* octets of the content CipherValue (a
    negative *cut* drops octets from its end)."""
    def mutate(data: bytes, device) -> bytes:
        return replace_cipher_value(data, 1, cipher_value(data, 1)[:cut])
    return mutate


def detach_content(data: bytes, device) -> bytes:
    """Replace the content CipherValue by a CipherReference."""
    match = list(_CIPHER_VALUE.finditer(data))[1]
    return (data[:match.start()]
            + b'<xenc:CipherReference URI="urn:x:detached"/>'
            + data[match.end():])


def both(first, second):
    """Apply mutation *first*, then *second*."""
    def mutate(data: bytes, device) -> bytes:
        return second(first(data, device), device)
    return mutate


#: EncryptedKey flips stay in the low-order half of the ciphertext, so
#: its value stays below n (a value at or above n is a public check,
#: refused before any private-key operation).
MUTATIONS = {
    "encrypted-key-last-octet": flip(0, -1),
    "encrypted-key-octet-80": flip(0, 80),
    "encrypted-key-octet-100": flip(0, 100),
    "encrypted-key-empty-cek": rewrap(0),
    "encrypted-key-short-cek": rewrap(15),
    "encrypted-key-fresh-cek": rewrap(16),
    "content-iv": flip(1, 3),
    "content-first-block": flip(1, 20),
    "content-last-block": flip(1, -1),
    "content-pad-octet-source": flip(1, -17),
}


#: Content ciphertexts that fail a check reading only public data: too
#: short, not a whole number of blocks, detached with no resolver to
#: fetch it.
PUBLIC_DEFECTS = {
    "content-short": trim_content(16),
    "content-ragged": trim_content(-1),
    "content-detached": detach_content,
}

#: EncryptedKeys that unwrap to different CEKs: the sealed one, a
#: well-padded one of the named length and of other lengths, and a
#: synthetic one.
KEY_VARIANTS = {
    "sealed": lambda data, device: data,
    "fresh-cek": rewrap(16),
    "short-cek": rewrap(15),
    "empty-cek": rewrap(0),
    "flipped": flip(0, -1),
}


def providers():
    return [name for name in ("pure", "accelerated")
            if name in available_providers()]


def decryptor_outcome(data: bytes, device, provider) -> tuple:
    root = parse_package(data).root
    with pytest.raises(DecryptionError) as excinfo:
        Decryptor(rsa_key=device, provider=provider).decrypt_in_place(root)
    return type(excinfo.value), str(excinfo.value)


def pipeline_outcome(data: bytes, device, store, provider) -> tuple:
    pipeline = PlaybackPipeline(trust_store=store, device_key=device,
                                provider=provider)
    with pytest.raises(ApplicationRejectedError) as excinfo:
        pipeline.open_package(data)
    return (type(excinfo.value), str(excinfo.value),
            list(pipeline.degradation.events))


def test_mutated_encrypted_keys_stay_in_range(sealed):
    data, device, _, _ = sealed
    for name, mutate in MUTATIONS.items():
        value = cipher_value(mutate(data, device), 0)
        assert len(value) == device.byte_length, name
        assert int.from_bytes(value, "big") < device.n, name


@pytest.mark.parametrize("provider_name", providers())
def test_sealed_package_opens(sealed, provider_name):
    data, device, _, store = sealed
    application = PlaybackPipeline(
        trust_store=store, device_key=device,
        provider=get_provider(provider_name),
    ).open_package(data)
    assert application.trusted
    assert "secretAlgorithm" in application.manifest.scripts[0].source


@pytest.mark.parametrize("provider_name", providers())
def test_decryptor_answers_like_a_wrong_key(sealed, provider_name):
    data, device, other_device, _ = sealed
    provider = get_provider(provider_name)
    reference = decryptor_outcome(data, other_device, provider)
    assert reference == (DecryptionError, DECRYPT_FAILURE)
    outcomes = {
        name: decryptor_outcome(mutate(data, device), device, provider)
        for name, mutate in MUTATIONS.items()
    }
    assert outcomes == dict.fromkeys(MUTATIONS, reference)


@pytest.mark.parametrize("provider_name", providers())
def test_player_answers_like_a_wrong_key(sealed, provider_name):
    data, device, other_device, store = sealed
    provider = get_provider(provider_name)
    reference = pipeline_outcome(data, other_device, store, provider)
    assert DECRYPT_FAILURE in reference[1]
    outcomes = {
        name: pipeline_outcome(mutate(data, device), device, store,
                               provider)
        for name, mutate in MUTATIONS.items()
    }
    assert outcomes == dict.fromkeys(MUTATIONS, reference)


@pytest.mark.parametrize("provider_name", providers())
@pytest.mark.parametrize("defect", list(PUBLIC_DEFECTS))
def test_public_checks_ignore_the_encrypted_key(sealed, provider_name,
                                                defect):
    """A content ciphertext that fails a public check gets that check's
    answer whatever the EncryptedKey unwraps to, another device's key
    included.  Were the key resolved first, a CEK of the wrong length
    would answer DECRYPT_FAILURE and one of the named length the public
    check: a length oracle."""
    data, device, other_device, store = sealed
    provider = get_provider(provider_name)
    damage = PUBLIC_DEFECTS[defect]
    damaged = {name: both(mutate, damage)(data, device)
               for name, mutate in KEY_VARIANTS.items()}
    reference = decryptor_outcome(damage(data, device), other_device,
                                  provider)
    outcomes = {name: decryptor_outcome(octets, device, provider)
                for name, octets in damaged.items()}
    assert outcomes == dict.fromkeys(KEY_VARIANTS, reference)
    assert DECRYPT_FAILURE not in reference[1]
    reference = pipeline_outcome(damage(data, device), other_device, store,
                                 provider)
    outcomes = {name: pipeline_outcome(octets, device, store, provider)
                for name, octets in damaged.items()}
    assert outcomes == dict.fromkeys(KEY_VARIANTS, reference)
    assert DECRYPT_FAILURE not in reference[1]
