"""Preset disc security profiles.

Named bundles of the knobs a content provider turns: what gets signed,
what gets encrypted, and with which algorithms — the configurations the
evaluation sweeps over.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.granularity import ProtectionLevel
from repro.dsig import algorithms as dsig_algorithms
from repro.xmlenc import algorithms as xenc_algorithms


@dataclass(frozen=True)
class SecurityProfile:
    """A disc/application protection recipe.

    Attributes:
        name: profile identifier.
        sign_level: hierarchy level for signatures (``None`` = unsigned).
        encrypt_levels: hierarchy levels whose targets get encrypted.
        signature_method / digest_method / encryption_algorithm:
            algorithm URIs.

    On a disc, encryption always precedes signing (see
    :func:`apply_profile_to_disc`); the sign-then-encrypt order of
    Fig 9 is :class:`repro.core.AuthoringPipeline`'s.
    """

    name: str
    sign_level: ProtectionLevel | None = ProtectionLevel.CLUSTER
    encrypt_levels: tuple[ProtectionLevel, ...] = ()
    signature_method: str = dsig_algorithms.RSA_SHA1
    digest_method: str = dsig_algorithms.SHA1
    encryption_algorithm: str = xenc_algorithms.AES128_CBC


UNPROTECTED = SecurityProfile("unprotected", sign_level=None)

SIGNED_ONLY = SecurityProfile("signed-only")

SIGNED_TRACKS = SecurityProfile(
    "signed-tracks", sign_level=ProtectionLevel.TRACK,
)

SIGNED_AND_ENCRYPTED = SecurityProfile(
    "signed-and-encrypted",
    sign_level=ProtectionLevel.CLUSTER,
    encrypt_levels=(ProtectionLevel.CODE,),
)

STUDIO_GRADE = SecurityProfile(
    "studio-grade",
    sign_level=ProtectionLevel.TRACK,
    encrypt_levels=(ProtectionLevel.CODE, ProtectionLevel.SUBMARKUP),
    signature_method=dsig_algorithms.RSA_SHA256,
    digest_method=dsig_algorithms.SHA256,
    encryption_algorithm=xenc_algorithms.AES256_CBC,
)

ALL_PROFILES = (
    UNPROTECTED, SIGNED_ONLY, SIGNED_TRACKS, SIGNED_AND_ENCRYPTED,
    STUDIO_GRADE,
)


def profile_by_name(name: str) -> SecurityProfile:
    """Look up a preset security profile by name."""
    for profile in ALL_PROFILES:
        if profile.name == name:
            return profile
    raise KeyError(f"no security profile named {name!r}")


def apply_profile_to_disc(image, profile: SecurityProfile, identity, *,
                          content_key=None, key_name: str = "disc-key",
                          rng=None, include_streams: bool = True):
    """Protect a mastered disc image according to *profile*.

    Encryption (if any) is applied first, then signing per the
    profile's level; the rewritten cluster is stored back on the
    image.  Returns a dict with the per-stage results.

    Args:
        image: a :class:`repro.disc.DiscImage` (mutated in place).
        profile: the :class:`SecurityProfile` to apply.
        identity: the signing :class:`repro.certs.SigningIdentity`
            (ignored when the profile does not sign).
        content_key: :class:`repro.primitives.keys.SymmetricKey` for
            the encrypting profiles (must match the profile's
            encryption algorithm key size).
        key_name: the player key slot the EncryptedData will name.
        include_streams: also sign the ``.m2ts`` files when signing.
    """
    from repro.core.disc_security import sign_disc_image
    from repro.core.granularity import encrypt_at_level
    from repro.dsig.signer import Signer
    from repro.errors import AuthoringError
    from repro.primitives.random import default_random
    from repro.xmlcore import serialize_bytes
    from repro.xmlenc.encryptor import Encryptor

    results: dict[str, object] = {"profile": profile.name}
    if profile.encrypt_levels and content_key is None:
        raise AuthoringError(
            f"profile {profile.name!r} encrypts but no content key given"
        )

    def encrypt_all() -> None:
        cluster_element = image.cluster_element()
        encryptor = Encryptor(rng=rng or default_random())
        outcomes = []
        for level in profile.encrypt_levels:
            outcomes.append(encrypt_at_level(
                cluster_element, level, encryptor, content_key,
                key_name=key_name,
                algorithm=profile.encryption_algorithm,
            ))
        image.write(image.layout.cluster_path(),
                    serialize_bytes(cluster_element))
        results["encrypted"] = outcomes

    def sign_all() -> None:
        signer = Signer(
            identity.key, identity=identity,
            signature_method=profile.signature_method,
            digest_method=profile.digest_method,
        )
        results["signed"] = sign_disc_image(
            image, signer, level=profile.sign_level,
            include_streams=include_streams,
        )

    # On a disc, encryption always precedes signing: the signature then
    # covers the ciphertext, and the player verifies before decrypting
    # with no Decryption Transform needed.  (The sign-then-encrypt
    # order, which does need the transform, is the download pipeline's
    # job — :class:`repro.core.AuthoringPipeline`.)
    if profile.encrypt_levels:
        encrypt_all()
    if profile.sign_level is not None:
        sign_all()
    return results
