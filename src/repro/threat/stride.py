"""The STRIDE threat model for next-generation optical disc players.

§3.1: "a Threat Modeling approach based on STRIDE has been applied in
order to make a methodical analysis of the security threats for
optical disc based systems — especially with regard to the accession of
interactive applications."  The full model lives in the authors'
project report [12]; this module reconstructs the catalogue the paper
draws its requirements from (authentication & integrity, encryption,
key management, access control) and maps every threat to the concrete
mechanism in this library that mitigates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class StrideCategory(Enum):
    SPOOFING = "Spoofing"
    TAMPERING = "Tampering"
    REPUDIATION = "Repudiation"
    INFORMATION_DISCLOSURE = "Information disclosure"
    DENIAL_OF_SERVICE = "Denial of service"
    ELEVATION_OF_PRIVILEGE = "Elevation of privilege"


class Requirement(Enum):
    """The §3.1 requirement buckets."""

    AUTHENTICATION_INTEGRITY = "Authentication & Integrity"
    ENCRYPTION = "Encryption"
    KEY_MANAGEMENT = "Key Management"
    ACCESS_CONTROL = "Access Control"


@dataclass(frozen=True)
class Threat:
    """One catalogued threat and its mitigation mapping."""

    threat_id: str
    category: StrideCategory
    asset: str
    description: str
    requirement: Requirement
    mitigations: tuple[str, ...]   # module paths in this library


THREAT_CATALOG: tuple[Threat, ...] = (
    Threat(
        "T01", StrideCategory.SPOOFING, "downloaded application",
        "An attacker serves a forged application claiming to come from "
        "a legitimate content provider.",
        Requirement.AUTHENTICATION_INTEGRITY,
        ("repro.dsig.Verifier", "repro.certs.TrustStore",
         "repro.core.PlaybackPipeline"),
    ),
    Threat(
        "T02", StrideCategory.TAMPERING, "application manifest",
        "Markup or script is modified in transit or on a writable "
        "cache; a maliciously tampered markup can be detrimental to "
        "the security of the disc player and the content (§5.4).",
        Requirement.AUTHENTICATION_INTEGRITY,
        ("repro.dsig.Signer", "repro.dsig.Verifier",
         "repro.xmlcore.c14n"),
    ),
    Threat(
        "T03", StrideCategory.TAMPERING, "A/V stream files",
        "Transport stream bytes referenced by playlists are replaced "
        "or corrupted.",
        Requirement.AUTHENTICATION_INTEGRITY,
        ("repro.dsig.Signer.sign_detached", "repro.disc.tsgen"),
    ),
    Threat(
        "T04", StrideCategory.INFORMATION_DISCLOSURE,
        "application sources/resources",
        "Wiretapping (man-in-the-van attack) exposes verbose markup "
        "and script sources in transit (§3.1).",
        Requirement.ENCRYPTION,
        ("repro.xmlenc.Encryptor", "repro.network.secure"),
    ),
    Threat(
        "T05", StrideCategory.INFORMATION_DISCLOSURE,
        "stored application data",
        "Content stored at a server or in player local storage is "
        "readable after transport protection ends — TLS protects "
        "in-transit only (§4).",
        Requirement.ENCRYPTION,
        ("repro.xmlenc.Encryptor",
         "repro.player.LocalStorage.write_encrypted"),
    ),
    Threat(
        "T06", StrideCategory.SPOOFING, "cryptographic keys",
        "Illegal creation, exchange, replacement or usage of the keys "
        "used for authentication and encryption (§3.1).",
        Requirement.KEY_MANAGEMENT,
        ("repro.xkms.TrustServer", "repro.certs.CertificateAuthority",
         "repro.certs.RevocationList"),
    ),
    Threat(
        "T07", StrideCategory.REPUDIATION, "key registration",
        "A party repudiates having registered or revoked a key "
        "binding.",
        Requirement.KEY_MANAGEMENT,
        ("repro.xkms.server.authentication_proof",
         "repro.xkms.TrustServer.audit_log"),
    ),
    Threat(
        "T08", StrideCategory.ELEVATION_OF_PRIVILEGE,
        "player local storage",
        "A malicious application loaded from an external server "
        "corrupts the local storage of the player (§1).",
        Requirement.ACCESS_CONTROL,
        ("repro.permissions.PlatformPermissionPolicy",
         "repro.player.LocalStorage", "repro.xacml.PEP"),
    ),
    Threat(
        "T09", StrideCategory.ELEVATION_OF_PRIVILEGE,
        "protected content",
        "A user creates their own application and tries to access "
        "content where they have no access rights (§1).",
        Requirement.ACCESS_CONTROL,
        ("repro.xacml.PDP", "repro.permissions.GrantSet",
         "repro.core.PlaybackPipeline"),
    ),
    Threat(
        "T10", StrideCategory.DENIAL_OF_SERVICE, "player runtime",
        "A runaway or hostile script exhausts the player's CPU.",
        Requirement.ACCESS_CONTROL,
        ("repro.markup.Interpreter (instruction budget)",),
    ),
    Threat(
        "T11", StrideCategory.DENIAL_OF_SERVICE, "XML parser",
        "Entity-expansion bombs in downloaded markup exhaust memory.",
        Requirement.AUTHENTICATION_INTEGRITY,
        ("repro.xmlcore.parser (entity definitions rejected)",),
    ),
    Threat(
        "T13", StrideCategory.SPOOFING, "signed disc content",
        "Signature wrapping: injected content rides an otherwise "
        "authentic disc or package — granular signatures still "
        "verify, but the player is steered to execute an element no "
        "signature covers.",
        Requirement.AUTHENTICATION_INTEGRITY,
        ("repro.perf.batch.BatchOutcome.covers",
         "repro.player.DiscPlayer.launch_disc_application",
         "repro.core.PlaybackPipeline.open_package"),
    ),
    Threat(
        "T12", StrideCategory.SPOOFING, "content server",
        "A rogue server impersonates the legitimate content server "
        "toward the player.",
        Requirement.KEY_MANAGEMENT,
        ("repro.network.secure.SecureClient",
         "repro.certs.TrustStore"),
    ),
)


def threats_by_category(category: StrideCategory) -> list[Threat]:
    """Catalogue entries in one STRIDE category."""
    return [t for t in THREAT_CATALOG if t.category is category]


def threats_by_requirement(requirement: Requirement) -> list[Threat]:
    """Catalogue entries mapped to one §3.1 requirement bucket."""
    return [t for t in THREAT_CATALOG if t.requirement is requirement]


def coverage_report() -> dict[str, int]:
    """Threat counts per STRIDE category (the model's summary table)."""
    report: dict[str, int] = {c.value: 0 for c in StrideCategory}
    for threat in THREAT_CATALOG:
        report[threat.category.value] += 1
    return report
