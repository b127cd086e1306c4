"""XML Digital Signature (XMLDSig Core) — sign and verify markup targets."""

from repro.dsig.algorithms import (
    DIGEST_ALGORITHMS, HMAC_SHA1, HMAC_SHA256, RSA_SHA1, RSA_SHA256, SHA1,
    SHA256, SIGNATURE_ALGORITHMS, compute_digest, compute_signature,
    verify_signature,
)
from repro.dsig.keyinfo import KeyInfo
from repro.dsig.manifest import (
    MANIFEST_TYPE, ManifestValidation, build_manifest_element,
    sign_with_manifest, validate_manifest_references,
)
from repro.dsig.reference import (
    Reference, ReferenceContext, ReferenceResult, check_reference,
    compute_reference_digest, signed_manifests,
)
from repro.dsig.signedinfo import SignedInfo
from repro.dsig.signer import Signer
from repro.dsig.transforms import (
    BASE64, DECRYPT_BINARY, DECRYPT_XML, ENVELOPED_SIGNATURE,
    KNOWN_TRANSFORMS, XPATH, Transform, TransformContext,
)
from repro.dsig.verifier import VerificationReport, Verifier

__all__ = [
    "Signer", "Verifier", "VerificationReport", "ReferenceResult",
    "Reference", "ReferenceContext", "SignedInfo", "KeyInfo",
    "sign_with_manifest", "validate_manifest_references",
    "build_manifest_element", "signed_manifests", "ManifestValidation",
    "MANIFEST_TYPE",
    "Transform", "TransformContext",
    "compute_digest", "compute_signature", "verify_signature",
    "compute_reference_digest", "check_reference",
    "SHA1", "SHA256", "RSA_SHA1", "RSA_SHA256", "HMAC_SHA1", "HMAC_SHA256",
    "DIGEST_ALGORITHMS", "SIGNATURE_ALGORITHMS",
    "ENVELOPED_SIGNATURE", "BASE64", "XPATH", "DECRYPT_XML",
    "DECRYPT_BINARY", "KNOWN_TRANSFORMS",
]
