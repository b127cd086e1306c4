"""The creator-side end-to-end security pipeline (Fig 9, left half).

Order of operations, exactly as the paper's Fig 9 lays it out:

1. assemble the application package (manifest + permission request
   file);
2. **sign** it — the reference carries the W3C Decryption Transform so
   the player knows which regions to decrypt before digest validation,
   and ``dcrpt:Except`` entries name regions that were encrypted
   *before* signing;
3. **encrypt** the confidential regions under a fresh content key
   wrapped for the recipient (a player's RSA key or a shared KEK);
4. serialize for transmission (disc mastering or download; TLS for the
   latter is the transport's job).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.certs.authority import SigningIdentity
from repro.core.package import PackageView, build_package_element, parse_package
from repro.disc.manifest import ApplicationManifest
from repro.dsig import algorithms as dsig_algorithms
from repro.dsig.reference import Reference
from repro.dsig.signer import Signer
from repro.dsig.transforms import DECRYPT_XML, ENVELOPED_SIGNATURE, Transform
from repro.errors import AuthoringError
from repro.permissions.request_file import PermissionRequestFile
from repro.primitives.keys import RSAPublicKey, SymmetricKey
from repro.primitives.provider import CryptoProvider, get_provider
from repro.primitives.random import RandomSource, default_random
from repro.xmlcore import C14N
from repro.xmlcore.tree import Element
from repro.xmlenc import algorithms as xenc_algorithms
from repro.xmlenc.decryptor import Decryptor
from repro.xmlenc.encryptor import Encryptor


@dataclass
class SecurePackage:
    """The pipeline's output: transmit-ready bytes plus bookkeeping."""

    data: bytes
    signed: bool
    encrypted_ids: list[str] = field(default_factory=list)
    pre_encrypted_ids: list[str] = field(default_factory=list)

    def view(self) -> PackageView:
        return parse_package(self.data)


@dataclass
class AuthoringPipeline:
    """Creates secure application packages.

    Args:
        identity: the signing identity (certificate chain embedded).
        recipient_key: the player's RSA public key (``rsa-1_5`` key
            transport) — or ``None`` with *shared_kek* for AES key wrap.
        shared_kek: a pre-shared key-encryption key and its slot name.
        signature_method / digest_method / encryption_algorithm:
            algorithm URIs.
    """

    identity: SigningIdentity
    recipient_key: RSAPublicKey | None = None
    shared_kek: tuple[str, SymmetricKey] | None = None
    signature_method: str = dsig_algorithms.RSA_SHA1
    digest_method: str = dsig_algorithms.SHA1
    encryption_algorithm: str = xenc_algorithms.AES128_CBC
    provider: CryptoProvider | None = None
    rng: RandomSource | None = None

    def __post_init__(self):
        self.provider = self.provider or get_provider()
        self.rng = self.rng or default_random()
        self._encryptor = Encryptor(self.provider, self.rng)

    # -- public API -------------------------------------------------------------

    def build_package(self, manifest: ApplicationManifest, *,
                      permission_file: PermissionRequestFile | None = None,
                      sign: bool = True,
                      encrypt_ids: tuple[str, ...] = (),
                      pre_encrypt_ids: tuple[str, ...] = (),
                      ) -> SecurePackage:
        """Assemble, sign and encrypt an application package.

        Args:
            manifest: the application to package.
            permission_file: optional MHP-style permission request.
            sign: create the enveloped signature (Fig 3).
            encrypt_ids: element Ids to encrypt *after* signing —
                the signature's Decryption Transform makes the player
                decrypt them before digest validation.
            pre_encrypt_ids: element Ids to encrypt *before* signing —
                they are named in ``dcrpt:Except`` and stay encrypted
                during verification (signature covers the ciphertext).
        """
        package = build_package_element(manifest.to_element(),
                                        permission_file)
        cek, encrypted_key = self._session_key()

        pre_encrypted: list[str] = []
        for target_id in pre_encrypt_ids:
            self._encrypt_target(package, target_id, cek, encrypted_key,
                                 data_id=f"enc-{target_id}")
            pre_encrypted.append(f"enc-{target_id}")

        if sign:
            self._sign_package(package, pre_encrypted)

        encrypted: list[str] = []
        for target_id in encrypt_ids:
            self._encrypt_target(package, target_id, cek, encrypted_key,
                                 data_id=f"enc-{target_id}")
            encrypted.append(f"enc-{target_id}")

        view = PackageView(package, package)  # serialization only
        return SecurePackage(
            data=view.to_bytes(),
            signed=sign,
            encrypted_ids=encrypted,
            pre_encrypted_ids=pre_encrypted,
        )

    # -- internals ----------------------------------------------------------------

    def _session_key(self):
        cek = self._encryptor.generate_cek(self.encryption_algorithm)
        if self.recipient_key is not None:
            encrypted_key = self._encryptor.make_encrypted_key(
                cek, self.recipient_key,
                wrap_algorithm=xenc_algorithms.RSA_1_5,
                recipient="player",
            )
        elif self.shared_kek is not None:
            name, kek = self.shared_kek
            wrap = {
                16: xenc_algorithms.KW_AES128,
                24: xenc_algorithms.KW_AES192,
                32: xenc_algorithms.KW_AES256,
            }.get(len(kek.data))
            if wrap is None:
                raise AuthoringError("shared KEK must be 16/24/32 bytes")
            encrypted_key = self._encryptor.make_encrypted_key(
                cek, kek, wrap_algorithm=wrap, kek_name=name,
            )
        else:
            raise AuthoringError(
                "pipeline needs a recipient key or a shared KEK"
            )
        return cek, encrypted_key

    def _encrypt_target(self, package: Element, target_id: str, cek,
                        encrypted_key, data_id: str) -> None:
        target = package.element_by_id(target_id)
        if target is None:
            raise AuthoringError(
                f"no element with Id {target_id!r} to encrypt"
            )
        self._encryptor.encrypt_element(
            target, cek, algorithm=self.encryption_algorithm,
            encrypted_key=encrypted_key, data_id=data_id,
        )

    def _sign_package(self, package: Element,
                      pre_encrypted_ids: list[str]) -> None:
        signer = Signer(
            self.identity.key, identity=self.identity,
            signature_method=self.signature_method,
            digest_method=self.digest_method,
            provider=self.provider,
        )
        transforms = [
            Transform(
                DECRYPT_XML,
                except_uris=tuple(f"#{i}" for i in pre_encrypted_ids),
            ),
            Transform(ENVELOPED_SIGNATURE),
            Transform(C14N),
        ]
        reference = Reference(uri="", transforms=transforms,
                              digest_method=self.digest_method)
        # At signing time nothing (beyond the excepted regions) is
        # encrypted, so the decryption transform is a no-op; an empty
        # decryptor satisfies the pipeline.
        signer.sign_references([reference], parent=package,
                               decryptor=Decryptor(provider=self.provider))
