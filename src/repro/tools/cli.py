"""Command-line tools for the XML security stack.

Usage: ``python -m repro.tools <command> ...``

Commands:

* ``keygen``    — generate an RSA key pair (private key XML to a file).
* ``ca-init``   — create a self-signed root CA (key + certificate).
* ``issue``     — issue a certificate for a public key.
* ``sign``      — envelop-sign an XML document.
* ``verify``    — verify the signature(s) in a document.
* ``encrypt``   — encrypt an element (by Id) inside a document.
* ``decrypt``   — decrypt every EncryptedData in a document.
* ``c14n``      — canonicalize a document (C14N 1.0 / exclusive).
* ``inspect``   — summarize a document's security markup.
* ``perf-report`` — run a representative sign/verify/encrypt workload
  and dump the perf counters, timers and cache hit ratios.
* ``audit``     — static security audit of signed/encrypted artifacts
  (documents, disc images, directories) without key material.
* ``analyze``   — code analysis over one parse of the repo's own
  source: invariant rules (LIN1xx) per module, then taint flow
  (TNT2xx), concurrency safety (CON3xx) and async lifecycle (LIF4xx)
  over one call graph.
* ``chaos``     — seeded adversarial chaos harness: drive resource
  attacks (nesting/attribute/text/node floods, reference and decrypt
  bombs, hostile frames) through the real entry points and fail on
  any containment violation.  With ``--crash``, run the crash-recovery
  sweep instead: kill each durable-state scenario at every filesystem
  injection point and verify exact recovery.
* ``durable``   — inspect, verify or compact a crash-safe durable
  state directory (journal + snapshot).
* ``loadgen``   — deterministic fleet load harness: drive thousands of
  simulated player sessions against the async XKMS service on the
  virtual clock and report latency percentiles, throughput and shed
  accounting (byte-identical across runs for a given seed).

Every command reads/writes ordinary files; see ``--help`` per command.
"""

from __future__ import annotations

import argparse
import sys

from repro.certs import CertificateAuthority, SigningIdentity, TrustStore
from repro.dsig import Signer, Verifier
from repro.errors import ReproError
from repro.primitives.encoding import hexdecode
from repro.primitives.keys import SymmetricKey
from repro.primitives.provider import (
    available_providers, get_provider, set_default_provider,
)
from repro.primitives.random import (
    DeterministicRandomSource, SystemRandomSource,
)
from repro.primitives.rsa import generate_keypair
from repro.tools.keystore import (
    certificates_from_xml, certificates_to_xml, private_key_from_xml,
    private_key_to_xml,
)
from repro.xmlcore import (
    C14N, C14N_WITH_COMMENTS, DSIG_NS, EXC_C14N, XMLENC_NS, canonicalize,
    parse_document, parse_element, serialize,
)
from repro.xmlenc import Decryptor, Encryptor


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _write(path: str, data: str | bytes) -> None:
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as handle:
        handle.write(data)


def _rng(args):
    if getattr(args, "seed", None):
        return DeterministicRandomSource(args.seed.encode())
    return SystemRandomSource()


# -- commands -----------------------------------------------------------------


def cmd_keygen(args) -> int:
    key = generate_keypair(args.bits, _rng(args))
    _write(args.out, private_key_to_xml(key))
    print(f"wrote {args.bits}-bit private key to {args.out}")
    return 0


def cmd_ca_init(args) -> int:
    ca = CertificateAuthority.create_root(
        args.name, key_bits=args.bits, rng=_rng(args),
    )
    _write(args.key_out, private_key_to_xml(ca.key))
    _write(args.cert_out, certificates_to_xml([ca.certificate]))
    print(f"root CA {args.name!r}: key -> {args.key_out}, "
          f"certificate -> {args.cert_out}")
    return 0


def cmd_issue(args) -> int:
    ca_key = private_key_from_xml(_read(args.ca_key))
    ca_cert = certificates_from_xml(_read(args.ca_cert))[0]
    ca = CertificateAuthority(name=ca_cert.subject, key=ca_key,
                              certificate=ca_cert)
    subject_key = private_key_from_xml(_read(args.subject_key))
    certificate = ca.issue(args.subject, subject_key.public_key())
    chain = [certificate]
    if ca_cert.subject != ca_cert.issuer:
        chain.append(ca_cert)
    _write(args.out, certificates_to_xml(chain))
    print(f"issued certificate for {args.subject!r} -> {args.out}")
    return 0


def _load_identity(args) -> SigningIdentity:
    key = private_key_from_xml(_read(args.key))
    chain = certificates_from_xml(_read(args.chain)) if args.chain else []
    name = chain[0].subject if chain else "anonymous"
    return SigningIdentity(name=name, key=key, chain=chain)


def cmd_sign(args) -> int:
    identity = _load_identity(args)
    root = parse_element(_read(args.document))
    signer = Signer(identity.key,
                    identity=identity if identity.chain else None,
                    include_key_value=not identity.chain)
    signer.sign_enveloped(root, uri=args.uri)
    _write(args.out or args.document, serialize(root,
                                                xml_declaration=True))
    print(f"signed {args.document} -> {args.out or args.document}")
    return 0


def cmd_verify(args) -> int:
    root = parse_element(_read(args.document))
    trust_store = None
    if args.roots:
        trust_store = TrustStore(
            roots=certificates_from_xml(_read(args.roots))
        )
    verifier = Verifier(trust_store=trust_store,
                        require_trusted_key=bool(args.roots))
    signatures = list(root.iter("Signature", DSIG_NS))
    if not signatures:
        print("no signatures found", file=sys.stderr)
        return 2
    failures = 0
    for signature in signatures:
        report = verifier.verify(signature)
        status = "VALID" if report.valid else "INVALID"
        signer = report.signer_subject or report.key_source
        print(f"{status}: signer={signer} "
              f"references={[r.uri for r in report.references]}")
        if not report.valid:
            failures += 1
            detail = report.error or "; ".join(
                f"{r.uri}: {r.error}" for r in report.references
                if not r.valid
            )
            if report.certificate_validation is not None \
                    and not report.certificate_validation.valid:
                detail += f"; chain: {report.certificate_validation.reason}"
            print(f"  reason: {detail}", file=sys.stderr)
    return 1 if failures else 0


def cmd_encrypt(args) -> int:
    root = parse_element(_read(args.document))
    target = root.element_by_id(args.target_id)
    if target is None:
        print(f"no element with Id {args.target_id!r}", file=sys.stderr)
        return 2
    key = SymmetricKey(hexdecode(args.key_hex))
    Encryptor(rng=_rng(args)).encrypt_element(
        target, key, key_name=args.key_name,
    )
    _write(args.out or args.document, serialize(root,
                                                xml_declaration=True))
    print(f"encrypted #{args.target_id} under key {args.key_name!r}")
    return 0


def cmd_decrypt(args) -> int:
    root = parse_element(_read(args.document))
    key = SymmetricKey(hexdecode(args.key_hex))
    decryptor = Decryptor(keys={args.key_name: key})
    count = decryptor.decrypt_in_place(root)
    _write(args.out or args.document, serialize(root,
                                                xml_declaration=True))
    print(f"decrypted {count} structure(s)")
    return 0 if count else 2


def cmd_package(args) -> int:
    """Build a signed (optionally encrypted) application package."""
    from repro.core import AuthoringPipeline
    from repro.disc import ApplicationManifest
    from repro.permissions import PermissionRequestFile
    from repro.tools.keystore import public_key_from_xml

    identity = _load_identity(args)
    manifest = ApplicationManifest.from_element(
        parse_element(_read(args.manifest))
    )
    permission_file = None
    if args.permissions:
        permission_file = PermissionRequestFile.from_xml(
            _read(args.permissions)
        )
    recipient = public_key_from_xml(_read(args.recipient_key))
    pipeline = AuthoringPipeline(identity, recipient_key=recipient,
                                 rng=_rng(args))
    encrypt_ids = tuple(args.encrypt_id or [])
    if args.encrypt_code:
        encrypt_ids = encrypt_ids + (manifest.code_id,)
    package = pipeline.build_package(
        manifest, permission_file=permission_file,
        encrypt_ids=encrypt_ids,
    )
    _write(args.out, package.data)
    print(f"packaged {args.manifest} -> {args.out} "
          f"({len(package.data)} bytes, encrypted={list(encrypt_ids)})")
    return 0


def cmd_open_package(args) -> int:
    """Verify/decrypt a package like a player would (Fig 9 right half)."""
    from repro.core import PlaybackPipeline
    from repro.errors import ApplicationRejectedError

    trust_store = TrustStore(
        roots=certificates_from_xml(_read(args.roots))
    )
    device_key = private_key_from_xml(_read(args.device_key)) \
        if args.device_key else None
    pipeline = PlaybackPipeline(trust_store=trust_store,
                                device_key=device_key)
    try:
        application = pipeline.open_package(_read(args.package))
    except ApplicationRejectedError as exc:
        print(f"BARRED: {exc}", file=sys.stderr)
        return 1
    print(f"TRUSTED: signer={application.signer_subject}")
    print(f"application: {application.manifest.name} "
          f"({len(application.manifest.scripts)} script(s), "
          f"{len(application.manifest.submarkups)} submarkup(s))")
    if args.out:
        _write(args.out, application.manifest.to_xml())
        print(f"decrypted manifest -> {args.out}")
    return 0


def cmd_c14n(args) -> int:
    document = parse_document(_read(args.document))
    algorithm = EXC_C14N if args.exclusive else (
        C14N_WITH_COMMENTS if args.with_comments else C14N
    )
    octets = canonicalize(document, algorithm)
    if args.out:
        _write(args.out, octets)
    else:
        sys.stdout.write(octets.decode("utf-8"))
    return 0


def cmd_inspect(args) -> int:
    root = parse_element(_read(args.document))
    print(f"root element: <{root.qname}> "
          f"(namespace {root.ns_uri or '-'})")
    print(f"elements: {sum(1 for _ in root.iter())}")
    signatures = list(root.iter("Signature", DSIG_NS))
    print(f"signatures: {len(signatures)}")
    for signature in signatures:
        uris = [
            ref.get("URI") for ref in signature.findall("Reference",
                                                        DSIG_NS)
        ]
        print(f"  - references {uris}")
    encrypted = list(root.iter("EncryptedData", XMLENC_NS))
    print(f"encrypted regions: {len(encrypted)}")
    for data in encrypted:
        print(f"  - Id={data.get('Id') or '-'} "
              f"Type={(data.get('Type') or '-').rsplit('#', 1)[-1]}")
    ids = sorted(value for el in root.iter() for value in el.id_values())
    print(f"addressable Ids: {ids}")
    return 0


def cmd_perf_report(args) -> int:
    """Exercise the stack and dump the perf-counter/metrics layer.

    Runs a deterministic sign → batch-verify → encrypt → decrypt
    workload (scaled by ``--submarkups`` and ``--repeat``) inside a
    fresh metrics registry, then prints every counter, hit ratio and
    timer summary.  ``--json`` additionally writes the raw snapshot.
    """
    import json

    from repro.certs import CertificateAuthority, SigningIdentity
    from repro.perf import C14NDigestCache, metrics
    from repro.perf.batch import BatchVerifier
    from repro.xmlenc import algorithms as xenc_algorithms

    rng = DeterministicRandomSource(b"perf-report")
    root_ca = CertificateAuthority.create_root("CN=Perf Root", rng=rng)
    studio = SigningIdentity.create("CN=Perf Studio", root_ca, rng=rng)
    trust_store = TrustStore(roots=[root_ca.certificate])

    registry = metrics.push_registry()
    try:
        cache = C14NDigestCache()
        cluster = parse_element(_perf_cluster_xml(args.submarkups))
        signer = Signer(studio.key, identity=studio)
        for index in range(args.submarkups):
            signer.sign_detached(f"#sub-{index}", parent=cluster)
        verifier = Verifier(trust_store=trust_store,
                            require_trusted_key=True, cache=cache)
        batch = BatchVerifier(verifier)
        for _ in range(args.repeat):
            outcome = batch.verify_all(cluster)
            if not outcome.all_valid:
                print("error: perf workload failed verification",
                      file=sys.stderr)
                return 2
        key = SymmetricKey(rng.read(16))
        for _ in range(args.repeat):
            working = parse_element(_perf_cluster_xml(args.submarkups))
            encryptor = Encryptor(rng=rng)
            for target in list(working.iter("submarkup")):
                encryptor.encrypt_element(
                    target, key, algorithm=xenc_algorithms.AES128_CBC,
                    key_name="perf-key",
                )
            Decryptor(keys={"perf-key": key}).decrypt_in_place(working)

        lines = registry.report_lines()
        print(f"perf-report: {args.submarkups} submarkup(s), "
              f"{args.repeat} repeat(s)")
        for line in lines:
            print(line)
        if args.json:
            _write(args.json, json.dumps(registry.snapshot(), indent=2))
            print(f"snapshot -> {args.json}")
    finally:
        metrics.pop_registry()
    return 0


def _perf_cluster_xml(submarkups: int) -> bytes:
    parts = [
        '<cluster xmlns="urn:bda:bdmv:interactive-cluster" Id="cluster">'
    ]
    for index in range(submarkups):
        parts.append(
            f'<submarkup Id="sub-{index}"><layout w="1920" h="1080"/>'
            f'<item v="{index}"/><item v="{index + 1}"/></submarkup>'
        )
    parts.append("</cluster>")
    return "".join(parts).encode()


def _finish_analysis(result, args) -> int:
    """Shared baseline/report/exit-code handling for the analyzers."""
    from repro.analysis import (
        Baseline, Severity, render_json, render_text,
    )

    raw_findings = list(result.findings)
    if args.update_baseline:
        Baseline().save(args.update_baseline, raw_findings)
        print(f"baseline ({len(raw_findings)} finding(s)) -> "
              f"{args.update_baseline}")
        return 0
    if args.baseline:
        try:
            Baseline.load(args.baseline).apply(result)
        except OSError as exc:
            print(f"error: baseline {args.baseline}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    if args.json:
        _write(args.json, render_json(result))
    print(render_text(result, verbose=args.verbose))
    threshold = Severity.parse(args.fail_on)
    return 1 if result.exceeds(threshold) else 0


def cmd_audit(args) -> int:
    """Statically audit artifacts; non-zero exit on findings."""
    from repro.analysis import audit_paths, catalog_lines

    if args.rules:
        for line in catalog_lines("artifact"):
            print(line)
        return 0
    if not args.artifacts:
        print("error: no artifacts given (paths or --rules)",
              file=sys.stderr)
        return 2
    result = audit_paths(args.artifacts,
                         min_rsa_bits=args.min_rsa_bits)
    return _finish_analysis(result, args)


def cmd_analyze(args) -> int:
    """LIN/TNT/CON/LIF analysis over the codebase."""
    from repro.analysis import analyze_paths, catalog_lines
    from repro.analysis.interproc import AnalysisCache

    if args.rules:
        for line in catalog_lines("code"):
            print(line)
        return 0
    cache = None if args.no_cache else AnalysisCache(args.cache)
    try:
        result = analyze_paths(args.paths or ["src"], cache=cache)
    except SyntaxError as exc:
        print(f"error: {exc.filename}:{exc.lineno}: {exc.msg}",
              file=sys.stderr)
        return 2
    if args.verbose and cache is not None:
        state = "warm (memoized run)" if cache.run_hit else \
            f"{cache.hits} module hit(s), {cache.misses} miss(es)"
        print(f"cache: {state}")
    return _finish_analysis(result, args)


def cmd_chaos(args) -> int:
    """Run the seeded chaos harness; non-zero exit on any violation."""
    from repro.resilience.chaos import run_chaos
    from repro.resilience.durablechaos import run_crash_chaos

    seeds = args.seed or [20050902]
    violations = 0
    for seed in seeds:
        if args.crash:
            report = run_crash_chaos(seed)
        else:
            report = run_chaos(seed, iterations=args.iterations)
        for line in report.summary_lines(verbose=args.verbose):
            print(line)
        violations += len(report.violations)
    if violations:
        kind = "recovery" if args.crash else "containment"
        print(f"error: {violations} {kind} violation(s)",
              file=sys.stderr)
        return 1
    if args.crash:
        print(f"all crash recoveries verified under {len(seeds)} seed(s)")
    else:
        print(f"all attacks contained under {len(seeds)} seed(s)")
    return 0


def cmd_durable(args) -> int:
    """Inspect/verify/compact a durable state directory."""
    from repro.resilience.durable import DurableStore, verify_directory

    key = hexdecode(args.integrity_key_hex) \
        if args.integrity_key_hex else None
    if args.action == "compact":
        store = DurableStore(args.directory, integrity_key=key)
        if not store.recovery.clean:
            print(f"recovery repaired the journal first: "
                  f"{store.recovery.truncated_bytes} torn byte(s), "
                  f"{store.recovery.dropped_records} "
                  f"unacknowledged record(s) dropped")
        seq = store.compact()
        print(f"compacted {args.directory} at sequence {seq}")
        return 0
    inspection = verify_directory(args.directory, integrity_key=key)
    print(f"directory: {inspection.directory}")
    print(f"snapshot sequence: {inspection.snapshot_seq}")
    print(f"journal: {inspection.journal_bytes} byte(s), "
          f"{inspection.committed_records} committed record(s) past "
          "the snapshot")
    for namespace, count in sorted(inspection.namespaces.items()):
        print(f"  namespace {namespace!r}: {count} key(s)")
    if inspection.clean_tail:
        print("tail: clean")
        return 0
    print(f"tail: {inspection.tail_torn_bytes} torn byte(s), "
          f"{inspection.tail_uncommitted_records} unacknowledged "
          "record(s) — recovery will truncate them")
    return 1 if args.action == "verify" else 0


def cmd_loadgen(args) -> int:
    """Run the deterministic fleet load harness and print the summary."""
    from repro.loadgen import FleetConfig, run_fleet, verify_determinism

    config = FleetConfig(
        sessions=args.sessions,
        connections=args.connections,
        ops_per_session=args.ops,
        seed=args.seed,
        timeout_s=args.timeout,
        start_window_s=args.start_window,
        max_concurrent=args.max_concurrent,
        max_queued=args.max_queued,
    )
    if args.verify_determinism:
        identical, first, _ = verify_determinism(config)
        if not identical:
            print("error: two runs of the same config produced "
                  "different summaries", file=sys.stderr)
            return 1
        print("determinism: two runs byte-identical")
        if args.json:
            _write(args.json, first)
        return 0
    report = run_fleet(config)
    for line in report.summary_lines():
        print(line)
    if args.json:
        _write(args.json, report.summary_json())
    untyped = report.outcomes.get("untyped", 0)
    if untyped or report.shed_structured_ratio != 1.0:
        print(f"error: overload invariant violated "
              f"({untyped} untyped failure(s), shed ratio "
              f"{report.shed_structured_ratio:g})", file=sys.stderr)
        return 1
    return 0


def cmd_providers(args) -> int:
    """List registered crypto providers and the process default."""
    default = get_provider().name
    for name in available_providers():
        marker = " (default)" if name == default else ""
        print(f"{name}{marker}")
    return 0


# -- argument parsing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree for ``repro.tools``."""
    parser = argparse.ArgumentParser(
        prog="repro.tools",
        description="XML security tools for disc applications",
    )
    parser.add_argument(
        "--provider",
        choices=("pure", "accelerated", "auto"),
        help="crypto provider for this invocation (overrides "
             "REPRO_PROVIDER; 'auto' picks the best available)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("providers",
                       help="list registered crypto providers")
    p.set_defaults(func=cmd_providers)

    p = sub.add_parser("keygen", help="generate an RSA key pair")
    p.add_argument("--bits", type=int, default=1024)
    p.add_argument("--seed", help="deterministic seed (tests only)")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("ca-init", help="create a self-signed root CA")
    p.add_argument("--name", required=True)
    p.add_argument("--bits", type=int, default=1024)
    p.add_argument("--seed")
    p.add_argument("--key-out", required=True)
    p.add_argument("--cert-out", required=True)
    p.set_defaults(func=cmd_ca_init)

    p = sub.add_parser("issue", help="issue a certificate")
    p.add_argument("--ca-key", required=True)
    p.add_argument("--ca-cert", required=True)
    p.add_argument("--subject", required=True)
    p.add_argument("--subject-key", required=True,
                   help="private key file whose public half is certified")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_issue)

    p = sub.add_parser("sign", help="envelop-sign an XML document")
    p.add_argument("document")
    p.add_argument("--key", required=True)
    p.add_argument("--chain", help="certificate chain file")
    p.add_argument("--uri", default="", help="reference URI (default \"\")")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_sign)

    p = sub.add_parser("verify", help="verify document signatures")
    p.add_argument("document")
    p.add_argument("--roots", help="trusted root certificates")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("encrypt", help="encrypt an element by Id")
    p.add_argument("document")
    p.add_argument("--target-id", required=True)
    p.add_argument("--key-hex", required=True,
                   help="AES key, hex (16/24/32 bytes)")
    p.add_argument("--key-name", default="key-1")
    p.add_argument("--seed")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt EncryptedData")
    p.add_argument("document")
    p.add_argument("--key-hex", required=True)
    p.add_argument("--key-name", default="key-1")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("package",
                       help="build a signed application package (Fig 9)")
    p.add_argument("manifest", help="application manifest XML")
    p.add_argument("--key", required=True)
    p.add_argument("--chain", help="signer certificate chain")
    p.add_argument("--recipient-key", required=True,
                   help="player public key file (rsa-1_5 transport)")
    p.add_argument("--permissions", help="permission request file")
    p.add_argument("--encrypt-id", action="append",
                   help="element Id to encrypt (repeatable)")
    p.add_argument("--encrypt-code", action="store_true",
                   help="encrypt the manifest's code part")
    p.add_argument("--seed")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_package)

    p = sub.add_parser("open-package",
                       help="verify/decrypt a package like a player")
    p.add_argument("package")
    p.add_argument("--roots", required=True)
    p.add_argument("--device-key", help="player private key file")
    p.add_argument("-o", "--out", help="write the decrypted manifest")
    p.set_defaults(func=cmd_open_package)

    p = sub.add_parser("c14n", help="canonicalize a document")
    p.add_argument("document")
    p.add_argument("--exclusive", action="store_true")
    p.add_argument("--with-comments", action="store_true")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_c14n)

    p = sub.add_parser("inspect", help="summarize security markup")
    p.add_argument("document")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser(
        "perf-report",
        help="run a representative workload and dump perf metrics",
    )
    p.add_argument("--submarkups", type=int, default=8,
                   help="signed sub-markups in the workload (default 8)")
    p.add_argument("--repeat", type=int, default=3,
                   help="verify/encrypt repetitions (default 3)")
    p.add_argument("--json", help="also write the raw snapshot as JSON")
    p.set_defaults(func=cmd_perf_report)

    def add_analysis_options(p):
        p.add_argument("--baseline",
                       help="baseline file of accepted findings")
        p.add_argument("--update-baseline", metavar="PATH",
                       help="write current findings as the new baseline")
        p.add_argument("--fail-on", default="warning",
                       choices=("info", "warning", "error"),
                       help="lowest severity that fails the run "
                            "(default warning)")
        p.add_argument("--json", help="also write a JSON report")
        p.add_argument("-v", "--verbose", action="store_true",
                       help="include finding details in the report")
        p.add_argument("--rules", action="store_true",
                       help="print the rule catalog and exit")

    p = sub.add_parser(
        "audit",
        help="static security audit of disc artifacts (no keys needed)",
    )
    p.add_argument("artifacts", nargs="*",
                   help="XML files, zipped disc images or directories")
    p.add_argument("--min-rsa-bits", type=int, default=2048,
                   help="RSA keys below this are flagged (default 2048)")
    add_analysis_options(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "analyze",
        help="invariant, taint, concurrency and lifecycle analysis "
             "(LIN1xx/TNT2xx/CON3xx/LIF4xx rules)",
    )
    p.add_argument("paths", nargs="*",
                   help="files or directories (default: src)")
    p.add_argument("--cache", default=".interproc-cache.json",
                   help="incremental cache file "
                        "(default .interproc-cache.json)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and do not write the cache")
    add_analysis_options(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "chaos",
        help="seeded adversarial chaos harness (resource attacks)",
    )
    p.add_argument("--seed", type=int, action="append",
                   help="chaos seed (repeatable; default 20050902)")
    p.add_argument("--iterations", type=int, default=1,
                   help="rounds of the full attack set per seed")
    p.add_argument("--crash", action="store_true",
                   help="run the crash-recovery sweep (power loss at "
                        "every filesystem injection point) instead")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print every attack outcome, not just violations")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "loadgen",
        help="deterministic fleet load harness for the async XKMS "
             "service",
    )
    p.add_argument("--sessions", type=int, default=1000,
                   help="simulated player sessions (default 1000)")
    p.add_argument("--connections", type=int, default=8,
                   help="multiplexed connections (default 8)")
    p.add_argument("--ops", type=int, default=2,
                   help="XKMS operations per session (default 2)")
    p.add_argument("--seed", type=int, default=20050902,
                   help="fleet seed (default 20050902)")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="per-operation deadline, virtual seconds")
    p.add_argument("--start-window", type=float, default=2.0,
                   help="session arrival window, virtual seconds")
    p.add_argument("--max-concurrent", type=int, default=16,
                   help="per-tenant bulkhead slots (default 16)")
    p.add_argument("--max-queued", type=int, default=32,
                   help="per-tenant admission queue (default 32)")
    p.add_argument("--verify-determinism", action="store_true",
                   help="run twice and require byte-identical "
                        "summaries")
    p.add_argument("--json", help="write the canonical summary JSON")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "durable",
        help="inspect/verify/compact a durable state directory",
    )
    p.add_argument("action", choices=("inspect", "verify", "compact"))
    p.add_argument("directory")
    p.add_argument("--integrity-key-hex",
                   help="HMAC key the journal/snapshot were written "
                        "under (hex)")
    p.set_defaults(func=cmd_durable)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.provider:
            name = args.provider
            if name == "auto":
                from repro.primitives.provider import detect_best_provider
                name = detect_best_provider()
            set_default_provider(name)
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
