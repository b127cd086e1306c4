"""Benchmark-regression gate for CI.

Runs a small, deterministic subset of the ABL benchmarks, writes the
results to a JSON artifact (``BENCH_PR19.json`` by default) and fails —
exit status 1 — when any tracked metric regresses more than the
threshold (20% by default) against the committed
``benchmarks/baseline.json``.  After the drift table it prints the
trajectory of every gated metric over the ``BENCH_PR<N>.json``
artifacts committed at the repository root, in PR order.

Robustness against machine-speed differences between the committing
machine and the CI runner: every absolute timing is divided by a
*calibration* kernel (pure-Python SHA-256 over a fixed payload on the
same interpreter), so tracked values are dimensionless multiples of the
machine's own crypto throughput.  The kernel is sampled in alternation
with the workload it normalizes (:func:`normalized`), and every ratio
between two workloads alternates the pair the same way, so a slow spell
on a shared machine hits both sides of each ratio.  Hit ratios need no
normalization at all.

Usage::

    PYTHONPATH=src python benchmarks/bench_regression.py \
        --output BENCH_PR19.json
    PYTHONPATH=src python benchmarks/bench_regression.py \
        --update-baseline        # refresh benchmarks/baseline.json
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _workloads import (  # noqa: E402
    build_manifest,
    build_world,
    measure,
    measure_pair,
    pinned_cluster,
    pinned_script,
    run_pinned_script,
)

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "baseline.json",
)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: metric name -> which direction counts as a regression.
DIRECTIONS = {
    # dimensionless multiples of the calibration time; lower is better
    "verify_sequential_8_norm": "lower",
    "verify_batch_warm_8_norm": "lower",
    "c14n_manifest_norm": "lower",
    "sign_detached_norm": "lower",
    "audit_8sig_norm": "lower",
    # ABL-SCRIPT: lex, parse and run of the pinned 70-line menu script
    # (the player's launch-path script shape)
    "script_run_norm": "lower",
    # XML front end: one parse of the pinned signed disc cluster under
    # the default guard (the studio and player read path)
    "parse_cluster_norm": "lower",
    # accelerated-provider legs (PR 7): the hardware-crypto deployment
    # shape must stay >= 5x faster than the pure baseline was
    "sign_detached_accel_norm": "lower",
    "verify_sequential_8_accel_norm": "lower",
    # streaming C14N vs whole-tree canonicalization on the same
    # manifest; ~1.0 means chunked emission is free
    "c14n_stream_ratio": "lower",
    # pure ratios; higher is better
    "batch_speedup": "higher",
    "warm_digest_hit_ratio": "higher",
    # ABL-GUARD: guarded / unguarded warm batch verify; lower is better
    # (1.0 = free; the acceptance envelope is <= 1.05 on the committing
    # machine, gated here at baseline * (1 + threshold) for CI noise)
    "guard_overhead_ratio": "lower",
    # ABL-ANALYZE: `repro.tools analyze` over the whole repo (one
    # parse, the LIN pack and lowering, then the TNT/CON/LIF packs);
    # the warm ratio is the point of the content-hash cache (an
    # unchanged tree must be near-free), so a ratio drift is a cache
    # regression
    "analyze_cold_norm": "lower",
    "analyze_warm_ratio": "lower",
    # ABL-DUR: journaled commits and recovery replay on the in-memory
    # crash-model filesystem (CPU-bound, so the ratios are stable;
    # real fsync latency would just measure the runner's disk)
    "journal_commit_norm": "lower",
    "recovery_norm": "lower",
    # ABL-ASYNC: fleet load against the async XKMS service.  These are
    # *virtual-time* quantities (the whole fleet runs on the injected
    # clock), so they are pure functions of the pinned FleetConfig —
    # no machine normalization needed, and drift means a behavioural
    # change, not a slow runner.
    "xkms_p99_norm": "lower",
    "xkms_throughput_norm": "higher",
    # The overload invariant: every shed answered with a structured
    # fault.  Gated with the "exact" direction — 1.0 means 1.0; any
    # deviation in either direction is a silent-drop regression.
    "shed_structured_ratio": "exact",
}


CALIBRATION_PAYLOAD = b"Z" * 65536


def calibration_kernel() -> bytes:
    """The fixed pure-Python SHA-256 workload every norm divides by."""
    from repro.primitives.sha import sha256

    return sha256(CALIBRATION_PAYLOAD)


def normalized(workload, *, repeat: int = 15) -> tuple[float, float]:
    """``(workload / kernel, workload seconds)`` from interleaved medians.

    Alternating the two makes a slow spell on a shared machine hit both
    sides of the ratio.  A calibration taken once, apart from the
    workloads, moved untouched gates by 20-40% between runs on a shared
    2-vCPU VM.
    """
    kernel_time, workload_time = measure_pair(
        calibration_kernel, workload, repeat=repeat
    )
    return workload_time / kernel_time, workload_time


def run_benchmarks() -> dict:
    from repro.core import verify_signatures
    from repro.dsig import Signer, Verifier
    from repro.perf import BatchVerifier, C14NDigestCache, metrics
    from repro.perf.cache import NullCache
    from repro.xmlcore import canonicalize

    world = build_world()
    # Built first: its Ids come from process-wide counters, so the
    # bytes are the same in every run only if nothing is built before.
    cluster = pinned_cluster(world)
    signer = Signer(world.studio.key, identity=world.studio)

    def fat_manifest():
        return build_manifest(
            "bench-reg",
            scripts=1,
            script_lines=120,
            submarkups=8,
        ).to_element()

    root = fat_manifest()
    for target in root.iter("submarkup"):
        signer.sign_detached(f"#{target.get('Id')}", parent=root)

    sequential = Verifier(
        trust_store=world.trust_store,
        require_trusted_key=True,
        cache=NullCache(),
    )

    def verify_sequential():
        return verify_signatures(root, sequential)

    seq_norm, seq_time = normalized(verify_sequential)

    engine = BatchVerifier(
        Verifier(
            trust_store=world.trust_store,
            require_trusted_key=True,
            cache=C14NDigestCache(),
        )
    )
    outcome = engine.verify_all(root)
    if not outcome.all_valid:
        raise SystemExit("bench workload failed to verify")

    def verify_warm():
        return engine.verify_all(root)

    warm_norm, warm_time = normalized(verify_warm)
    speedup_seq_time, speedup_warm_time = measure_pair(
        verify_sequential, verify_warm
    )

    # ABL-GUARD: the same warm batch-verify workload with a per-package
    # ResourceGuard threaded through (the player's deployment shape).
    # A fresh guard is minted per pass — quotas are per-package, and the
    # mint cost is part of the honest overhead.
    from repro.resilience import ResourceGuard

    guarded_engine = BatchVerifier(
        Verifier(
            trust_store=world.trust_store,
            require_trusted_key=True,
            cache=C14NDigestCache(),
            guard=ResourceGuard(),
        )
    )
    if not guarded_engine.verify_all(root).all_valid:
        raise SystemExit("guarded bench workload failed to verify")

    def guarded_verify():
        guarded_engine.verifier.guard = ResourceGuard()
        return guarded_engine.verify_all(root)

    plain_time, guarded_time = measure_pair(verify_warm, guarded_verify)

    registry = metrics.push_registry()
    try:
        engine.verify_all(root)
        hits = registry.counter("perf.cache.digest.hit").value
        misses = registry.counter("perf.cache.digest.miss").value
    finally:
        metrics.pop_registry()
    total = hits + misses
    hit_ratio = hits / total if total else 0.0

    plain = fat_manifest()

    def c14n_whole():
        return canonicalize(plain)

    c14n_norm, c14n_time = normalized(c14n_whole)

    # ABL-STREAM: chunked canonical emission vs building the whole
    # octet string; the ratio gates streaming-serializer overhead.
    from repro.xmlcore.c14n import canonicalize_into

    def c14n_stream():
        return canonicalize_into(plain, lambda chunk: None)

    stream_whole_time, stream_time = measure_pair(c14n_whole, c14n_stream)

    def sign_once():
        target = build_manifest("bench-sign", submarkups=2).to_element()
        sub = next(iter(target.iter("submarkup")))
        signer.sign_detached(f"#{sub.get('Id')}", parent=target)

    sign_norm, sign_time = normalized(sign_once)

    # Accelerated-provider legs: the same sign / sequential-verify
    # workloads with the hashlib/cryptography-backed provider selected,
    # normalized against the *same* pure-SHA calibration so the metric
    # captures the provider speedup, not machine speed.
    from repro.primitives.provider import (
        available_providers, get_provider, set_default_provider,
    )

    accel_metrics = {}
    if "accelerated" in available_providers():
        previous = get_provider().name
        set_default_provider("accelerated")
        try:
            accel_root = fat_manifest()
            for target in accel_root.iter("submarkup"):
                signer.sign_detached(
                    f"#{target.get('Id')}", parent=accel_root
                )
            accel_seq = Verifier(
                trust_store=world.trust_store,
                require_trusted_key=True,
                cache=NullCache(),
            )
            accel_metrics = {
                "verify_sequential_8_accel_norm": normalized(
                    lambda: verify_signatures(accel_root, accel_seq),
                )[0],
                "sign_detached_accel_norm": normalized(sign_once)[0],
            }
        finally:
            set_default_provider(previous)

    def audit_once():
        from repro.analysis import ArtifactAuditor

        auditor = ArtifactAuditor()
        auditor.audit_element(root, "bench-audit")
        return auditor.finish()

    if len(audit_once().coverage) != 8:
        raise SystemExit("audit bench workload lost its signatures")
    audit_norm, audit_time = normalized(audit_once)

    # ABL-SCRIPT: lex, parse and run of the pinned menu script.
    script, expected = pinned_script(70)
    for _ in range(3):
        if run_pinned_script(script)[0] != [expected]:
            raise SystemExit("script bench workload printed the wrong value")
    script_norm, script_run_time = normalized(
        lambda: run_pinned_script(script),
    )

    # XML front end: parse the pinned signed cluster.  One parse is a
    # few milliseconds, so each sample repeats it for at least 20 ms;
    # a single short call is timed in a cold state that varies from
    # run to run.
    from repro.resilience import ResourceGuard
    from repro.xmlcore import parse_document

    if len(cluster) < 20_000:
        raise SystemExit("parse bench cluster shrank below 20 KB")

    def parse_cluster():
        return parse_document(cluster, guard=ResourceGuard())

    parse_repeat = max(1, math.ceil(0.02 / measure(parse_cluster)))

    def parse_cluster_repeated():
        for _ in range(parse_repeat):
            parse_cluster()

    parse_norm, parse_time = normalized(parse_cluster_repeated)

    # ABL-ANALYZE: the one analysis command, cold vs. memoized.
    import shutil
    import tempfile

    from repro.analysis.interproc import AnalysisCache, analyze_paths

    src_root = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src",
    )
    cache_dir = tempfile.mkdtemp(prefix="analyze-bench-")
    cache_path = os.path.join(cache_dir, "cache.json")
    try:
        def analyze_cached():
            return analyze_paths([src_root], cache=AnalysisCache(cache_path))

        def analyze_cold():
            if os.path.exists(cache_path):
                os.remove(cache_path)
            return analyze_cached()

        if analyze_cold().scanned < 100:
            raise SystemExit("analyze bench workload lost its modules")
        analyze_norm, analyze_cold_time = normalized(analyze_cold, repeat=3)
        # Each cold run leaves a populated cache for the warm run after it.
        warm_cold_time, analyze_warm_time = measure_pair(
            analyze_cold, analyze_cached, repeat=3
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    # ABL-DUR: journaled commits + recovery replay.  Runs against the
    # in-memory CrashableFilesystem so the workload is pure CPU
    # (framing, checksums, replay) and the SHA-256 normalization
    # holds; an OsFilesystem run would mostly measure fsync latency.
    from repro.resilience.crashfs import CrashableFilesystem
    from repro.resilience.durable import DurableStore

    def commit_batch() -> CrashableFilesystem:
        fs = CrashableFilesystem(seed=0)
        store = DurableStore("/bench/state", fs=fs)
        for index in range(50):
            store.set("slots", f"key-{index:03d}", b"V" * 100)
            store.commit()
        return fs

    journal_fs = commit_batch()
    journal_norm, journal_commit_time = normalized(commit_batch)

    def recover_once() -> DurableStore:
        return DurableStore("/bench/state", fs=journal_fs)

    if len(recover_once().keys("slots")) != 50:
        raise SystemExit("durable bench workload lost its records")
    recovery_norm, recovery_time = normalized(recover_once)

    # ABL-ASYNC: one pinned fleet run on the virtual clock.  The
    # summary is deterministic, so one run is the measurement.
    from repro.loadgen import FleetConfig, run_fleet

    fleet = run_fleet(FleetConfig(
        sessions=800, connections=8, ops_per_session=2,
        seed=20050902, start_window_s=8.0,
    ))
    if fleet.outcomes.get("untyped", 0):
        raise SystemExit("fleet bench produced untyped failures")

    return {
        "provider_legs": ["pure"] + (
            ["accelerated"] if accel_metrics else []
        ),
        "metrics": {
            **accel_metrics,
            "c14n_stream_ratio": stream_time / stream_whole_time,
            "verify_sequential_8_norm": seq_norm,
            "verify_batch_warm_8_norm": warm_norm,
            "batch_speedup": speedup_seq_time / speedup_warm_time,
            "guard_overhead_ratio": guarded_time / plain_time,
            "warm_digest_hit_ratio": hit_ratio,
            "c14n_manifest_norm": c14n_norm,
            "sign_detached_norm": sign_norm,
            "audit_8sig_norm": audit_norm,
            "script_run_norm": script_norm,
            "parse_cluster_norm": parse_norm / parse_repeat,
            "analyze_cold_norm": analyze_norm,
            "analyze_warm_ratio": analyze_warm_time / warm_cold_time,
            "journal_commit_norm": journal_norm,
            "recovery_norm": recovery_norm,
            "xkms_p99_norm": fleet.p99,
            "xkms_throughput_norm": fleet.throughput,
            "shed_structured_ratio": fleet.shed_structured_ratio,
        },
        "raw_seconds": {
            "verify_sequential_8": seq_time,
            "verify_batch_warm_8": warm_time,
            "verify_batch_warm_8_guarded": guarded_time,
            "c14n_manifest": c14n_time,
            "sign_detached": sign_time,
            "audit_8sig": audit_time,
            "script_run": script_run_time,
            "parse_cluster": parse_time / parse_repeat,
            "analyze_cold": analyze_cold_time,
            "analyze_warm": analyze_warm_time,
            "journal_commit_50": journal_commit_time,
            "recovery_50": recovery_time,
        },
        "fleet_summary": fleet.summary(),
    }


def compare(current: dict, baseline: dict, threshold: float) -> list[str]:
    """Regression messages (empty = within threshold)."""
    problems = []
    for name, value in current.items():
        base = baseline.get(name)
        direction = DIRECTIONS.get(name)
        if base is None or direction is None or base == 0:
            continue
        drift = value / base - 1.0
        if direction == "exact" and value != base:
            message = (
                f"{name}: {value!r} != pinned baseline {base!r} "
                "(exact gate; any drift is a regression)"
            )
            problems.append(message)
        elif direction == "lower" and value > base * (1.0 + threshold):
            message = (
                f"{name}: {value:.3f} vs baseline {base:.3f} "
                f"(+{drift * 100:.0f}%, limit +{threshold * 100:.0f}%)"
            )
            problems.append(message)
        elif direction == "higher" and value < base * (1.0 - threshold):
            message = (
                f"{name}: {value:.3f} vs baseline {base:.3f} "
                f"({drift * 100:.0f}%, limit -{threshold * 100:.0f}%)"
            )
            problems.append(message)
    return problems


def write_summary(handle, results: dict, baseline: dict,
                  threshold: float) -> None:
    """Write a markdown drift table (for ``$GITHUB_STEP_SUMMARY``)."""
    legs = ", ".join(results.get("provider_legs", ["pure"]))
    handle.write("## Benchmark drift\n\n")
    handle.write(f"Provider legs: {legs}\n\n")
    handle.write("| metric | current | baseline | drift | gate |\n")
    handle.write("|---|---:|---:|---:|---|\n")
    base_metrics = baseline.get("metrics", {})
    for name, value in sorted(results["metrics"].items()):
        base = base_metrics.get(name)
        direction = DIRECTIONS.get(name)
        if base is None or direction is None or base == 0:
            handle.write(
                f"| {name} | {value:.4f} | — | — | untracked |\n"
            )
            continue
        drift = value / base - 1.0
        if direction == "exact":
            bad = value != base
        elif direction == "lower":
            bad = value > base * (1.0 + threshold)
        else:
            bad = value < base * (1.0 - threshold)
        verdict = "REGRESSED" if bad else "ok"
        handle.write(
            f"| {name} | {value:.4f} | {base:.4f} "
            f"| {drift * 100:+.1f}% | {verdict} |\n"
        )
    handle.write("\n")


def trajectory_paths(directory: str) -> list[str]:
    """The ``BENCH_PR<N>.json`` files in *directory*, in PR order."""
    found = []
    for name in os.listdir(directory):
        match = re.fullmatch(r"BENCH_PR(\d+)\.json", name)
        if match:
            found.append((int(match.group(1)), name))
    return [os.path.join(directory, name) for _, name in sorted(found)]


def write_trajectory(handle, paths: list[str]) -> None:
    """Write a markdown table: one row per gated metric, one column
    per artifact in *paths* (``—`` where an artifact lacks it)."""
    labels, columns = [], []
    for path in paths:
        name = os.path.basename(path)
        labels.append(name.removeprefix("BENCH_").removesuffix(".json"))
        with open(path) as handle_in:
            columns.append(json.load(handle_in).get("metrics", {}))
    handle.write("## Benchmark trajectory\n\n")
    handle.write("| metric | " + " | ".join(labels) + " |\n")
    handle.write("|---|" + "---:|" * len(labels) + "\n")
    for name in sorted(DIRECTIONS):
        cells = [
            f"{column[name]:.4f}" if name in column else "—"
            for column in columns
        ]
        handle.write(f"| {name} | " + " | ".join(cells) + " |\n")
    handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default="BENCH_PR19.json",
        help="result artifact path",
    )
    parser.add_argument(
        "--summary",
        help="also write a markdown drift table to this path "
             "(defaults to $GITHUB_STEP_SUMMARY when set)",
    )
    parser.add_argument(
        "--baseline",
        default=BASELINE_PATH,
        help="committed baseline to compare against",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed relative regression (0.20 = 20%%)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from this run",
    )
    args = parser.parse_args(argv)

    results = run_benchmarks()
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    for name, value in sorted(results["metrics"].items()):
        print(f"  {name:28s} {value:10.3f}")

    if args.update_baseline:
        baseline_payload = {
            "metrics": results["metrics"],
            "threshold": args.threshold,
        }
        with open(args.baseline, "w") as handle:
            json.dump(baseline_payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    if not os.path.exists(args.baseline):
        message = (
            f"no baseline at {args.baseline}; "
            "run with --update-baseline to create one"
        )
        print(message, file=sys.stderr)
        return 1
    with open(args.baseline) as handle:
        baseline = json.load(handle)

    trajectory = io.StringIO()
    write_trajectory(trajectory, trajectory_paths(REPO_ROOT))
    summary_path = args.summary or os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            write_summary(handle, results, baseline, args.threshold)
            handle.write(trajectory.getvalue())
        print(f"drift and trajectory tables appended to {summary_path}")
    print(trajectory.getvalue(), end="")

    problems = compare(
        results["metrics"],
        baseline.get("metrics", {}),
        args.threshold,
    )
    if problems:
        print("benchmark regressions detected:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    baseline_name = os.path.basename(args.baseline)
    print(f"no benchmark regressions against {baseline_name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
