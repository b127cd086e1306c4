"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload player-session --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload again with span wrappers installed on alternate blocks of
operations and reports the per-layer metrics.  Both lists, with their
units, come from ``BENCHMARK.json``.  Human-readable lines go first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when the oracle found a wrong answer, 2 when the program cannot
be found or run.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("player-session", "studio-release", "xkms-service")

#: Per-layer ``.ms`` metrics: the span names whose self time they sum.
SPAN_TIMES = (
    "xmlcore.parse", "xmlcore.c14n", "xmlcore.serialize",
    "primitives.rsa.sign", "primitives.rsa.verify",
    "primitives.rsa.unwrap", "primitives.fingerprint", "certs.chain",
    "dsig.verify", "dsig.sign", "perf.batch", "xmlenc.decrypt",
    "xmlenc.encrypt", "core.open_package", "core.build_package",
    "core.sign_disc", "disc.master", "markup.script", "markup.smil",
    "permissions.decide", "player.insert", "player.launch",
    "player.execute", "network.handshake", "network.mux.call",
    "network.mux.dispatch", "resilience.shield",
    "resilience.admission_wait", "resilience.retry", "xkms.client",
    "xkms.handle", "xkms.shard", "xkms.codec", "analysis.audit",
)
#: Per-layer ``.calls`` metrics: outermost spans of that name per op.
SPAN_CALLS = (
    "primitives.rsa.sign", "primitives.rsa.verify",
    "primitives.rsa.unwrap", "primitives.fingerprint", "certs.chain",
    "dsig.verify", "dsig.sign",
)
LAYERS = ("xmlcore", "primitives", "certs", "dsig", "perf", "xmlenc",
          "core", "disc", "markup", "permissions", "player", "network",
          "resilience", "xkms", "analysis")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ["REPRO_PROVIDER"] = "accelerated"
    sys.path[:0] = [str(ROOT), str(src)]
    from repro.primitives.provider import get_provider
    if get_provider().name != "accelerated":
        print("perfbench: the accelerated provider is unavailable",
              file=sys.stderr)
        return 2

    from perfbench import player_session, studio_release, xkms_service
    from perfbench.trace import Tracer
    module = {"player-session": player_session,
              "studio-release": studio_release,
              "xkms-service": xkms_service}[args.workload]
    tracer = Tracer() if args.trace else None
    outcome = module.run(args.seed, args.seconds, tracer)

    if args.trace:
        declared = spec["per_layer"]
        values = per_layer(outcome, tracer, module)
        write_spans(tracer, outcome, args)
    else:
        declared = spec["end_to_end"]
        values = end_to_end(outcome)
    unknown = sorted(set(values) - {m["name"] for m in declared})
    if unknown:
        raise SystemExit(f"perfbench: undeclared metrics {unknown}")
    report(outcome, module, values, declared)
    result = {
        "correct": not outcome.mismatches,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def end_to_end(outcome) -> dict:
    from perfbench.common import KERNEL_REFERENCE_S, peak_rss_mb
    if not (len(outcome.op) and len(outcome.op2)):
        outcome.mismatch("no operation completed correctly")
        return {}
    # The tails and the rate are printed by report() but not gated:
    # on xkms-service they varied more between identical runs than any
    # bound the benchmark may set (see perfbench/provenance.json).
    return {
        "setup_s": statistics.median(outcome.setup_cal)
        * KERNEL_REFERENCE_S,
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": (outcome.attempted - outcome.failed)
        / outcome.attempted,
        "op_p50": outcome.op.summary(outcome.calibration)["p50_cal"],
        "op2_p50": outcome.op2.summary(outcome.calibration)["p50_cal"],
    }


def per_layer(outcome, tracer, module) -> dict:
    from perfbench.trace import attribute
    spans = attribute(tracer.spans, outcome.traced)
    n = spans.requests
    if not (n and len(outcome.op)):
        outcome.mismatch("no traced and untraced operations to compare")
        return {}
    values = {f"{name}.ms": spans.self_s.get(name, 0.0) / n * 1e3
              for name in SPAN_TIMES}
    values.update({f"{name}.calls": spans.calls.get(name, 0) / n
                   for name in SPAN_CALLS})
    values["xmlcore.parse.bytes"] = spans.values.get("xmlcore.parse",
                                                     0.0) / n
    values["markup.script.instructions"] = spans.values.get(
        "markup.script", 0.0) / n
    layer_s = spans.layer_s()
    for layer in LAYERS:
        values[f"layer.{layer}.share"] = layer_s.get(layer, 0.0) \
            / spans.root_s
    values["bench.unattributed_share"] = spans.unattributed_s / spans.root_s
    values["bench.traced_ops"] = n
    values["bench.trace_overhead"] = \
        outcome.traced_op.summary(outcome.calibration)["p50_cal"] \
        / outcome.op.summary(outcome.calibration)["p50_cal"]
    values["bench.calibration"] = outcome.notes["calibration_ms"]
    values.update(outcome.layers)
    limit = module.UNATTRIBUTED_LIMIT
    if values["bench.unattributed_share"] > limit:
        outcome.mismatch(
            f"layer self times leave {values['bench.unattributed_share']:.1%}"
            f" of the traced time unattributed (limit {limit:.0%})")
    return values


def write_spans(tracer, outcome, args) -> None:
    """Write the traced requests' spans (times relative to the first)."""
    spans = [s for s in tracer.spans if s.rid in outcome.traced]
    origin = min((s.start for s in spans), default=0.0)
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    with gzip.open(path, "wt") as handle:
        for s in spans:
            handle.write(json.dumps([
                s.name, round((s.start - origin) * 1e6, 1),
                round((s.end - s.start) * 1e6, 1), s.parent, s.sid,
                s.thread, str(s.rid), s.value]) + "\n")


def report(outcome, module, values, declared) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    print(f"workload {outcome.workload}: attempted {outcome.attempted}, "
          f"succeeded {outcome.attempted - outcome.failed}, failed "
          f"{outcome.failed}, expected rejections "
          f"{outcome.expected_rejections}")
    for key, value in sorted(outcome.notes.items()):
        print(f"  {key}: {value:.4g}" if isinstance(value, float)
              else f"  {key}: {value}")
    print(f"  setup: {statistics.median(outcome.setup_raw_s):.3f} s raw "
          f"(median of {len(outcome.setup_raw_s)})")
    op_label, op2_label, rate_label = module.LABELS
    for label, latencies in ((op_label, outcome.op),
                             (op2_label, outcome.op2)):
        if len(latencies):
            s = latencies.summary(outcome.calibration)
            print(f"  {label}_p50 = {s['p50_cal']:.3f} cal "
                  f"({s['p50_ms']:.3f} ms raw); {label}_tail "
                  f"({s['tail']} of {s['samples']} undisturbed of "
                  f"{s['of']}) = {s['tail_cal']:.3f} cal "
                  f"({s['tail_ms']:.3f} ms raw)")
    if outcome.rate:
        print(f"  {rate_label} = {outcome.rate:.4g} per 1000 cal")
    for name in sorted(values):
        print(f"  {name} = {values[name]:.6g} {units[name]}")
    for what in outcome.mismatches[:20]:
        print(f"  ORACLE MISMATCH: {what}")


if __name__ == "__main__":
    sys.exit(main())
