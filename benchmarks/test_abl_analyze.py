"""ABL-ANALYZE — the one analysis command, cold vs. warm.

``repro.tools analyze`` parses each module once, runs the invariant
(LIN) pack on the tree, lowers the same tree to the callgraph IR and
runs the taint (TNT), concurrency (CON) and lifecycle (LIF) rule packs
over it (DESIGN.md §8); CI runs it as a blocking gate.  The bench times
the cold run (parsing, lowering and all four packs, starting from an
empty cache file) and the warm run (an unchanged tree answered from
the run-level memo), and reports the parse, lowering and LIN time and
each whole-program pack's engine time of the last cold run.
``bench_regression.py`` gates the normalized cold time
(``analyze_cold_norm``) and the warm/cold ratio (``analyze_warm_ratio``).
"""

import os

from _workloads import measure, report
from repro.analysis.interproc import AnalysisCache, analyze_paths

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def test_abl_analyze(tmp_path):
    cache_path = str(tmp_path / "interproc-cache.json")
    timings = {}

    def cold():
        if os.path.exists(cache_path):
            os.remove(cache_path)
        return analyze_paths(
            [SRC], cache=AnalysisCache(cache_path), timings=timings
        )

    result = cold()
    assert result.scanned > 100, "workload lost its modules"
    cold_time = measure(cold, warmup=0, repeat=3)

    warm_hits = []

    def warm():
        cache = AnalysisCache(cache_path)
        out = analyze_paths([SRC], cache=cache)
        warm_hits.append(cache.run_hit)
        return out

    warm_time = measure(warm, warmup=1, repeat=5)
    assert all(warm_hits), "warm run missed the run-level cache"

    ratio = warm_time / cold_time
    assert ratio < 0.5, (
        f"warm analyze run is not measurably faster than cold "
        f"(ratio {ratio:.2f})"
    )

    lines = [
        f"modules analyzed: {result.scanned}",
        f"cold (lowering + LIN/TNT/CON/LIF packs): {cold_time * 1000:.1f} ms",
        f"  parse, LIN pack and IR lowering: {timings['lower'] * 1000:.1f} ms",
        f"  TNT pack (taint fixpoint): {timings['TNT'] * 1000:.1f} ms",
        f"  CON pack (root walk): {timings['CON'] * 1000:.1f} ms",
        f"  LIF pack (lifecycle scans): {timings['LIF'] * 1000:.1f} ms",
        f"warm (run-level cache hit): {warm_time * 1000:.1f} ms",
        f"warm/cold ratio: {ratio:.3f}",
    ]
    report("ABL-ANALYZE", lines)
