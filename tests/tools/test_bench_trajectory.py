"""The regression harness's trajectory table over committed artifacts."""

import importlib.util
import io
import json
import pathlib
import sys

BENCH_REGRESSION = (pathlib.Path(__file__).resolve().parents[2]
                    / "benchmarks" / "bench_regression.py")


def load_harness(monkeypatch):
    # The harness puts benchmarks/ on sys.path for its workloads.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_regression",
                                                  BENCH_REGRESSION)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trajectory_has_one_row_per_gate_and_one_column_per_pr(
        tmp_path, monkeypatch):
    harness = load_harness(monkeypatch)
    # BENCH_PR9 sorts before BENCH_PR18 by number, not by name; other
    # files and an untracked metric are ignored.
    (tmp_path / "BENCH_PR18.json").write_text(json.dumps({"metrics": {
        "batch_speedup": 5.25, "guard_overhead_ratio": 1.0,
        "not_a_gate": 3.0}}))
    (tmp_path / "BENCH_PR9.json").write_text(json.dumps({"metrics": {
        "batch_speedup": 4.5}}))
    (tmp_path / "BENCH_PR18.json.bak").write_text("{}")
    (tmp_path / "baseline.json").write_text("{}")

    paths = harness.trajectory_paths(str(tmp_path))
    assert [pathlib.Path(p).name for p in paths] == \
        ["BENCH_PR9.json", "BENCH_PR18.json"]

    out = io.StringIO()
    harness.write_trajectory(out, paths)
    lines = out.getvalue().splitlines()
    assert lines[:4] == ["## Benchmark trajectory", "",
                         "| metric | PR9 | PR18 |", "|---|---:|---:|"]
    rows = {line.split(" | ")[0][2:]: line for line in lines[4:] if line}
    assert sorted(rows) == sorted(harness.DIRECTIONS)
    assert rows["batch_speedup"] == "| batch_speedup | 4.5000 | 5.2500 |"
    assert rows["guard_overhead_ratio"] == \
        "| guard_overhead_ratio | — | 1.0000 |"
    assert rows["parse_cluster_norm"] == "| parse_cluster_norm | — | — |"
