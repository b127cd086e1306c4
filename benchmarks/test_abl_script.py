"""ABL-SCRIPT — Ablation: the script front end on the launch path.

The player's launch path runs each application's ECMAScript (§8.1)
through three stages: the scanner (one compiled regex over the
source), the table-driven parser, and the tree-walking interpreter.
This bench times each stage of a pinned 70-line menu script of the
player-session shape, so a change to one stage shows in its own row.

Rows: lex (scan), lex+parse, execute and a full run (lex, parse,
execute), each as a median over 25 interleaved rounds and as a share
of the run, with the run's instruction count, which the front end and
the walker must not change.  A round's execute sample is its run less
its lex+parse, two calls timed back to back.
"""

import statistics
import time

from _workloads import (
    pinned_script,
    report,
    run_pinned_script,
)
from repro.markup.script_lexer import scan
from repro.markup.script_parser import parse_script

SOURCE, OUTPUT = pinned_script(70)

#: Instructions the pinned script executes; the front end produces the
#: same AST, so any change here is a change of behaviour.
INSTRUCTIONS = 1771


def test_ablscript_output_and_instructions():
    console, instructions = run_pinned_script(SOURCE)
    assert console == [OUTPUT]
    assert instructions == INSTRUCTIONS


def test_ablscript_lex(benchmark):
    tags, _, _ = benchmark(lambda: scan(SOURCE))
    assert tags[-1] == "eof"


def test_ablscript_parse(benchmark):
    program = benchmark(lambda: parse_script(SOURCE))
    assert program[0] == "program"


def test_ablscript_run(benchmark):
    console, _ = benchmark(lambda: run_pinned_script(SOURCE))
    assert console == [OUTPUT]


def test_ablscript_stage_breakdown():
    # The three stages are sampled in turn, round after round, so a
    # slow spell on a shared machine hits each of them alike.
    stages = {
        "lex": lambda: scan(SOURCE),
        "lex+parse": lambda: parse_script(SOURCE),
        "run": lambda: run_pinned_script(SOURCE),
    }
    samples = {name: [] for name in (*stages, "execute")}
    for _ in range(3):
        for fn in stages.values():
            fn()
    for _ in range(25):
        for name, fn in stages.items():
            start = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - start)
        samples["execute"].append(samples["run"][-1]
                                  - samples["lex+parse"][-1])
    median = {name: statistics.median(samples[name])
              for name in ("lex", "lex+parse", "execute", "run")}
    run = median["run"]
    rows = [
        f"{name:10s} {seconds * 1e3:7.3f}ms ({seconds / run * 100:5.1f}%)"
        for name, seconds in median.items()
    ]
    tokens = len(scan(SOURCE)[0])
    rows.append(f"70 lines, {tokens} tokens, {INSTRUCTIONS} instructions")
    report("ABL-SCRIPT script front end (pinned 70-line script)", rows)
    assert median["lex"] < median["lex+parse"] < run
