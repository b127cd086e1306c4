"""One analysis run: the LIN pack over each parsed module and
the three interprocedural packs over one lowered program, and the
clean-repo gate that keeps ``repro.tools analyze src`` green."""

import textwrap

from repro.analysis import analyze_modules

UNTRUSTED_RELAY = """
from repro.xmlcore.parser import parse_element

def handle(client, interp):
    interp.run(parse_element(client.fetch("x")))
"""

SHARED_STATE = """
import asyncio

class Registry:
    def __init__(self):
        self.count = 0

    def bump(self):
        self.count = self.count + 1

def main(pool):
    registry = Registry()
    pool.submit(registry.bump)

async def serve(work):
    asyncio.create_task(work())
"""


def test_one_run_merges_every_pack_in_sorted_order():
    findings = analyze_modules({
        "src/repro/network/example.py": textwrap.dedent(UNTRUSTED_RELAY),
        "src/repro/perf/cache.py": textwrap.dedent(SHARED_STATE),
    }).findings
    # The unguarded parse on the network path is also a LIN106.
    assert {f.rule_id for f in findings} == {
        "LIN106", "TNT201", "CON301", "LIF401"}
    keys = [(f.location, f.line, f.rule_id) for f in findings]
    assert keys == sorted(keys)


def test_repo_clean_modulo_baseline(repo_above_baseline):
    """`repro.tools analyze src`: no finding of any pack above the
    committed baseline."""
    kept = repo_above_baseline()
    assert kept.findings == [], [f.render() for f in kept.findings]
    assert kept.scanned > 100
