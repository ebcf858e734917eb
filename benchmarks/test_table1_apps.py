"""Table 1: the evaluation application inventory.

Checks that each of the paper's five applications exists, verifies,
compiles, and matches its one-line description; also times a full
compile of the whole suite (the "few seconds" claim of §6: "eHDL could
readily generate the hardware design … in few seconds").
"""

import time

import pytest

from conftest import PAPER_OPTIONS, print_table
from repro.apps import EVALUATION_APPS
from repro.core import compile_program
from repro.ebpf.verifier import verify

DESCRIPTIONS = {
    "firewall": "checks the bidirectional connectivity for UDP flows",
    "router": "parse pkt headers up to IP, look up in routing table and forward",
    "tunnel": "parse pkt up to L4, encapsulate and XDP_TX",
    "dnat": "an application performing dynamic source NAT",
    "suricata": "an Intrusion Detection System early filter",
}


@pytest.fixture(scope="module")
def table1(pipelines):
    rows = []
    for name, mod in EVALUATION_APPS.items():
        prog = mod.build()
        verify(prog)
        rows.append([name, len(prog.instructions), len(prog.maps),
                     pipelines[name].n_stages, DESCRIPTIONS[name]])
    print_table(
        "Table 1: applications used for evaluation",
        ["program", "instrs", "maps", "stages", "description"],
        rows,
    )
    return rows


def _check(rows):
    assert len(rows) == 5
    for name, n_instr, n_maps, n_stages, _desc in rows:
        assert n_instr > 20, name  # real programs, not stubs
        assert n_maps >= 1, name
        assert n_stages > 10, name


class TestTable1:
    def test_inventory(self, table1):
        _check(table1)

    def test_generation_takes_seconds_not_hours(self, table1):
        # §6: generating all designs takes seconds (synthesis is what
        # takes hours on a real FPGA flow)
        start = time.monotonic()
        for mod in EVALUATION_APPS.values():
            compile_program(mod.build(), PAPER_OPTIONS)
        assert time.monotonic() - start < 30

    def test_bench_full_suite_compile(self, benchmark, table1):
        _check(table1)
        programs = [mod.build() for mod in EVALUATION_APPS.values()]
        benchmark(lambda: [compile_program(p, PAPER_OPTIONS)
                           for p in programs])
