"""Figure 9c: eHDL pipeline stages vs hXDP VLIW instructions vs original
eBPF instruction count, per application.

Paper result: both compilers reduce the original instruction count,
sometimes by about 50%; the eHDL stage count tracks the hXDP bundle count
closely (same ILP extraction), modulo helper-block stages.
"""

import pytest

from conftest import PAPER_OPTIONS, print_table
from repro.apps import EVALUATION_APPS
from repro.baselines import compile_for_hxdp
from repro.core import compile_program


@pytest.fixture(scope="module")
def figure9c(pipelines):
    rows = {}
    for name, mod in EVALUATION_APPS.items():
        prog = mod.build()
        pipeline = pipelines[name]
        hxdp = compile_for_hxdp(prog)
        rows[name] = {
            "stages": pipeline.n_stages,
            "hxdp_instr": hxdp.vliw_instructions,
            "original": len(prog.instructions),
        }
    print_table(
        "Figure 9c: pipeline stages vs instruction counts",
        ["app", "eHDL stages", "hXDP instr", "original instr"],
        [[name, r["stages"], r["hxdp_instr"], r["original"]]
         for name, r in rows.items()],
    )
    return rows


def _check(rows):
    for name, row in rows.items():
        # both backends compress the original program
        assert row["stages"] < row["original"], name
        assert row["hxdp_instr"] < row["original"], name
        # eHDL stages and hXDP bundles track each other (same ILP source);
        # eHDL may add helper-latency and framing stages on top
        assert 0.5 <= row["stages"] / row["hxdp_instr"] <= 2.0, name
    # at least one app compresses strongly (paper: "sometimes by about 50%")
    assert any(r["stages"] <= 0.6 * r["original"] for r in rows.values())


class TestFigure9c:
    def test_shape(self, figure9c):
        _check(figure9c)

    def test_bench_compilation(self, benchmark, figure9c):
        _check(figure9c)
        from repro.apps import tunnel

        prog = tunnel.build()
        benchmark(lambda: compile_program(prog, PAPER_OPTIONS))
