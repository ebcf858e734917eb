"""§5.1 / §5.2 / §5.4 textual results: expressiveness, energy, pruning.

* §5.1 — SDNet cannot implement the DNAT; eHDL beats the processor-based
  systems by 10-100x in throughput.
* §5.2 — wall power: 80-85 W with the U50 regardless of the flashed
  design, 100-105 W with the Bf2.
* §5.4 — disabling state pruning costs +46% LUTs, +66% FFs, +123% BRAM
  on the running example's pipeline (without the Corundum overhead).
"""

from dataclasses import replace

import pytest

from conftest import PAPER_OPTIONS, print_table
from repro.analysis import bluefield_power, fpga_power
from repro.apps import EVALUATION_APPS, toy_counter
from repro.baselines import (
    P4_PORTS,
    SdnetCompiler,
    SdnetUnsupportedError,
    compile_for_hxdp,
)
from repro.baselines.hxdp import HXDP_RESOURCES
from repro.core import compile_program
from repro.core.resources import estimate_resources


class TestSec51Expressiveness:
    def test_sdnet_cannot_express_dnat(self):
        with pytest.raises(SdnetUnsupportedError, match="data.plane"):
            SdnetCompiler().compile(P4_PORTS["dnat"]())

    def test_ehdl_compiles_all_five(self, pipelines):
        assert len(pipelines) == 5

    def test_bench_speedup_table(self, benchmark):
        def speedups():
            out = {}
            for name, mod in EVALUATION_APPS.items():
                hxdp = compile_for_hxdp(mod.build())
                out[name] = 148.8 / hxdp.throughput_mpps
            return out

        result = benchmark(speedups)
        print_table(
            "§5.1: eHDL speedup over hXDP",
            ["app", "speedup"],
            [[k, f"{v:.0f}x"] for k, v in result.items()],
        )
        assert all(10 <= v <= 300 for v in result.values())


class TestSec52Energy:
    @pytest.fixture(scope="class")
    def power_rows(self, pipelines):
        rows = []
        for name, pipe in pipelines.items():
            est = estimate_resources(pipe)
            rows.append(["eHDL/" + name, fpga_power(est.luts, 148.8).watts])
        rows.append(["hXDP", fpga_power(HXDP_RESOURCES.luts, 3.0).watts])
        rows.append(["Bf2 (4 cores)", bluefield_power(4, 10.0).watts])
        print_table("§5.2: wall power (W)", ["system", "watts"],
                    [[n, f"{w:.1f}"] for n, w in rows])
        return rows

    def test_u50_band(self, power_rows):
        fpga = [w for n, w in power_rows if n != "Bf2 (4 cores)"]
        assert all(78 <= w <= 87 for w in fpga)
        # "little variation" across flashed designs
        assert max(fpga) - min(fpga) < 3

    def test_bf2_band(self, power_rows):
        bf2 = dict((n, w) for n, w in power_rows)["Bf2 (4 cores)"]
        assert 98 <= bf2 <= 107

    def test_bench_power_model(self, benchmark, power_rows):
        benchmark(lambda: fpga_power(70_000, 148.8).nj_per_packet)


class TestSec54Pruning:
    @pytest.fixture(scope="class")
    def ablation(self):
        prog = toy_counter.build()
        pruned = estimate_resources(compile_program(prog, PAPER_OPTIONS),
                                    include_shell=False)
        unpruned = estimate_resources(
            compile_program(
                prog, replace(PAPER_OPTIONS, enable_pruning=False)),
            include_shell=False,
        )
        deltas = {
            "lut": unpruned.luts / pruned.luts - 1,
            "ff": unpruned.ffs / pruned.ffs - 1,
            "bram": unpruned.bram36 / pruned.bram36 - 1,
        }
        print_table(
            "§5.4: state pruning ablation (pipeline only, no shell)",
            ["resource", "pruned", "unpruned", "delta"],
            [
                ["LUT", pruned.luts, unpruned.luts, f"+{100 * deltas['lut']:.0f}%"],
                ["FF", pruned.ffs, unpruned.ffs, f"+{100 * deltas['ff']:.0f}%"],
                ["BRAM36", pruned.bram36, unpruned.bram36,
                 f"+{100 * deltas['bram']:.0f}%"],
            ],
        )
        return deltas

    def test_deltas_match_paper_shape(self, ablation):
        # paper: +46% LUT, +66% FF, +123% BRAM — same ordering, same scale
        assert 0.15 <= ablation["lut"] <= 0.9
        assert 0.25 <= ablation["ff"] <= 1.2
        assert 0.4 <= ablation["bram"] <= 2.5
        assert ablation["lut"] < ablation["ff"] < ablation["bram"]

    def test_bench_ablation(self, benchmark, ablation):
        prog = toy_counter.build()
        benchmark(
            lambda: estimate_resources(
                compile_program(
                    prog, replace(PAPER_OPTIONS, enable_pruning=False)),
                include_shell=False,
            )
        )
