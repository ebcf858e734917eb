"""Analytical flush model (Appendix A.1) and energy model tests."""

import math

import pytest

from repro.analysis import (
    analyze_pipeline,
    bluefield_power,
    fpga_power,
    k_max,
    pipeline_throughput,
    table4,
    uniform_flush_probability,
    zipf_flush_probability,
)
from repro.apps import (ct_firewall, dnat, firewall, leaky_bucket, router,
                        syn_cookie)
from repro.core import CompileOptions, compile_program


class TestUniformModel:
    def test_birthday_formula(self):
        # P = 1 - exp(-L^2/2N)
        assert uniform_flush_probability(10, 1000) == pytest.approx(
            1 - math.exp(-100 / 2000)
        )

    def test_no_window_no_flush(self):
        assert uniform_flush_probability(0, 1000) == 0.0
        assert uniform_flush_probability(1, 1000) == 0.0

    def test_more_flows_less_flush(self):
        assert uniform_flush_probability(5, 100_000) < uniform_flush_probability(5, 100)

    def test_longer_window_more_flush(self):
        assert uniform_flush_probability(10, 1000) > uniform_flush_probability(2, 1000)


class TestZipfModel:
    def test_probability_in_unit_interval(self):
        for L in (2, 5, 20):
            p = zipf_flush_probability(L, 50_000)
            assert 0.0 <= p <= 1.0

    def test_monotone_in_window(self):
        probs = [zipf_flush_probability(L, 50_000) for L in (2, 3, 4, 5)]
        assert probs == sorted(probs)

    def test_table4_shape(self):
        # paper Table 4: L=2: ~1%/K~61; L=5: ~10%/K~7
        rows = table4()
        assert [r["L"] for r in rows] == [2, 3, 4, 5]
        assert 0.005 < rows[0]["p_flush"] < 0.03
        assert 0.07 < rows[3]["p_flush"] < 0.15
        assert 30 < rows[0]["k_max"] < 80
        assert 4 < rows[3]["k_max"] < 12
        k_values = [r["k_max"] for r in rows]
        assert k_values == sorted(k_values, reverse=True)

    def test_truncated_sum_close(self):
        full = zipf_flush_probability(4, 20_000)
        truncated = zipf_flush_probability(4, 20_000, max_terms=2_000)
        assert truncated == pytest.approx(full, rel=0.05)


class TestThroughputEquations:
    def test_no_flush_full_rate(self):
        assert pipeline_throughput(100, 0.0) == 250.0

    def test_equation_2(self):
        # T_p = T / ((1-P) + K P)
        assert pipeline_throughput(50, 0.1) == pytest.approx(250 / (0.9 + 5.0))

    def test_k_max_inverts_throughput(self):
        p = 0.02
        k = k_max(p, target_mpps=148.8)
        assert pipeline_throughput(int(k), p) == pytest.approx(148.8, rel=0.02)

    def test_k_max_infinite_without_hazard(self):
        assert k_max(0.0) == math.inf


class TestPipelineAnalysis:
    def test_firewall_not_applicable(self):
        # Table 3: Simple firewall has no flushable hazard (atomics only)
        analysis = analyze_pipeline(compile_program(firewall.build()))
        assert not analysis.applicable
        assert "N/A" in analysis.row()

    def test_rmw_router_analysis(self):
        analysis = analyze_pipeline(
            compile_program(router.build(use_atomic=False))
        )
        assert analysis.applicable
        assert analysis.L >= 2
        assert analysis.K > analysis.L
        assert 0 < analysis.throughput_mpps <= 250

    def test_dnat_long_window(self):
        analysis = analyze_pipeline(compile_program(dnat.build()))
        assert analysis.applicable
        assert analysis.L >= 8  # the lookup->update distance is long

    def test_dnat_keeps_its_row(self):
        analysis = analyze_pipeline(compile_program(dnat.build()))
        assert (analysis.K, analysis.L) == (22, 12)

    @pytest.mark.parametrize(
        "app", [ct_firewall, leaky_bucket, syn_cookie],
        ids=lambda module: module.__name__.rsplit(".", 1)[-1])
    def test_window_only_flush_blocks_are_not_applicable(self, app):
        # every flush block sits inside a serialization window, where one
        # packet at a time never fires it: the pipeline simulates with 0
        # flushes, so A.1 has no K and L to give
        pipeline = compile_program(app.build())
        assert any(plan.flush_blocks
                   for plan in pipeline.map_hazards.values())
        analysis = analyze_pipeline(pipeline)
        assert not analysis.applicable and analysis.windowed
        assert "window, no live flush block" in analysis.row()

    def test_paper_layout_leaky_bucket_flushes(self):
        # §3.3's one block per stage keeps leaky_bucket's flush blocks live
        analysis = analyze_pipeline(compile_program(
            leaky_bucket.build(), CompileOptions(path_parallel=False)))
        assert (analysis.K, analysis.L) == (27, 17)

    def test_uniform_vs_zipf(self):
        pipe = compile_program(router.build(use_atomic=False))
        z = analyze_pipeline(pipe, distribution="zipf")
        u = analyze_pipeline(pipe, distribution="uniform")
        assert u.p_flush < z.p_flush  # Zipf concentrates traffic

    def test_unknown_distribution(self):
        pipe = compile_program(router.build(use_atomic=False))
        with pytest.raises(ValueError):
            analyze_pipeline(pipe, distribution="pareto")


class TestEnergy:
    def test_u50_host_power_band(self):
        # "80-85W when the system under test hosts the Xilinx Alveo U50"
        report = fpga_power(active_luts=70_000, throughput_mpps=148.8)
        assert 78 <= report.watts <= 87

    def test_bf2_host_power_band(self):
        # "100-105W when hosting the Bf2"
        report = bluefield_power(active_cores=4, throughput_mpps=10)
        assert 98 <= report.watts <= 107

    def test_little_variation_across_designs(self):
        small = fpga_power(45_000, 148.8)
        large = fpga_power(120_000, 148.8)
        assert abs(large.watts - small.watts) < 2

    def test_energy_per_packet_favours_fpga(self):
        fpga = fpga_power(70_000, 148.8)
        bf2 = bluefield_power(4, 10.0)
        assert fpga.nj_per_packet < bf2.nj_per_packet / 10
