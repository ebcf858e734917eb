"""Differential tests: pipeline simulation ≡ reference VM.

The central correctness claim of the whole compiler — the generated
pipeline computes the same function as sequential eBPF execution. Every
app's trace against every engine is ``tests/test_matrix.py``; the
per-app tests here each run the VM against the default pipeline engine
as one of its cells. The rest is what the cells do not cover:
injection spacings between line rate and one packet in flight, every
compiler-option corner, and dnat's line-rate divergence, held to
exactly what its consistency verdict exempts.
"""

import pytest

from repro.apps import dnat
from repro.core import CompileOptions, compile_program
from repro.hwsim import compare_runs, run_differential
from repro.net.packet import udp_packet
from tests.cases import CASES
from tests.test_matrix import check_cell

TOY = CASES["toy_counter"]


class TestToyCounter:
    # the case's trace holds both: keyed frames and the short frames
    # that take the implicit drop paths
    def test_mixed_traffic(self):
        check_cell("toy_counter", "path_parallel", "vm-codegen")

    def test_short_packets(self):
        check_cell("toy_counter", "path_parallel", "vm-codegen")

    @pytest.mark.parametrize("gap", [1, 3, 25])
    def test_various_injection_gaps(self, gap):
        run_differential(TOY.build(), TOY.frames, gap=gap).raise_on_mismatch()

    @pytest.mark.parametrize(
        "options",
        [
            CompileOptions(enable_ilp=False, enable_fusion=False),
            CompileOptions(enable_fusion=False),
            CompileOptions(enable_pruning=False),
            CompileOptions(elide_bounds_checks=False),
            CompileOptions(frame_size=32),
            CompileOptions(max_row_width=2),
        ],
        ids=[
            "no-ilp", "no-fusion", "no-pruning", "keep-bounds", "frame32",
            "vliw2",
        ],
    )
    def test_all_compiler_option_corners(self, options):
        run_differential(
            TOY.build(), TOY.frames, compile_options=options
        ).raise_on_mismatch()


class TestFirewall:
    # the trace ends on one allowed flow back to back, whose atomic
    # counters never flush: the case's flushes=False
    def test_mixed_verdicts(self):
        check_cell("firewall", "path_parallel", "vm-codegen")

    def test_atomic_counters_consistent_at_line_rate(self):
        check_cell("firewall", "path_parallel", "vm-codegen")


class TestRouter:
    def test_atomic_variant(self):
        check_cell("router", "path_parallel", "vm-codegen")

    # back-to-back routed packets share the stats slot: a RAW hazard on
    # every one, so flushes fire (flushes=True) and the count is exact
    def test_rmw_variant_with_flushes(self):
        check_cell("router_rmw", "path_parallel", "vm-codegen")

    def test_rmw_variant_back_to_back_flushes(self):
        check_cell("router_rmw", "path_parallel", "vm-codegen")


class TestTunnel:
    def test_encap_and_pass(self):
        check_cell("tunnel", "path_parallel", "vm-codegen")


class TestSuricata:
    def test_filter_and_counters(self):
        check_cell("suricata", "path_parallel", "vm-codegen")


class TestDnat:
    def _frames(self, repeats=3, flows=6):
        frames = []
        for i in range(flows):
            f = udp_packet(src_ip=f"10.1.0.{i + 1}", dst_ip="8.8.8.8",
                           sport=4000 + i, dport=53, size=64)
            frames += [f] * repeats
        return frames

    def test_spaced_out_fully_identical(self):
        # one packet in flight: bit-identical to the VM, the port
        # allocation counter included
        check_cell("dnat", "path_parallel", "vm-codegen-spaced")

    def test_line_rate_differs_only_where_the_relation_exempts(self):
        # Appendix A.2: a flushed first-of-flow packet replays its
        # committed port allocation, so later flows get other ports — in
        # the rewritten packets and in both bindings — while the verdicts
        # match. The consistency verdict exempts exactly those
        # observables, and only with packets in flight together.
        program = dnat.build()
        pipeline = compile_program(program)
        exempt = ("packet bytes", "map nat", "map ports", "map rnat")
        assert pipeline.consistency.exempt == exempt
        frames = self._frames()  # 6 flows x 3 back-to-back packets
        for gap, differing in ((1, 15), (10, 0)):
            res = run_differential(program, frames, pipeline=pipeline,
                                   gap=gap)
            res.raise_on_mismatch()
            assert list(res.not_compared.values()) == [exempt]
            found = compare_runs(*res.runs.values())
            assert sum(m.what == "packet bytes" for m in found) == differing
            assert {m.what for m in found} == (set(exempt) if differing
                                               else set())
        spaced = run_differential(program, frames, pipeline=pipeline,
                                  gap=pipeline.n_stages)
        assert spaced.ok and not spaced.not_compared


class TestDiffInfrastructure:
    def test_mismatch_reporting(self):
        from repro.hwsim import DiffResult, Mismatch

        result = DiffResult(packets=1, mismatches=[Mismatch(0, "action", 1, 2)])
        assert not result.ok
        with pytest.raises(AssertionError, match="action"):
            result.raise_on_mismatch()
