"""Differential tests: pipeline simulation ≡ reference VM.

The central correctness claim of the whole compiler — the generated
pipeline computes the same function as sequential eBPF execution — over
all five evaluation applications, hazard-heavy workloads and every
compiler-option corner.
"""

import pytest

from repro.apps import dnat, firewall, router, suricata, toy_counter, tunnel
from repro.core import CompileOptions, compile_program
from repro.hwsim import compare_runs, run_differential
from repro.net.packet import (
    FiveTuple,
    ipv4,
    mac,
    tcp_packet,
    udp_packet,
)

F1 = FiveTuple(ipv4("10.0.0.1"), ipv4("192.168.0.1"), 17, 1000, 53)
F2 = FiveTuple(ipv4("10.0.0.2"), ipv4("192.168.0.2"), 17, 2000, 53)


class TestToyCounter:
    def test_mixed_traffic(self):
        frames = [toy_counter.packet_for_key(k) for k in (0, 1, 2, 3, 1, 1, 2) * 6]
        run_differential(toy_counter.build(), frames).raise_on_mismatch()

    def test_short_packets(self):
        frames = [toy_counter.packet_for_key(1), b"\x00" * 8, b"", bytes(13)]
        run_differential(toy_counter.build(), frames).raise_on_mismatch()

    @pytest.mark.parametrize("gap", [1, 3, 25])
    def test_various_injection_gaps(self, gap):
        frames = [toy_counter.packet_for_key(k % 4) for k in range(20)]
        run_differential(toy_counter.build(), frames, gap=gap).raise_on_mismatch()

    @pytest.mark.parametrize(
        "options",
        [
            CompileOptions(enable_ilp=False, enable_fusion=False),
            CompileOptions(enable_fusion=False),
            CompileOptions(enable_pruning=False),
            CompileOptions(elide_bounds_checks=False),
            CompileOptions(dead_code_elimination=False),
            CompileOptions(elide_ctx_loads=False),
            CompileOptions(frame_size=32),
            CompileOptions(max_row_width=2),
        ],
        ids=[
            "no-ilp", "no-fusion", "no-pruning", "keep-bounds",
            "no-dce", "no-ctx-elide", "frame32", "vliw2",
        ],
    )
    def test_all_compiler_option_corners(self, options):
        frames = [toy_counter.packet_for_key(k % 4) for k in range(16)]
        frames.append(b"\x00" * 10)  # short packet
        run_differential(
            toy_counter.build(), frames, compile_options=options
        ).raise_on_mismatch()


class TestFirewall:
    def _setup(self, maps):
        firewall.allow_flow(maps, F1)
        firewall.allow_flow(maps, F2)

    def test_mixed_verdicts(self):
        frames = []
        for ft in (F1, F1.reversed(), F2, FiveTuple(1, 2, 17, 3, 4)):
            frames.append(
                udp_packet(src_ip=ft.src_ip, dst_ip=ft.dst_ip,
                           sport=ft.sport, dport=ft.dport, size=64)
            )
        frames.append(tcp_packet(size=64))  # non-UDP -> PASS
        frames = frames * 8
        run_differential(
            firewall.build(), frames, setup=self._setup
        ).raise_on_mismatch()

    def test_atomic_counters_consistent_at_line_rate(self):
        frames = [udp_packet(src_ip=F1.src_ip, dst_ip=F1.dst_ip,
                             sport=F1.sport, dport=F1.dport, size=64)] * 50
        res = run_differential(firewall.build(), frames, setup=self._setup)
        res.raise_on_mismatch()
        assert res.hw_report.flush_events == 0


class TestRouter:
    def _setup(self, maps):
        router.add_route(maps, ipv4("192.168.1.1"), mac("02:00:00:00:01:01"),
                         mac("02:00:00:00:01:02"), 3)

    def _frames(self):
        return [
            udp_packet(dst_ip="192.168.1.200", size=64),  # routed
            udp_packet(dst_ip="8.8.8.8", size=64),        # no route
            udp_packet(dst_ip="192.168.1.4", size=64, ttl=1),  # ttl expired
        ] * 10

    def test_atomic_variant(self):
        run_differential(
            router.build(), self._frames(), setup=self._setup
        ).raise_on_mismatch()

    def test_rmw_variant_with_flushes(self):
        res = run_differential(
            router.build(use_atomic=False), self._frames(), setup=self._setup
        )
        res.raise_on_mismatch()

    def test_rmw_variant_back_to_back_flushes(self):
        # consecutive routed packets share the stats slot: the counter's
        # load sits inside the store's hazard window -> flushes fire, and
        # the count still comes out exact
        frames = [udp_packet(dst_ip="192.168.1.200", size=64)] * 30
        res = run_differential(
            router.build(use_atomic=False), frames, setup=self._setup
        )
        res.raise_on_mismatch()
        assert res.hw_report.flush_events > 0  # global-counter RAW hazard


class TestTunnel:
    def _setup(self, maps):
        tunnel.add_tunnel(maps, ipv4("192.168.0.50"), ipv4("100.0.0.1"),
                          ipv4("100.0.0.2"), mac("02:11:22:33:44:55"),
                          mac("02:66:77:88:99:aa"))

    def test_encap_and_pass(self):
        frames = [
            udp_packet(dst_ip="192.168.0.50", size=96),
            udp_packet(dst_ip="1.2.3.4", size=64),
            udp_packet(dst_ip="192.168.0.50", size=64),
        ] * 8
        run_differential(
            tunnel.build(), frames, setup=self._setup
        ).raise_on_mismatch()


class TestSuricata:
    BAD = FiveTuple(ipv4("6.6.6.6"), ipv4("192.168.0.1"), 17, 666, 53)

    def _setup(self, maps):
        suricata.add_bypass(maps, self.BAD)

    def test_filter_and_counters(self):
        frames = [
            udp_packet(src_ip=self.BAD.src_ip, dst_ip=self.BAD.dst_ip,
                       sport=self.BAD.sport, dport=self.BAD.dport, size=64),
            udp_packet(src_ip="10.0.0.3", size=64),
            tcp_packet(src_ip="10.0.0.4", size=64),
        ] * 10
        run_differential(
            suricata.build(), frames, setup=self._setup
        ).raise_on_mismatch()


class TestDnat:
    def _frames(self, repeats=3, flows=6):
        frames = []
        for i in range(flows):
            f = udp_packet(src_ip=f"10.1.0.{i + 1}", dst_ip="8.8.8.8",
                           sport=4000 + i, dport=53, size=64)
            frames += [f] * repeats
        return frames

    def test_spaced_out_fully_identical(self):
        # with no overlap in the pipeline the HW is bit-identical to the
        # VM, including the port-allocation counter
        run_differential(dnat.build(), self._frames(), gap=60).raise_on_mismatch()

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
