"""VHDL backend, resource model, and NIC shell tests."""

import struct

import pytest

from repro.apps import EVALUATION_APPS, router, toy_counter
from repro.core import CompileOptions, compile_program
from repro.core.resources import (
    ALVEO_U50,
    CORUNDUM_SHELL,
    ResourceEstimate,
    estimate_resources,
)
from repro.core import vhdl
from repro.core.vhdl import VhdlEmitError, emit_vhdl
from repro.ebpf.asm import assemble_program
from repro.ebpf.maps import MapSet
from repro.ebpf.xdp import XDP_MD_SIZE, XdpContext
from repro.hwsim import NicSystem
from repro.hwsim.shell import SHELL_LATENCY_NS
from repro.net.packet import ipv4, mac, udp_packet
from repro.rtl import run_three_way


class TestVhdl:
    @pytest.fixture(scope="class")
    def vhdl(self):
        return emit_vhdl(compile_program(toy_counter.build()))

    def test_one_entity_per_stage_plus_blocks(self, vhdl):
        pipe = compile_program(toy_counter.build())
        stage_entities = vhdl.count("_stage_")
        assert vhdl.count("entity ") >= pipe.n_stages + len(pipe.map_hazards) + 1

    def test_map_block_emitted(self, vhdl):
        assert "toy_counter_map_1" in vhdl
        assert "host_req" in vhdl  # userspace map interface (§4.1)

    def test_async_fifos_for_shell_decoupling(self, vhdl):
        assert "async_fifo" in vhdl
        assert "pipe_clk" in vhdl and "shell_clk" in vhdl

    def test_state_port_width_matches_pruning(self, vhdl):
        from repro.core.vhdl import _layout_for, link_windows

        pipe = compile_program(toy_counter.build())
        windows = link_windows(pipe)
        bits = _layout_for(pipe.stages[0], windows[0]).total_bits
        assert f"std_logic_vector({bits - 1} downto 0)" in vhdl

    def test_atomic_port_present(self, vhdl):
        assert "ap_req" in vhdl  # the stage's dedicated atomic port

    def test_flush_machinery_when_needed(self):
        text = emit_vhdl(compile_program(router.build(use_atomic=False)))
        assert "Flush Evaluation Block" in text
        assert "flush_out" in text

    def test_all_apps_render(self):
        for mod in EVALUATION_APPS.values():
            text = emit_vhdl(compile_program(mod.build()))
            assert "architecture" in text and "end entity" in text

    def test_deterministic(self):
        a = emit_vhdl(compile_program(toy_counter.build()))
        b = emit_vhdl(compile_program(toy_counter.build()))
        assert a == b


class TestXdpMdTable:
    """Both renderers of a ctx load read ``core.vhdl._XDP_MD``: the
    loads elided to packet injection (insns 0-3 here, ``_entry_value``)
    and the loads a stage makes (``_ctx_expr``)."""

    SOURCE = """
        r2 = *(u32 *)(r1 + 0)
        r3 = *(u32 *)(r1 + 4)
        r4 = *(u64 *)(r1 + 0)
        r5 = *(u32 *)(r1 + 12)
        r6 = r2
        r6 += 36
        r0 = 1
        if r6 > r3 goto out
        *(u64 *)(r2 + 0) = r4
        *(u32 *)(r2 + 8) = r5
        r7 = *(u32 *)(r1 + 8)
        *(u32 *)(r2 + 12) = r7
        r7 = *(u32 *)(r1 + 16)
        *(u32 *)(r2 + 16) = r7
        r7 = *(u32 *)(r1 + 20)
        *(u32 *)(r2 + 20) = r7
        r7 = *(u64 *)(r1 + 0)
        *(u64 *)(r2 + 24) = r7
        r7 = *(u32 *)(r1 + 4)
        *(u32 *)(r2 + 32) = r7
        r0 = 3
    out:
        exit
    """

    def test_constant_fields_are_the_default_context(self):
        ctx = XdpContext(bytearray(64)).ctx_bytes()
        assert {off: value for (off, _size), value in vhdl._XDP_MD.items()
                if isinstance(value, int)} \
            == {off: struct.unpack_from("<I", ctx, off)[0]
                for off in range(8, XDP_MD_SIZE, 4)}

    def test_every_field_agrees_three_way(self):
        program = assemble_program(self.SOURCE)
        pipeline = compile_program(program)
        assert [op.insn_index for op in pipeline.entry_ops] == [0, 1, 2, 3]
        run_three_way(program, [bytes(64), bytes(20)],
                      pipeline=pipeline).raise_on_mismatch()

    @pytest.mark.parametrize("field, message", [
        ((12, 4), r"^entry op 3: ctx load of 4 bytes at 12$"),
        ((8, 4), r"^insn 10: ctx load at offset 8 size 4$"),
    ])
    def test_a_field_the_table_lacks_is_located(self, monkeypatch, field,
                                                message):
        pipeline = compile_program(assemble_program(self.SOURCE))
        monkeypatch.delitem(vhdl._XDP_MD, field)
        with pytest.raises(VhdlEmitError, match=message):
            emit_vhdl(pipeline)


class TestResources:
    def test_paper_utilisation_band(self):
        # "the generated pipelines use only 6.5%-13.3% of the FPGA"
        for name, mod in EVALUATION_APPS.items():
            est = estimate_resources(compile_program(mod.build()))
            assert 5.0 <= est.max_pct <= 15.0, f"{name}: {est.summary()}"

    def test_shell_included_by_default(self):
        pipe = compile_program(toy_counter.build())
        with_shell = estimate_resources(pipe)
        without = estimate_resources(pipe, include_shell=False)
        assert with_shell.luts - without.luts == CORUNDUM_SHELL.luts

    def test_pruning_ablation_direction(self):
        # §5.4: unpruned needs +46% LUT / +66% FF / +123% BRAM
        prog = toy_counter.build()
        pruned = estimate_resources(
            compile_program(prog), include_shell=False
        )
        unpruned = estimate_resources(
            compile_program(prog, CompileOptions(enable_pruning=False)),
            include_shell=False,
        )
        assert 1.15 < unpruned.luts / pruned.luts < 1.9
        assert 1.25 < unpruned.ffs / pruned.ffs < 2.2
        assert 1.4 < unpruned.bram36 / pruned.bram36 < 3.5

    def test_bigger_program_more_logic(self):
        small = estimate_resources(compile_program(toy_counter.build()),
                                   include_shell=False)
        big = estimate_resources(
            compile_program(EVALUATION_APPS["tunnel"].build()),
            include_shell=False,
        )
        assert big.luts > small.luts

    def test_percentages_derive_from_device(self):
        est = ResourceEstimate(luts=87_200, ffs=0, bram36=0, device=ALVEO_U50)
        assert est.lut_pct == pytest.approx(10.0)

    def test_addition(self):
        a = ResourceEstimate(1, 2, 3)
        b = ResourceEstimate(10, 20, 30)
        total = a + b
        assert (total.luts, total.ffs, total.bram36) == (11, 22, 33)

    def test_summary_renders(self):
        est = estimate_resources(compile_program(toy_counter.build()))
        assert "LUT" in est.summary() and "BRAM36" in est.summary()


class TestNicShell:
    def _system(self):
        prog = router.build()
        pipe = compile_program(prog)
        maps = MapSet(prog.maps)
        router.add_route(maps, ipv4("192.168.1.1"), mac("02:00:00:00:01:01"),
                         mac("02:00:00:00:01:02"), 3)
        return NicSystem(pipe, maps=maps)

    def test_line_rate_forwarding(self):
        nic = self._system()
        frames = [udp_packet(dst_ip="192.168.1.9", size=64)] * 2000
        report = nic.run_at_line_rate(frames)
        assert report.packets_out == 2000
        assert report.packets_dropped_queue == 0
        assert nic.achieved_mpps(report, 148.8) > 140

    def test_microsecond_latency(self):
        # Figure 9b: about 1 us end to end
        nic = self._system()
        report = nic.run_at_line_rate([udp_packet(dst_ip="192.168.1.9", size=64)] * 200)
        latency = nic.forwarding_latency_ns(report)
        assert 700 <= latency <= 1500

    def test_rate_limited_injection(self):
        nic = self._system()
        frames = [udp_packet(dst_ip="192.168.1.9", size=64)] * 200
        report = nic.run_at_rate(frames, offered_mpps=10.0)
        assert report.throughput_mpps == pytest.approx(10.0, rel=0.1)

    def test_trace_replay(self):
        from repro.net.traces import caida_like

        nic = self._system()
        trace = caida_like(n_packets=1500)
        report = nic.replay_trace(trace)
        assert report.packets_out == 1500
        assert report.packets_dropped_queue == 0

    def test_shell_latency_constant(self):
        # 420 ns of MAC/PHY/FIFO each way, on top of the pipeline
        nic = self._system()
        report = nic.run_at_line_rate([udp_packet(size=64)])
        assert SHELL_LATENCY_NS == 840.0
        assert nic.forwarding_latency_ns(report) == pytest.approx(
            report.latency_ns(0.0) + 840.0)


class TestReflash:
    def test_reflash_swaps_program(self):
        from repro.apps import icmp_echo, toy_counter
        from repro.core import compile_program
        from repro.hwsim import NicSystem

        nic = NicSystem(compile_program(toy_counter.build()))
        downtime = nic.reflash(compile_program(icmp_echo.build()))
        assert downtime > 0
        req = icmp_echo.echo_request()
        report = nic.run_at_line_rate([req])
        assert icmp_echo.is_valid_reply(report.records[0].data, req)

    def test_reflash_can_keep_pinned_maps(self):
        from repro.apps import dnat
        from repro.core import compile_program
        from repro.ebpf.maps import MapSet
        from repro.hwsim import NicSystem
        from repro.net.packet import parse_five_tuple, udp_packet

        maps = MapSet(dnat.build().maps)
        nic = NicSystem(compile_program(dnat.build()), maps=maps)
        out = udp_packet(src_ip="172.16.0.9", dst_ip="8.8.8.8",
                         sport=4444, dport=53, size=64)
        translated = parse_five_tuple(
            nic.run_at_line_rate([out]).records[0].data
        )
        # reflash to the reverse program, keeping the pinned maps
        nic.reflash(compile_program(dnat.build_reverse()), maps=maps)
        reply = udp_packet(src_ip="8.8.8.8", dst_ip=translated.src_ip,
                           sport=53, dport=translated.sport, size=64)
        back = parse_five_tuple(nic.run_at_line_rate([reply]).records[0].data)
        assert back.dport == 4444


class TestDeviceVariants:
    def test_alveo_u280(self):
        from repro.apps import firewall
        from repro.core import compile_program
        from repro.core.resources import DeviceSpec, estimate_resources

        u280 = DeviceSpec("xilinx-alveo-u280", luts=1_304_000,
                          ffs=2_607_000, bram36=2016)
        est = estimate_resources(compile_program(firewall.build()),
                                 device=u280)
        # same absolute cost, lower relative utilisation on the bigger part
        baseline = estimate_resources(compile_program(firewall.build()))
        assert est.luts == baseline.luts
        assert est.lut_pct < baseline.lut_pct


class TestTinyPrograms:
    def test_two_instruction_program(self):
        from repro.core import compile_program
        from repro.ebpf.asm import assemble_program
        from repro.hwsim import run_differential

        prog = assemble_program("r0 = 2\nexit")
        pipe = compile_program(prog)
        assert pipe.n_stages == 2  # mov, then the verdict latch
        run_differential(prog, [bytes(64)] * 5).raise_on_mismatch()

    def test_empty_frame_battery(self):
        from repro.apps import toy_counter
        from repro.hwsim import run_differential

        run_differential(toy_counter.build(), [b""]).raise_on_mismatch()

    def test_zero_frames(self):
        from repro.apps import toy_counter
        from repro.hwsim import run_differential

        result = run_differential(toy_counter.build(), [])
        assert result.ok and result.packets == 0


class TestVhdlGolden:
    """Golden-file snapshots of emitted designs.

    Any change to the emitter shows up as a full-text diff against
    ``tests/corpus/vhdl/``; regenerate intentionally with
    ``pytest --update-golden``.
    """

    APPS = ["toy_counter", "firewall"]

    @pytest.mark.parametrize("app", APPS)
    def test_snapshot(self, app, request):
        import importlib
        from pathlib import Path

        mod = importlib.import_module(f"repro.apps.{app}")
        text = emit_vhdl(compile_program(mod.build()))
        path = Path(__file__).parent / "corpus" / "vhdl" / f"{app}.vhd"
        if request.config.getoption("--update-golden"):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            pytest.skip(f"golden file {path.name} regenerated")
        assert path.exists(), (
            f"missing golden file {path}; run pytest --update-golden"
        )
        assert text == path.read_text(), (
            f"emitted VHDL for {app} diverged from {path.name}; if the "
            "change is intentional run pytest --update-golden"
        )


class TestEmitterRegressions:
    """Named regressions for emission defects the RTL subsystem surfaced.

    Each test pins a class of bug the original emitter had; all of them
    are caught structurally by parse+elaborate (undeclared signals,
    identifier collisions, port-width mismatches, dangling instances)
    or behaviourally by the three-way differential.
    """

    def _elaborate(self, program):
        from repro.rtl.primitives import RtlContext
        from repro.rtl.sim import elaborate_text
        from repro.ebpf.maps import MapSet

        return elaborate_text(emit_vhdl(compile_program(program)),
                              RtlContext(MapSet(program.maps)))

    def test_top_references_only_declared_signals(self):
        # regression: the top once referenced v{i}/e{i}/frame{i} nets that
        # were never declared; elaboration rejects undeclared names
        self._elaborate(toy_counter.build())

    def test_every_app_elaborates(self):
        # covers identifier collisions, port-width mismatches, and
        # unconnected ports across the whole evaluation suite
        for mod in EVALUATION_APPS.values():
            self._elaborate(mod.build())

    def test_fall_through_terminators_enable_successors(self):
        # regression: conditional-branch fall-through once left the
        # successor block disabled, silently killing the else-path
        from repro.ebpf.asm import assemble_program
        from repro.rtl import run_three_way

        prog = assemble_program(
            """
            r0 = 1
            if r1 > 4096 goto out
            r0 = 2
            out:
            exit
            """
        )
        run_three_way(prog, [b"\x00" * 32] * 3).raise_on_mismatch()

    def test_exit_in_non_final_stage_sets_verdict(self):
        # regression: an early exit once targeted an undeclared
        # verdict register instead of the state vector's verdict field
        from repro.rtl import run_three_way

        frames = [toy_counter.packet_for_key(0), b"\x00" * 4]
        run_three_way(toy_counter.build(), frames).raise_on_mismatch()

    def test_alu32_and_byteswap_emit_and_match(self):
        # regression: ALU32/END ops were once unimplemented placeholders
        from repro.ebpf.asm import assemble_program
        from repro.rtl import run_three_way

        prog = assemble_program(
            """
            w0 = 0x11223344
            w0 += 0x10
            r0 = be16 r0
            r0 &= 0xffff
            exit
            """
        )
        run_three_way(prog, [b"\x00" * 16]).raise_on_mismatch()

    def test_signal_names_never_collide(self):
        # regression: generated names could collide with fixed port
        # names; the claim table suffixes _u{k} deterministically
        from repro.core.vhdl import _Names

        names = _Names()
        first = names.claim("state_in")
        second = names.claim("state_in")
        assert first != second
        assert first not in ("", second)
