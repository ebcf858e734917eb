"""Multi-program NIC deployment tests (§2.4)."""

import re

import pytest

from repro.apps import firewall, router, suricata
from repro.core import compile_program
from repro.core.resources import ALVEO_U50, estimate_resources
from repro.ebpf.maps import MapSet
from repro.hwsim.multi import MultiProgramNic, ethertype_classifier
from repro.net.packet import ETH_P_IP, ipv4, mac, udp_packet


@pytest.fixture()
def nic():
    fw_prog = firewall.build()
    rt_prog = router.build()
    fw_maps = MapSet(fw_prog.maps)
    rt_maps = MapSet(rt_prog.maps)
    router.add_route(rt_maps, ipv4("192.168.1.1"), mac("02:00:00:00:01:01"),
                     mac("02:00:00:00:01:02"), 3)
    return MultiProgramNic(
        [compile_program(fw_prog), compile_program(rt_prog)],
        # steer IPv4 to the router slot, everything else to the firewall
        ethertype_classifier({ETH_P_IP: 1}, default=0),
        maps=[fw_maps, rt_maps],
    )


class TestDispatch:
    def test_frames_steered_by_ethertype(self, nic):
        ip_frames = [udp_packet(dst_ip="192.168.1.9", size=64)] * 30
        other = [b"\x00" * 12 + b"\x86\xdd" + bytes(50)] * 10
        results = nic.process_batch(ip_frames + other)
        assert results[0].packets == 10  # non-IP -> firewall slot
        assert results[1].packets == 30  # IPv4 -> router slot

    def test_each_pipeline_line_rate(self, nic):
        frames = [udp_packet(dst_ip="192.168.1.9", size=64)] * 500
        frames += [b"\x00" * 12 + b"\x86\xdd" + bytes(50)] * 500
        results = nic.process_batch(frames)
        # each its own back-to-back stream: together they exceed one link
        assert results[0].report.throughput_mpps > 200
        assert results[1].report.throughput_mpps > 200

    def test_empty_slot_has_no_report(self, nic):
        results = nic.process_batch([udp_packet(size=64)])
        assert results[0].report is None
        assert results[0].packets == 0

    def test_bad_classifier_rejected(self):
        pipe = compile_program(firewall.build())
        nic = MultiProgramNic([pipe], lambda f: 7)
        with pytest.raises(ValueError, match="bad pipeline index"):
            nic.process_batch([udp_packet(size=64)])

    def test_short_frame_uses_default_slot(self, nic):
        results = nic.process_batch([b"\x01\x02"])
        assert results[0].packets == 1


class TestResources:
    def test_shell_counted_once(self, nic):
        total = nic.resources()
        separate = sum(
            estimate_resources(p, include_shell=False).luts
            for p in nic.pipelines
        )
        from repro.core.resources import CORUNDUM_SHELL

        assert total.luts == pytest.approx(
            separate + CORUNDUM_SHELL.luts + 650, abs=5
        )

    def test_three_programs_fit_the_u50(self):
        pipelines = [
            compile_program(firewall.build()),
            compile_program(router.build()),
            compile_program(suricata.build()),
        ]
        nic = MultiProgramNic(pipelines, lambda f: 0)
        assert nic.fits(ALVEO_U50)
        assert nic.resources().max_pct < 60

    def test_needs_at_least_one_pipeline(self):
        with pytest.raises(ValueError):
            MultiProgramNic([], lambda f: 0)

    def test_maps_arity_checked(self):
        pipe = compile_program(firewall.build())
        with pytest.raises(ValueError, match="per pipeline"):
            MultiProgramNic([pipe], lambda f: 0, maps=[])


class TestSlotManagement:
    """Serving control-plane primitives: add/replace/remove (§2.4 + §6)."""

    def test_names_and_index_of(self, nic):
        assert nic.names == ["firewall", "router"]
        assert nic.index_of("router") == 1
        with pytest.raises(KeyError):
            nic.index_of("nope")

    def test_index_of_ambiguous(self, nic):
        nic.add(compile_program(firewall.build()))
        with pytest.raises(ValueError, match="ambiguous"):
            nic.index_of("firewall")

    def test_add_is_load_then_steer(self, nic):
        index = nic.add(compile_program(suricata.build()))
        assert index == 2
        # classifier untouched: no frame reaches the new slot yet
        results = nic.process_batch(
            [udp_packet(dst_ip="192.168.1.9", size=64)] * 20
        )
        assert results[2].packets == 0

    def test_replace_keeps_index_and_steering(self, nic):
        frames = [udp_packet(dst_ip="192.168.1.9", size=64)] * 20
        nic.replace("router", compile_program(firewall.build()))
        assert nic.names == ["firewall", "firewall"]
        # slot 1 still receives every IPv4 frame, now as the new program
        results = nic.process_batch(frames)
        assert results[1].packets == 20

    def test_replace_resets_maps_unless_given(self, nic):
        old_maps = nic.maps[1]
        nic.replace_at(1, compile_program(router.build()))
        assert nic.maps[1] is not old_maps
        kept = nic.maps[1]
        nic.replace_at(1, compile_program(router.build()), mapset=kept)
        assert nic.maps[1] is kept

    def test_remove_remaps_to_default(self, nic):
        frames = [udp_packet(dst_ip="192.168.1.9", size=64)] * 15
        nic.remove("router")
        assert nic.names == ["firewall"]
        results = nic.process_batch(frames)
        assert results[0].packets == 15  # IPv4 now falls back to slot 0

    def test_remove_shifts_higher_slots_down(self, nic):
        nic.add(compile_program(suricata.build()))
        nic.classifier = ethertype_classifier({ETH_P_IP: 2}, default=0)
        nic.remove("router")  # slot 1 goes, suricata moves 2 -> 1
        results = nic.process_batch(
            [udp_packet(dst_ip="192.168.1.9", size=64)] * 10
        )
        assert results[1].packets == 10

    def test_remove_refuses_default_slot(self, nic):
        with pytest.raises(ValueError, match="slot 0"):
            nic.remove_at(0)
        nic.remove_at(1)
        with pytest.raises(ValueError, match="slot 0"):
            nic.remove_at(0)  # the sole remaining slot stays put


class TestProcessBatch:
    def test_persistent_sims_accumulate_state(self):
        from repro.apps import toy_counter

        counter = MultiProgramNic(
            [compile_program(toy_counter.build())], lambda f: 0
        )
        frames = [toy_counter.packet_for_key(1)] * 10
        counter.process_batch(frames)
        sim = counter._sims[0]
        counter.process_batch(frames)
        # same simulator instance serves every batch, and its map state
        # carries over: 20 packets counted across the two batches
        assert counter._sims[0] is sim
        value = counter.maps[0].by_name("stats").lookup(
            (1).to_bytes(4, "little")
        )
        assert int.from_bytes(value, "little") == 20

    def test_skip_counts_without_executing(self, nic):
        frames = [udp_packet(dst_ip="192.168.1.9", size=64)] * 10
        results = nic.process_batch(frames, skip=[1])
        assert results[1].skipped is True
        assert results[1].packets == 10
        assert results[1].report is None

    def test_isolate_wraps_simerror(self, nic):
        from repro.hwsim.sim import SimError

        # a cycle budget the router slot's fourth frame overruns; every
        # other frame of the batch goes to the firewall slot, so the
        # location counts within the slot, not the batch
        frames = [b"\x00" * 12 + b"\x86\xdd" + bytes(50),
                  udp_packet(dst_ip="192.168.1.9", size=64)] * 5
        where = r"pipeline 'router' \(slot 1\): .* \(at frame 3\)$"

        def starve(sim):
            sim.options.max_cycles = sim.pipeline.n_stages + 3

        starve(nic._sim_for(1))
        results = nic.process_batch(frames, isolate=True)
        assert results[0].report.packets_out == 5  # the healthy slot ran
        assert results[1].packets == 5
        assert re.search(where, str(results[1].error))
        assert nic._sims[1] is None  # failed sim retired
        # without isolate the same failure aborts the batch
        starve(nic._sim_for(1))
        with pytest.raises(SimError, match=where):
            nic.process_batch(frames)

    def test_engine_override_matches_default(self):
        fw = compile_program(firewall.build())
        frames = [udp_packet(size=64)] * 50
        by_engine = {}
        for engine in (None, "codegen"):
            nic = MultiProgramNic([fw], lambda f: 0, engine=engine)
            report = nic.process_batch(frames)[0].report
            by_engine[engine] = (report.cycles, dict(report.action_counts))
        assert by_engine[None] == by_engine["codegen"]
