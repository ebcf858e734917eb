"""Pipeline simulator behaviors: predication, drops, hazards, queueing."""

import dataclasses
import json
import re
from types import SimpleNamespace

import pytest

from repro import apps
from repro.apps import ct_firewall, dnat, firewall, leaky_bucket, router
from repro.analysis import analyze_pipeline
from repro.core import CompileOptions, compile_program
from repro.core.hazards import live_flush_blocks
from repro.core.pipeline import RELOAD_OVERHEAD
from repro.ebpf.asm import assemble_program
from repro.ebpf.isa import MapSpec
from repro.ebpf.maps import MapSet
from repro.ebpf.xdp import XdpAction
from repro.ebpf.vm import VmError
from repro.hwsim import PipelineSimulator, SimError, SimOptions
from repro.hwsim.engines import engine_names, run_engine
from repro.hwsim.multi import MultiProgramNic
from repro.net.flows import TrafficGenerator, TrafficSpec
from repro.net.packet import FiveTuple, ipv4, mac, udp_packet
from repro.rtl.errors import RtlSimError
from repro.workloads import make_workload, parse_workload_spec

MAPS = {"m": MapSpec("m", "array", 4, 8, 4)}
PKT = bytes(range(64))
F1 = FiveTuple(ipv4("10.0.0.1"), ipv4("192.168.0.1"), 17, 1000, 53)


def simulate(source: str, frames, maps=None, gap=1, **simopts):
    prog = assemble_program(source, maps=maps)
    pipe = compile_program(prog)
    map_rt = MapSet(prog.maps)
    sim = PipelineSimulator(pipe, maps=map_rt, options=SimOptions(**simopts))
    report = sim.run_packets(list(frames), gap=gap)
    return report, map_rt


class TestBasics:
    def test_single_packet(self):
        rep, _ = simulate("r0 = 2\nexit", [PKT])
        assert rep.packets_out == 1
        assert rep.records[0].action == XdpAction.PASS

    def test_packet_order_preserved(self):
        rep, _ = simulate("r0 = 2\nexit", [PKT] * 20)
        pids = [r.pid for r in rep.records]
        assert pids == sorted(pids)

    def test_line_rate_throughput(self):
        rep, _ = simulate("r0 = 2\nexit", [PKT] * 500)
        assert rep.throughput_mpps > 200  # approaches 250 at scale

    def test_latency_equals_depth(self):
        rep, _ = simulate("r0 = 2\nr3 = 1\nr4 = 2\nexit", [PKT], gap=1)
        rec = rep.records[0]
        # traversal cycles ~ number of stages
        assert rec.pipeline_cycles >= 1

    def test_packet_rewrite_visible(self):
        source = """
            r6 = *(u32 *)(r1 + 0)
            *(u8 *)(r6 + 3) = 0x7E
            r0 = 3
            exit
        """
        rep, _ = simulate(source, [PKT])
        assert rep.records[0].data[3] == 0x7E

    def test_gap_spacing_slows_rate(self):
        fast, _ = simulate("r0 = 2\nexit", [PKT] * 50, gap=1)
        slow, _ = simulate("r0 = 2\nexit", [PKT] * 50, gap=10)
        assert slow.cycles > fast.cycles


class TestPredication:
    def test_disabled_block_ops_skipped(self):
        source = """
            r6 = *(u32 *)(r1 + 0)
            r2 = *(u8 *)(r6 + 0)
            if r2 == 1 goto mark
            goto out
        mark:
            *(u8 *)(r6 + 1) = 0xAA
        out:
            r0 = 2
            exit
        """
        taken = bytes([1]) + bytes(63)
        not_taken = bytes([0]) + bytes(63)
        rep, _ = simulate(source, [taken, not_taken])
        by_pid = {r.pid: r for r in rep.records}
        assert by_pid[0].data[1] == 0xAA
        assert by_pid[1].data[1] == 0x00

    def test_multiway_classification(self):
        from repro.apps import toy_counter

        prog = toy_counter.build()
        pipe = compile_program(prog)
        maps = MapSet(prog.maps)
        sim = PipelineSimulator(pipe, maps=maps)
        frames = [toy_counter.packet_for_key(k) for k in (0, 1, 2, 3) * 4]
        sim.run_packets(frames)
        stats = maps.by_name("stats")
        counts = [
            int.from_bytes(stats.lookup(i.to_bytes(4, "little")), "little")
            for i in range(4)
        ]
        assert counts == [4, 4, 4, 4]


class TestImplicitDrops:
    SOURCE = """
        r6 = *(u32 *)(r1 + 0)
        r0 = *(u32 *)(r6 + 60)
        r0 &= 0
        r0 += 2
        exit
    """

    def test_short_packet_dropped_on_oob_access(self):
        rep, _ = simulate(self.SOURCE, [bytes(10)])
        assert rep.records[0].action == XdpAction.DROP

    def test_valid_packet_not_dropped(self):
        rep, _ = simulate(self.SOURCE, [PKT])
        assert rep.records[0].action == XdpAction.PASS


    # csum_diff over 16 bytes, 8 past the stack top, on frames that say so
    OVERREAD = """
        r6 = *(u32 *)(r1 + 0)
        r2 = *(u8 *)(r6 + 0)
        if r2 == 0 goto out
        r1 = r10
        r1 += -8
        r2 = 16
        r3 = 0
        r4 = 0
        r5 = 0
        call 28
    out:
        r0 = 3
        exit
    """

    @pytest.mark.parametrize("engine", ["interpreted", "codegen"])
    def test_helper_argument_past_its_buffer_is_a_located_error(self, engine):
        # the VM and the RTL raise here; slicing the stack short and
        # checksumming what is left would be a silent wrong answer
        rep, _ = simulate(self.OVERREAD, [bytes(64)] * 3, engine=engine)
        assert rep.action_counts == {XdpAction.TX: 3}
        with pytest.raises(SimError, match=(
                r"helper read out of bounds: 0x2001f8\+16 \(at frame 2\)$")):
            simulate(self.OVERREAD, [bytes(64)] * 2 + [bytes([1] * 64)],
                     engine=engine)

    # csum_diff over 16 bytes starting in the last 8-byte slot of m
    MAP_OVERREAD = """
        r2 = 3
        *(u32 *)(r10 - 4) = r2
        r1 = map[m]
        r2 = r10
        r2 += -4
        call 1
        if r0 == 0 goto out
        r1 = r0
        r2 = 16
        r3 = 0
        r4 = 0
        r5 = 0
        call 28
    out:
        r0 = 2
        exit
    """

    @pytest.mark.parametrize("engine", engine_names())
    def test_helper_read_past_the_map_storage_is_typed_everywhere(
            self, engine):
        # one address decode: no leg slices the storage short and
        # checksums what is left (the RTL legs returned PASS)
        program = assemble_program(self.MAP_OVERREAD, maps=MAPS)
        with pytest.raises((VmError, SimError, RtlSimError),
                           match=r"read out of bounds: 0x41000018\+16"):
            run_engine(engine, program, [bytes(64)] * 2)


class TestInputQueue:
    def test_overflow_drops_packets(self):
        # many-stage pipeline + tiny queue + burst arrivals
        source = "\n".join([f"r{2 + (i % 3)} = {i}" for i in range(30)]) + "\nr0 = 2\nexit"
        prog = assemble_program(source)
        pipe = compile_program(prog, CompileOptions(enable_ilp=False,
                                                    enable_fusion=False))
        sim = PipelineSimulator(pipe, options=SimOptions(input_queue_capacity=2))
        # all packets arrive at cycle 0
        report = sim.run((0, PKT) for _ in range(50))
        assert report.packets_dropped_queue > 0
        assert report.packets_in + report.packets_dropped_queue == 50

    def test_max_cycles_guard(self):
        prog = assemble_program("r0 = 2\nexit")
        pipe = compile_program(prog)
        sim = PipelineSimulator(pipe, options=SimOptions(max_cycles=1))
        with pytest.raises(SimError):
            sim.run_packets([PKT] * 10)


class TestHazards:
    RMW = """
        r2 = 0
        *(u32 *)(r10 - 4) = r2
        r1 = map[m]
        r2 = r10
        r2 += -4
        call 1
        if r0 == 0 goto out
        r2 = *(u64 *)(r0 + 0)
        r2 += 1
        *(u64 *)(r0 + 0) = r2
    out:
        r0 = 2
        exit
    """

    def test_flush_preserves_rmw_consistency(self):
        # back-to-back packets all incrementing the same counter through a
        # non-atomic read-modify-write: flushes must keep the total exact
        rep, maps = simulate(self.RMW, [PKT] * 40, maps=MAPS)
        assert rep.flush_events > 0
        value = int.from_bytes(maps.by_name("m").lookup(bytes(4)), "little")
        assert value == 40

    def test_spaced_packets_no_flush(self):
        rep, maps = simulate(self.RMW, [PKT] * 10, maps=MAPS, gap=40)
        assert rep.flush_events == 0
        value = int.from_bytes(maps.by_name("m").lookup(bytes(4)), "little")
        assert value == 10

    def test_flush_costs_cycles(self):
        fast, _ = simulate("r0 = 2\nexit", [PKT] * 40)
        hazard, _ = simulate(self.RMW, [PKT] * 40, maps=MAPS)
        assert hazard.cycles > fast.cycles
        assert hazard.squashed_packets > 0

    def test_atomic_variant_never_flushes(self):
        source = """
            r2 = 0
            *(u32 *)(r10 - 4) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto out
            r2 = 1
            lock *(u64 *)(r0 + 0) += r2
        out:
            r0 = 2
            exit
        """
        rep, maps = simulate(source, [PKT] * 40, maps=MAPS)
        assert rep.flush_events == 0
        value = int.from_bytes(maps.by_name("m").lookup(bytes(4)), "little")
        assert value == 40

    def test_restart_counter_recorded(self):
        rep, _ = simulate(self.RMW, [PKT] * 10, maps=MAPS)
        assert any(r.restarts > 0 for r in rep.records)


class TestFlushCost:
    """``FlushBlock.K`` — what ``repro stats`` prints and the Table 3
    model reads — is what a flush costs the cycle loop."""

    @pytest.mark.parametrize("engine", ["interpreted", "codegen"])
    @pytest.mark.parametrize("path_parallel", [True, False])
    def test_dnat_pays_its_flush_blocks_k(self, engine, path_parallel):
        # twenty new flows, each sent twice back to back — the second
        # packet, right behind its update of nat, is its victim — and
        # then quiet flows for longer than the pipeline is deep
        pipeline = compile_program(
            dnat.build(), CompileOptions(path_parallel=path_parallel))
        block, = live_flush_blocks(pipeline.map_hazards)
        frames = []
        for k in range(20):
            frames += [udp_packet(src_ip=f"10.1.{k}.1", dst_ip="10.0.0.80",
                                  sport=5000, dport=80)] * 2
            frames += [udp_packet(src_ip=f"10.3.{k}.{j}", dst_ip="10.0.0.80",
                                  sport=7000 + j, dport=80)
                       for j in range(30)]
        report = PipelineSimulator(
            pipeline, maps=MapSet(pipeline.program.maps),
            options=SimOptions(engine=engine)).run_packets(frames)
        assert report.flush_events == 20
        # each flush restarts the packets in stages 1 .. write_stage - 2
        assert report.squashed_packets \
            == 20 * (block.K() - RELOAD_OVERHEAD) \
            == 20 * (block.write_stage - 2)
        # and takes K cycles where a packet takes one (Eq. 2)
        assert report.cycles - (len(frames) + pipeline.n_stages) \
            == 20 * (block.K() - 1)
        assert analyze_pipeline(pipeline).K == block.K()


class TestWarBuffer:
    SOURCE = """
        r2 = 0
        *(u32 *)(r10 - 4) = r2
        r1 = map[m]
        r2 = r10
        r2 += -4
        call 1
        if r0 == 0 goto out
        r8 = r0
        r2 = 7
        *(u64 *)(r8 + 0) = r2
        r2 = 0
        *(u32 *)(r10 - 8) = r2
        r1 = map[m]
        r2 = r10
        r2 += -8
        call 1
        if r0 == 0 goto out
        r3 = *(u64 *)(r0 + 0)
        r6 = *(u32 *)(r1 + 0)
    out:
        r0 = 2
        exit
    """

    def test_own_write_forwarded_to_later_read(self):
        # A packet's early store must be visible to its own later lookup
        # even while the write sits in the WAR buffer.
        source = """
            r2 = 0
            *(u32 *)(r10 - 4) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto bad
            r8 = r0
            r2 = 7
            *(u64 *)(r8 + 0) = r2
            r2 = 0
            *(u32 *)(r10 - 8) = r2
            r1 = map[m]
            r2 = r10
            r2 += -8
            call 1
            if r0 == 0 goto bad
            r3 = *(u64 *)(r0 + 0)
            if r3 != 7 goto bad
            r0 = 2
            exit
        bad:
            r0 = 1
            exit
        """
        rep, maps = simulate(source, [PKT] * 5, maps=MAPS)
        assert all(r.action == XdpAction.PASS for r in rep.records)
        value = int.from_bytes(maps.by_name("m").lookup(bytes(4)), "little")
        assert value == 7


class TestCommitStages:
    """``Pipeline.commit_stages``, the one WAR commit policy: a buffered
    write commits on entry to the later of its map's last read stage and
    the deepest flush-capable write stage of any map. ``_mem_store`` and
    ``_commit_pending`` read it."""

    @pytest.mark.parametrize("app, pinned", [
        ("leaky_bucket", {1: 18}),
        ("ct_firewall", {1: 15}),
        ("syn_cookie", {1: 31, 2: 31, 3: 42}),
        ("dnat", {1: 20, 2: 20, 3: 20}),
    ])
    def test_apps_that_buffer_writes(self, app, pinned):
        assert compile_program(
            getattr(apps, app).build()).commit_stages == pinned


class TestInterlock:
    """``PipelineSimulator._admits``, the window interlock's one
    predicate, on ct_firewall's banked window and leaky_bucket's keyed
    one with hand-placed slots. A packet that holds the window (has
    enabled a holder block) may not enter it from outside while another
    holder of its lane (bank, key) is inside, short of its release
    (``Forwarding.released``); one that holds nothing, moves within the
    window, or meets only holders of other lanes or released ones,
    passes."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        return compile_program(ct_firewall.build())

    @staticmethod
    def _sim(pipeline):
        sim = PipelineSimulator(pipeline,
                                options=SimOptions(engine="interpreted"))
        sim._slots = [None] * (pipeline.n_stages + 1)
        (lo, hi, holders, bank, _forward), = sim._serial_windows
        return sim, lo, hi, holders, bank

    @staticmethod
    def _stack_in_bank(bank, want):
        """A stack whose key bytes fall in bank ``want``."""
        stack = bytearray(512)
        start = 512 + bank.offset
        for n in range(1 << 16):
            stack[start:start + 4] = n.to_bytes(4, "little")
            if bank.of(stack) == want:
                return stack
        raise AssertionError(want)

    @pytest.mark.parametrize("holds, stage, from_stage, inside, admitted", [
        # mover holds, stage, from stage, occupants (stage, holds), verdict
        (True, "lo", "lo-1", [("lo+2", True)], False),
        (False, "lo", "lo-1", [("lo+2", True)], True),
        (True, "lo", "lo-1", [("lo+2", False)], True),
        (True, "lo", "lo-1", [], True),
        (True, "lo+1", "lo", [("lo+3", True)], True),
        (True, "lo+1", "0", [("lo+2", True)], False),
        (True, "hi+1", "hi", [("lo", True)], True),
        (True, "lo", "lo-1", [("lo+2", "other bank")], True),
        (True, "lo", "lo-1", [("lo+1", "other bank"), ("lo+2", True)],
         False),
    ], ids=["holder_into_lo_behind_a_holder", "non_holder",
            "only_a_non_holder_inside", "empty_window", "lo_to_lo_plus_1",
            "barrier_release_into_the_window", "leaving_past_hi",
            "behind_a_holder_of_another_bank",
            "behind_holders_of_two_banks"])
    def test_admits(self, pipeline, holds, stage, from_stage, inside,
                    admitted):
        sim, lo, hi, holders, bank = self._sim(pipeline)
        # the outbound lookup (b6), its arm not yet decided: it may
        # still insert, so it holds its bank to hi
        holder = {6}
        assert holder <= holders
        other = {pipeline.cfg.entry.block_id}
        assert other.isdisjoint(holders)
        mine, theirs = (self._stack_in_bank(bank, b) for b in (3, 5))

        def at(expr):
            base, offset = re.fullmatch(r"(lo|hi|0)([+-]\d)?", expr).groups()
            return {"lo": lo, "hi": hi, "0": 0}[base] + int(offset or 0)

        for where, occupant_holds in inside:
            sim._slots[at(where)] = SimpleNamespace(
                enabled=holder if occupant_holds else other,
                stack=theirs if occupant_holds == "other bank" else mine,
                position=at(where), done=False)
        assert sim._admits(holder if holds else other, mine, at(stage),
                           at(from_stage)) is admitted

    def test_an_unbanked_map_set_has_one_bank(self, pipeline):
        # the window's bank key was planned for 16 banks: over a map set
        # built without them, packets of two banks do not commute
        unbanked = {fd: dataclasses.replace(spec, banks=1)
                    for fd, spec in pipeline.program.maps.items()}
        sim = PipelineSimulator(pipeline, maps=MapSet(unbanked))
        (_lo, _hi, _holders, bank, _forward), = sim._serial_windows
        assert bank is None
        assert sim.stream_blocker() == (
            "map 1 is not the lru_hash map the pipeline was compiled "
            "against")

    @staticmethod
    def _keyed_stack(key):
        stack = bytearray(512)
        stack[504:512] = key.to_bytes(8, "little")
        return stack

    @pytest.mark.parametrize("inside, admitted", [
        # occupants of leaky_bucket's window (their key, whether they
        # hold it) as the holder of key 1 asks to enter at lo
        ([(1, True)], False),
        ([(2, True)], True),
        ([(1, False)], True),
        ([(2, True), (1, True)], False),
        ([(2, True), (3, True)], True),
    ], ids=["behind_its_key", "behind_another_key",
            "behind_a_non_holder_of_its_key", "behind_two_keys_one_its_own",
            "behind_two_other_keys"])
    def test_admits_by_key(self, inside, admitted):
        # a keyed window: the lane is the key itself (BankKey.of)
        pipeline = compile_program(leaky_bucket.build())
        sim, lo, hi, holders, key = self._sim(pipeline)
        assert key.keyed and (lo, hi) == (8, 18)
        holder = {min(holders)}
        other = {pipeline.cfg.entry.block_id}
        assert other.isdisjoint(holders)
        for k, (occupant, holds) in enumerate(inside):
            sim._slots[lo + 2 + k] = SimpleNamespace(
                enabled=holder if holds else other,
                stack=self._keyed_stack(occupant), position=lo + 2 + k,
                done=False)
        assert sim._admits(holder, self._keyed_stack(1), lo,
                           lo - 1) is admitted

    @pytest.mark.parametrize("path, done, depth, admitted", [
        # the holder of key 1 inside leaky_bucket's window: the blocks it
        # has enabled, whether it is done, how far past lo it sits; a
        # packet of key 1 asks to enter at lo. Undecided, the holder
        # holds; done, it reads as not having taken the hit arm (b2),
        # as the stream reads a flag it never set, and holds to 10
        ({0, 1, 2}, False, 5, False),
        ({0, 1, 2}, False, 6, True),
        ({0, 1, 8}, False, 9, False),
        ({0, 1, 8}, False, 10, True),
        ({0, 1}, False, 9, False),
        ({0, 1}, True, 2, False),
    ], ids=["hit_arm_short_of_6", "hit_arm_at_6", "insert_short_of_10",
            "insert_at_10", "undecided_takes_the_larger",
            "done_reaches_nothing_more"])
    def test_admits_after_the_forward_distance(self, path, done, depth,
                                               admitted):
        pipeline = compile_program(leaky_bucket.build())
        sim, lo, _hi, _holders, _key = self._sim(pipeline)
        sim._slots[lo + depth] = SimpleNamespace(
            enabled=path, stack=self._keyed_stack(1), position=lo + depth,
            done=done)
        assert sim._admits({0, 1}, self._keyed_stack(1), lo,
                           lo - 1) is admitted

    @pytest.mark.parametrize("path, depth, admitted", [
        # the holder of bank 3 inside ct_firewall's window: the blocks it
        # has enabled and how far past lo it sits; a packet of bank 3
        # asks to enter at lo
        ({0, 1, 3, 4}, 1, True),
        ({0, 1, 3, 6}, 2, False),
        ({0, 1, 3, 6, 8}, 2, True),
        ({0, 1, 3, 6, 7}, 2, False),
        ({0, 1, 3, 6, 7}, 3, True),
    ], ids=["inbound_at_once", "outbound_undecided", "refresh_at_its_decision",
            "insert_short_of_3", "insert_at_3"])
    def test_admits_behind_a_forwarding_bank(self, pipeline, path, depth,
                                            admitted):
        sim, lo, _hi, _holders, bank = self._sim(pipeline)
        stack = self._stack_in_bank(bank, 3)
        sim._slots[lo + depth] = SimpleNamespace(
            enabled=path, stack=stack, position=lo + depth, done=False)
        assert sim._admits({0, 1, 3, 6}, stack, lo, lo - 1) is admitted

    @pytest.mark.parametrize("entry_holds", [True, False])
    def test_injection_into_a_window_from_stage_one(self, pipeline,
                                                    entry_holds):
        sim, _lo, hi, holders, _bank = self._sim(pipeline)
        entry = pipeline.cfg.entry.block_id
        sim._serial_windows = (
            (1, hi, holders | {entry} if entry_holds else holders, None,
             None),)
        sim._slots[3] = SimpleNamespace(enabled={min(holders)})
        assert sim._admits({entry}, bytearray(512), 1, 0) is not entry_holds


class TestHostInteraction:
    def test_host_write_mid_run_changes_verdicts(self):
        """§6: the host keeps writing maps while the data plane forwards."""
        from repro.apps import firewall
        from repro.core import compile_program
        from repro.net.packet import FiveTuple, ipv4, udp_packet

        prog = firewall.build()
        pipe = compile_program(prog)
        maps = MapSet(prog.maps)
        sim = PipelineSimulator(pipe, maps=maps)
        flow = FiveTuple(ipv4("10.0.0.1"), ipv4("10.0.0.2"), 17, 1111, 53)
        frame = udp_packet(src_ip=flow.src_ip, dst_ip=flow.dst_ip,
                           sport=flow.sport, dport=flow.dport, size=64)
        # install the flow from the host halfway through the stream
        sim.schedule_host_op(
            50, lambda m: firewall.allow_flow(m, flow)
        )
        report = sim.run((i * 2, frame) for i in range(60))
        actions = [r.action.name for r in sorted(report.records,
                                                 key=lambda r: r.pid)]
        assert actions[0] == "DROP"
        assert actions[-1] == "TX"
        assert "TX" in actions and "DROP" in actions

    def test_host_read_sees_live_counters(self):
        from repro.apps import toy_counter
        from repro.core import compile_program

        prog = toy_counter.build()
        pipe = compile_program(prog)
        maps = MapSet(prog.maps)
        sim = PipelineSimulator(pipe, maps=maps)
        seen = []
        sim.schedule_host_op(
            100,
            lambda m: seen.append(
                int.from_bytes(m.by_name("stats").lookup((1).to_bytes(4, "little")),
                               "little")
            ),
        )
        frames = [toy_counter.packet_for_key(1)] * 150
        sim.run_packets(frames)
        assert seen and 0 < seen[0] < 150  # a mid-run snapshot


class TestInterleavedRmwRegression:
    """Regression for two hypothesis-found bugs: a WAR-buffered store must
    still flush-check younger early readers, and restart snapshots must
    carry (not replay) pending writes."""

    def _program(self):
        from repro.ebpf.builder import ProgramBuilder

        b = ProgramBuilder("two_slot_rmw")
        b.add_map("m0", "array", key_size=4, value_size=8, max_entries=2)
        b.load("u32", 7, 1, 4)
        b.load("u32", 6, 1, 0)
        b.mov(2, 6)
        b.alu_imm("+", 2, 32)
        b.jmp_reg(">", 2, 7, "drop")
        for i, key_off in enumerate((25, 0)):
            b.load("u8", 2, 6, key_off)
            b.alu_imm("&", 2, 1)
            b.store("u32", 10, 2, -4)
            b.ld_map(1, "m0")
            b.mov(2, 10)
            b.alu_imm("+", 2, -4)
            b.call(1)
            b.jmp_imm("==", 0, 0, f"s{i}")
            b.load("u64", 3, 0, 0)
            b.alu_imm("+", 3, 1)
            b.store("u64", 0, 3, 0)
            b.label(f"s{i}")
        b.mov_imm(0, 3)
        b.exit()
        b.label("drop")
        b.mov_imm(0, 1)
        b.exit()
        return b.build()

    @pytest.mark.parametrize("gap", [1, 2, 3])
    def test_two_rmws_on_shared_slots_stay_exact(self, gap):
        import itertools

        from repro.hwsim import run_differential

        frames = []
        for b0, b25 in itertools.product(range(2), repeat=2):
            f = bytearray(64)
            f[0], f[25] = b0, b25
            frames.append(bytes(f))
        run_differential(self._program(), frames * 4,
                         gap=gap).raise_on_mismatch()

    def test_single_rmw_after_lookup_only_read(self):
        # the original finding: read stages on both sides of a write
        from repro.hwsim import run_differential

        from repro.ebpf.builder import ProgramBuilder

        b = ProgramBuilder("rmw_then_read")
        b.add_map("m0", "array", key_size=4, value_size=8, max_entries=1)
        b.load("u32", 7, 1, 4)
        b.load("u32", 6, 1, 0)
        b.mov(2, 6)
        b.alu_imm("+", 2, 4)
        b.jmp_reg(">", 2, 7, "drop")
        for i, kind in enumerate(("rmw", "read")):
            b.store_imm("u32", 10, -4, 0)
            b.ld_map(1, "m0")
            b.mov(2, 10)
            b.alu_imm("+", 2, -4)
            b.call(1)
            b.jmp_imm("==", 0, 0, f"s{i}")
            if kind == "rmw":
                b.load("u64", 3, 0, 0)
                b.alu_imm("+", 3, 1)
                b.store("u64", 0, 3, 0)
            else:
                b.load("u64", 8, 0, 0)
            b.label(f"s{i}")
        b.mov_imm(0, 3)
        b.exit()
        b.label("drop")
        b.mov_imm(0, 1)
        b.exit()
        run_differential(b.build(), [bytes(64)] * 10).raise_on_mismatch()


class TestQueuedPacketFlushRegression:
    """Regression: packets parked in elastic-buffer queues after a flush
    must still be visible to subsequent flush checks — a queued packet can
    hold a stale read in its restored snapshot."""

    def _program(self):
        from repro.ebpf.builder import ProgramBuilder

        b = ProgramBuilder("queued_flush")
        b.add_map("m0", "array", key_size=4, value_size=8, max_entries=4)
        b.load("u32", 7, 1, 4)
        b.load("u32", 6, 1, 0)
        b.mov(2, 6)
        b.alu_imm("+", 2, 32)
        b.jmp_reg(">", 2, 7, "drop")
        for i, key_off in enumerate((27, 20)):
            b.load("u8", 2, 6, key_off)
            b.alu_imm("&", 2, 3)
            b.store("u32", 10, 2, -4)
            b.ld_map(1, "m0")
            b.mov(2, 10)
            b.alu_imm("+", 2, -4)
            b.call(1)
            b.jmp_imm("==", 0, 0, f"s{i}")
            b.load("u64", 3, 0, 0)
            b.alu_imm("+", 3, 1)
            b.store("u64", 0, 3, 0)
            b.label(f"s{i}")
        b.mov_imm(0, 3)
        b.exit()
        b.label("drop")
        b.mov_imm(0, 1)
        b.exit()
        return b.build()

    def test_three_packet_interleaving(self):
        from repro.hwsim import run_differential

        def frame(b20, b27):
            f = bytearray(64)
            f[20], f[27] = b20, b27
            return bytes(f)

        # the exact interleaving that exposed the bug: p0 (0,0), p1 (1,2),
        # p2 (0,1) — p2 gets flushed by p0, parks in a queue with a stale
        # slot-1 read, and p1's slot-1 write must flush it again
        frames = [frame(0, 0), frame(1, 2), frame(0, 1)]
        run_differential(self._program(), frames).raise_on_mismatch()

    def test_exhaustive_two_key_battery(self):
        import itertools

        from repro.hwsim import run_differential

        def frame(b20, b27):
            f = bytearray(64)
            f[20], f[27] = b20, b27
            return bytes(f)

        prog = self._program()
        for combo in itertools.product(
            itertools.product(range(2), repeat=2), repeat=3
        ):
            frames = [frame(b20, b27) for b20, b27 in combo]
            run_differential(prog, frames).raise_on_mismatch()


class TestSnapshotRoundTrip:
    """_InFlight snapshot/restore, with pending WAR writes in flight at
    snapshot time."""

    def _packet(self, pid=0):
        from repro.hwsim.sim import _InFlight
        return _InFlight(pid, PKT, arrival_cycle=0)

    def test_round_trip_restores_everything(self):
        pkt = self._packet()
        pkt.regs[3] = 0xDEAD
        pkt.stack[0:4] = b"\x01\x02\x03\x04"
        pkt.ctx.packet[5] = 0x7F
        pkt.enabled = {2, 5}
        pkt.pending_writes = [(1, 0, b"\x11" * 8)]
        pkt.value_reads = {1: {0}}
        pkt.addr_reads = {1: [(bytes(4), 0)]}
        pkt.take_snapshot(stage=4)

        # mutate past the snapshot
        pkt.regs[3] = 0
        pkt.stack[0:4] = bytes(4)
        pkt.ctx.packet[5] = 0
        pkt.enabled = {9}
        pkt.pending_writes.append((1, 8, b"\x22" * 8))
        pkt.value_reads[1].add(1)
        pkt.take_snapshot(stage=9)

        assert len(pkt.snapshots) == 2
        stage = pkt.restore_snapshot(pkt.snapshots[0])
        assert stage == 4
        assert pkt.regs[3] == 0xDEAD
        assert bytes(pkt.stack[0:4]) == b"\x01\x02\x03\x04"
        assert pkt.ctx.packet[5] == 0x7F
        assert pkt.enabled == {2, 5}
        assert pkt.pending_writes == [(1, 0, b"\x11" * 8)]
        assert pkt.value_reads == {1: {0}}
        # later snapshots are squashed
        assert [s.stage for s in pkt.snapshots] == [4]

    def test_snapshot_isolated_from_later_mutation(self):
        pkt = self._packet()
        pkt.pending_writes = [(1, 0, b"\x11" * 8)]
        pkt.take_snapshot(stage=2)
        # in-place mutation after the snapshot must not leak into it
        pkt.pending_writes.append((1, 8, b"\x33" * 8))
        pkt.regs[1] = 77
        snap = pkt.snapshots[0]
        assert snap.pending_writes == [(1, 0, b"\x11" * 8)]
        assert snap.regs[1] != 77 or pkt.regs[1] == snap.regs[1] == 77

    def test_war_write_survives_flush_restart(self):
        # end-to-end: a WAR-buffered store flushed mid-pipeline must
        # replay exactly once on the default engine (counter stays exact)
        prog = assemble_program(TestHazards.RMW, maps=MAPS)
        pipeline = compile_program(prog)
        maps = MapSet(prog.maps)
        sim = PipelineSimulator(pipeline, maps=maps)
        rep = sim.run_packets([PKT] * 40)
        assert rep.flush_events > 0
        value = int.from_bytes(maps.by_name("m").lookup(bytes(4)), "little")
        assert value == 40


@pytest.fixture(scope="module")
def firewall_setup():
    program = firewall.build()
    pipeline = compile_program(program)
    gen = TrafficGenerator(TrafficSpec(n_flows=24, packet_size=64, seed=11))
    frames = list(gen.packets(300))
    flows = list(gen.flows)

    def setup(maps):
        for flow in flows:
            firewall.allow_flow(maps, flow)

    return program, pipeline, frames, setup


class TestLazyFrames:
    """``run_packets`` pulls its frames lazily from any iterable."""

    def test_generator_matches_list(self, firewall_setup):
        # the stream path and the cycle loop each read the source their
        # own way (none / one frame ahead)
        program, pipeline, frames, setup = firewall_setup
        for engine in ("codegen", "interpreted"):
            def fresh_sim():
                maps = MapSet(program.maps)
                setup(maps)
                return PipelineSimulator(
                    pipeline, maps=maps,
                    options=SimOptions(engine=engine, keep_records=False))

            ref = fresh_sim().run_packets(frames)
            got = fresh_sim().run_packets(iter(frames))
            assert got.cycles == ref.cycles, engine
            assert got.action_counts == ref.action_counts, engine
            assert got.sum_total_cycles == ref.sum_total_cycles, engine

    def test_multi_program_batch_from_a_generator(self):
        pipelines = [compile_program(firewall.build()),
                     compile_program(router.build())]

        def classify(frame):
            return frame[35] % 2  # low byte of the UDP source port

        def make_nic():
            maps = [MapSet(p.program.maps) for p in pipelines]
            firewall.allow_flow(maps[0], F1)
            router.add_route(maps[1], ipv4("192.168.1.1"),
                             mac("02:00:00:00:01:01"),
                             mac("02:00:00:00:01:02"), 3)
            return MultiProgramNic(pipelines, classify, maps=maps)

        frames = [udp_packet(src_ip=F1.src_ip, dst_ip=F1.dst_ip,
                             sport=1000 + i, dport=53) for i in range(60)]
        ref = make_nic().process_batch(frames)
        got = make_nic().process_batch(iter(frames))
        assert [(r.name, r.packets) for r in got] == \
               [(r.name, r.packets) for r in ref] == \
               [("firewall", 30), ("router", 30)]
        for a, b in zip(got, ref):
            assert a.report.cycles == b.report.cycles
            assert a.report.action_counts == b.report.action_counts


def _workload_frames(packets, spec="udp-zipf:flows=100000"):
    """``packets`` frames of the workload ``spec``."""
    return make_workload(dataclasses.replace(
        parse_workload_spec(spec), packets=packets)).materialize()


def _location(error):
    """The inclusive frame window a located SimError names."""
    match = re.search(
        r" \((?:at frame (\d+)|frames (\d+)\.\.(\d+) in flight)\)$",
        str(error))
    assert match, str(error)
    exact, lo, hi = match.groups()
    return (int(exact),) * 2 if exact else (int(lo), int(hi))


def _fault(sim, pid, past_stage=0):
    """Make the interpreted engine fail on packet ``pid`` at its first
    op past ``past_stage``."""
    execute_op = sim._execute_op

    def faulty(pkt, op):
        if pkt.pid == pid and pkt.position > past_stage:
            raise SimError("injected fault")
        return execute_op(pkt, op)

    sim._execute_op = faulty


class TestLocatedError:
    """A SimError out of ``run_packets`` names the offending frame by
    its position in the source — from the packets the pipeline held,
    never from how far the source had been read."""

    def _assert_located(self, error, true_index, n_stages):
        lo, hi = _location(error)
        assert lo <= true_index <= hi, str(error)
        assert hi - lo + 1 <= n_stages, str(error)
        return lo, hi

    def test_cycle_budget_names_the_first_unfinished_frame(
        self, firewall_setup
    ):
        program, pipeline, frames, setup = firewall_setup
        n = pipeline.n_stages
        # at line rate frame k exits at cycle k + n: frame 10 is the
        # first a budget of n + 10 cycles cannot finish
        for engine, window in (("codegen", (10, 10)),  # stream: exact
                               ("interpreted", (10, n + 9))):
            maps = MapSet(program.maps)
            setup(maps)
            sim = PipelineSimulator(
                pipeline, maps=maps,
                options=SimOptions(engine=engine, keep_records=False,
                                   max_cycles=n + 10),
            )
            with pytest.raises(SimError, match="exceeded") as excinfo:
                sim.run_packets(iter(frames))
            assert self._assert_located(excinfo.value, 10, n) == window

    def test_failing_op_names_its_frame_at_line_rate(self, firewall_setup):
        program, pipeline, frames, setup = firewall_setup
        maps = MapSet(program.maps)
        setup(maps)
        sim = PipelineSimulator(
            pipeline, maps=maps, options=SimOptions(engine="interpreted"))
        _fault(sim, pid=123, past_stage=5)
        with pytest.raises(SimError, match="injected fault") as excinfo:
            sim.run_packets(iter(frames))
        self._assert_located(excinfo.value, 123, pipeline.n_stages)

    @pytest.mark.parametrize("engine", ["codegen", "interpreted"])
    def test_failing_call_on_the_cycle_loop_names_its_frame(self, engine):
        # dnat cannot stream: a map call raising in any stage body the
        # cycle loop dispatches names the one frame it raised on, on
        # either engine (the compiled one inlines lookups, so its first
        # faulting call can be a later packet's update)
        program = dnat.build()
        pipeline = compile_program(program)
        sim = PipelineSimulator(pipeline, maps=MapSet(program.maps),
                                options=SimOptions(engine=engine))
        assert sim.engine_path().startswith("cycle-loop (")
        channel_call, raised_on = sim._map_channel_call, []

        def faulty(pkt, helper_id):
            if pkt.pid >= 100:
                raised_on.append(pkt.index)
                raise SimError("injected fault")
            return channel_call(pkt, helper_id)

        sim._map_channel_call = faulty
        with pytest.raises(SimError, match="injected fault") as excinfo:
            sim.run_packets(_workload_frames(packets=400))
        assert raised_on[0] >= 100
        assert _location(excinfo.value) == (raised_on[0],) * 2

    @pytest.mark.parametrize("capacity", [4096, 4])
    def test_failing_op_behind_a_stalled_window(self, capacity):
        # ct_firewall's window admits one packet per 4 cycles while
        # frames arrive one per cycle: by the time packet 50 executes
        # past the window's first stages the source has been read
        # ~200 frames further — and with a 4-deep input queue most of
        # those were dropped, so pid 50 is not frame 50 either
        import dataclasses

        from repro.apps import APP_WORKLOADS, ct_firewall
        from repro.workloads import make_workload, parse_workload_spec

        program = ct_firewall.build()
        pipeline = compile_program(program)
        frames = make_workload(dataclasses.replace(
            parse_workload_spec(APP_WORKLOADS["ct_firewall"]),
            packets=3000)).materialize()

        def fresh_sim(engine):
            return PipelineSimulator(
                pipeline, maps=MapSet(program.maps),
                options=SimOptions(engine=engine,
                                   input_queue_capacity=capacity))

        # gap 1: a packet's arrival cycle is its frame's index
        healthy = fresh_sim("codegen").run_packets(frames)
        true_index = healthy.records[50].arrival_cycle
        assert (true_index == 50) == (capacity == 4096)
        sim = fresh_sim("interpreted")
        _fault(sim, pid=50, past_stage=12)
        with pytest.raises(SimError, match="injected fault") as excinfo:
            sim.run_packets(iter(frames))
        self._assert_located(excinfo.value, true_index, pipeline.n_stages)


class TestOneShiftLoop:
    """Both engines shift through ``PipelineSimulator.run``'s one loop,
    so comparing them checks the stage bodies, not the loop. The loop's
    rules are held to references outside it: ``_stream``'s closed-form
    window timing for the interlock, the ledger's row of Table 2's flush
    recovery for the flush and reload path (the VM holds the commit
    stage: ``TestInterleavedRmwRegression``)."""

    def test_the_interlock_keeps_the_stream_timing(self):
        program = ct_firewall.build()
        pipeline = compile_program(program)
        frames = _workload_frames(2000, apps.APP_WORKLOADS["ct_firewall"])

        def run(observer=None, admits=None):
            sim = PipelineSimulator(pipeline, maps=MapSet(program.maps),
                                    options=SimOptions(keep_records=False))
            sim.observer = observer
            if admits is not None:
                sim._admits = admits
            report = sim.run_packets(frames)
            return sim.engine_path(), (report.cycles, report.packets_out,
                                       report.sum_total_cycles)

        path, stream = run()
        assert path.startswith("stream (")

        def idle(*_args):
            pass

        path, loop = run(idle)
        assert path == "cycle-loop (a per-cycle observer is attached)"
        assert loop == stream
        # the witness: a loop whose window admits every packet runs
        # ahead of the stream's timing
        _path, unlocked = run(idle, admits=lambda *_args: True)
        assert unlocked[0] < stream[0]

    @pytest.mark.parametrize("engine", ["codegen", "interpreted"])
    def test_flush_recovery_reads_the_ledger(self, engine):
        # leaky_bucket on the §3.3 layout, whose flushes restart packets
        # from the input queue and cost the reload overhead each
        from benchmarks import ledger

        row = json.loads(ledger.LEDGER.read_text())["leaky_bucket/paper"]
        program = leaky_bucket.build()
        pipeline = compile_program(program, ledger.LAYOUTS["paper"])
        frames = ledger.trace("leaky_bucket")
        sim = PipelineSimulator(pipeline, maps=MapSet(program.maps),
                                options=SimOptions(
                                    engine=engine, keep_records=False,
                                    input_queue_capacity=len(frames)))
        report = sim.run_packets(frames)
        assert sim.engine_path().startswith("cycle-loop (")
        figures = ("flush_events", "squashed_packets", "stall_cycles",
                   "cycles", "sum_total_cycles")
        assert [getattr(report, f) for f in figures] \
            == [row[f] for f in figures]
