"""The production execution paths ≡ their references.

(The file is named after the retired ``fast`` engine; what it pins
outlived it.) The simulator and the reference VM each run specialized
code — generated source on the ``codegen`` engine, a jump-threaded
dispatch table in ``Vm`` — beside a decode-per-op reference (the
``interpreted`` engine, ``Vm._run_interpreted``). These tests pin the
central contract: production path or reference, every observable — XDP
actions, packet bytes, map state, and *cycle counts* — is identical;
``run_packets`` takes a generator as it takes a list; and when a run
fails, the ``SimError`` names the frame that failed.
"""

import re

import pytest

from repro.apps import dnat, firewall, router, suricata, toy_counter, tunnel
from repro.core import compile_program
from repro.ebpf.asm import assemble_program
from repro.ebpf.isa import MapSpec
from repro.ebpf.maps import MapSet
from repro.ebpf.vm import Vm
from repro.ebpf.xdp import XdpAction
from repro.hwsim import PipelineSimulator, SimError, SimOptions
from repro.hwsim.multi import MultiProgramNic
from repro.net.flows import TrafficGenerator, TrafficSpec
from repro.net.packet import FiveTuple, ipv4, mac, udp_packet

MAPS = {"m": MapSpec("m", "array", 4, 8, 4)}
PKT = bytes(range(64))

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

F1 = FiveTuple(ipv4("10.0.0.1"), ipv4("192.168.0.1"), 17, 1000, 53)


def run_both(program, frames, setup=None, gap=1, keep_records=True):
    """Run frames through the pipeline on the codegen and interpreted
    engines; assert every observable matches and return the (codegen,
    interpreted) reports."""
    pipeline = compile_program(program)
    reports = []
    map_sets = []
    for engine in ("codegen", "interpreted"):
        maps = MapSet(program.maps)
        if setup is not None:
            setup(maps)
        sim = PipelineSimulator(
            pipeline, maps=maps,
            options=SimOptions(engine=engine, keep_records=keep_records),
        )
        reports.append(sim.run_packets(list(frames), gap=gap))
        map_sets.append(maps)

    gen_rep, ref_rep = reports
    assert gen_rep.cycles == ref_rep.cycles
    assert gen_rep.action_counts == ref_rep.action_counts
    assert gen_rep.flush_events == ref_rep.flush_events
    assert gen_rep.squashed_packets == ref_rep.squashed_packets
    assert gen_rep.stall_cycles == ref_rep.stall_cycles
    assert gen_rep.sum_total_cycles == ref_rep.sum_total_cycles
    assert gen_rep.sum_pipeline_cycles == ref_rep.sum_pipeline_cycles
    assert gen_rep.sum_restarts == ref_rep.sum_restarts
    if keep_records:
        assert len(gen_rep.records) == len(ref_rep.records)
        for a, b in zip(gen_rep.records, ref_rep.records):
            assert (a.pid, a.action, a.data) == (b.pid, b.action, b.data)
            assert a.exit_cycle == b.exit_cycle
            assert a.restarts == b.restarts
    for fd in program.maps:
        assert bytes(map_sets[0][fd].storage) == bytes(map_sets[1][fd].storage)
    return gen_rep, ref_rep


class TestAppParity:
    def test_toy_counter(self):
        frames = [toy_counter.packet_for_key(k % 4) for k in range(24)]
        frames.append(b"\x00" * 10)  # short packet -> implicit drop path
        run_both(toy_counter.build(), frames)

    def test_firewall(self):
        frames = []
        for ft in (F1, F1.reversed(), FiveTuple(1, 2, 17, 3, 4)):
            frames.append(udp_packet(src_ip=ft.src_ip, dst_ip=ft.dst_ip,
                                     sport=ft.sport, dport=ft.dport))
        run_both(firewall.build(), frames * 10,
                 setup=lambda m: firewall.allow_flow(m, F1))

    @pytest.mark.parametrize("use_atomic", [True, False])
    def test_router(self, use_atomic):
        def setup(maps):
            router.add_route(maps, ipv4("192.168.1.1"),
                             mac("02:00:00:00:01:01"),
                             mac("02:00:00:00:01:02"), 3)
        frames = [
            udp_packet(dst_ip="192.168.1.200", size=64),
            udp_packet(dst_ip="8.8.8.8", size=64),
            udp_packet(dst_ip="192.168.1.4", size=64, ttl=1),
        ] * 10
        run_both(router.build(use_atomic), frames, setup=setup)
        if not use_atomic:
            # back-to-back routed packets share the stats slot: the RAW
            # hazard fires flushes, and parity must hold through them
            storm = [udp_packet(dst_ip="192.168.1.200", size=64)] * 30
            gen_rep, _ = run_both(router.build(False), storm, setup=setup)
            assert gen_rep.flush_events > 0

    def test_tunnel(self):
        def setup(maps):
            tunnel.add_tunnel(maps, ipv4("10.0.0.9"), ipv4("172.16.0.1"),
                              ipv4("172.16.0.2"),
                              mac("02:00:00:00:02:01"),
                              mac("02:00:00:00:02:02"))
        frames = [udp_packet(dst_ip="10.0.0.9", size=96),
                  udp_packet(dst_ip="10.9.9.9", size=96)] * 8
        run_both(tunnel.build(), frames, setup=setup)

    def test_suricata(self):
        frames = [udp_packet(src_ip=F1.src_ip, dst_ip=F1.dst_ip,
                             sport=F1.sport, dport=F1.dport)] * 12
        run_both(suricata.build(), frames,
                 setup=lambda m: suricata.add_bypass(m, F1))

    def test_dnat(self):
        frames = [udp_packet(src_ip=f"10.1.0.{i}", dst_ip="10.0.0.80",
                             sport=5000 + i, dport=80) for i in range(6)] * 3
        run_both(dnat.build(), frames)


class TestHazardParity:
    def test_rmw_flush_storm(self):
        prog = assemble_program(RMW, maps=MAPS)
        gen_rep, _ = run_both(prog, [PKT] * 40)
        assert gen_rep.flush_events > 0

    def test_rmw_spaced_no_flush(self):
        prog = assemble_program(RMW, maps=MAPS)
        gen_rep, _ = run_both(prog, [PKT] * 10, gap=40)
        assert gen_rep.flush_events == 0

    def test_atomic_counter(self):
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
        prog = assemble_program(source, maps=MAPS)
        gen_rep, _ = run_both(prog, [PKT] * 40)
        assert gen_rep.flush_events == 0

    def test_keep_records_false_aggregates(self):
        prog = assemble_program(RMW, maps=MAPS)
        run_both(prog, [PKT] * 40, keep_records=False)


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
        pkt.pending_writes = [(1, 0, b"\x11" * 8, 4)]
        pkt.value_reads = {1: {0}}
        pkt.addr_reads = {1: [(bytes(4), 0)]}
        pkt.take_snapshot(stage=4)

        # mutate past the snapshot
        pkt.regs[3] = 0
        pkt.stack[0:4] = bytes(4)
        pkt.ctx.packet[5] = 0
        pkt.enabled = {9}
        pkt.pending_writes.append((1, 8, b"\x22" * 8, 7))
        pkt.value_reads[1].add(1)
        pkt.take_snapshot(stage=9)

        assert len(pkt.snapshots) == 2
        stage = pkt.restore_snapshot(pkt.snapshots[0])
        assert stage == 4
        assert pkt.regs[3] == 0xDEAD
        assert bytes(pkt.stack[0:4]) == b"\x01\x02\x03\x04"
        assert pkt.ctx.packet[5] == 0x7F
        assert pkt.enabled == {2, 5}
        assert pkt.pending_writes == [(1, 0, b"\x11" * 8, 4)]
        assert pkt.value_reads == {1: {0}}
        # later snapshots are squashed
        assert [s.stage for s in pkt.snapshots] == [4]

    def test_snapshot_isolated_from_later_mutation(self):
        pkt = self._packet()
        pkt.pending_writes = [(1, 0, b"\x11" * 8, 4)]
        pkt.take_snapshot(stage=2)
        # in-place mutation after the snapshot must not leak into it
        pkt.pending_writes.append((1, 8, b"\x33" * 8, 5))
        pkt.regs[1] = 77
        snap = pkt.snapshots[0]
        assert snap.pending_writes == [(1, 0, b"\x11" * 8, 4)]
        assert snap.regs[1] != 77 or pkt.regs[1] == snap.regs[1] == 77

    def test_war_write_survives_flush_restart(self):
        # end-to-end: a WAR-buffered store flushed mid-pipeline must
        # replay exactly once on the default engine (counter stays exact)
        prog = assemble_program(RMW, maps=MAPS)
        pipeline = compile_program(prog)
        maps = MapSet(prog.maps)
        sim = PipelineSimulator(pipeline, maps=maps)
        rep = sim.run_packets([PKT] * 40)
        assert rep.flush_events > 0
        value = int.from_bytes(maps.by_name("m").lookup(bytes(4)), "little")
        assert value == 40


def _vm(program, maps=None, reference=False):
    """A Vm; with ``reference`` its run() drives the decode-per-
    instruction loop instead of the dispatch table."""
    vm = Vm(program, maps=maps)
    if reference:
        vm._run_dispatch = vm._run_interpreted
    return vm


class TestVmFastPath:
    def _run(self, program, frames, reference, setup=None):
        maps = MapSet(program.maps)
        if setup is not None:
            setup(maps)
        vm = _vm(program, maps, reference)
        return [vm.run(f) for f in frames], maps

    @pytest.mark.parametrize("app, setup", [
        (toy_counter, None),
        (firewall, lambda m: firewall.allow_flow(m, F1)),
        (dnat, None),
    ], ids=["toy_counter", "firewall", "dnat"])
    def test_parity(self, app, setup):
        program = app.build()
        if app is toy_counter:
            frames = [toy_counter.packet_for_key(k % 4) for k in range(12)]
        else:
            frames = [udp_packet(src_ip=F1.src_ip, dst_ip=F1.dst_ip,
                                 sport=F1.sport, dport=F1.dport)] * 12
        fast_res, fast_maps = self._run(program, frames, False, setup)
        slow_res, slow_maps = self._run(program, frames, True, setup)
        for a, b in zip(fast_res, slow_res):
            assert a.action == b.action
            assert a.packet == b.packet
            assert a.redirect_ifindex == b.redirect_ifindex
            assert a.instructions_executed == b.instructions_executed
        for fd in program.maps:
            assert bytes(fast_maps[fd].storage) == bytes(slow_maps[fd].storage)

    def test_error_parity_unbounded_loop(self):
        source = """
        top:
            r0 = 0
            goto top
        """
        program = assemble_program(source)
        from repro.ebpf.vm import VmError
        for reference in (False, True):
            vm = _vm(program, reference=reference)
            with pytest.raises(VmError, match="instruction limit"):
                vm.run(PKT)


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

    @pytest.mark.parametrize("capacity", [4096, 4])
    def test_failing_op_behind_a_stalled_window(self, capacity):
        # ct_firewall's window admits one packet per 21 cycles while
        # frames arrive one per cycle: by the time packet 50 executes
        # past the window's first stages the source has been read
        # ~1000 frames further — and with a 4-deep input queue most of
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
