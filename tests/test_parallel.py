"""Multi-queue parallel simulation: RSS sharding, map merge, invariance.

Covers the three layers of :mod:`repro.hwsim.parallel`:

* the Toeplitz hash against the Microsoft RSS known-answer vectors and
  the sharding rules built on it (non-IP fallback, flow purity, hash
  stability across worker counts);
* the map-shard merge protocol (sum / union / last policies, conflict
  detection and last-writer resolution);
* the headline differential property: a sharded multi-worker run of a
  flow-partitionable program produces, for every worker count, the same
  XDP action multiset, byte-identical output frames per input position,
  and identical merged map state as both the single-queue simulator and
  the reference VM.
"""

import struct

import pytest

from repro.apps import firewall
from repro.core import compile_program
from repro.ebpf.isa import MapSpec
from repro.ebpf.maps import MapSet
from repro.ebpf.vm import Vm
from repro.ebpf.xdp import XdpAction
from repro.hwsim import (
    ParallelPipelineSimulator,
    ParallelSimError,
    PipelineSimulator,
    SimError,
    SimOptions,
    merge_map_shards,
    merge_reports,
)
from repro.hwsim.parallel import _dump_map_items, default_merge_policies
from repro.hwsim.stats import SimReport
from repro.net.flows import (
    RSS_KEY,
    TrafficGenerator,
    TrafficSpec,
    rss_hash,
    rss_input,
    rss_shard,
    shard_frames,
    toeplitz_hash,
)
from repro.net.packet import parse_five_tuple, tcp_packet, udp6_packet, udp_packet


def _ip(dotted: str) -> bytes:
    return bytes(int(p) for p in dotted.split("."))


# The Microsoft RSS verification suite: every NIC implementing Toeplitz
# RSS must reproduce these hashes under the default 40-byte key.
MS_VECTORS = [
    # (src ip, sport, dst ip, dport, hash with ports, hash ip-only)
    ("66.9.149.187", 2794, "161.142.100.80", 1766, 0x51CCC178, 0x323E8FC2),
    ("199.92.111.2", 14230, "65.69.140.83", 4739, 0xC626B0EA, 0xD718262A),
    ("24.19.198.95", 12898, "12.22.207.184", 38024, 0x5C2B394A, 0xD2D0A5DE),
    ("38.27.205.30", 48228, "209.142.163.6", 2217, 0xAFC7327F, 0x82989176),
    ("153.39.163.191", 44251, "202.188.127.2", 1303, 0x10E828A2, 0x5D1809C5),
]


class TestToeplitz:
    def test_known_answer_vectors_with_ports(self):
        for src, sport, dst, dport, expected, _ in MS_VECTORS:
            data = _ip(src) + _ip(dst) + struct.pack(">HH", sport, dport)
            assert toeplitz_hash(data) == expected, (src, sport)

    def test_known_answer_vectors_ip_only(self):
        for src, _sport, dst, _dport, _h, expected in MS_VECTORS:
            assert toeplitz_hash(_ip(src) + _ip(dst)) == expected, src

    def test_frame_hash_matches_tuple_hash(self):
        src, sport, dst, dport, expected, _ = MS_VECTORS[0]
        frame = udp_packet(src_ip=src, dst_ip=dst, sport=sport, dport=dport,
                           size=64)
        assert rss_hash(frame) == expected

    def test_key_too_short_rejected(self):
        with pytest.raises(ValueError, match="key too short"):
            toeplitz_hash(bytes(12), key=bytes(8))

    def test_symmetric_hash_equal_both_directions(self):
        fwd = udp_packet(src_ip="10.1.2.3", dst_ip="10.9.8.7",
                         sport=1111, dport=53, size=64)
        rev = udp_packet(src_ip="10.9.8.7", dst_ip="10.1.2.3",
                         sport=53, dport=1111, size=64)
        assert rss_hash(fwd) != rss_hash(rev)  # asymmetric by default
        assert rss_hash(fwd, symmetric=True) == rss_hash(rev, symmetric=True)


class TestSharding:
    def test_non_ip_frames_fall_back_to_shard_zero(self):
        arp = b"\xff" * 12 + b"\x08\x06" + bytes(46)
        ipv6 = udp6_packet(size=64)
        runt = b"\x01\x02\x03"
        for frame in (arp, ipv6, runt):
            assert rss_input(frame) is None
            assert rss_hash(frame) is None
            for n in (1, 2, 4, 8):
                assert rss_shard(frame, n) == 0

    def test_non_tcp_udp_ip_hashes_addresses_only(self):
        # ICMP: hashed over the 8-byte address pair, still sharded
        frame = udp_packet(src_ip="66.9.149.187", dst_ip="161.142.100.80",
                           size=64)
        icmp = bytearray(frame)
        icmp[23] = 1  # proto = ICMP
        assert rss_hash(bytes(icmp)) == 0x323E8FC2

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError, match="n_shards"):
            rss_shard(udp_packet(size=64), 0)

    def test_flow_purity_and_order_preserved(self):
        gen = TrafficGenerator(TrafficSpec(n_flows=40, packet_size=64, seed=9))
        frames = list(gen.packets(400))
        buffers = shard_frames(frames, 4)
        assert sum(len(b) for b in buffers) == len(frames)
        # every flow lands in exactly one shard...
        flow_shard = {}
        for shard, buf in enumerate(buffers):
            for frame in buf:
                flow = parse_five_tuple(bytes(frame))
                assert flow_shard.setdefault(flow, shard) == shard
        # ...multiple shards are actually used...
        assert sum(1 for b in buffers if len(b)) > 1
        # ...and per-flow frame order matches the unsharded stream
        per_flow_in = {}
        for frame in frames:
            per_flow_in.setdefault(parse_five_tuple(frame), []).append(frame)
        for buf in buffers:
            by_flow = {}
            for frame in buf:
                by_flow.setdefault(parse_five_tuple(bytes(frame)), []).append(
                    bytes(frame)
                )
            for flow, seq in by_flow.items():
                assert seq == per_flow_in[flow]

    def test_hash_stable_across_worker_counts(self):
        frames = [
            tcp_packet(src_ip=f"10.0.{i}.1", dst_ip="192.168.0.1",
                       sport=1000 + i, dport=80, size=64)
            for i in range(32)
        ]
        hashes = [rss_hash(f) for f in frames]
        # the hash is a pure function of the frame: recomputing and
        # changing the shard count never changes it
        assert hashes == [rss_hash(f) for f in frames]
        for n in (2, 3, 4, 8):
            assert [rss_shard(f, n) for f in frames] == \
                   [h % n for h in hashes]


# -- merge protocol -----------------------------------------------------------


def _worker_states(spec_dict, mutate_fns):
    """Per-worker item dicts: each fn mutates a fresh MapSet copy."""
    baseline_maps = MapSet(spec_dict)
    baseline = _dump_map_items(baseline_maps)
    states = []
    for fn in mutate_fns:
        maps = MapSet(spec_dict)
        fn(maps)
        states.append(_dump_map_items(maps))
    return baseline_maps, baseline, states


class TestMergeProtocol:
    ARRAY = {0: MapSpec("counters", "array", key_size=4, value_size=8,
                        max_entries=4)}
    HASH = {0: MapSpec("flows", "hash", key_size=4, value_size=4,
                       max_entries=8)}

    @staticmethod
    def _k(i):
        return struct.pack("<I", i)

    @staticmethod
    def _v(i, size=8):
        return struct.pack("<Q", i)[:size]

    def test_sum_policy_adds_counter_deltas(self):
        k, v = self._k, self._v
        maps, baseline, states = _worker_states(self.ARRAY, [
            lambda m: m[0].update(k(0), v(5)),
            lambda m: (m[0].update(k(0), v(7)), m[0].update(k(2), v(1))),
        ])
        conflicts = merge_map_shards(maps, baseline, states,
                                     default_merge_policies(maps))
        assert conflicts == []
        assert maps[0].lookup(k(0)) == v(12)  # 5 + 7 over a 0 baseline
        assert maps[0].lookup(k(2)) == v(1)
        assert maps[0].lookup(k(1)) == v(0)

    def test_sum_policy_exact_against_nonzero_baseline(self):
        k, v = self._k, self._v
        specs = self.ARRAY
        base_maps = MapSet(specs)
        base_maps[0].update(k(1), v(100))
        baseline = _dump_map_items(base_maps)
        # both workers started from 100 and counted up independently
        w0 = MapSet(specs)
        w0[0].update(k(1), v(103))
        w1 = MapSet(specs)
        w1[0].update(k(1), v(110))
        conflicts = merge_map_shards(
            base_maps, baseline,
            [_dump_map_items(w0), _dump_map_items(w1)],
            default_merge_policies(base_maps),
        )
        assert conflicts == []
        assert base_maps[0].lookup(k(1)) == v(113)  # 100 + 3 + 10

    def test_union_policy_unions_disjoint_flow_state(self):
        k = self._k
        maps, baseline, states = _worker_states(self.HASH, [
            lambda m: m[0].update(k(1), b"aaaa"),
            lambda m: m[0].update(k(2), b"bbbb"),
        ])
        conflicts = merge_map_shards(maps, baseline, states,
                                     default_merge_policies(maps))
        assert conflicts == []
        assert maps[0].lookup(k(1)) == b"aaaa"
        assert maps[0].lookup(k(2)) == b"bbbb"

    def test_union_policy_identical_writes_agree(self):
        k = self._k
        maps, baseline, states = _worker_states(self.HASH, [
            lambda m: m[0].update(k(3), b"same"),
            lambda m: m[0].update(k(3), b"same"),
        ])
        conflicts = merge_map_shards(maps, baseline, states,
                                     default_merge_policies(maps))
        assert conflicts == []
        assert maps[0].lookup(k(3)) == b"same"

    def test_union_policy_conflict_reported_and_last_writer_wins(self):
        k = self._k
        maps, baseline, states = _worker_states(self.HASH, [
            lambda m: m[0].update(k(1), b"AAAA"),
            lambda m: m[0].update(k(1), b"BBBB"),
        ])
        conflicts = merge_map_shards(maps, baseline, states,
                                     default_merge_policies(maps))
        assert len(conflicts) == 1
        conflict = conflicts[0]
        assert conflict.map_name == "flows" and conflict.key == k(1)
        assert conflict.values == {0: b"AAAA", 1: b"BBBB"}
        assert conflict.resolution == b"BBBB"
        assert maps[0].lookup(k(1)) == b"BBBB"
        assert "flows" in str(conflict)

    def test_delete_vs_update_is_a_conflict(self):
        k = self._k
        specs = self.HASH
        base_maps = MapSet(specs)
        base_maps[0].update(k(5), b"old!")
        baseline = _dump_map_items(base_maps)
        w0 = MapSet(specs)
        w0[0].update(k(5), b"old!")
        w0[0].delete(k(5))
        w1 = MapSet(specs)
        w1[0].update(k(5), b"new!")
        conflicts = merge_map_shards(
            base_maps, baseline,
            [_dump_map_items(w0), _dump_map_items(w1)],
            default_merge_policies(base_maps),
        )
        assert len(conflicts) == 1
        assert conflicts[0].values == {0: None, 1: b"new!"}
        assert base_maps[0].lookup(k(5)) == b"new!"

    def test_agreed_delete_is_applied(self):
        k = self._k
        specs = self.HASH
        base_maps = MapSet(specs)
        base_maps[0].update(k(5), b"old!")
        baseline = _dump_map_items(base_maps)
        w0 = MapSet(specs)
        w0[0].update(k(5), b"old!")
        w0[0].delete(k(5))
        w1 = MapSet(specs)
        w1[0].update(k(5), b"old!")  # untouched replica of the baseline
        conflicts = merge_map_shards(
            base_maps, baseline,
            [_dump_map_items(w0), _dump_map_items(w1)],
            default_merge_policies(base_maps),
        )
        assert conflicts == []
        assert base_maps[0].lookup(k(5)) is None

    def test_last_policy_override(self):
        k, v = self._k, self._v
        prog_specs = self.ARRAY
        maps, baseline, states = _worker_states(prog_specs, [
            lambda m: m[0].update(k(0), v(5)),
            lambda m: m[0].update(k(0), v(7)),
        ])
        policies = default_merge_policies(maps)
        policies[0] = "last"
        conflicts = merge_map_shards(maps, baseline, states, policies)
        assert conflicts == []
        assert maps[0].lookup(k(0)) == v(7)

    def test_bad_policy_name_rejected(self):
        pipeline = compile_program(firewall.build())
        with pytest.raises(ValueError, match="merge policy"):
            ParallelPipelineSimulator(pipeline, workers=2,
                                      merge_policies={"flows": "average"})


# -- report merging -----------------------------------------------------------


class TestReportMerge:
    def _report(self, cycles, out, total_cycles):
        rep = SimReport(clock_mhz=250.0, n_stages=10, keep_records=False)
        rep.cycles = cycles
        rep.packets_in = out
        for _ in range(out):
            rep.tally(XdpAction.TX, 0, 0, 0)
        rep.sum_total_cycles = total_cycles
        return rep

    def test_aggregates_sum_cycles_max(self):
        a = self._report(100, 3, 30)
        b = self._report(250, 5, 70)
        merged = merge_reports([a, b])
        assert merged.cycles == 250  # replicas run concurrently
        assert merged.packets_out == 8
        assert merged.sum_total_cycles == 100
        assert merged.latency_ns() == pytest.approx(
            (100 / 8) * merged.cycle_ns
        )

    def test_clock_mismatch_rejected(self):
        a = self._report(1, 1, 1)
        b = SimReport(clock_mhz=100.0, n_stages=10)
        with pytest.raises(ValueError, match="different clocks"):
            merge_reports([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_reports([])


# -- the headline property: worker-count invariance ---------------------------


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


class TestWorkerCountInvariance:
    def _reference(self, program, pipeline, frames, setup):
        vm_maps = MapSet(program.maps)
        setup(vm_maps)
        vm = Vm(program, maps=vm_maps)
        vm_results = [vm.run(f) for f in frames]

        sim_maps = MapSet(program.maps)
        setup(sim_maps)
        sim = PipelineSimulator(pipeline, maps=sim_maps,
                                options=SimOptions(keep_records=True))
        report = sim.run_packets(frames)
        return vm_maps, vm_results, sim_maps, report

    @pytest.mark.parametrize("workers", [2, 4])
    def test_matches_vm_and_single_queue(self, firewall_setup, workers):
        program, pipeline, frames, setup = firewall_setup
        vm_maps, vm_results, sim_maps, single = self._reference(
            program, pipeline, frames, setup
        )

        par_maps = MapSet(program.maps)
        setup(par_maps)
        psim = ParallelPipelineSimulator(
            pipeline, maps=par_maps,
            options=SimOptions(keep_records=True), workers=workers,
        )
        result = psim.run_stream(frames)

        assert result.workers == workers
        assert result.flow_partitionable
        assert sum(result.shard_sizes) == len(frames)
        assert sum(1 for s in result.shard_sizes if s) > 1  # really sharded

        # 1. same XDP action multiset (and counts merged exactly)
        assert result.report.action_counts == single.action_counts
        assert result.report.packets_out == single.packets_out

        # 2. byte-identical output frames per original trace position
        # (each flow's packets keep their shard-local order, so indexing
        # back through shard_indices reconstructs the full trace)
        parallel_out = {}
        for w, worker_report in enumerate(result.worker_reports):
            for rec in worker_report.records:
                original = result.shard_indices[w][rec.pid]
                parallel_out[original] = (rec.action, bytes(rec.data))
        assert len(parallel_out) == len(frames)
        for rec in single.records:
            assert parallel_out[rec.pid] == (rec.action, bytes(rec.data))
        for i, vm_res in enumerate(vm_results):
            assert parallel_out[i] == (vm_res.action, vm_res.packet)

        # 3. identical merged map state (vs both references)
        for fd in vm_maps:
            assert dict(par_maps[fd].items()) == dict(vm_maps[fd].items())
            assert dict(par_maps[fd].items()) == dict(sim_maps[fd].items())

    def test_single_worker_path_is_plain_simulator(self, firewall_setup):
        program, pipeline, frames, setup = firewall_setup
        _vm_maps, _vm_results, sim_maps, single = self._reference(
            program, pipeline, frames, setup
        )
        par_maps = MapSet(program.maps)
        setup(par_maps)
        psim = ParallelPipelineSimulator(
            pipeline, maps=par_maps,
            options=SimOptions(keep_records=True), workers=1,
        )
        result = psim.run_stream(frames)
        assert result.report.cycles == single.cycles
        assert result.report.action_counts == single.action_counts
        for fd in sim_maps:
            assert dict(par_maps[fd].items()) == dict(sim_maps[fd].items())

    def test_bad_worker_count_rejected(self, firewall_setup):
        _program, pipeline, _frames, _setup = firewall_setup
        with pytest.raises(ValueError, match="workers"):
            ParallelPipelineSimulator(pipeline, workers=0)


# -- failure surfacing --------------------------------------------------------


class TestWorkerFailures:
    def test_worker_exception_carries_frame_context(self, firewall_setup):
        program, pipeline, frames, setup = firewall_setup
        maps = MapSet(program.maps)
        setup(maps)
        psim = ParallelPipelineSimulator(
            pipeline, maps=maps,
            options=SimOptions(keep_records=False, max_cycles=3),
            workers=2,
        )
        with pytest.raises(ParallelSimError) as excinfo:
            psim.run_stream(frames)
        err = excinfo.value
        assert err.worker in (0, 1)
        assert err.frame_index >= 0  # mapped back to the original trace
        assert "worker" in str(err)
        assert "exceeded" in err.worker_traceback

    def test_single_queue_stream_error_carries_frame_window(
        self, firewall_setup
    ):
        program, pipeline, frames, setup = firewall_setup
        # codegen streams the firewall frame by frame; the interpreted
        # cycle loop prefetches a batch — the window says which
        for engine, window in (
            ("codegen", "1 frames read, offending frame index < 1, >= 0"),
            ("interpreted",
             "32 frames read, offending frame index < 32, >= 0"),
        ):
            maps = MapSet(program.maps)
            setup(maps)
            sim = PipelineSimulator(
                pipeline, maps=maps,
                options=SimOptions(engine=engine, keep_records=False,
                                   max_cycles=3),
            )
            with pytest.raises(SimError, match="while streaming") as excinfo:
                sim.run_stream(iter(frames), batch_size=32)
            assert window in str(excinfo.value), engine
