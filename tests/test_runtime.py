"""High-level runtime facade tests."""

import pathlib

import pytest

from repro.apps import firewall, toy_counter
from repro.ebpf.xdp import XdpAction
from repro.net.packet import FiveTuple, ipv4, udp_packet
from repro.runtime import HostMap, XdpOffload

SOURCE = """
.map hits array key=4 value=8 entries=2

    r2 = 0
    *(u32 *)(r10 - 4) = r2
    r1 = map[hits]
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


class TestConstruction:
    def test_from_program(self):
        nic = XdpOffload(toy_counter.build())
        assert nic.pipeline.n_stages > 10

    def test_from_source_text(self):
        nic = XdpOffload(SOURCE)
        assert nic.map_names() == ["hits"]

    def test_from_path(self, tmp_path):
        path = tmp_path / "p.ebpf"
        path.write_text(SOURCE)
        nic = XdpOffload(path)
        assert nic.map_names() == ["hits"]

    def test_from_path_string(self, tmp_path):
        path = tmp_path / "p.ebpf"
        path.write_text(SOURCE)
        nic = XdpOffload(str(path))
        assert nic.map_names() == ["hits"]


class TestHostMap:
    def _nic(self):
        return XdpOffload(SOURCE)

    def test_counter_increments(self):
        nic = self._nic()
        nic.process([udp_packet(size=64)] * 25)
        assert nic.map("hits").read_u64(0) == 25

    def test_int_and_bytes_keys_equivalent(self):
        nic = self._nic()
        hits = nic.map("hits")
        hits[1] = 7
        assert hits[bytes([1, 0, 0, 0])] == (7).to_bytes(8, "little")
        assert 1 in hits and 0 in hits  # array slots always exist

    def test_missing_key_raises(self):
        nic = self._nic()
        with pytest.raises(KeyError):
            nic.map("hits")[99]

    def test_geometry_exposed(self):
        hits = self._nic().map("hits")
        assert hits.key_size == 4 and hits.value_size == 8
        assert hits.name == "hits"
        assert len(hits) == 2

    def test_items(self):
        nic = self._nic()
        nic.map("hits")[0] = 5
        values = {int.from_bytes(k, "little"): int.from_bytes(v, "little")
                  for k, v in nic.map("hits").items()}
        assert values[0] == 5


class TestTraffic:
    def test_process_one(self):
        nic = XdpOffload(toy_counter.build())
        action, data = nic.process_one(toy_counter.packet_for_key(2))
        assert action == XdpAction.TX
        assert len(data) >= 60

    def test_rate_limited(self):
        nic = XdpOffload(SOURCE)
        report = nic.process([udp_packet(size=64)] * 100, rate_mpps=25.0)
        assert report.throughput_mpps == pytest.approx(25.0, rel=0.15)

    def test_latency_requires_traffic(self):
        nic = XdpOffload(SOURCE)
        with pytest.raises(RuntimeError):
            nic.latency_ns()
        nic.process([udp_packet(size=64)])
        assert 500 < nic.latency_ns() < 2000

    def test_firewall_workflow(self):
        nic = XdpOffload(firewall.build())
        flow = FiveTuple(ipv4("10.0.0.1"), ipv4("10.9.9.9"), 17, 1234, 53)
        frame = udp_packet(src_ip=flow.src_ip, dst_ip=flow.dst_ip,
                           sport=flow.sport, dport=flow.dport, size=64)
        action, _ = nic.process_one(frame)
        assert action == XdpAction.DROP
        firewall.allow_flow(nic.maps, flow)
        action, _ = nic.process_one(frame)
        assert action == XdpAction.TX


class TestReports:
    def test_summary_and_backends(self):
        nic = XdpOffload(SOURCE)
        nic.process([udp_packet(size=64)] * 10)
        text = nic.summary()
        assert "pipeline" in text and "Mpps" in text
        assert "entity" in nic.vhdl()
        assert nic.resources().luts > 0


class TestStreamBatchBoundaries:
    """The host-map synchronization point of process_stream(on_batch=...):
    a write made in the hook is observed by every frame of the next
    batch and none of the drained one, under every execution engine."""

    @staticmethod
    def _flow():
        return FiveTuple(src_ip=ipv4("10.0.0.1"), dst_ip=ipv4("10.9.9.9"),
                         proto=17, sport=7777, dport=53)

    def _run(self, engine):
        flow = self._flow()
        frame = udp_packet(src_ip=flow.src_ip, dst_ip=flow.dst_ip,
                           sport=flow.sport, dport=flow.dport, size=64)
        nic = XdpOffload(firewall.build(), engine=engine)

        def allow_after_first_batch(offload, index):
            if index == 0:
                firewall.allow_flow(offload.maps, flow)

        report = nic.process_stream([frame] * 64, batch_size=32,
                                    on_batch=allow_after_first_batch)
        return report

    @pytest.mark.parametrize("engine", [None, "interpreted", "codegen"])
    def test_boundary_write_splits_batches_exactly(self, engine):
        report = self._run(engine)
        # batch 0 (32 frames): unknown flow -> DROP; the hook's write is
        # then observed by all 32 frames of batch 1 -> TX
        assert report.count_action(XdpAction.DROP) == 32
        assert report.count_action(XdpAction.TX) == 32
        assert report.packets_in == report.packets_out == 64

    def test_engines_agree_bit_for_bit(self):
        reports = {
            engine: self._run(engine)
            for engine in (None, "interpreted", "codegen")
        }
        reference = reports.pop(None)
        for engine, report in reports.items():
            assert report.action_counts == reference.action_counts, engine
            assert report.cycles == reference.cycles, engine
            assert report.packets_out == reference.packets_out, engine

    def test_map_object_replacement_is_seen(self):
        """The boundary invalidates cached per-fd handles, so the hook
        may replace whole Map objects, not just mutate them."""
        from repro.ebpf.maps import MapSet

        program = firewall.build()
        flow = self._flow()
        frame = udp_packet(src_ip=flow.src_ip, dst_ip=flow.dst_ip,
                           sport=flow.sport, dport=flow.dport, size=64)
        nic = XdpOffload(program)

        def swap_in_fresh_allowing_maps(offload, index):
            if index == 0:
                fresh = MapSet(program.maps)
                firewall.allow_flow(fresh, flow)
                for fd, new_map in fresh.maps.items():
                    offload.maps.maps[fd] = new_map

        report = nic.process_stream([frame] * 20, batch_size=10,
                                    on_batch=swap_in_fresh_allowing_maps)
        assert report.count_action(XdpAction.DROP) == 10
        assert report.count_action(XdpAction.TX) == 10

    def test_without_hook_stream_is_unchanged(self):
        frame = toy_counter.packet_for_key(2)
        nic = XdpOffload(toy_counter.build())
        streamed = nic.process_stream([frame] * 40, batch_size=16)
        nic2 = XdpOffload(toy_counter.build())
        plain = nic2.process_stream([frame] * 40, batch_size=16,
                                    on_batch=lambda off, i: None)
        assert streamed.action_counts == plain.action_counts
        assert streamed.packets_out == plain.packets_out == 40

    def test_empty_stream_returns_empty_report(self):
        nic = XdpOffload(toy_counter.build())
        report = nic.process_stream([], on_batch=lambda off, i: None)
        assert report.packets_in == 0
        assert report.cycles == 0

    def test_hook_called_once_per_batch(self):
        nic = XdpOffload(toy_counter.build())
        seen = []
        nic.process_stream([toy_counter.packet_for_key(0)] * 70,
                           batch_size=32,
                           on_batch=lambda off, i: seen.append(i))
        assert seen == [0, 1, 2]


class TestMergeSerial:
    def test_concatenates_reports_on_one_timeline(self):
        from repro.hwsim.stats import SimReport

        frame = toy_counter.packet_for_key(1)
        nic = XdpOffload(toy_counter.build())
        whole = nic.process([frame] * 30)

        nic2 = XdpOffload(toy_counter.build())
        merged = nic2.process_stream([frame] * 30, batch_size=10,
                                     on_batch=lambda off, i: None)
        assert merged.packets_in == whole.packets_in == 30
        assert merged.action_counts == whole.action_counts
        # per-packet records are re-based onto one monotonic timeline
        pids = [rec.pid for rec in merged.records]
        assert pids == sorted(pids) and len(set(pids)) == 30
        exits = [rec.exit_cycle for rec in merged.records]
        assert exits == sorted(exits)

    def test_clock_mismatch_rejected(self):
        from repro.hwsim.stats import SimReport

        left = SimReport(clock_mhz=250.0, n_stages=4)
        right = SimReport(clock_mhz=100.0, n_stages=4)
        with pytest.raises(ValueError):
            left.merge_serial(right)
