"""Second-generation application suite: behaviour and LRU eviction-order
invariance. Their engine differentials on the registered (Zipfian,
million-flow) workloads are cells of ``tests/test_matrix.py``."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    SECOND_GEN_APPS,
    ct_firewall,
    maglev,
    nat64,
    syn_cookie,
    vxlan_term,
)
from repro.core.compiler import compile_program
from repro.ebpf.asm import assemble_program
from repro.ebpf.isa import MapSpec
from repro.ebpf.maps import MapSet, bank_of
from repro.ebpf.verifier import VerifierError, verify
from repro.ebpf.vm import Vm
from repro.ebpf.xdp import XdpAction
from repro.hwsim import compare_runs, run_differential
from repro.hwsim.engines import pipeline_engine_names
from repro.hwsim.sim import SimOptions
from repro.net.packet import (
    FiveTuple,
    checksum16,
    ipv4,
    parse_five_tuple,
    tcp_packet,
    udp6_packet,
    udp_packet,
)
from repro.rtl import RTL_ENGINES
from repro.workloads import make_workload, parse_workload_spec
from tests.test_matrix import check_cell


def vm_for(prog, setup=None):
    maps = MapSet(prog.maps)
    if setup is not None:
        setup(maps)
    return Vm(prog, maps=maps), maps


# ---------------------------------------------------------------------------
# Conntrack firewall
# ---------------------------------------------------------------------------


class TestCtFirewall:
    OUT = FiveTuple(ipv4("10.1.2.3"), ipv4("93.184.216.34"), 17, 4242, 53)

    def _pkt(self, flow):
        return udp_packet(flow.src_ip, flow.dst_ip,
                          sport=flow.sport, dport=flow.dport)

    def test_outbound_learns_and_forwards(self):
        vm, maps = vm_for(ct_firewall.build())
        assert vm.run(self._pkt(self.OUT)).action == XdpAction.TX
        assert ct_firewall.tracked_count(maps) == 1
        assert ct_firewall.flow_packets(maps, self.OUT) == 1
        assert vm.run(self._pkt(self.OUT)).action == XdpAction.TX
        assert ct_firewall.flow_packets(maps, self.OUT) == 2

    def test_inbound_established_passes(self):
        vm, maps = vm_for(ct_firewall.build())
        vm.run(self._pkt(self.OUT))
        reply = self._pkt(self.OUT.reversed())
        res = vm.run(reply)
        assert res.action == XdpAction.PASS
        # the reply refreshed the same entry's counter
        assert ct_firewall.flow_packets(maps, self.OUT) == 2

    def test_inbound_unknown_dropped(self):
        vm, maps = vm_for(ct_firewall.build())
        stray = FiveTuple(ipv4("8.8.8.8"), ipv4("10.1.2.3"), 17, 53, 4242)
        assert vm.run(self._pkt(stray)).action == XdpAction.DROP
        assert ct_firewall.tracked_count(maps) == 0

    def test_non_ip_passes_untracked(self):
        vm, maps = vm_for(ct_firewall.build())
        frame = bytearray(udp_packet())
        frame[12:14] = b"\x86\xdd"  # not IPv4
        assert vm.run(bytes(frame)).action == XdpAction.PASS
        assert ct_firewall.tracked_count(maps) == 0

    def test_lru_pressure_evicts_oldest(self):
        # conntrack is 16 independent LRU banks of 256 entries, the bank
        # picked by bank_of(key): each overfull bank loses its own oldest
        # connections, however old another bank's are
        vm, maps = vm_for(ct_firewall.build())
        spec = ct_firewall.CONNTRACK_MAP
        per_bank = spec.max_entries // spec.banks
        flows = [
            FiveTuple(ipv4("10.0.0.1"), ipv4("1.1.1.1"), 17, 1000 + (i >> 8),
                      1000 + (i & 0xFF))
            for i in range(spec.max_entries + 50)
        ]
        for flow in flows:
            vm.run(self._pkt(flow))
        # the per-bank reference: each bank keeps its newest per_bank
        # flows, oldest first
        banks = [[] for _ in range(spec.banks)]
        for flow in flows:
            key = ct_firewall.conntrack_key(flow)
            banks[bank_of(key, spec.banks)].append(flow)
        kept = [bank[-per_bank:] for bank in banks]
        gone = [flow for bank in banks for flow in bank[:-per_bank]]
        overfull = [b for b, bank in enumerate(banks) if len(bank) > per_bank]
        assert 0 < len(overfull) < spec.banks  # some banks never fill
        assert ct_firewall.tracked_count(maps) == sum(map(len, kept))
        assert ct_firewall.tracked_count(maps) < spec.max_entries
        assert ct_firewall.eviction_count(maps) == len(gone) > 50
        # bank by bank, oldest-first recency order matches arrival order
        # (read it before any host lookup: lookups refresh recency)
        assert ct_firewall.lru_order(maps) == [
            ct_firewall.conntrack_key(f) for bank in kept for f in bank]
        # the oldest connections of each overfull bank are gone, the
        # rest remain
        for flow in gone:
            assert ct_firewall.flow_packets(maps, flow) is None
        oldest = kept[overfull[0]][0]
        assert ct_firewall.flow_packets(maps, oldest) == 1
        # ...and that very host read made it its bank's most recently used
        order = ct_firewall.lru_order(maps)
        last_of_bank = sum(map(len, kept[:overfull[0] + 1])) - 1
        assert order[last_of_bank] == ct_firewall.conntrack_key(oldest)

    def test_pipeline_has_serialization_window(self):
        # lookup + miss-path update on one lru_hash span stages: the
        # compiler must interlock them or recency order is a hazard.
        pipeline = compile_program(ct_firewall.build())
        assert pipeline.serial_windows


# ---------------------------------------------------------------------------
# Maglev load balancer
# ---------------------------------------------------------------------------


class TestMaglev:
    def test_table_shares_near_equal(self):
        table = maglev.maglev_table(4)
        shares = [table.count(i) for i in range(4)]
        assert sum(shares) == maglev.TABLE_SIZE
        assert max(shares) - min(shares) <= 1

    def test_minimal_disruption_on_backend_removal(self):
        t4 = maglev.maglev_table(4)
        t3 = maglev.maglev_table(3)
        stable = sum(1 for a, b in zip(t4, t3) if a == b)
        # Far more than the surviving backends' fair share of a naive
        # mod-N rehash (which would keep ~1/4 of slots) stays put.
        assert stable > maglev.TABLE_SIZE // 2

    def test_rejects_degenerate_pools(self):
        with pytest.raises(ValueError):
            maglev.maglev_table(0)
        with pytest.raises(ValueError):
            maglev.maglev_table(252, table_size=251)

    def test_redirects_match_host_mirror(self):
        prog = maglev.build()
        vm, maps = vm_for(prog, maglev.default_setup)
        table = maglev.maglev_table(len(maglev.DEFAULT_BACKENDS))
        flows = [
            FiveTuple(ipv4("172.16.0.1") + i, ipv4("198.51.100.7"), 17,
                      20000 + i, 443)
            for i in range(64)
        ]
        for flow in flows:
            frame = udp_packet(flow.src_ip, flow.dst_ip,
                               sport=flow.sport, dport=flow.dport)
            assert vm.run(frame).action == XdpAction.REDIRECT
        counters = maglev.backend_counters(
            maps, len(maglev.DEFAULT_BACKENDS))
        assert sum(counters.values()) == len(flows)
        expected = {i: 0 for i in counters}
        for flow in flows:
            expected[maglev.backend_for(table, flow)] += 1
        assert counters == expected

    def test_flow_affinity(self):
        # same 5-tuple, same backend — every time
        flow = FiveTuple(ipv4("203.0.113.9"), ipv4("198.51.100.7"),
                         6, 55555, 80)
        table = maglev.maglev_table(4)
        assert len({maglev.backend_for(table, flow) for _ in range(5)}) == 1

    def test_unpopulated_table_redirects_to_zero(self):
        # Array lookups never miss: an unpopulated table reads as
        # backend 0 / ifindex 0, so population is part of bring-up.
        vm, _ = vm_for(maglev.build())
        res = vm.run(udp_packet())
        assert res.action == XdpAction.REDIRECT
        assert res.redirect_ifindex == 0


# ---------------------------------------------------------------------------
# SYN-cookie scrubber
# ---------------------------------------------------------------------------


class TestSynCookie:
    FLOW = FiveTuple(ipv4("203.0.113.50"), ipv4("10.9.9.9"), 6, 39999, 443)

    def _tcp(self, flags, seq=0, ack=0):
        return tcp_packet(self.FLOW.src_ip, self.FLOW.dst_ip,
                          sport=self.FLOW.sport, dport=self.FLOW.dport,
                          flags=flags, seq=seq, ack=ack)

    def test_syn_reflected_as_cookie_synack(self):
        vm, maps = vm_for(syn_cookie.build(), syn_cookie.default_setup)
        isn = 0x1234ABCD
        res = vm.run(self._tcp(0x02, seq=isn))
        assert res.action == XdpAction.TX
        out = res.packet
        # reflected: MACs, addresses and ports all swapped
        assert out[0:6] == b"\x02\x00\x00\x00\x00\x02"
        assert int.from_bytes(out[26:30], "big") == self.FLOW.dst_ip
        assert int.from_bytes(out[30:34], "big") == self.FLOW.src_ip
        assert int.from_bytes(out[34:36], "big") == self.FLOW.dport
        assert int.from_bytes(out[36:38], "big") == self.FLOW.sport
        assert out[47] == 0x12  # SYN|ACK
        assert int.from_bytes(out[42:46], "big") == isn + 1
        cookie = syn_cookie.syn_cookie(self.FLOW, syn_cookie.DEFAULT_SECRET)
        assert int.from_bytes(out[38:42], "big") == cookie
        # no state was allocated for the half-open connection
        assert syn_cookie.admitted(maps, self.FLOW) is None
        assert syn_cookie.stat(maps, syn_cookie.STAT_SYNACK) == 1

    def test_cookie_ack_admits_connection(self):
        vm, maps = vm_for(syn_cookie.build(), syn_cookie.default_setup)
        cookie = syn_cookie.syn_cookie(self.FLOW, syn_cookie.DEFAULT_SECRET)
        res = vm.run(self._tcp(0x10, ack=(cookie + 1) & 0xFFFFFFFF))
        assert res.action == XdpAction.PASS
        assert syn_cookie.admitted(maps, self.FLOW) == 1
        assert syn_cookie.stat(maps, syn_cookie.STAT_ADMITTED) == 1
        # subsequent data packets ride the established path
        res = vm.run(self._tcp(0x18))
        assert res.action == XdpAction.PASS
        assert syn_cookie.admitted(maps, self.FLOW) == 2

    def test_bogus_ack_dropped(self):
        vm, maps = vm_for(syn_cookie.build(), syn_cookie.default_setup)
        assert vm.run(self._tcp(0x10, ack=12345)).action == XdpAction.DROP
        assert syn_cookie.admitted(maps, self.FLOW) is None
        assert syn_cookie.stat(maps, syn_cookie.STAT_DROPPED) == 1

    def test_unadmitted_data_dropped(self):
        vm, maps = vm_for(syn_cookie.build(), syn_cookie.default_setup)
        assert vm.run(self._tcp(0x18)).action == XdpAction.DROP
        assert syn_cookie.stat(maps, syn_cookie.STAT_DROPPED) == 1

    def test_unarmed_scrubber_bypasses(self):
        vm, maps = vm_for(syn_cookie.build())  # secret never set
        assert vm.run(self._tcp(0x02)).action == XdpAction.PASS
        assert syn_cookie.stat(maps, syn_cookie.STAT_SYNACK) == 0

    def test_cookie_binds_tuple_and_secret(self):
        c = syn_cookie.syn_cookie(self.FLOW, 1)
        assert c != syn_cookie.syn_cookie(self.FLOW, 2)
        other = dataclasses.replace(self.FLOW, sport=40000)
        assert c != syn_cookie.syn_cookie(other, 1)
        assert 0 <= c <= 0xFFFFFFFF

    def test_pipeline_has_serialization_window(self):
        pipeline = compile_program(syn_cookie.build())
        assert pipeline.serial_windows


def syn_cookie_paths(flow: FiveTuple = TestSynCookie.FLOW):
    """One frame down each of syn_cookie's paths under its default
    secret: a SYN (reflected; touches no ``conns``), the cookie-ACK that
    admits ``flow``, data on ``flow``, and data on a flow never admitted
    (``flow``'s source port + 1)."""
    def tcp(f, flags, ack=0):
        return tcp_packet(f.src_ip, f.dst_ip, sport=f.sport, dport=f.dport,
                          flags=flags, ack=ack)

    cookie = syn_cookie.syn_cookie(flow, syn_cookie.DEFAULT_SECRET)
    stranger = dataclasses.replace(flow, sport=flow.sport + 1)
    return (tcp(flow, 0x02), tcp(flow, 0x10, ack=(cookie + 1) & 0xFFFFFFFF),
            tcp(flow, 0x18), tcp(stranger, 0x18))


def ct_firewall_paths(flow: FiveTuple = TestCtFirewall.OUT):
    """One frame down each of ct_firewall's paths: the outbound ``flow``
    (tracked), its reply (established) and a non-IPv4 frame (never
    touches ``conntrack``)."""
    def udp(f):
        return udp_packet(f.src_ip, f.dst_ip, sport=f.sport, dport=f.dport)

    other = bytearray(udp(flow))
    other[12:14] = b"\x86\xdd"  # not IPv4
    return udp(flow), udp(flow.reversed()), bytes(other)


# ---------------------------------------------------------------------------
# NAT64
# ---------------------------------------------------------------------------


class TestNat64:
    V6_SRC = bytes.fromhex("fd00") + bytes(8) + bytes.fromhex("c0a80001aabb")
    V4_DST = ipv4("192.0.2.99")

    def _frame(self, payload=b"hello-nat64"):
        return udp6_packet(src_ip=self.V6_SRC,
                           dst_ip=nat64.nat64_dst(self.V4_DST),
                           sport=5353, dport=53, payload=payload)

    def test_translates_to_valid_ipv4(self):
        vm, maps = vm_for(nat64.build())
        frame = self._frame()
        res = vm.run(frame)
        assert res.action == XdpAction.TX
        out = res.packet
        assert len(out) == len(frame) - 20  # 40B IPv6 -> 20B IPv4
        assert out[12:14] == b"\x08\x00"
        assert out[14] == 0x45 and out[22] == 64 and out[23] == 17
        assert out[26:30] == nat64.translated_src(self.V6_SRC)
        assert out[30:34] == self.V4_DST.to_bytes(4, "big")
        total_len = int.from_bytes(out[16:18], "big")
        assert total_len == len(frame) - 14 - 40 + 20 - max(
            0, 60 - len(frame))  # padding never counted in v6 payload len
        assert checksum16(out[14:34]) == 0  # valid header checksum
        # UDP header shifted intact, checksum cleared, payload untouched
        assert out[34:38] == frame[54:58]
        assert out[40:42] == bytes(2)
        assert out[42:] == frame[62:]
        assert nat64.translated_count(maps) == 1
        # the result parses as the flow a v4 stack would see
        tup = parse_five_tuple(out)
        assert tup.sport == 5353 and tup.dport == 53

    def test_out_of_prefix_passes(self):
        vm, maps = vm_for(nat64.build())
        frame = udp6_packet(src_ip=self.V6_SRC,
                            dst_ip=bytes.fromhex("20010db8") + bytes(12))
        res = vm.run(frame)
        assert res.action == XdpAction.PASS
        assert res.packet == frame
        assert nat64.translated_count(maps) == 0

    def test_ipv4_traffic_passes(self):
        vm, _ = vm_for(nat64.build())
        frame = udp_packet()
        res = vm.run(frame)
        assert res.action == XdpAction.PASS
        assert res.packet == frame

    def test_non_udp_ipv6_passes(self):
        vm, _ = vm_for(nat64.build())
        frame = bytearray(self._frame())
        frame[20] = 58  # ICMPv6: only the UDP fast path is expressible
        assert vm.run(bytes(frame)).action == XdpAction.PASS


# ---------------------------------------------------------------------------
# VXLAN termination
# ---------------------------------------------------------------------------


class TestVxlanTerm:
    def _tunnel_frames(self, n=40, vnis=16):
        spec = parse_workload_spec(
            f"tunnel-encap:packets={n},flows=500,vnis={vnis}")
        return make_workload(spec).materialize()

    def test_registered_vni_decapsulates(self):
        vm, maps = vm_for(vxlan_term.build())
        for vni in range(16):
            vxlan_term.register_vni(maps, vni)
        for frame in self._tunnel_frames():
            res = vm.run(frame)
            assert res.action == XdpAction.PASS
            # the decapsulated frame is exactly the inner frame
            assert res.packet == frame[vxlan_term.DECAP_BYTES:]
        assert sum(
            vxlan_term.vni_count(maps, v) for v in range(16)) == 40

    def test_unknown_vni_dropped(self):
        vm, maps = vm_for(vxlan_term.build(), vxlan_term.default_setup)
        seen = {"pass": 0, "drop": 0}
        for frame in self._tunnel_frames(n=200):
            vni = int.from_bytes(frame[46:49], "big")
            res = vm.run(frame)
            if vni in vxlan_term.DEFAULT_VNIS:
                assert res.action == XdpAction.PASS
                seen["pass"] += 1
            else:
                assert res.action == XdpAction.DROP
                assert res.packet == frame  # dropped before decap
                seen["drop"] += 1
        assert seen["pass"] and seen["drop"]

    def test_non_vxlan_udp_passes(self):
        vm, _ = vm_for(vxlan_term.build(), vxlan_term.default_setup)
        frame = udp_packet(dport=53, size=80)
        res = vm.run(frame)
        assert res.action == XdpAction.PASS
        assert res.packet == frame


# ---------------------------------------------------------------------------
# each app's registered workload through the engines: its matrix cells
# ---------------------------------------------------------------------------

SECOND_GEN = sorted(SECOND_GEN_APPS)


class TestEngineDifferentials:
    @pytest.mark.parametrize("engine", pipeline_engine_names())
    @pytest.mark.parametrize("name", SECOND_GEN)
    def test_engine_matches_vm_at_line_rate(self, name, engine):
        check_cell(name, "path_parallel", f"vm-{engine}")

    @pytest.mark.parametrize("name", SECOND_GEN)
    def test_pipeline_engines_cycle_exact(self, name):
        check_cell(name, "path_parallel", "interpreted-codegen")


class TestThreeWay:
    @pytest.mark.parametrize("name", SECOND_GEN)
    def test_vm_hwsim_rtl_agree(self, name):
        check_cell(name, "path_parallel", "three-way-rtl")


# ---------------------------------------------------------------------------
# LRU eviction order must be engine-invariant
# ---------------------------------------------------------------------------


_TINY_LRU_MAPS = {
    "t": MapSpec("t", "lru_hash", key_size=4, value_size=8, max_entries=4)
}

# lookup-then-update on one lru_hash — the minimal program whose recency
# behaviour covers both the touch (hit) and insert/evict (miss) paths.
_TINY_LRU_SRC = """
    r7 = *(u32 *)(r1 + 4)
    r6 = *(u32 *)(r1 + 0)
    r2 = r6
    r2 += 18
    if r2 > r7 goto pass
    r2 = *(u32 *)(r6 + 14)
    *(u32 *)(r10 - 4) = r2
    r1 = map[t]
    r2 = r10
    r2 += -4
    call 1
    if r0 == 0 goto insert
    r1 = 1
    lock *(u64 *)(r0 + 0) += r1
    r0 = 2
    exit
insert:
    r1 = 1
    *(u64 *)(r10 - 16) = r1
    r1 = map[t]
    r2 = r10
    r2 += -4
    r3 = r10
    r3 += -16
    r4 = 0
    call 2
    r0 = 2
    exit
pass:
    r0 = 1
    exit
"""


def _tiny_lru_program(banks=1):
    maps = {name: dataclasses.replace(spec, banks=banks)
            for name, spec in _TINY_LRU_MAPS.items()}
    return assemble_program(_TINY_LRU_SRC, maps=maps, name="tiny_lru")


def _key_frames(keys):
    return [k.to_bytes(4, "little").ljust(46, b"\x00").rjust(60, b"\xee")
            for k in keys]


class TestLruEngineInvariance:
    # one bank: the map-wide LRU order, the global-recency witness
    PROGRAM = _tiny_lru_program()
    PIPELINE = compile_program(PROGRAM)
    # two banks of two entries: packets of two banks share the window
    BANKED = _tiny_lru_program(banks=2)
    BANKED_PIPELINE = compile_program(BANKED)

    def test_tiny_program_is_windowed(self):
        assert self.PIPELINE.serial_windows
        assert self.PIPELINE.held_windows[0][3] is None
        assert self.BANKED_PIPELINE.held_windows[0][3] is not None

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=9),
                    min_size=1, max_size=50))
    def test_banked_eviction_order_matches_vm(self, keys):
        # compare_runs holds every pair to the VM's recency order
        run_differential(
            self.BANKED, _key_frames(keys), pipeline=self.BANKED_PIPELINE,
            gap=1, engines=("vm", *pipeline_engine_names()),
        ).raise_on_mismatch()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=9),
                    min_size=1, max_size=50))
    def test_eviction_order_matches_vm(self, keys):
        run_differential(
            self.PROGRAM, _key_frames(keys), pipeline=self.PIPELINE, gap=1,
            engines=("vm", *pipeline_engine_names()),
        ).raise_on_mismatch()

    def test_rtl_eviction_order_matches_vm(self):
        # 9 distinct keys through a 4-entry table with interleaved
        # touches: every packet either evicts or reorders.
        keys = [1, 2, 3, 4, 1, 5, 6, 2, 7, 8, 9, 5, 1, 1, 3]
        run_differential(
            self.PROGRAM, _key_frames(keys), pipeline=self.PIPELINE,
            engines=("vm", *RTL_ENGINES),
        ).raise_on_mismatch()

    def test_ct_firewall_churn_eviction_parity(self):
        # Full app under flow churn: enough distinct flows to overflow
        # conntrack's banks, at line rate on both pipeline engines, where
        # packets of two banks share the window — every bank's final
        # recency order must still match the VM exactly, and so must the
        # RTL's, one packet in flight.
        prog = ct_firewall.build()
        spec = parse_workload_spec(
            "flow-churn:packets=12000,flows=1000,churn=1.0")
        frames = tuple(make_workload(spec).materialize())
        # gap=1 outruns injection across the serialization window, so
        # give the input queue room for the whole trace
        result = run_differential(
            prog, frames, gap=1,
            sim_options=SimOptions(input_queue_capacity=16384),
            engines=("vm", *pipeline_engine_names(), "rtl"))
        result.raise_on_mismatch()
        # the two pipeline engines also agree on every packet's cycles
        assert compare_runs(result.runs["interpreted"],
                            result.runs["codegen"]) == []
        # and the run genuinely exercised eviction, bank by bank
        vm, maps = vm_for(prog)
        for f in frames:
            vm.run(f)
        assert ct_firewall.eviction_count(maps) > 0
        assert list(result.runs["vm"].map_items[1]) \
            == ct_firewall.lru_order(maps)


# ---------------------------------------------------------------------------
# Expressiveness boundary (docs/apps.md findings, kept honest by tests)
# ---------------------------------------------------------------------------


class TestExpressivenessFindings:
    def test_unbounded_checksum_loop_rejected(self):
        # The NAT64 ICMPv6/TCP translation needs a checksum over the
        # whole payload: a data-dependent loop, which the verifier (and
        # hence the hardware mapping) rejects.
        source = """
            r7 = *(u32 *)(r1 + 4)
            r6 = *(u32 *)(r1 + 0)
            r0 = 0
            r2 = r6
        csum:
            r3 = r2
            r3 += 2
            if r3 > r7 goto done
            r4 = *(u16 *)(r2 + 0)
            r0 += r4
            r2 += 2
            goto csum
        done:
            exit
        """
        with pytest.raises(VerifierError, match="backward"):
            verify(assemble_program(source))

    def test_all_second_gen_apps_verify_and_compile(self):
        for name, module in SECOND_GEN_APPS.items():
            prog = module.build()
            verify(prog)
            pipeline = compile_program(prog)
            assert pipeline.n_stages > 0, name
