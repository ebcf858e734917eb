"""The differential case table: every app, the hazard programs and the
``bpf_redirect_map`` corpus program, each as the program, the host state
it runs over and one trace of frames.

``tests/test_matrix.py`` runs every case through every engine pair; the
other test files draw their programs and frames from here instead of
building their own. A trace opens with the app's short fixture (the
frames the RTL leg has always run), so a prefix a slower leg takes
starts the same way, and the second-generation apps run their
registered workloads (Zipfian, a million flows where the spec says so).
"""

import dataclasses
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Tuple

from repro.apps import (
    APP_WORKLOADS,
    SECOND_GEN_APPS,
    dnat,
    firewall,
    icmp_echo,
    leaky_bucket,
    router,
    suricata,
    toy_counter,
    tunnel,
)
from repro.cli import load_program
from repro.core.compiler import CompileOptions
from repro.ebpf.asm import assemble_program
from repro.ebpf.isa import MapSpec, Program
from repro.ebpf.maps import MapSet
from repro.net.packet import FiveTuple, ipv4, mac, tcp_packet, udp_packet
from repro.workloads import make_workload, parse_workload_spec

CORPUS = Path(__file__).parent / "corpus"
# the two schedule layouts: exclusive blocks share stages, and §3.3's one
# block per stage
LAYOUTS = {"path_parallel": CompileOptions(),
           "paper": CompileOptions(path_parallel=False)}


# Every trace opens with its app's short fixture, at most this many
# frames: the prefix the slow legs (the delta-cycle RTL interpreter, the
# compiler-option corners) run.
SHORT = 4


class Case(NamedTuple):
    build: Callable[[], Program]
    setup: Optional[Callable[[MapSet], None]]
    frames: Tuple[bytes, ...]
    # Whether the trace fires flushes on a pipeline engine at line rate
    # (in both layouts); None leaves it open.
    flushes: Optional[bool] = None


F_ALLOWED = FiveTuple(ipv4("10.0.0.1"), ipv4("192.168.9.9"), 17, 5555, 53)
F_OTHER = FiveTuple(ipv4("10.0.0.2"), ipv4("192.168.9.9"), 17, 6666, 53)
F_BAD = FiveTuple(ipv4("6.6.6.6"), ipv4("10.0.0.1"), 17, 31337, 53)
F1 = FiveTuple(ipv4("10.0.0.1"), ipv4("192.168.0.1"), 17, 1000, 53)
F2 = FiveTuple(ipv4("10.0.0.2"), ipv4("192.168.0.2"), 17, 2000, 53)
F_SURICATA = FiveTuple(ipv4("6.6.6.6"), ipv4("192.168.0.1"), 17, 666, 53)


def udp(ft: FiveTuple, **kw) -> bytes:
    return udp_packet(src_ip=ft.src_ip, dst_ip=ft.dst_ip,
                      sport=ft.sport, dport=ft.dport, size=64, **kw)


@lru_cache(maxsize=None)
def app_frames(name: str, packets: int) -> Tuple[bytes, ...]:
    """The app's registered workload trace, truncated to ``packets``
    (a prefix of any longer one)."""
    spec = dataclasses.replace(parse_workload_spec(APP_WORKLOADS[name]),
                               packets=packets)
    return tuple(make_workload(spec).materialize())


def fw_setup(maps: MapSet) -> None:
    for flow in (F_ALLOWED, F1, F2):
        firewall.allow_flow(maps, flow)


def rt_setup(maps: MapSet) -> None:
    router.add_route(maps, ipv4("192.168.7.1"),
                     mac("02:0a:0b:0c:0d:0e"), mac("02:01:02:03:04:05"), 5)
    router.add_route(maps, ipv4("192.168.1.1"), mac("02:00:00:00:01:01"),
                     mac("02:00:00:00:01:02"), 3)


def _tn_setup(maps: MapSet) -> None:
    for dst, local, remote, smac, dmac in (
        ("10.5.0.9", "100.0.0.1", "100.0.0.2", "02:ff:00:00:00:01",
         "02:ff:00:00:00:02"),
        ("10.0.0.9", "172.16.0.1", "172.16.0.2", "02:00:00:00:02:01",
         "02:00:00:00:02:02"),
        ("192.168.0.50", "100.0.0.1", "100.0.0.2", "02:11:22:33:44:55",
         "02:66:77:88:99:aa"),
    ):
        tunnel.add_tunnel(maps, ipv4(dst), ipv4(local), ipv4(remote),
                          mac(smac), mac(dmac))


def _su_setup(maps: MapSet) -> None:
    for flow in (F_BAD, F1, F_SURICATA):
        suricata.add_bypass(maps, flow)


def _ports_setup(maps: MapSet) -> None:
    for key in (1, 2, 5):
        maps[1].update(key.to_bytes(4, "little"),
                       (10 + key).to_bytes(4, "little"))


HAZARD_MAPS = {"m": MapSpec("m", "array", 4, 8, 4)}
HAZARD_PACKET = bytes(range(64))
# a read-modify-write of one slot: back to back, a RAW hazard per packet
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
# the same count by an atomic add: nothing to flush
ATOMIC_COUNTER = RMW.replace(
    "    r2 = *(u64 *)(r0 + 0)\n    r2 += 1\n    *(u64 *)(r0 + 0) = r2\n",
    "    r2 = 1\n    lock *(u64 *)(r0 + 0) += r2\n")

_ROUTED = [udp_packet(dst_ip="192.168.1.200", size=64),  # routed
           udp_packet(dst_ip="8.8.8.8", size=64),        # no route
           udp_packet(dst_ip="192.168.1.4", size=64, ttl=1)]  # ttl expired
_RTL_ROUTER = [udp_packet(dst_ip="192.168.7.200", size=64, ttl=9),
               udp_packet(dst_ip="8.8.8.8", size=64),
               udp_packet(dst_ip="192.168.7.4", size=64, ttl=1)]
_DNAT_RTL = [udp_packet(src_ip="172.16.0.1", dst_ip="8.8.4.4",
                        sport=7000, dport=53, size=64),
             udp_packet(src_ip="172.16.0.2", dst_ip="8.8.4.4",
                        sport=7001, dport=53, size=64),
             udp_packet(src_ip="172.16.0.1", dst_ip="8.8.4.4",
                        sport=7000, dport=53, size=64),
             tcp_packet(size=64)]

CASES = {
    "toy_counter": Case(
        toy_counter.build, None, tuple(
            [toy_counter.packet_for_key(k) for k in (1, 2, 1, 0)]
            # short frames: the implicit drop paths
            + [b"\x00" * 8, b"", bytes(13), b"\x00" * 10]
            + [toy_counter.packet_for_key(k) for k in (0, 1, 2, 3, 1, 1, 2) * 6]
            + [toy_counter.packet_for_key(k % 4) for k in range(24)])),
    "firewall": Case(
        firewall.build, fw_setup, tuple(
            [udp(F_ALLOWED), udp(F_OTHER), udp(F_ALLOWED.reversed()),
             tcp_packet(size=64)]
            + [udp(ft) for ft in (F1, F1.reversed(), F2,
                                  FiveTuple(1, 2, 17, 3, 4))] * 8
            + [tcp_packet(size=64)]
            + [udp(ft) for ft in (F1, F1.reversed(),
                                  FiveTuple(1, 2, 17, 3, 4))] * 10
            # one allowed flow back to back: its atomic counters
            + [udp(F1)] * 50),
        flushes=False),
    "router": Case(router.build, rt_setup, tuple(_RTL_ROUTER + _ROUTED * 10)),
    "router_rmw": Case(
        lambda: router.build(use_atomic=False), rt_setup, tuple(
            [udp_packet(dst_ip="192.168.7.200", size=64, ttl=9),
             udp_packet(dst_ip="192.168.7.3", size=64, ttl=255)]
            + _ROUTED * 10
            # routed packets back to back share the stats slot: a RAW
            # hazard on every one
            + [udp_packet(dst_ip="192.168.1.200", size=64)] * 30),
        flushes=True),
    "tunnel": Case(tunnel.build, _tn_setup, tuple(
        [udp_packet(dst_ip="10.5.0.9", size=90),
         udp_packet(dst_ip="9.9.9.9", size=64)]
        + [udp_packet(dst_ip="10.0.0.9", size=96),
           udp_packet(dst_ip="10.9.9.9", size=96)] * 8
        + [udp_packet(dst_ip="192.168.0.50", size=96),
           udp_packet(dst_ip="1.2.3.4", size=64),
           udp_packet(dst_ip="192.168.0.50", size=64)] * 8)),
    "suricata": Case(suricata.build, _su_setup, tuple(
        [udp(F_BAD), udp_packet(size=64), tcp_packet(size=64)]
        + [udp(F1)] * 12
        + [udp(F_SURICATA), udp_packet(src_ip="10.0.0.3", size=64),
           tcp_packet(src_ip="10.0.0.4", size=64)] * 10)),
    "dnat": Case(dnat.build, None, tuple(
        _DNAT_RTL
        + [udp_packet(src_ip=f"10.1.0.{i}", dst_ip="10.0.0.80",
                      sport=5000 + i, dport=80) for i in range(6)] * 3
        + [udp_packet(src_ip=f"10.1.0.{i + 1}", dst_ip="8.8.8.8",
                      sport=4000 + i, dport=53, size=64)
           for i in range(6) for _ in range(3)])),
    "leaky_bucket": Case(leaky_bucket.build, None, (udp(F_ALLOWED),) * 4),
    "icmp_echo": Case(icmp_echo.build, None, (
        icmp_echo.echo_request(seq=1), icmp_echo.echo_request(seq=2),
        udp_packet(size=64))),
    **{name: Case(module.build, getattr(module, "default_setup", None),
                  app_frames(name, 400))
       for name, module in SECOND_GEN_APPS.items()},
    "rmw": Case(lambda: assemble_program(RMW, maps=HAZARD_MAPS, name="rmw"),
                None, (HAZARD_PACKET,) * 40, flushes=True),
    "atomic_counter": Case(
        lambda: assemble_program(ATOMIC_COUNTER, maps=HAZARD_MAPS,
                                 name="atomic_counter"),
        None, (HAZARD_PACKET,) * 40, flushes=False),
    # entries for keys 1, 2 and 5: hits and misses, a short frame
    "redirect_map": Case(
        lambda: load_program(str(CORPUS / "redirect_map.ebpf")),
        _ports_setup, tuple(bytes([k]) + bytes(63)
                            for k in (1, 0, 2, 2, 5, 3, 1, 7, 5)) + (b"",)),
}
