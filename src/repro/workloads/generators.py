"""Stateful, seeded traffic generators behind the WorkloadSpec API.

Every generator is *restartable*: ``frames()`` rebuilds all state from
the spec's seed, so two passes yield bit-identical sequences — the
property the serving daemon's offline replay and the differential
harnesses rely on. Flow populations are addressed arithmetically via
:func:`repro.net.flows.flow_at`, so million-flow populations never
materialise per-flow objects; per-flow *protocol* state (the TCP
handshake phase machine) grows only with the flows actually touched.

Registered kinds:

``udp-zipf``      Zipfian (or uniform) UDP flows, template-patched.
``tcp-handshake`` Per-flow TCP lifecycle: SYN, ACK, data, FIN, repeat.
``tunnel-encap``  VXLAN-encapsulated inner UDP flows (outer dport 4789).
``flow-churn``    Zipfian ranks over a sliding population — old flows
                  retire as new ones appear, stressing LRU eviction.
``syn-flood``     Spoofed-source TCP SYNs at one victim (DDoS shape).
``udp6-nat64``    IPv6 UDP flows into 64:ff9b::/96 (NAT64 input).
"""

from __future__ import annotations

import random
from struct import Struct
from typing import Dict, Iterator, List, Type

from ..net.packet import (
    ETH_HLEN,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_SYN,
    tcp_packet,
    udp6_packet,
    udp_packet,
)
from .spec import WorkloadSpec
from .zipf import make_sampler

_IP_OFF = ETH_HLEN        # IPv4 header offset in the synth templates
_L4_OFF = ETH_HLEN + 20   # L4 header offset (no IP options in templates)

_ADDRS = Struct("!II")          # IPv4 source, destination
_PORTS = Struct("!HH")          # L4 source, destination
_IP_WORDS = Struct("!10H")      # the option-less IPv4 header, for its sum
_U16 = Struct("!H")

#: Standard VXLAN UDP destination port (RFC 7348).
VXLAN_PORT = 4789


class Workload:
    """Base class: a spec plus a restartable ``frames()`` source."""

    kind = "?"
    description = ""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec

    def _sampler(self):
        spec = self.spec
        return make_sampler(spec.flows, spec.distribution,
                            spec.zipf_exponent)

    def frames(self) -> Iterator[bytes]:
        """A fresh, deterministic pass over the workload's packets."""
        raise NotImplementedError

    def materialize(self) -> List[bytes]:
        """The whole trace as a list (tests and small benches)."""
        return list(self.frames())


def patch_ipv4_flow(template: bytearray, flow) -> bytes:
    """Patch a UDP/TCP template's addresses/ports to ``flow`` and fix
    the IPv4 checksum (L4 checksum left 0 = "not computed")."""
    _ADDRS.pack_into(template, _IP_OFF + 12, flow.src_ip, flow.dst_ip)
    _PORTS.pack_into(template, _L4_OFF, flow.sport, flow.dport)
    _U16.pack_into(template, _IP_OFF + 10, 0)
    total = sum(_IP_WORDS.unpack_from(template, _IP_OFF))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    _U16.pack_into(template, _IP_OFF + 10, ~total & 0xFFFF)
    _U16.pack_into(template, _L4_OFF + 6, 0)
    return bytes(template)


class UdpZipfWorkload(Workload):
    """Zipfian (or uniform) UDP flows synthesised from one template.

    Exactly the serving feeder's ``synth:`` arithmetic — the feeder
    delegates here — so a ``udp-zipf`` workload over N flows covers the
    same 5-tuples as ``repro.net.flows.make_flows(N)``.
    """

    kind = "udp-zipf"
    description = "Zipfian UDP flows over the flow_at enumeration"

    def frames(self) -> Iterator[bytes]:
        from ..net.flows import flow_at

        spec = self.spec
        template = bytearray(udp_packet(size=spec.packet_size))
        rng = random.Random(spec.seed)
        sampler = self._sampler()
        for _ in range(spec.packets):
            yield patch_ipv4_flow(template, flow_at(sampler.sample(rng)))


class TcpHandshakeWorkload(Workload):
    """Per-flow TCP connection lifecycles over a Zipfian population.

    Each flow cycles SYN → ACK → ``data_packets``×PSH/ACK → FIN/ACK and
    then starts a new connection; the phase machine keys on the flow
    rank, so heavy flows churn through many short connections while the
    tail mostly sends lone SYNs — the mix a conntrack firewall or a
    SYN-proxy actually sees. ISNs are a deterministic hash of (rank,
    connection count).

    Params: ``data_packets`` (default 2).
    """

    kind = "tcp-handshake"
    description = "stateful TCP handshake/data/teardown sequences"

    def frames(self) -> Iterator[bytes]:
        from ..net.flows import flow_at

        spec = self.spec
        data_packets = spec.param_int("data_packets", 2)
        rng = random.Random(spec.seed)
        sampler = self._sampler()
        # rank -> (phase, connection#); phases: 0 = send SYN,
        # 1 = send ACK, 2..2+data-1 = send data, last = send FIN.
        state: Dict[int, List[int]] = {}
        last_phase = 2 + data_packets
        proto_tcp = 6
        for _ in range(spec.packets):
            rank = sampler.sample(rng)
            st = state.get(rank)
            if st is None:
                st = [0, 0]
                state[rank] = st
            phase, conn = st
            flow = flow_at(rank, proto=proto_tcp, dport=80)
            isn = (rank * 2654435761 + conn * 40503) & 0xFFFFFFFF
            srv_isn = (isn ^ 0x5CA1AB1E) & 0xFFFFFFFF
            if phase == 0:
                frame = tcp_packet(
                    src_ip=flow.src_ip, dst_ip=flow.dst_ip,
                    sport=flow.sport, dport=flow.dport,
                    flags=TCP_SYN, seq=isn, size=spec.packet_size,
                )
            elif phase == 1:
                frame = tcp_packet(
                    src_ip=flow.src_ip, dst_ip=flow.dst_ip,
                    sport=flow.sport, dport=flow.dport,
                    flags=TCP_ACK, seq=(isn + 1) & 0xFFFFFFFF,
                    ack=(srv_isn + 1) & 0xFFFFFFFF,
                    size=spec.packet_size,
                )
            elif phase < last_phase:
                frame = tcp_packet(
                    src_ip=flow.src_ip, dst_ip=flow.dst_ip,
                    sport=flow.sport, dport=flow.dport,
                    flags=TCP_PSH | TCP_ACK,
                    seq=(isn + phase - 1) & 0xFFFFFFFF,
                    ack=(srv_isn + 1) & 0xFFFFFFFF,
                    size=spec.packet_size,
                )
            else:
                frame = tcp_packet(
                    src_ip=flow.src_ip, dst_ip=flow.dst_ip,
                    sport=flow.sport, dport=flow.dport,
                    flags=TCP_FIN | TCP_ACK,
                    seq=(isn + last_phase - 1) & 0xFFFFFFFF,
                    ack=(srv_isn + 1) & 0xFFFFFFFF,
                    size=spec.packet_size,
                )
            if phase >= last_phase:
                st[0] = 0
                st[1] = conn + 1
            else:
                st[0] = phase + 1
            yield frame


def vxlan_header(vni: int) -> bytes:
    """An 8-byte VXLAN header with the I flag set (RFC 7348)."""
    return b"\x08\x00\x00\x00" + (vni & 0xFFFFFF).to_bytes(3, "big") + b"\x00"


class TunnelEncapWorkload(Workload):
    """VXLAN-encapsulated inner UDP flows.

    Outer: Ethernet/IPv4/UDP to port 4789 from a per-tunnel source;
    payload: VXLAN header (VNI = inner flow rank % ``vnis``) + a full
    inner Ethernet/IPv4/UDP frame of the Zipfian flow. Feeds the
    ``vxlan_term`` app; ``packet_size`` sets the *inner* frame size.

    Params: ``vnis`` (default 16).
    """

    kind = "tunnel-encap"
    description = "VXLAN-encapsulated Zipfian inner UDP flows"

    def frames(self) -> Iterator[bytes]:
        from ..net.flows import flow_at

        spec = self.spec
        vnis = spec.param_int("vnis", 16)
        rng = random.Random(spec.seed)
        sampler = self._sampler()
        inner_template = bytearray(udp_packet(size=spec.packet_size))
        for _ in range(spec.packets):
            rank = sampler.sample(rng)
            inner = patch_ipv4_flow(inner_template, flow_at(rank))
            vni = rank % vnis
            # Outer source tracks the originating VTEP (one per VNI).
            yield udp_packet(
                src_ip=0xAC100001 + vni,        # 172.16.0.1 + vni
                dst_ip=0xAC1000FE,              # 172.16.0.254 (this VTEP)
                sport=49152 + (rank % 16384),
                dport=VXLAN_PORT,
                payload=vxlan_header(vni) + inner,
            )


class FlowChurnWorkload(Workload):
    """Zipfian ranks over a population that slides over time.

    The concrete flow for rank r at packet i is ``flow_at(r + floor(i *
    churn))``: heavy ranks stay heavy, but the flows carrying them are
    continuously replaced, so a conntrack table sees constant arrivals
    of never-before-seen flows — the LRU-eviction stress test.

    Params: ``churn`` — population offset advance per packet (default
    0.01 = one wholly new flow every 100 packets at rank 0).
    """

    kind = "flow-churn"
    description = "Zipfian flows over a sliding (churning) population"

    def frames(self) -> Iterator[bytes]:
        from ..net.flows import flow_at

        spec = self.spec
        churn = spec.param_float("churn", 0.01)
        rng = random.Random(spec.seed)
        sampler = self._sampler()
        template = bytearray(udp_packet(size=spec.packet_size))
        for i in range(spec.packets):
            rank = sampler.sample(rng) + int(i * churn)
            yield patch_ipv4_flow(template, flow_at(rank))


class Udp6Nat64Workload(Workload):
    """IPv6/UDP flows addressed into the NAT64 well-known prefix.

    Sources live under a ULA prefix with the flow rank in the low
    bytes; destinations are ``64:ff9b::/96`` with the embedded IPv4 of
    the rank's :func:`~repro.net.flows.flow_at` destination — exactly
    the traffic the ``nat64`` app translates. Ports follow the flow
    enumeration too, so the translated v4 packet is predictable.
    """

    kind = "udp6-nat64"
    description = "IPv6 UDP flows into the NAT64 well-known prefix"

    def frames(self) -> Iterator[bytes]:
        from ..net.flows import flow_at

        spec = self.spec
        rng = random.Random(spec.seed)
        sampler = self._sampler()
        prefix = bytes.fromhex("0064ff9b") + bytes(8)
        src_net = bytes.fromhex("fd000000000000000000")  # fd00::/64 + pad
        for _ in range(spec.packets):
            rank = sampler.sample(rng)
            flow = flow_at(rank)
            yield udp6_packet(
                src_ip=src_net + (rank & 0xFFFFFFFFFFFF).to_bytes(6, "big"),
                dst_ip=prefix + flow.dst_ip.to_bytes(4, "big"),
                sport=flow.sport,
                dport=flow.dport,
                size=max(spec.packet_size, 62),
            )


class SynFloodWorkload(Workload):
    """Spoofed-source TCP SYN flood at a single victim.

    Source addresses/ports are uniform over the seeded PRNG (the
    ``flows`` knob is ignored — spoofed sources don't revisit), the
    victim is fixed; feeds the SYN-cookie scrubber's drop path.

    Params: ``dst`` — victim IPv4 as an integer (default 192.168.0.1),
    ``dport`` (default 80).
    """

    kind = "syn-flood"
    description = "spoofed-source TCP SYN flood at one victim"

    def frames(self) -> Iterator[bytes]:
        spec = self.spec
        dst_ip = spec.param_int("dst", 0xC0A80001)
        dport = spec.param_int("dport", 80)
        rng = random.Random(spec.seed)
        for _ in range(spec.packets):
            yield tcp_packet(
                src_ip=rng.getrandbits(32) or 1,
                dst_ip=dst_ip,
                sport=1024 + rng.randrange(60000),
                dport=dport,
                flags=TCP_SYN,
                seq=rng.getrandbits(32),
                size=spec.packet_size,
            )


WORKLOADS: Dict[str, Type[Workload]] = {
    cls.kind: cls
    for cls in (
        UdpZipfWorkload,
        TcpHandshakeWorkload,
        TunnelEncapWorkload,
        FlowChurnWorkload,
        SynFloodWorkload,
        Udp6Nat64Workload,
    )
}


def workload_names() -> List[str]:
    return sorted(WORKLOADS)


def make_workload(spec: WorkloadSpec) -> Workload:
    """Instantiate the registered generator for ``spec.kind``."""
    cls = WORKLOADS.get(spec.kind)
    if cls is None:
        raise ValueError(
            f"unknown workload kind {spec.kind!r} "
            f"(expected one of: {', '.join(workload_names())})"
        )
    return cls(spec)
