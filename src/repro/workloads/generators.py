"""Stateful, seeded traffic generators behind the WorkloadSpec API.

Every generator is *restartable*: ``frames()`` rebuilds all state from
the spec's seed, so two passes yield bit-identical sequences — the
property the serving daemon's offline replay and the differential
harnesses rely on. Flow populations are addressed arithmetically via
the :func:`repro.net.flows.flow_at` enumeration, so million-flow
populations never materialise per-flow objects; per-flow *protocol*
state (the TCP handshake phase machine) grows only with the flows
actually touched.

The three option-less IPv4/UDP kinds (``udp-zipf``, ``flow-churn``,
``tunnel-encap``'s inner frame) and the serving feeder's ``synth:``
source all build frames through one kernel, :class:`Ipv4Template`,
which remembers the frames it built: a recurring flow is one shared
``bytes`` object within a pass and across passes. Memory is bounded
by constants — at most :data:`FRAME_MEMO_MAX` = 64Ki frames (and 8 MiB
of frame bytes) per packet size, :data:`MAX_TEMPLATES` = 4 sizes.

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
from functools import lru_cache
from itertools import islice
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

# The 14 contiguous bytes a flow owns in an option-less IPv4/UDP frame:
# header checksum, source, destination, L4 source port, L4 destination.
_FLOW_OFF = _IP_OFF + 10
_FLOW_FIELDS = Struct("!HIIHH")
_IP_WORDS = Struct("!10H")      # the option-less IPv4 header, for its sum

#: Frames one :class:`Ipv4Template` remembers before it forgets them all.
FRAME_MEMO_MAX = 1 << 16
#: ... and the frame bytes they may add up to (5.5k frames at 1500 B).
FRAME_MEMO_BYTES = 8 << 20
#: Packet sizes whose template (and memo) stay alive at once.
MAX_TEMPLATES = 4

#: Standard VXLAN UDP destination port (RFC 7348).
VXLAN_PORT = 4789


class Workload:
    """Base class: a spec plus a restartable ``frames()`` source."""

    kind = "?"
    description = ""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec

    def _ranks(self) -> Iterator[int]:
        """One pass of flow ranks: ``spec.packets`` seeded draws."""
        spec = self.spec
        sampler = make_sampler(spec.flows, spec.distribution,
                               spec.zipf_exponent)
        return islice(sampler.ranks(random.Random(spec.seed)), spec.packets)

    def frames(self) -> Iterator[bytes]:
        """A fresh, deterministic pass over the workload's packets."""
        raise NotImplementedError

    def materialize(self) -> List[bytes]:
        """The whole trace as a list (tests and small benches)."""
        return list(self.frames())


class Ipv4Template:
    """One ``packet_size``'s UDP frame, patched per flow index.

    ``frame(i)`` is ``udp_packet`` of ``flow_at(i)``'s addresses and
    ports at ``size=packet_size``, L4 checksum left 0 ("not computed"),
    built from parts computed once: the bytes before and after the
    flow's 14 (:data:`_FLOW_OFF`) and the one's-complement sum of the
    rest of the IPv4 header, so the header checksum is arithmetic on
    the two addresses (``2**16 ≡ 1 mod 0xFFFF``: an address adds its
    value) and the 14 bytes are one ``Struct`` call.

    Built frames are remembered by index; the memo is emptied when it
    reaches its bound (:data:`FRAME_MEMO_MAX` frames or
    :data:`FRAME_MEMO_BYTES`), which only costs later packets of those
    flows a rebuild — a frame is a pure function of its index.
    """

    def __init__(self, packet_size: int) -> None:
        frame = bytearray(udp_packet(size=packet_size))
        frame[_FLOW_OFF:_FLOW_OFF + _FLOW_FIELDS.size] = bytes(
            _FLOW_FIELDS.size)
        frame[_L4_OFF + 6:_L4_OFF + 8] = b"\x00\x00"
        self._head = bytes(frame[:_FLOW_OFF])
        self._tail = bytes(frame[_FLOW_OFF + _FLOW_FIELDS.size:])
        # a header's words sum to total >= 0x4500, which folds to
        # (total - 1) % 0xFFFF + 1; keep the address-free part of total - 1
        self._base = sum(_IP_WORDS.unpack_from(frame, _IP_OFF)) - 1
        self.memo: Dict[int, bytes] = {}
        self.memo_max = min(FRAME_MEMO_MAX, FRAME_MEMO_BYTES // len(frame))

    def frame(self, index: int) -> bytes:
        """Flow ``index``'s frame (field formulas are ``flow_at``'s)."""
        frame = self.memo.get(index)
        if frame is None:
            src = 0x0A000001 + index % 0xFFFFFE
            dst = 0xC0A80001 + index % 254
            frame = self._head + _FLOW_FIELDS.pack(
                0xFFFE - (self._base + src + dst) % 0xFFFF,
                src, dst, 1024 + index % 60000, 53) + self._tail
            if len(self.memo) >= self.memo_max:
                self.memo.clear()
            self.memo[index] = frame
        return frame


ipv4_template = lru_cache(maxsize=MAX_TEMPLATES)(Ipv4Template)


class UdpZipfWorkload(Workload):
    """Zipfian (or uniform) UDP flows synthesised from one template.

    The serving feeder's ``synth:`` source is this workload — the
    feeder delegates here — and a ``udp-zipf`` workload over N flows
    covers the same 5-tuples as ``repro.net.flows.make_flows(N)``.
    """

    kind = "udp-zipf"
    description = "Zipfian UDP flows over the flow_at enumeration"

    def frames(self) -> Iterator[bytes]:
        return map(ipv4_template(self.spec.packet_size).frame, self._ranks())


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

    def __init__(self, spec: WorkloadSpec) -> None:
        super().__init__(spec)
        self.data_packets = spec.param_int("data_packets", 2, 0)

    def frames(self) -> Iterator[bytes]:
        from ..net.flows import flow_at

        spec = self.spec
        # rank -> (phase, connection#); phases: 0 = send SYN,
        # 1 = send ACK, 2..2+data-1 = send data, last = send FIN.
        state: Dict[int, List[int]] = {}
        last_phase = 2 + self.data_packets
        proto_tcp = 6
        for rank in self._ranks():
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

    def __init__(self, spec: WorkloadSpec) -> None:
        super().__init__(spec)
        self.vnis = spec.param_int("vnis", 16, 1, 1 << 24)

    def frames(self) -> Iterator[bytes]:
        vnis = self.vnis
        inner_frame = ipv4_template(self.spec.packet_size).frame
        for rank in self._ranks():
            vni = rank % vnis
            # Outer source tracks the originating VTEP (one per VNI).
            yield udp_packet(
                src_ip=0xAC100001 + vni,        # 172.16.0.1 + vni
                dst_ip=0xAC1000FE,              # 172.16.0.254 (this VTEP)
                sport=49152 + (rank % 16384),
                dport=VXLAN_PORT,
                payload=vxlan_header(vni) + inner_frame(rank),
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

    def __init__(self, spec: WorkloadSpec) -> None:
        super().__init__(spec)
        self.churn = spec.param_float("churn", 0.01, 0.0)

    def frames(self) -> Iterator[bytes]:
        churn = self.churn
        indices = (rank + int(i * churn)
                   for i, rank in enumerate(self._ranks()))
        return map(ipv4_template(self.spec.packet_size).frame, indices)


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
        prefix = bytes.fromhex("0064ff9b") + bytes(8)
        src_net = bytes.fromhex("fd000000000000000000")  # fd00::/64 + pad
        for rank in self._ranks():
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

    def __init__(self, spec: WorkloadSpec) -> None:
        super().__init__(spec)
        self.dst_ip = spec.param_int("dst", 0xC0A80001, 0, 0xFFFFFFFF)
        self.dport = spec.param_int("dport", 80, 0, 0xFFFF)

    def frames(self) -> Iterator[bytes]:
        spec = self.spec
        dst_ip, dport = self.dst_ip, self.dport
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
