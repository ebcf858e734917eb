"""Packet construction and parsing.

A minimal but correct network packet substrate: Ethernet, IPv4, IPv6, ARP,
UDP and TCP headers with real checksum computation. The evaluation
applications (firewall, router, tunnel, DNAT, Suricata filter) parse and
rewrite these headers inside eBPF programs, and the traffic generators in
:mod:`repro.net.flows` build packets with it.

Headers are plain dataclasses with ``pack()``/``parse()``; the composite
builders (:func:`udp_packet`, :func:`tcp_packet`) produce complete frames
with correct lengths and checksums.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

ETH_P_IP = 0x0800
ETH_P_IPV6 = 0x86DD
ETH_P_ARP = 0x0806

IPPROTO_ICMP = 1
IPPROTO_TCP = 6
IPPROTO_UDP = 17
IPPROTO_IPIP = 4

ETH_HLEN = 14
IPV4_HLEN = 20
IPV6_HLEN = 40
UDP_HLEN = 8
TCP_HLEN = 20

MIN_FRAME = 60  # 64B wire frame minus 4B FCS


class PacketError(ValueError):
    """Raised on malformed packets or invalid field values."""


def mac(addr: str) -> bytes:
    """Parse ``aa:bb:cc:dd:ee:ff`` into 6 bytes."""
    parts = addr.split(":")
    if len(parts) != 6:
        raise PacketError(f"bad MAC address {addr!r}")
    return bytes(int(p, 16) for p in parts)


def mac_str(raw: bytes) -> str:
    return ":".join(f"{b:02x}" for b in raw)


def ipv4(addr: str) -> int:
    """Parse dotted-quad into a host-order integer."""
    parts = addr.split(".")
    if len(parts) != 4:
        raise PacketError(f"bad IPv4 address {addr!r}")
    value = 0
    for p in parts:
        octet = int(p)
        if not 0 <= octet <= 255:
            raise PacketError(f"bad IPv4 address {addr!r}")
        value = (value << 8) | octet
    return value


def ipv4_str(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def checksum16(data: bytes) -> int:
    """RFC 1071 internet checksum over ``data``."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@dataclass
class Ethernet:
    dst: bytes = b"\x02\x00\x00\x00\x00\x01"
    src: bytes = b"\x02\x00\x00\x00\x00\x02"
    ethertype: int = ETH_P_IP

    def pack(self) -> bytes:
        if len(self.dst) != 6 or len(self.src) != 6:
            raise PacketError("MAC addresses must be 6 bytes")
        return self.dst + self.src + struct.pack(">H", self.ethertype)

    @classmethod
    def parse(cls, data: bytes) -> "Ethernet":
        if len(data) < ETH_HLEN:
            raise PacketError("frame too short for Ethernet header")
        return cls(bytes(data[0:6]), bytes(data[6:12]),
                   struct.unpack_from(">H", data, 12)[0])


@dataclass
class IPv4:
    src: int = 0x0A000001  # 10.0.0.1
    dst: int = 0x0A000002  # 10.0.0.2
    proto: int = IPPROTO_UDP
    ttl: int = 64
    total_length: int = 0  # filled by pack() callers
    ident: int = 0
    flags_frag: int = 0x4000  # DF
    tos: int = 0

    def pack(self, payload_len: int) -> bytes:
        total = IPV4_HLEN + payload_len
        header = struct.pack(
            ">BBHHHBBHII",
            0x45, self.tos, total, self.ident, self.flags_frag,
            self.ttl, self.proto, 0, self.src, self.dst,
        )
        csum = checksum16(header)
        return header[:10] + struct.pack(">H", csum) + header[12:]

    @classmethod
    def parse(cls, data: bytes) -> "IPv4":
        if len(data) < IPV4_HLEN:
            raise PacketError("packet too short for IPv4 header")
        (vihl, tos, total, ident, flags_frag, ttl, proto, _csum, src, dst
         ) = struct.unpack_from(">BBHHHBBHII", data)
        if vihl >> 4 != 4:
            raise PacketError("not an IPv4 packet")
        hdr = cls(src=src, dst=dst, proto=proto, ttl=ttl, ident=ident,
                  flags_frag=flags_frag, tos=tos)
        hdr.total_length = total
        return hdr


@dataclass
class IPv6:
    src: bytes = bytes(15) + b"\x01"
    dst: bytes = bytes(15) + b"\x02"
    next_header: int = IPPROTO_UDP
    hop_limit: int = 64
    traffic_class: int = 0
    flow_label: int = 0

    def pack(self, payload_len: int) -> bytes:
        if len(self.src) != 16 or len(self.dst) != 16:
            raise PacketError("IPv6 addresses must be 16 bytes")
        first = (6 << 28) | (self.traffic_class << 20) | self.flow_label
        return (struct.pack(">IHBB", first, payload_len, self.next_header,
                            self.hop_limit) + self.src + self.dst)

    @classmethod
    def parse(cls, data: bytes) -> "IPv6":
        if len(data) < IPV6_HLEN:
            raise PacketError("packet too short for IPv6 header")
        first, payload_len, next_header, hop_limit = struct.unpack_from(">IHBB", data)
        if first >> 28 != 6:
            raise PacketError("not an IPv6 packet")
        return cls(src=bytes(data[8:24]), dst=bytes(data[24:40]),
                   next_header=next_header, hop_limit=hop_limit,
                   traffic_class=(first >> 20) & 0xFF, flow_label=first & 0xFFFFF)


@dataclass
class Udp:
    sport: int = 10000
    dport: int = 53

    def pack(self, payload: bytes, src_ip: int = 0, dst_ip: int = 0) -> bytes:
        length = UDP_HLEN + len(payload)
        pseudo = struct.pack(">IIBBH", src_ip, dst_ip, 0, IPPROTO_UDP, length)
        header = struct.pack(">HHHH", self.sport, self.dport, length, 0)
        csum = checksum16(pseudo + header + payload)
        if csum == 0:
            csum = 0xFFFF
        return struct.pack(">HHHH", self.sport, self.dport, length, csum)

    @classmethod
    def parse(cls, data: bytes) -> "Udp":
        if len(data) < UDP_HLEN:
            raise PacketError("packet too short for UDP header")
        sport, dport = struct.unpack_from(">HH", data)
        return cls(sport, dport)


TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10


@dataclass
class Tcp:
    sport: int = 10000
    dport: int = 80
    seq: int = 0
    ack: int = 0
    flags: int = TCP_ACK
    window: int = 0xFFFF

    def pack(self, payload: bytes, src_ip: int = 0, dst_ip: int = 0) -> bytes:
        length = TCP_HLEN + len(payload)
        pseudo = struct.pack(">IIBBH", src_ip, dst_ip, 0, IPPROTO_TCP, length)
        header = struct.pack(
            ">HHIIBBHHH", self.sport, self.dport, self.seq, self.ack,
            (TCP_HLEN // 4) << 4, self.flags, self.window, 0, 0,
        )
        csum = checksum16(pseudo + header + payload)
        return header[:16] + struct.pack(">H", csum) + header[18:]

    @classmethod
    def parse(cls, data: bytes) -> "Tcp":
        if len(data) < TCP_HLEN:
            raise PacketError("packet too short for TCP header")
        sport, dport, seq, ack, off, flags, window = struct.unpack_from(
            ">HHIIBBH", data
        )
        return cls(sport, dport, seq, ack, flags, window)


def udp_packet(
    src_ip: str | int = "10.0.0.1",
    dst_ip: str | int = "10.0.0.2",
    sport: int = 10000,
    dport: int = 53,
    payload: bytes = b"",
    size: Optional[int] = None,
    eth_src: bytes = b"\x02\x00\x00\x00\x00\x02",
    eth_dst: bytes = b"\x02\x00\x00\x00\x00\x01",
    ttl: int = 64,
) -> bytes:
    """Build a complete Ethernet/IPv4/UDP frame.

    ``size`` (total frame length) pads the payload; sizes below the
    64-byte minimum (60 bytes without FCS) are padded up like real NICs do.
    """
    src = ipv4(src_ip) if isinstance(src_ip, str) else src_ip
    dst = ipv4(dst_ip) if isinstance(dst_ip, str) else dst_ip
    if size is not None:
        want = max(size, MIN_FRAME) - ETH_HLEN - IPV4_HLEN - UDP_HLEN
        if want < len(payload):
            raise PacketError(f"size {size} too small for payload")
        payload = payload + bytes(want - len(payload))
    udp = Udp(sport, dport).pack(payload, src, dst)
    ip = IPv4(src=src, dst=dst, proto=IPPROTO_UDP, ttl=ttl).pack(UDP_HLEN + len(payload))
    eth = Ethernet(eth_dst, eth_src, ETH_P_IP).pack()
    frame = eth + ip + udp + payload
    if len(frame) < MIN_FRAME:
        frame += bytes(MIN_FRAME - len(frame))
    return frame


def udp6_packet(
    src_ip: bytes = bytes(15) + b"\x01",
    dst_ip: bytes = bytes(15) + b"\x02",
    sport: int = 10000,
    dport: int = 53,
    payload: bytes = b"",
    size: Optional[int] = None,
) -> bytes:
    """Build a complete Ethernet/IPv6/UDP frame.

    Addresses are raw 16-byte values. ``size`` pads like :func:`udp_packet`.
    """
    if size is not None:
        want = max(size, MIN_FRAME) - ETH_HLEN - IPV6_HLEN - UDP_HLEN
        if want < len(payload):
            raise PacketError(f"size {size} too small for payload")
        payload = payload + bytes(want - len(payload))
    udp_hdr = struct.pack(">HHHH", sport, dport, UDP_HLEN + len(payload), 0)
    ip6 = IPv6(src=src_ip, dst=dst_ip, next_header=IPPROTO_UDP).pack(
        UDP_HLEN + len(payload)
    )
    eth = Ethernet(ethertype=ETH_P_IPV6).pack()
    frame = eth + ip6 + udp_hdr + payload
    if len(frame) < MIN_FRAME:
        frame += bytes(MIN_FRAME - len(frame))
    return frame


def tcp_packet(
    src_ip: str | int = "10.0.0.1",
    dst_ip: str | int = "10.0.0.2",
    sport: int = 10000,
    dport: int = 80,
    flags: int = TCP_ACK,
    payload: bytes = b"",
    size: Optional[int] = None,
    seq: int = 0,
    ack: int = 0,
    ttl: int = 64,
) -> bytes:
    """Build a complete Ethernet/IPv4/TCP frame (see :func:`udp_packet`)."""
    src = ipv4(src_ip) if isinstance(src_ip, str) else src_ip
    dst = ipv4(dst_ip) if isinstance(dst_ip, str) else dst_ip
    if size is not None:
        want = max(size, MIN_FRAME) - ETH_HLEN - IPV4_HLEN - TCP_HLEN
        if want < len(payload):
            raise PacketError(f"size {size} too small for payload")
        payload = payload + bytes(want - len(payload))
    tcp = Tcp(sport, dport, seq=seq, ack=ack, flags=flags).pack(payload, src, dst)
    ip = IPv4(src=src, dst=dst, proto=IPPROTO_TCP, ttl=ttl).pack(TCP_HLEN + len(payload))
    eth = Ethernet(ethertype=ETH_P_IP).pack()
    frame = eth + ip + tcp + payload
    if len(frame) < MIN_FRAME:
        frame += bytes(MIN_FRAME - len(frame))
    return frame


@dataclass(frozen=True)
class FiveTuple:
    """The canonical flow identifier used throughout the evaluation."""

    src_ip: int
    dst_ip: int
    proto: int
    sport: int
    dport: int

    def reversed(self) -> "FiveTuple":
        return FiveTuple(self.dst_ip, self.src_ip, self.proto, self.dport, self.sport)

    def key_bytes(self) -> bytes:
        """13-byte map key: the layout the firewall/DNAT programs use."""
        return struct.pack("<IIBHH", self.src_ip, self.dst_ip, self.proto,
                           self.sport, self.dport)


def parse_five_tuple(frame: bytes) -> Optional[FiveTuple]:
    """Extract the 5-tuple from an Ethernet/IPv4/{UDP,TCP} frame, or None
    for non-IP or non-TCP/UDP traffic."""
    try:
        eth = Ethernet.parse(frame)
        if eth.ethertype != ETH_P_IP:
            return None
        ip = IPv4.parse(frame[ETH_HLEN:])
        l4 = frame[ETH_HLEN + IPV4_HLEN:]
        if ip.proto == IPPROTO_UDP:
            udp = Udp.parse(l4)
            return FiveTuple(ip.src, ip.dst, ip.proto, udp.sport, udp.dport)
        if ip.proto == IPPROTO_TCP:
            tcp = Tcp.parse(l4)
            return FiveTuple(ip.src, ip.dst, ip.proto, tcp.sport, tcp.dport)
        return None
    except PacketError:
        return None
