"""Connection-tracking firewall: stateful egress-learn/ingress-check.

The second-generation counterpart of the Simple Firewall: instead of the
host installing connectivity, the *data plane* learns it. Outbound
packets (source in 10.0.0.0/8 — the inside network of the
:func:`repro.net.flows.flow_at` enumeration) always forward and install
or refresh conntrack state keyed by their 5-tuple; inbound packets
forward only if the reverse 5-tuple is already tracked (an established
connection), and are dropped otherwise.

The conntrack table is an ``lru_hash`` map: when the table fills, the
least-recently-touched connection is evicted, so a million-flow Zipfian
population keeps exactly the hot working set resident. Because the
data-plane *lookup* of an LRU map is itself a write (it refreshes
recency), and the miss path then *updates* the same map from a later
pipeline stage, the compiler plans a serialization window over the
conntrack stages — at most one packet in flight between first and last
access — which is the structural hazard this application exists to
exercise end-to-end (VM, pipeline simulators and RTL must agree on
eviction order bit-for-bit).

Map ``conntrack``: lru_hash, key 16 B = src(4) dst(4) sport(2) dport(2)
pad(4) in wire order (little-endian loads of wire bytes), value 8 B
packet counter. Works for both UDP and TCP.
"""

from __future__ import annotations

from typing import List, Optional

from ..ebpf.asm import assemble_program
from ..ebpf.isa import MapSpec, Program
from ..ebpf.maps import MapSet
from ..net.packet import FiveTuple

# 16 banks of 256 entries, each its own LRU list: flows of different
# banks commute, so the serialization window serialises per bank
CONNTRACK_MAP = MapSpec(
    "conntrack", "lru_hash", key_size=16, value_size=8, max_entries=4096,
    banks=16,
)

ETH_P_IP_LE = 0x0008  # 0x0800 read little-endian
IPPROTO_UDP = 17
IPPROTO_TCP = 6
INSIDE_PREFIX = 10  # 10.0.0.0/8: first wire byte == low LE byte == 10

_SOURCE = f"""
    r7 = *(u32 *)(r1 + 4)
    r6 = *(u32 *)(r1 + 0)
    ; bounds: Ethernet + IPv4 + L4 ports (42 bytes covers UDP and the
    ; TCP port words)
    r2 = r6
    r2 += 42
    if r2 > r7 goto pass
    r2 = *(u16 *)(r6 + 12)
    if r2 != {ETH_P_IP_LE} goto pass
    r2 = *(u8 *)(r6 + 23)
    if r2 == {IPPROTO_UDP} goto l4ok
    if r2 != {IPPROTO_TCP} goto pass
l4ok:
    ; direction: low LE byte of the source address is the first wire
    ; byte, so "inside" means (src & 0xFF) == 10
    r8 = *(u32 *)(r6 + 26)
    r2 = r8
    r2 &= 255
    if r2 == {INSIDE_PREFIX} goto outbound
    ; --- inbound: forward only if the reverse tuple is tracked ---
    r2 = *(u32 *)(r6 + 30)
    *(u32 *)(r10 - 16) = r2
    *(u32 *)(r10 - 12) = r8
    r4 = *(u16 *)(r6 + 36)
    *(u16 *)(r10 - 8) = r4
    r5 = *(u16 *)(r6 + 34)
    *(u16 *)(r10 - 6) = r5
    r3 = 0
    *(u32 *)(r10 - 4) = r3
    r1 = map[conntrack]
    r2 = r10
    r2 += -16
    call 1
    if r0 == 0 goto drop
    r1 = 1
    lock *(u64 *)(r0 + 0) += r1
    r0 = 2
    exit
outbound:
    ; --- outbound: always forward; learn or refresh the flow ---
    *(u32 *)(r10 - 16) = r8
    r3 = *(u32 *)(r6 + 30)
    *(u32 *)(r10 - 12) = r3
    r4 = *(u16 *)(r6 + 34)
    *(u16 *)(r10 - 8) = r4
    r5 = *(u16 *)(r6 + 36)
    *(u16 *)(r10 - 6) = r5
    r3 = 0
    *(u32 *)(r10 - 4) = r3
    r1 = map[conntrack]
    r2 = r10
    r2 += -16
    call 1
    if r0 != 0 goto refresh
    ; first packet of the flow: install an entry with counter = 1
    r3 = 1
    *(u64 *)(r10 - 32) = r3
    r1 = map[conntrack]
    r2 = r10
    r2 += -16
    r3 = r10
    r3 += -32
    r4 = 0
    call 2
    r0 = 3
    exit
refresh:
    r1 = 1
    lock *(u64 *)(r0 + 0) += r1
    r0 = 3
    exit
drop:
    r0 = 1
    exit
pass:
    r0 = 2
    exit
"""


def build() -> Program:
    """Assemble the connection-tracking firewall."""
    return assemble_program(
        _SOURCE, maps={"conntrack": CONNTRACK_MAP}, name="ct_firewall"
    )


def conntrack_key(flow: FiveTuple) -> bytes:
    """Forward-direction key: wire bytes, as the data plane stores them."""
    return (
        flow.src_ip.to_bytes(4, "big")
        + flow.dst_ip.to_bytes(4, "big")
        + flow.sport.to_bytes(2, "big")
        + flow.dport.to_bytes(2, "big")
        + bytes(4)
    )


def tracked_count(maps: MapSet) -> int:
    """Host-side: number of connections currently tracked."""
    return len(list(maps.by_name("conntrack").items()))


def flow_packets(maps: MapSet, flow: FiveTuple) -> Optional[int]:
    """Host-side: a tracked flow's packet counter (``None`` if evicted)."""
    value = maps.by_name("conntrack").lookup(conntrack_key(flow))
    if value is None:
        return None
    return int.from_bytes(value, "little")


def eviction_count(maps: MapSet) -> int:
    """Host-side: connections evicted by LRU pressure so far."""
    return maps.by_name("conntrack").evictions


def lru_order(maps: MapSet) -> List[bytes]:
    """Host-side: tracked keys oldest-first — the engine-invariance probe
    the differential tests compare bit-for-bit across VM/hwsim/RTL."""
    return maps.by_name("conntrack").lru_keys()
