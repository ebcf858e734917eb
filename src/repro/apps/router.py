"""Router (Table 1): the Linux ``xdp_router_ipv4`` workload.

Parses headers up to IPv4, looks the destination up in a /24 routing
table, rewrites both MAC addresses, decrements the TTL (with an RFC 1624
incremental checksum update, exercising the byte-swap primitive), bumps a
global statistics counter and redirects to the chosen output port.

The routing table is written by the host ("the host writes maps, the data
plane only reads them", §6); the global statistics counter uses either the
atomic block (default, line-rate) or — with ``use_atomic=False`` — the
lookup/add/store sequence whose RAW hazard gives the Router its analytical
(K, L) pair in Table 3.

Maps:

* ``routes``: hash, key 4 B = dst /24 prefix (low 3 bytes of the
  little-endian-loaded address), value 16 B = dst_mac(6) src_mac(6)
  out_ifindex(4);
* ``stats``: array[1] of u64 — total routed packets.
"""

from __future__ import annotations

from typing import Optional

from ..ebpf.asm import assemble_program
from ..ebpf.isa import MapSpec, Program
from ..ebpf.maps import MapSet
from ..net.packet import ipv4, mac

ROUTES_MAP = MapSpec("routes", "hash", key_size=4, value_size=16, max_entries=4096)
STATS_MAP = MapSpec("stats", "array", key_size=4, value_size=8, max_entries=1)

ETH_P_IP_LE = 0x0008

_HEADER = """
    r7 = *(u32 *)(r1 + 4)
    r6 = *(u32 *)(r1 + 0)
    ; need Ethernet + IPv4 (34 bytes)
    r2 = r6
    r2 += 34
    if r2 > r7 goto pass
    r2 = *(u16 *)(r6 + 12)
    if r2 != 8 goto pass             ; not IPv4
    r2 = *(u8 *)(r6 + 22)
    if r2 <= 1 goto pass             ; TTL expired: punt to the kernel
    ; dst /24 prefix as the route key
    r2 = *(u32 *)(r6 + 30)
    r2 &= 16777215
    *(u32 *)(r10 - 4) = r2
    r1 = map[routes]
    r2 = r10
    r2 += -4
    call 1
    if r0 == 0 goto pass             ; no route: punt to the kernel
    r8 = r0
    ; rewrite destination MAC (bytes 0-5) and source MAC (bytes 6-11)
    r2 = *(u32 *)(r8 + 0)
    *(u32 *)(r6 + 0) = r2
    r2 = *(u16 *)(r8 + 4)
    *(u16 *)(r6 + 4) = r2
    r2 = *(u32 *)(r8 + 6)
    *(u32 *)(r6 + 6) = r2
    r2 = *(u16 *)(r8 + 10)
    *(u16 *)(r6 + 10) = r2
    ; decrement TTL
    r2 = *(u8 *)(r6 + 22)
    r2 += -1
    *(u8 *)(r6 + 22) = r2
    ; incremental checksum: the 16-bit word at offset 22 dropped by 0x0100,
    ; so the one's-complement checksum rises by 0x0100 (RFC 1624)
    r3 = *(u16 *)(r6 + 24)
    r3 = be16 r3
    r3 += 256
    r4 = r3
    r4 >>= 16
    r3 &= 65535
    r3 += r4
    r4 = r3
    r4 >>= 16
    r3 &= 65535
    r3 += r4
    r3 = be16 r3
    *(u16 *)(r6 + 24) = r3
"""

_STATS_ATOMIC = """
    ; global statistics counter via the atomic block
    r2 = 0
    *(u32 *)(r10 - 8) = r2
    r1 = map[stats]
    r2 = r10
    r2 += -8
    call 1
    if r0 == 0 goto redirect
    r2 = 1
    lock *(u64 *)(r0 + 0) += r2
"""

_STATS_RMW = """
    ; global statistics counter via load/add/store (RAW-hazard variant)
    r2 = 0
    *(u32 *)(r10 - 8) = r2
    r1 = map[stats]
    r2 = r10
    r2 += -8
    call 1
    if r0 == 0 goto redirect
    r2 = *(u64 *)(r0 + 0)
    r2 += 1
    *(u64 *)(r0 + 0) = r2
"""

_TAIL = """
redirect:
    r1 = *(u32 *)(r8 + 12)
    r2 = 0
    call 23                          ; bpf_redirect(out_ifindex, 0)
    exit
pass:
    r0 = 2
    exit
"""


def build(use_atomic: bool = True) -> Program:
    """Assemble the router; ``use_atomic=False`` builds the Table 3
    flush-analysis variant with a read-modify-write stats update."""
    source = _HEADER + (_STATS_ATOMIC if use_atomic else _STATS_RMW) + _TAIL
    return assemble_program(
        source,
        maps={"routes": ROUTES_MAP, "stats": STATS_MAP},
        name="router" if use_atomic else "router_rmw",
    )


def route_key(dst_ip: int) -> bytes:
    """Key for a destination address (host-order int) — the low 3 bytes of
    the little-endian-loaded wire value, i.e. the /24 prefix."""
    wire = dst_ip.to_bytes(4, "big")
    le_value = int.from_bytes(wire, "little")
    return (le_value & 0xFFFFFF).to_bytes(4, "little")


def add_route(
    maps: MapSet,
    dst_ip: int,
    dst_mac: bytes,
    src_mac: bytes,
    out_ifindex: int,
) -> None:
    """Host-side: install a /24 route covering ``dst_ip``."""
    value = dst_mac + src_mac + out_ifindex.to_bytes(4, "little")
    maps.by_name("routes").update(route_key(dst_ip), value)


# The /24 every synthetic workload sends to (192.168.0.1-254), and the
# next hop's and the router's MACs on port 3.
DEFAULT_ROUTE = (ipv4("192.168.0.0"), mac("02:0a:0b:0c:0d:0e"),
                 mac("02:01:02:03:04:05"), 3)


def default_setup(maps: MapSet) -> None:
    """CLI hook: install :data:`DEFAULT_ROUTE`."""
    add_route(maps, *DEFAULT_ROUTE)


def routed_count(maps: MapSet) -> int:
    value = maps.by_name("stats").lookup(bytes(4))
    return int.from_bytes(value, "little")
