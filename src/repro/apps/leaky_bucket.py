"""Leaky Bucket: the flush-stress application of §5.3 (Table 2).

A per-flow rate limiter that "needs to track the time of reception of
each packet to check the packet forwarding rate. This leads to RAW
hazards that cannot be solved with atomic operations and thus to flush
events."

Per packet: look the flow's bucket up; drain it proportionally to the
time since the last packet; add the packet's cost; drop if the bucket
overflows; write the updated (timestamp, level) back — a read-modify-
write over two fields, inherently non-atomic.

State is created lazily in the data plane (``bpf_map_update_elem`` on
first sight of a flow), so the pipeline has both the per-flow RAW window
(load → store) and the insert path.

Map ``buckets``: hash, key 8 B = src_ip(4) sport(2) pad(2), value 16 B =
last_time_ns(8) level(8). Rate parameters are compile-time constants like
a real generated filter would bake in.
"""

from __future__ import annotations

from ..ebpf.asm import assemble_program
from ..ebpf.isa import MapSpec, Program
from ..ebpf.maps import MapSet
from ..net.packet import FiveTuple

BUCKETS_MAP = MapSpec("buckets", "hash", key_size=8, value_size=16, max_entries=32768)

# One token per packet; the bucket drains DRAIN_PER_US tokens per
# microsecond and holds at most BURST tokens.
COST = 1_000_000
DRAIN_PER_NS = 150  # ~6.6 us per token: ≈150 kpps per flow sustained
BURST = 32_000_000  # 32 packets of burst

_SOURCE = f"""
    r7 = *(u32 *)(r1 + 4)
    r6 = *(u32 *)(r1 + 0)
    r2 = r6
    r2 += 38
    if r2 > r7 goto pass
    r2 = *(u16 *)(r6 + 12)
    if r2 != 8 goto pass
    ; bucket key: source address + source port
    r2 = *(u32 *)(r6 + 26)
    *(u32 *)(r10 - 8) = r2
    r3 = *(u16 *)(r6 + 34)
    *(u16 *)(r10 - 4) = r3
    r2 = 0
    *(u16 *)(r10 - 2) = r2
    call 5                            ; bpf_ktime_get_ns
    r9 = r0                           ; now
    r1 = map[buckets]
    r2 = r10
    r2 += -8
    call 1
    if r0 == 0 goto new_bucket
    r8 = r0
    ; drain: level -= (now - last) * DRAIN_PER_NS  (floored at zero)
    r2 = *(u64 *)(r8 + 0)             ; last_time
    r3 = *(u64 *)(r8 + 8)             ; level
    r4 = r9
    r4 -= r2
    r4 *= {DRAIN_PER_NS}
    if r3 > r4 goto drain_partial
    r3 = 0
    goto drained
drain_partial:
    r3 -= r4
drained:
    r4 = r3                           ; drained level, without this packet
    r3 += {COST}
    if r3 > {BURST} goto over_rate
    *(u64 *)(r8 + 0) = r9             ; write back: RAW hazard window
    *(u64 *)(r8 + 8) = r3
    r0 = 3
    exit
over_rate:
    ; the bucket still tracks the reception time of every packet (that is
    ; what makes this the paper's flush-stress case): update the state but
    ; do not charge the dropped packet's cost
    *(u64 *)(r8 + 0) = r9
    *(u64 *)(r8 + 8) = r4
    r0 = 1
    exit
new_bucket:
    ; first sight of this flow: install a fresh bucket
    *(u64 *)(r10 - 24) = r9
    r2 = {COST}
    *(u64 *)(r10 - 16) = r2
    r1 = map[buckets]
    r2 = r10
    r2 += -8
    r3 = r10
    r3 += -24
    r4 = 0
    call 2
    r0 = 3
    exit
pass:
    r0 = 2
    exit
"""


def build() -> Program:
    """Assemble the leaky bucket program."""
    return assemble_program(_SOURCE, maps={"buckets": BUCKETS_MAP}, name="leaky_bucket")


def bucket_key(flow: FiveTuple) -> bytes:
    """A flow's key in ``buckets``: wire bytes, as the data plane stores
    them."""
    return flow.src_ip.to_bytes(4, "big") + flow.sport.to_bytes(2, "big") \
        + bytes(2)


def bucket_count(maps: MapSet) -> int:
    return maps.by_name("buckets").entry_count()
