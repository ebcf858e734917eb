"""eBPF helper functions.

Helper functions are the fixed, kernel-defined escape hatch of the eBPF
programming model (Section 2.2): they are the only way a program touches
state outside its registers/stack/packet. eHDL exploits exactly this —
each helper becomes a hardware block with a fixed interface (R1-R5 in, R0
out, optional packet/stack taps; Section 3.4.2).

This module defines:

* :class:`HelperSpec` — the metadata both the VM and the compiler need:
  argument count, which memories the helper touches, whether it is a map
  channel (shared block) or a replicated block, its hardware latency in
  pipeline stages and its resource cost.
* The software implementations used by the reference VM.
* The reference tier's helper model, each rule defined once and shared
  by every engine that decodes per execution (the ``vm`` engine, the
  ``interpreted`` pipeline engine and the ``codegen`` engine's
  update/delete fallback, the RTL map port): what a map-channel request
  does to its map and leaves in r0 (:func:`channel_step`), the
  ``bpf_get_prandom_u32`` generator (:func:`prandom_step`) and the call
  convention (:func:`finish_call`). Each caller adds only its policy:
  how it reads the operands and what a refused read means.

Helper ids match the Linux UAPI so that bytecode containing ``call 1`` etc.
means the same thing here as in the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from .isa import MASK32, MASK64
from .maps import Map, MapError
from .xdp import AddressSpace, XdpAction

if TYPE_CHECKING:  # pragma: no cover
    from .vm import Vm


class HelperError(ValueError):
    """Raised when a helper is misused (bad pointer, unknown id, ...)."""


@dataclass(frozen=True)
class HelperSpec:
    """Static description of one helper function.

    ``hw_stages`` is the number of pipeline stages the corresponding
    hardware block occupies between its input and output stage (§3.4.2:
    "the helper function block can be implemented itself in a pipelined
    manner"). ``map_channel`` marks the lookup/update/delete family whose
    block is *shared* per map rather than replicated per call site (§4.1).
    ``cpu_only`` helpers are meaningful only on a CPU and become stubs in
    hardware (footnote 2 of the paper).
    """

    helper_id: int
    name: str
    nargs: int
    map_channel: bool = False
    map_write: bool = False
    reads_packet: bool = False
    writes_packet: bool = False
    reads_stack: bool = False
    hw_stages: int = 1
    hw_luts: int = 150
    hw_ffs: int = 120
    cpu_only: bool = False


# -- implementations ---------------------------------------------------------
#
# Each implementation receives the VM and the raw 64-bit argument registers
# and returns the new R0 value (as an unsigned 64-bit integer).

NEG1 = MASK64  # -1 as u64

# Map "pointers" as loaded by LD_IMM64 pseudo-fd instructions: a tagged
# address outside every data region, so misuse is caught immediately.
MAP_PTR_BASE = 0x3000_0000

BPF_MAP_LOOKUP_ELEM = 1
BPF_MAP_UPDATE_ELEM = 2
BPF_MAP_DELETE_ELEM = 3
BPF_REDIRECT_MAP = 51

#: The state ``bpf_get_prandom_u32`` starts from on every engine.
PRANDOM_SEED = 0x5EED


def map_ptr(fd: int) -> int:
    return MAP_PTR_BASE + fd


def is_map_ptr(addr: int) -> bool:
    return MAP_PTR_BASE <= addr < AddressSpace.MAP_BASE


def prandom_step(state: int) -> int:
    """The LCG behind ``bpf_get_prandom_u32``: the state after
    ``state``, which is also what the helper returns. Each engine keeps
    its own state (from :data:`PRANDOM_SEED`) and steps it here."""
    return (state * 1103515245 + 12345) & MASK32


def finish_call(regs: List[int], result: int) -> None:
    """The helper call convention: ``result`` lands in r0 as a u64, and
    r1-r5 — caller-saved, unreadable after a call — are scrubbed, so a
    program relying on a stale one fails loudly (the verifier rejects
    such reads)."""
    regs[0] = result & MASK64
    regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = 0


def channel_step(
    helper_id: int,
    fd: int,
    bpf_map: Map,
    key: bytes,
    value: Optional[bytes],
    arg: int,
) -> Tuple[int, Optional[int], Optional[int]]:
    """What one map-channel request does to map ``fd`` and leaves in r0
    (§4.1: every ``bpf_map_*`` call on a map is one request on its
    shared eHDLmap block). The rule is pure over operands the caller
    has already read: ``key`` (``key_size`` bytes; for
    ``bpf_redirect_map`` r2's low 32 bits, little-endian), ``value``
    (``value_size`` bytes, update only) and ``arg`` (r4 of an update,
    its flags; r3 of a ``bpf_redirect_map``, the action on a miss).

    Returns ``(r0, slot, redirect_ifindex)``: ``slot`` is the slot the
    request resolved, wrote or deleted (``None`` on a miss or a
    failure); ``redirect_ifindex`` is the target of a
    ``bpf_redirect_map`` hit, else ``None``."""
    if helper_id == BPF_MAP_LOOKUP_ELEM:
        slot = bpf_map.lookup_slot(key)
        if slot is None:
            return 0, None, None
        return (AddressSpace.map_value_addr(fd, bpf_map.value_addr(slot)),
                slot, None)
    if helper_id == BPF_REDIRECT_MAP:
        slot = bpf_map.lookup_slot(key) if bpf_map.key_size == 4 else None
        if slot is None:
            return arg & MASK32, None, None
        ifindex = int.from_bytes(bpf_map.lookup(key)[:4], "little")
        return int(XdpAction.REDIRECT), slot, ifindex
    try:
        if helper_id == BPF_MAP_UPDATE_ELEM:
            return 0, bpf_map.update(key, value, flags=arg & 0x3), None
        if helper_id == BPF_MAP_DELETE_ELEM:
            slot = bpf_map.lookup_slot(key)
            if slot is not None and bpf_map.delete(key):
                return 0, slot, None
            return NEG1, None, None
    except MapError:
        return NEG1, None, None
    raise HelperError(f"helper {helper_id} is not a map-channel helper")


def _bpf_map_channel(helper_id: int) -> "Implementation":
    """The VM's implementation of a map-channel helper: the operands
    read through ``vm.read_bytes`` (a span no buffer holds is a
    ``VmError``), then :func:`channel_step`."""

    def impl(vm: "Vm", r1: int, r2: int, r3: int, r4: int, r5: int) -> int:
        if not is_map_ptr(r1):
            raise HelperError(f"{r1:#x} is not a map pointer")
        fd = r1 - MAP_PTR_BASE
        bpf_map = vm.maps[fd]
        if helper_id == BPF_REDIRECT_MAP:
            key, value, arg = (r2 & MASK32).to_bytes(4, "little"), None, r3
        else:
            key = vm.read_bytes(r2, bpf_map.key_size)
            value = (vm.read_bytes(r3, bpf_map.value_size)
                     if helper_id == BPF_MAP_UPDATE_ELEM else None)
            arg = r4
        r0, _slot, ifindex = channel_step(helper_id, fd, bpf_map, key,
                                          value, arg)
        if ifindex is not None:
            vm.ctx.redirect_ifindex = ifindex
        return r0

    return impl


def _bpf_ktime_get_ns(vm: "Vm", r1: int, r2: int, r3: int, r4: int, r5: int) -> int:
    return vm.time_ns & NEG1


def _bpf_trace_printk(vm: "Vm", r1: int, r2: int, r3: int, r4: int, r5: int) -> int:
    # Format string handling is irrelevant to packet processing; record the
    # event so tests can observe it, return the byte count like the kernel.
    vm.trace_events.append((r1, r2, r3, r4, r5))
    return r2


def _bpf_get_smp_processor_id(
    vm: "Vm", r1: int, r2: int, r3: int, r4: int, r5: int
) -> int:
    return 0


def _bpf_get_prandom_u32(vm: "Vm", r1: int, r2: int, r3: int, r4: int, r5: int) -> int:
    return vm.next_prandom() & 0xFFFFFFFF


def _bpf_redirect(vm: "Vm", r1: int, r2: int, r3: int, r4: int, r5: int) -> int:
    vm.ctx.redirect_ifindex = r1 & 0xFFFFFFFF
    return int(XdpAction.REDIRECT)


def _bpf_csum_diff(vm: "Vm", r1: int, r2: int, r3: int, r4: int, r5: int) -> int:
    """RFC1624 incremental checksum: csum of `to` minus csum of `from`,
    folded into 32 bits with ``seed`` in r5 (matching the kernel helper)."""
    total = r5 & 0xFFFFFFFF
    if r2:
        from_bytes = vm.read_bytes(r1, r2)
        for i in range(0, len(from_bytes), 4):
            word = int.from_bytes(from_bytes[i : i + 4].ljust(4, b"\x00"), "little")
            total = (total + (~word & 0xFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF
            total = (total & 0xFFFFFFFF) + (total >> 32)
    if r4:
        to_bytes = vm.read_bytes(r3, r4)
        for i in range(0, len(to_bytes), 4):
            word = int.from_bytes(to_bytes[i : i + 4].ljust(4, b"\x00"), "little")
            total = (total + word) & 0xFFFFFFFFFFFFFFFF
            total = (total & 0xFFFFFFFF) + (total >> 32)
    return total & 0xFFFFFFFF


def _bpf_xdp_adjust_head(vm: "Vm", r1: int, r2: int, r3: int, r4: int, r5: int) -> int:
    delta = r2 - (1 << 64) if r2 & (1 << 63) else r2
    if vm.ctx.adjust_head(delta):
        return 0
    return NEG1


def _bpf_xdp_adjust_tail(vm: "Vm", r1: int, r2: int, r3: int, r4: int, r5: int) -> int:
    delta = r2 - (1 << 64) if r2 & (1 << 63) else r2
    if vm.ctx.adjust_tail(delta):
        return 0
    return NEG1


Implementation = Callable[["Vm", int, int, int, int, int], int]


HELPERS: Dict[int, Tuple[HelperSpec, Implementation]] = {}


def _register(spec: HelperSpec, impl: Implementation) -> None:
    HELPERS[spec.helper_id] = (spec, impl)


_register(
    HelperSpec(
        1, "bpf_map_lookup_elem", nargs=2, map_channel=True,
        reads_stack=True, hw_stages=2, hw_luts=420, hw_ffs=380,
    ),
    _bpf_map_channel(1),
)
_register(
    HelperSpec(
        2, "bpf_map_update_elem", nargs=4, map_channel=True, map_write=True,
        reads_stack=True, hw_stages=2, hw_luts=520, hw_ffs=440,
    ),
    _bpf_map_channel(2),
)
_register(
    HelperSpec(
        3, "bpf_map_delete_elem", nargs=2, map_channel=True, map_write=True,
        reads_stack=True, hw_stages=2, hw_luts=360, hw_ffs=300,
    ),
    _bpf_map_channel(3),
)
_register(
    HelperSpec(5, "bpf_ktime_get_ns", nargs=0, hw_stages=1, hw_luts=90, hw_ffs=140),
    _bpf_ktime_get_ns,
)
_register(
    HelperSpec(
        6, "bpf_trace_printk", nargs=3, cpu_only=True, hw_stages=1,
        hw_luts=10, hw_ffs=10,
    ),
    _bpf_trace_printk,
)
_register(
    HelperSpec(
        7, "bpf_get_prandom_u32", nargs=0, hw_stages=1, hw_luts=160, hw_ffs=130
    ),
    _bpf_get_prandom_u32,
)
_register(
    HelperSpec(
        8, "bpf_get_smp_processor_id", nargs=0, cpu_only=True, hw_stages=1,
        hw_luts=5, hw_ffs=5,
    ),
    _bpf_get_smp_processor_id,
)
_register(
    HelperSpec(23, "bpf_redirect", nargs=2, hw_stages=1, hw_luts=60, hw_ffs=70),
    _bpf_redirect,
)
_register(
    HelperSpec(
        28, "bpf_csum_diff", nargs=5, reads_packet=True, reads_stack=True,
        hw_stages=3, hw_luts=640, hw_ffs=520,
    ),
    _bpf_csum_diff,
)
_register(
    HelperSpec(
        44, "bpf_xdp_adjust_head", nargs=2, reads_packet=True,
        writes_packet=True, hw_stages=2, hw_luts=700, hw_ffs=610,
    ),
    _bpf_xdp_adjust_head,
)
_register(
    HelperSpec(
        51, "bpf_redirect_map", nargs=3, map_channel=True, hw_stages=2,
        hw_luts=430, hw_ffs=360,
    ),
    _bpf_map_channel(51),
)
_register(
    HelperSpec(
        65, "bpf_xdp_adjust_tail", nargs=2, reads_packet=True,
        writes_packet=True, hw_stages=2, hw_luts=520, hw_ffs=430,
    ),
    _bpf_xdp_adjust_tail,
)


# Helpers whose results depend on the global interleaving of calls
# (shared clock, shared PRNG state): any reordering of two packets' calls
# is observable.
ORDER_SENSITIVE_HELPERS = frozenset({5, 7})  # ktime_get_ns, prandom_u32

# Helpers that move the packet's head or tail: the frame changes length
# and every packet pointer the program holds goes stale.
PACKET_RESIZING_HELPERS = frozenset({44, 65})  # xdp_adjust_head/_tail

# Helpers that pick the interface an XDP_REDIRECT verdict goes to.
REDIRECT_HELPERS = frozenset({23, BPF_REDIRECT_MAP})  # redirect, _map


HELPER_IDS_BY_NAME: Dict[str, int] = {
    spec.name: spec.helper_id for spec, _ in HELPERS.values()
}


def helper_spec(helper_id: int) -> HelperSpec:
    try:
        return HELPERS[helper_id][0]
    except KeyError:
        raise HelperError(f"unknown helper id {helper_id}")


def helper_impl(helper_id: int) -> Implementation:
    try:
        return HELPERS[helper_id][1]
    except KeyError:
        raise HelperError(f"unknown helper id {helper_id}")
