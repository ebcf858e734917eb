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

Helper ids match the Linux UAPI so that bytecode containing ``call 1`` etc.
means the same thing here as in the kernel.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from .maps import BPF_ANY, MapError
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

NEG1 = (1 << 64) - 1  # -1 as u64


def _read_key(vm: "Vm", addr: int, size: int) -> bytes:
    return vm.read_bytes(addr, size)


def _map_from_ptr(vm: "Vm", map_ptr: int):
    fd = AddressSpace_fd_from_ptr(map_ptr)
    return fd, vm.maps[fd]


# Map "pointers" as loaded by LD_IMM64 pseudo-fd instructions: a tagged
# address outside every data region, so misuse is caught immediately.
MAP_PTR_BASE = 0x3000_0000


def map_ptr(fd: int) -> int:
    return MAP_PTR_BASE + fd


def is_map_ptr(addr: int) -> bool:
    return MAP_PTR_BASE <= addr < AddressSpace.MAP_BASE


def AddressSpace_fd_from_ptr(ptr: int) -> int:
    if not is_map_ptr(ptr):
        raise HelperError(f"{ptr:#x} is not a map pointer")
    return ptr - MAP_PTR_BASE


def _bpf_map_lookup_elem(vm: "Vm", r1: int, r2: int, r3: int, r4: int, r5: int) -> int:
    fd, bpf_map = _map_from_ptr(vm, r1)
    key = _read_key(vm, r2, bpf_map.key_size)
    slot = bpf_map.lookup_slot(key)
    if slot is None:
        return 0
    return AddressSpace.map_value_addr(fd, bpf_map.value_addr(slot))


def _bpf_map_update_elem(vm: "Vm", r1: int, r2: int, r3: int, r4: int, r5: int) -> int:
    fd, bpf_map = _map_from_ptr(vm, r1)
    key = _read_key(vm, r2, bpf_map.key_size)
    value = vm.read_bytes(r3, bpf_map.value_size)
    try:
        bpf_map.update(key, value, flags=r4 & 0x3)
    except MapError:
        return NEG1
    return 0


def _bpf_map_delete_elem(vm: "Vm", r1: int, r2: int, r3: int, r4: int, r5: int) -> int:
    fd, bpf_map = _map_from_ptr(vm, r1)
    key = _read_key(vm, r2, bpf_map.key_size)
    try:
        return 0 if bpf_map.delete(key) else NEG1
    except MapError:
        return NEG1


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


def _bpf_redirect_map(vm: "Vm", r1: int, r2: int, r3: int, r4: int, r5: int) -> int:
    fd, bpf_map = _map_from_ptr(vm, r1)
    key = (r2 & 0xFFFFFFFF).to_bytes(4, "little")
    slot = bpf_map.lookup_slot(key) if bpf_map.key_size == 4 else None
    if slot is None:
        return r3 & 0xFFFFFFFF  # flags carry the default action
    value = bpf_map.lookup(key)
    vm.ctx.redirect_ifindex = int.from_bytes(value[:4], "little")
    return int(XdpAction.REDIRECT)


Implementation = Callable[["Vm", int, int, int, int, int], int]


HELPERS: Dict[int, Tuple[HelperSpec, Implementation]] = {}


def _register(spec: HelperSpec, impl: Implementation) -> None:
    HELPERS[spec.helper_id] = (spec, impl)


_register(
    HelperSpec(
        1, "bpf_map_lookup_elem", nargs=2, map_channel=True,
        reads_stack=True, hw_stages=2, hw_luts=420, hw_ffs=380,
    ),
    _bpf_map_lookup_elem,
)
_register(
    HelperSpec(
        2, "bpf_map_update_elem", nargs=4, map_channel=True, map_write=True,
        reads_stack=True, hw_stages=2, hw_luts=520, hw_ffs=440,
    ),
    _bpf_map_update_elem,
)
_register(
    HelperSpec(
        3, "bpf_map_delete_elem", nargs=2, map_channel=True, map_write=True,
        reads_stack=True, hw_stages=2, hw_luts=360, hw_ffs=300,
    ),
    _bpf_map_delete_elem,
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
    _bpf_redirect_map,
)
_register(
    HelperSpec(
        65, "bpf_xdp_adjust_tail", nargs=2, reads_packet=True,
        writes_packet=True, hw_stages=2, hw_luts=520, hw_ffs=430,
    ),
    _bpf_xdp_adjust_tail,
)


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
