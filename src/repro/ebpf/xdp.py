"""XDP hook model: context struct, actions and address-space layout.

XDP programs receive a pointer to a ``struct xdp_md`` in R1 and return one
of the XDP actions. The context exposes the packet through ``data`` /
``data_end`` 32-bit "pointers"; the VM realises them as addresses in a flat
virtual address space whose layout is defined here and shared with the
eHDL compiler's memory-region analysis (Section 3.1).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Optional


class XdpAction(enum.IntEnum):
    """XDP program verdicts (matching ``enum xdp_action``)."""

    ABORTED = 0
    DROP = 1
    PASS = 2
    TX = 3
    REDIRECT = 4

    @classmethod
    def of(cls, code: int) -> "XdpAction":
        """The verdict an exiting program's r0 (or a comparator's action
        code) names: its low 32 bits, ``ABORTED`` when they are none of
        the actions. The reference tier's one r0 → verdict rule."""
        try:
            return cls(code & 0xFFFF_FFFF)
        except ValueError:
            return cls.ABORTED


# struct xdp_md field offsets (all fields are u32).
XDP_MD_DATA = 0
XDP_MD_DATA_END = 4
XDP_MD_DATA_META = 8
XDP_MD_INGRESS_IFINDEX = 12
XDP_MD_RX_QUEUE_INDEX = 16
XDP_MD_EGRESS_IFINDEX = 20
XDP_MD_SIZE = 24


class AddressSpace:
    """Virtual address layout of an XDP program execution.

    Regions are placed far apart so that the compiler's region analysis and
    the VM's bounds checks can classify any address unambiguously:

    ======================  ====================  =======================
    region                  base                  size
    ======================  ====================  =======================
    xdp_md context          ``0x0000_1000``       24 B
    packet buffer           ``0x0010_0000``       headroom + packet
    stack (R10 - 512 ..)    ``0x0020_0000``       512 B
    map values              ``0x4000_0000``       per-map windows
    ======================  ====================  =======================

    Packet addresses must fit in 32 bits because ``xdp_md.data`` is a u32.
    Each map fd gets a ``MAP_WINDOW``-sized window at
    ``MAP_BASE + fd * MAP_WINDOW`` so a value address encodes the map it
    belongs to — exactly the property eHDL's labeling pass exploits.
    """

    CTX_BASE = 0x0000_1000
    PACKET_BASE = 0x0010_0000
    STACK_BASE = 0x0020_0000
    STACK_SIZE = 512
    MAP_BASE = 0x4000_0000
    MAP_WINDOW = 0x0100_0000  # 16 MiB per map fd

    # XDP reserves headroom before the packet so bpf_xdp_adjust_head can
    # grow the packet toward lower addresses, and tailroom so
    # bpf_xdp_adjust_tail can extend it.
    PACKET_HEADROOM = 256
    PACKET_TAILROOM = 256

    @classmethod
    def stack_top(cls) -> int:
        """Value of R10: one past the end of the 512-byte stack frame."""
        return cls.STACK_BASE + cls.STACK_SIZE

    @classmethod
    def map_value_addr(cls, fd: int, offset: int) -> int:
        return cls.MAP_BASE + fd * cls.MAP_WINDOW + offset

    @classmethod
    def is_ctx(cls, addr: int) -> bool:
        return cls.CTX_BASE <= addr < cls.CTX_BASE + XDP_MD_SIZE

    @classmethod
    def is_packet(cls, addr: int) -> bool:
        return cls.PACKET_BASE <= addr < cls.STACK_BASE

    @classmethod
    def is_stack(cls, addr: int) -> bool:
        return cls.STACK_BASE <= addr < cls.STACK_BASE + cls.STACK_SIZE

    @classmethod
    def is_map_value(cls, addr: int) -> bool:
        return addr >= cls.MAP_BASE

    @classmethod
    def map_fd_of(cls, addr: int) -> int:
        if not cls.is_map_value(addr):
            raise ValueError(f"address {addr:#x} is not a map value address")
        return (addr - cls.MAP_BASE) // cls.MAP_WINDOW

    @classmethod
    def map_offset_of(cls, addr: int) -> int:
        return (addr - cls.MAP_BASE) % cls.MAP_WINDOW

    @classmethod
    def locate(cls, addr: int, size: int, stack, ctx: "XdpContext", maps,
               writing: bool = False):
        """The reference tier's one address decode (§3.1: every access
        has exactly one region): ``(buf, off, fd)`` with the ``size``
        bytes at ``addr`` being ``buf[off:off + size]`` — ``stack``,
        ``ctx.packet``, the serialised ``xdp_md`` (readable only) or the
        storage of ``maps[fd]``; ``fd`` is ``None`` outside map values.
        A span no buffer holds is ``(None, region, why)``. What a
        refusal costs is the caller's policy: the VM and the helper
        facades raise their typed errors, the data plane drops."""
        fd = None
        if _STACK_BASE <= addr < _STACK_END:
            region, buf, off = "stack", stack, addr - _STACK_BASE
        elif _PACKET_BASE <= addr < _STACK_BASE:
            region, buf = "packet", ctx.packet
            off = addr - _PACKET_DATA0 - ctx.head_adjust
        elif addr >= _MAP_BASE:
            region = "map value"
            fd, off = divmod(addr - _MAP_BASE, _MAP_WINDOW)
            if fd not in maps:
                return None, region, f"of unknown map fd {fd}"
            buf = maps[fd].storage
        elif _CTX_BASE <= addr < _CTX_END:
            if writing:
                return None, "ctx", "of the read-only xdp_md"
            region, buf, off = "ctx", ctx.ctx_bytes(), addr - _CTX_BASE
        else:
            return None, "unmapped", "out of bounds"
        if size < 0 or off < 0 or off + size > len(buf):
            return None, region, "out of bounds"
        return buf, off, fd


# locate() runs per access on every reference-tier engine: the region
# bounds the predicates above spell out, as module constants.
_CTX_BASE = AddressSpace.CTX_BASE
_CTX_END = _CTX_BASE + XDP_MD_SIZE
_PACKET_BASE = AddressSpace.PACKET_BASE
_PACKET_DATA0 = _PACKET_BASE + AddressSpace.PACKET_HEADROOM
_STACK_BASE = AddressSpace.STACK_BASE
_STACK_END = _STACK_BASE + AddressSpace.STACK_SIZE
_MAP_BASE = AddressSpace.MAP_BASE
_MAP_WINDOW = AddressSpace.MAP_WINDOW


@dataclass
class XdpContext:
    """One program invocation's context: the packet plus xdp_md metadata.

    ``packet`` is mutable — programs may rewrite bytes in place and
    ``bpf_xdp_adjust_head`` may grow/shrink it within the headroom.
    """

    packet: bytearray
    ingress_ifindex: int = 1
    rx_queue_index: int = 0
    egress_ifindex: int = 0
    head_adjust: int = 0  # cumulative bpf_xdp_adjust_head delta
    tail_adjust: int = 0  # cumulative bpf_xdp_adjust_tail delta
    redirect_ifindex: Optional[int] = None

    @property
    def data(self) -> int:
        return AddressSpace.PACKET_BASE + AddressSpace.PACKET_HEADROOM + self.head_adjust

    @property
    def data_end(self) -> int:
        return self.data + len(self.packet)

    def ctx_bytes(self) -> bytes:
        """Serialise the xdp_md struct as the program sees it in memory."""
        return struct.pack(
            "<6I",
            self.data,
            self.data_end,
            0,  # data_meta unused
            self.ingress_ifindex,
            self.rx_queue_index,
            self.egress_ifindex,
        )

    def adjust_head(self, delta: int) -> bool:
        """Implement ``bpf_xdp_adjust_head`` semantics.

        Negative delta grows the packet into the headroom; positive delta
        trims bytes from the front. Returns False (and leaves the packet
        untouched) if the adjustment is impossible.
        """
        new_adjust = self.head_adjust + delta
        if new_adjust < -AddressSpace.PACKET_HEADROOM:
            return False
        if delta >= len(self.packet):
            return False
        if delta > 0:
            del self.packet[:delta]
        elif delta < 0:
            self.packet[:0] = bytes(-delta)
        self.head_adjust = new_adjust
        return True

    def adjust_tail(self, delta: int) -> bool:
        """Implement ``bpf_xdp_adjust_tail`` semantics.

        Negative delta trims bytes from the end; positive delta grows the
        packet into the tailroom. Fails (packet untouched) if the packet
        would become empty or exceed the tailroom.
        """
        new_adjust = self.tail_adjust + delta
        if new_adjust > AddressSpace.PACKET_TAILROOM:
            return False
        if -delta >= len(self.packet):
            return False
        if delta > 0:
            self.packet.extend(bytes(delta))
        elif delta < 0:
            del self.packet[delta:]
        self.tail_adjust = new_adjust
        return True


@dataclass
class XdpResult:
    """Outcome of one program execution."""

    action: XdpAction
    packet: bytes
    redirect_ifindex: Optional[int] = None
    instructions_executed: int = 0

    @property
    def forwarded(self) -> bool:
        return self.action in (XdpAction.TX, XdpAction.PASS, XdpAction.REDIRECT)
