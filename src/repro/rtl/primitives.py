"""Python models for the behavioural entities in the emitted design.

``emit_vhdl`` leaves three kinds of blocks behavioural (empty
architecture bodies): the per-map port blocks, the helper blocks, and
the async FIFOs of the NIC-shell boundary. During elaboration each
instance is bound to one of the primitives here, which evaluate as
combinational nodes against the shared value table while mutating the
*same* backing objects the software legs use (``MapSet``, packet
shadows), so the differential harness compares ends states directly.

The map block contributes one node per channel — in channel order, with
an explicit ordering edge — plus the atomic port last; the topological
scheduler guarantees each runs exactly once per cycle, making the
mutation-on-evaluate model sound.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.vhdl import (
    ATOMIC_PORT, CH_OP_DELETE, CH_OP_LOAD, CH_OP_LOOKUP, CH_OP_REDIRECT,
    CH_OP_STORE, CH_OP_UPDATE, HELPER_PORT, MAP_CHANNEL,
)
from ..ebpf.helpers import (
    BPF_MAP_DELETE_ELEM, BPF_MAP_LOOKUP_ELEM, BPF_MAP_UPDATE_ELEM,
    BPF_REDIRECT_MAP, PRANDOM_SEED, channel_step, helper_impl, helper_spec,
    prandom_step,
)
from ..ebpf.isa import MASK64
from ..ebpf.maps import MapSet
from ..ebpf.vm import VmError, atomic_step
from ..ebpf.xdp import AddressSpace, XdpContext
from .elab import CombNode, Ref
from .errors import RtlElabError, RtlSimError

_CH_OP_NAMES = {
    CH_OP_LOOKUP: "lookup",
    CH_OP_UPDATE: "update",
    CH_OP_DELETE: "delete",
    CH_OP_LOAD: "load",
    CH_OP_STORE: "store",
    CH_OP_REDIRECT: "redirect",
}

# The channel ops that are helper requests: what each does is
# ``helpers.channel_step`` of that helper. LOAD and STORE are memory.
_CH_OP_HELPER = {
    CH_OP_LOOKUP: BPF_MAP_LOOKUP_ELEM,
    CH_OP_UPDATE: BPF_MAP_UPDATE_ELEM,
    CH_OP_DELETE: BPF_MAP_DELETE_ELEM,
    CH_OP_REDIRECT: BPF_REDIRECT_MAP,
}


# MapBlock has no frame: its address decode sees an empty one.
_NO_PACKET = XdpContext(bytearray())


def _sign16(value: int) -> int:
    return value - 0x10000 if value & 0x8000 else value


class PacketShadow:
    """Runner-side state of the packet currently in flight.

    The pipeline carries only the first ``wmax`` packet bytes; anything
    beyond rides here, along with metadata the state vector has no bits
    for (the original length, the redirect target).
    """

    def __init__(self, frame: bytes) -> None:
        self.orig_len = len(frame)
        self.tail = bytearray()
        self.redirect_ifindex: Optional[int] = None


class RtlContext:
    """Shared environment of one RTL simulation run: the maps, the
    frozen clock, and the shadow of the in-flight packet."""

    def __init__(self, maps: MapSet, time_ns: int = 0) -> None:
        self.maps = maps
        self.time_ns = time_ns
        self.trace_events: List[tuple] = []
        self._prandom_state = PRANDOM_SEED
        self.packet: Optional[PacketShadow] = None
        # Primitive activity: executed map-channel/atomic/helper requests
        # by kind, for the RTL telemetry counters.
        self.op_counts: Dict[str, int] = {}

    def count_op(self, kind: str) -> None:
        self.op_counts[kind] = self.op_counts.get(kind, 0) + 1

    def next_prandom(self) -> int:
        self._prandom_state = prandom_step(self._prandom_state)
        return self._prandom_state


def _bound(ports: Dict[str, Ref], prefix: str, bundle):
    """A bundle's bound ports ``prefix + field`` by direction: the nets
    the block reads and the refs it drives (absent optional rows skipped,
    table order kept)."""
    reads = {ports[prefix + f].net for f, d, *_ in bundle
             if d == "in" and prefix + f in ports}
    drives = [ports[prefix + f] for f, d, *_ in bundle
              if d == "out" and prefix + f in ports]
    return reads, drives


def _hot(ports: Dict[str, Ref], prefix: str, bundle) -> tuple:
    """The bit positions of a bundle's ports ``prefix + field``, in table
    order: ``(net, low, mask)`` of a field the block reads, and of one
    it drives with the mask shifted into place as well."""
    return tuple((r.net, r.low, r.mask) if d == "in"
                 else (r.net, r.low, r.mask, r.mask << r.low)
                 for r, d in ((ports[prefix + f], d) for f, d, _w in bundle))


def _bytes_le(value: int, nbytes: int) -> bytes:
    return (value & ((1 << (8 * nbytes)) - 1)).to_bytes(nbytes, "little")


class MapBlock:
    """Models a ``{prog}_map_{fd}`` entity against the shared MapSet."""

    def __init__(self, entity_name: str, generics: Dict[str, object],
                 ports: Dict[str, Ref], context: RtlContext) -> None:
        self.name = entity_name
        self.fd = int(generics["g_fd"])
        self.key_bytes = int(generics["g_key_bytes"])
        self.value_bytes = int(generics["g_value_bytes"])
        self.ports = ports
        self.context = context
        # Elaboration-time kind check: the netlist's idea of the map's
        # type (G_MAP_TYPE, from the emitted entity) must match the map
        # object actually bound in the MapSet — an LRU block driving a
        # plain hash (or vice versa) would silently drop the recency
        # semantics the serialization window exists to protect. Absent
        # generic (pre-G_MAP_TYPE netlists) skips the check.
        self.map_type = generics.get("g_map_type")
        if self.map_type is not None and self.fd in context.maps:
            actual = context.maps[self.fd].spec.map_type
            if actual != self.map_type:
                raise RtlElabError(
                    f"{entity_name}: G_MAP_TYPE {self.map_type!r} does not "
                    f"match bound map kind {actual!r} (fd {self.fd})"
                )
        self.n_channels = 0
        while f"ch{self.n_channels}_req" in ports:
            self.n_channels += 1
        if not self.n_channels:
            raise RtlElabError(f"{entity_name}: no channels")
        # Flattened bit positions of each channel's fields, in
        # MAP_CHANNEL order, and of the atomic port's, in ATOMIC_PORT
        # order, bound once: _channel and _atomic run on the simulation
        # hot path (the idle branch on most calls) and must be a handful
        # of int ops, not name lookups or Ref method calls.
        self._chan_hot = [_hot(ports, f"ch{c}_", MAP_CHANNEL)
                          for c in range(self.n_channels)]
        self._at_hot = (_hot(ports, "at_", ATOMIC_PORT)
                        if "at_req" in ports else None)

    def _map(self):
        maps = self.context.maps
        if self.fd not in maps:
            raise RtlSimError(f"{self.name}: fd {self.fd} not in MapSet")
        return maps[self.fd]

    def _decode_addr(self, addr: int, size: int):
        """A map-value address valid for this fd, or None (→ oob)."""
        buf, offset, fd = AddressSpace.locate(
            addr, size, b"", _NO_PACKET, self.context.maps)
        return offset if buf is not None and fd == self.fd else None

    def _channel(self, c: int, values: List[int]) -> None:
        ((rq_n, rq_l, rq_m), (op_n, op_l, op_m), (ad_n, ad_l, ad_m),
         (ky_n, ky_l, ky_m), (wd_n, wd_l, wd_m),
         (rd_n, rd_l, rd_m, rd_sm), (ob_n, ob_l, ob_m, ob_sm)) = \
            self._chan_hot[c]
        if (values[rq_n] >> rq_l) & rq_m != 1:
            values[rd_n] &= ~rd_sm
            values[ob_n] &= ~ob_sm
            return
        op = (values[op_n] >> op_l) & op_m
        code, size = op & 0xF, op >> 4
        self.context.count_op(_CH_OP_NAMES.get(code, "unknown"))
        addr = (values[ad_n] >> ad_l) & ad_m
        key_raw = (values[ky_n] >> ky_l) & ky_m
        bpf_map = self._map()
        result, out_of_bounds = 0, 0
        helper_id = _CH_OP_HELPER.get(code)
        if helper_id is not None:
            # The addr port carries r4 of an update (its flags) and r3
            # of a redirect_map (the action on a miss).
            value = (_bytes_le((values[wd_n] >> wd_l) & wd_m,
                               bpf_map.value_size)
                     if helper_id == BPF_MAP_UPDATE_ELEM else None)
            result, _slot, ifindex = channel_step(
                helper_id, self.fd, bpf_map,
                _bytes_le(key_raw, bpf_map.key_size), value, addr)
            shadow = self.context.packet
            if ifindex is not None and shadow is not None:
                shadow.redirect_ifindex = ifindex
        elif code == CH_OP_LOAD:
            offset = self._decode_addr(addr, size)
            if offset is None:
                out_of_bounds = 1
            else:
                result = int.from_bytes(
                    bpf_map.storage[offset:offset + size], "little"
                )
        elif code == CH_OP_STORE:
            offset = self._decode_addr(addr, size)
            if offset is None:
                out_of_bounds = 1
            else:
                bpf_map.storage[offset:offset + size] = _bytes_le(
                    (values[wd_n] >> wd_l) & wd_m, size
                )
        else:
            raise RtlSimError(f"{self.name}: channel op {op:#x}")
        values[rd_n] = values[rd_n] & ~rd_sm | (result & rd_m) << rd_l
        values[ob_n] = values[ob_n] & ~ob_sm | (out_of_bounds & ob_m) << ob_l

    def _atomic(self, values: List[int]) -> None:
        ((rq_n, rq_l, rq_m), (op_n, op_l, op_m), (sz_n, sz_l, sz_m),
         (ad_n, ad_l, ad_m), (wd_n, wd_l, wd_m), (ex_n, ex_l, ex_m),
         (ol_n, ol_l, ol_m, ol_sm), (ob_n, ob_l, ob_m, ob_sm)) = \
            self._at_hot
        if (values[rq_n] >> rq_l) & rq_m != 1:
            values[ol_n] &= ~ol_sm
            values[ob_n] &= ~ob_sm
            return
        op = (values[op_n] >> op_l) & op_m
        self.context.count_op("atomic")
        size = (values[sz_n] >> sz_l) & sz_m
        storage = self._map().storage
        offset = self._decode_addr((values[ad_n] >> ad_l) & ad_m, size)
        old, out_of_bounds = 0, 0
        if offset is None:
            out_of_bounds = 1
        else:
            old = int.from_bytes(storage[offset:offset + size], "little")
            try:
                new = atomic_step(op, old, (values[wd_n] >> wd_l) & wd_m,
                                  (values[ex_n] >> ex_l) & ex_m,
                                  (1 << (8 * size)) - 1)
            except VmError as exc:
                raise RtlSimError(f"{self.name}: {exc}") from None
            storage[offset:offset + size] = new.to_bytes(size, "little")
        values[ol_n] = values[ol_n] & ~ol_sm | (old & ol_m) << ol_l
        values[ob_n] = values[ob_n] & ~ob_sm | (out_of_bounds & ob_m) << ob_l

    def nodes(self) -> List[CombNode]:
        p = self.ports
        out: List[CombNode] = []
        for c in range(self.n_channels):
            reads, drives = _bound(p, f"ch{c}_", MAP_CHANNEL)
            out.append(CombNode(
                lambda values, c=c: self._channel(c, values),
                reads, {r.net for r in drives}, label=f"{self.name}.ch{c}",
                gate=p[f"ch{c}_req"], idle=drives, prim=(self, "channel", c),
            ))
        if "at_req" in p:
            reads, drives = _bound(p, "at_", ATOMIC_PORT)
            out.append(CombNode(self._atomic, reads,
                                {r.net for r in drives},
                                label=f"{self.name}.atomic",
                                gate=p["at_req"], idle=drives,
                                prim=(self, "atomic", 0)))
        # Quiescent host/flush outputs (host port unused in verification).
        tied = [p[name] for name in ("flush_out", "host_rdata")
                if name in p]
        if tied:
            def tie(values, tied=tied):
                for ref in tied:
                    ref.set(values, 0)

            out.append(CombNode(tie, set(), {r.net for r in tied},
                                label=f"{self.name}.tie", idle=tied))
        return out


class _HelperFacade:
    """Duck-typed Vm for ``helper_impl`` callables, backed by the RTL
    block's input ports (mirrors ``hwsim.sim._HelperContext``)."""

    def __init__(self, context: RtlContext, ctx: XdpContext,
                 stack_layout: List, stack_value: int) -> None:
        self._context = context
        self.maps = context.maps
        self.ctx = ctx
        self.time_ns = context.time_ns
        self.trace_events = context.trace_events
        self._stack_layout = stack_layout  # [(offset, size, low_bit)]
        self._stack_value = stack_value

    def next_prandom(self) -> int:
        return self._context.next_prandom()

    def read_bytes(self, addr: int, size: int) -> bytes:
        if AddressSpace.is_stack(addr):
            off = addr - AddressSpace.STACK_BASE
            for r_off, r_size, low in self._stack_layout:
                if r_off <= off and off + size <= r_off + r_size:
                    shift = low + 8 * (off - r_off)
                    raw = (self._stack_value >> shift) & \
                        ((1 << (8 * size)) - 1)
                    return raw.to_bytes(size, "little")
            raise RtlSimError(
                f"helper read of stack [{off}:{off + size}] outside the "
                "carried layout"
            )
        buf, off, why = AddressSpace.locate(
            addr, size, b"", self.ctx, self.maps)
        if buf is None:  # refused: ``off`` names the region
            raise RtlSimError(
                f"helper {off} read {why}: {addr:#x}+{size}")
        return bytes(buf[off:off + size])


class HelperBlock:
    """Models a helper entity: one combinational node that runs the
    shared helper implementation when requested."""

    def __init__(self, entity_name: str, generics: Dict[str, object],
                 ports: Dict[str, Ref], context: RtlContext) -> None:
        self.name = entity_name
        self.helper_id = int(generics["g_helper_id"])
        self.spec = helper_spec(self.helper_id)
        self.impl = helper_impl(self.helper_id)
        self.win_bytes = int(generics.get("g_win_bytes") or 0)
        self.ports = ports
        self.context = context
        # "off:size;off:size" → [(off, size, low_bit)] ascending
        self.stack_layout: List = []
        desc = generics.get("g_stack_layout") or ""
        low = 0
        for piece in str(desc).split(";"):
            if not piece:
                continue
            off_s, size_s = piece.split(":")
            self.stack_layout.append((int(off_s), int(size_s), low))
            low += 8 * int(size_s)

    def _eval(self, values: List[int]) -> None:
        p = self.ports
        if p["req"].get(values) != 1:
            p["rsp"].set(values, 0)
            return
        shadow = self.context.packet
        if shadow is None:
            raise RtlSimError(f"{self.name}: request with no packet in "
                              "flight")
        self.context.count_op(f"helper:{self.spec.name}")
        has_frame = "frame_i" in p
        packet = bytearray()
        plen = haj = 0
        if has_frame:
            plen = p["plen_i"].get(values)
            haj = _sign16(p["haj_i"].get(values))
            window = _bytes_le(p["frame_i"].get(values), self.win_bytes)
            packet = bytearray(window[:min(plen, self.win_bytes)]
                               + shadow.tail)
        ctx = XdpContext(packet)
        ctx.head_adjust = haj
        ctx.tail_adjust = plen - shadow.orig_len + haj
        ctx.redirect_ifindex = shadow.redirect_ifindex
        stack_value = p["stack_i"].get(values) if "stack_i" in p else 0
        facade = _HelperFacade(self.context, ctx, self.stack_layout,
                               stack_value)
        args = [p[f"r{i}"].get(values) for i in range(1, 6)]
        result = self.impl(facade, *args) & MASK64
        p["rsp"].set(values, result)
        shadow.redirect_ifindex = ctx.redirect_ifindex
        if "frame_o" in p:
            new_packet = bytes(ctx.packet)
            win = new_packet[:self.win_bytes].ljust(self.win_bytes, b"\x00")
            p["frame_o"].set(values, int.from_bytes(win, "little"))
            p["plen_o"].set(values, len(new_packet) & 0xFFFF)
            p["haj_o"].set(values, ctx.head_adjust & 0xFFFF)
            shadow.tail = bytearray(new_packet[self.win_bytes:])

    def nodes(self) -> List[CombNode]:
        p = self.ports
        reads, drives = _bound(p, "", HELPER_PORT)
        return [CombNode(self._eval, reads, {r.net for r in drives},
                         label=self.name, gate=p["req"], idle=[p["rsp"]],
                         prim=(self, "helper", 0))]


class AsyncFifo:
    """Depth-agnostic model of ``ehdl_async_fifo``: in verification both
    clocks are the same and at most one packet is in flight, so the FIFO
    degenerates to a wire (write visible the same cycle)."""

    def __init__(self, entity_name: str, generics: Dict[str, object],
                 ports: Dict[str, Ref], context: RtlContext) -> None:
        self.name = entity_name
        self.ports = ports

    def _eval(self, values: List[int]) -> None:
        p = self.ports
        wr = p["wr_en"].get(values)
        p["rd_data"].set(values, p["wr_data"].get(values))
        p["empty"].set(values, 0 if wr else 1)
        p["full"].set(values, 0)

    def nodes(self) -> List[CombNode]:
        p = self.ports
        reads = {p["wr_en"].net, p["wr_data"].net, p["rd_en"].net}
        writes = {p["rd_data"].net, p["empty"].net, p["full"].net}
        return [CombNode(self._eval, reads, writes, label=self.name,
                         ports=p)]


def primitive_factory(entity, generics: Dict[str, object],
                      ports: Dict[str, Ref], context: RtlContext):
    """Dispatch a behavioural entity to its Python model by its
    distinguishing generic."""
    if context is None:
        raise RtlElabError(
            f"entity {entity.name!r}: primitives need an RtlContext"
        )
    if "g_fd" in generics:
        return MapBlock(entity.name, generics, ports, context)
    if "g_helper_id" in generics:
        return HelperBlock(entity.name, generics, ports, context)
    if "g_width" in generics:
        return AsyncFifo(entity.name, generics, ports, context)
    raise RtlElabError(
        f"entity {entity.name!r} is behavioural but matches no known "
        "primitive"
    )
