"""VHDL backend: render a compiled pipeline as executable RTL text.

eHDL "takes as input unmodified eBPF bytecode and outputs HDL (VHDL)"
ready for integration into an FPGA NIC shell (§3). This backend emits the
structure the paper describes:

* one entity per pipeline stage, latching exactly the pruned live state
  (packet window + header + live registers + live stack bytes) plus the
  per-block enable (predication) bits — the *output* state layout is the
  next stage's pruned input layout, so dead values are physically dropped;
* a growing packet window (§4.2): the state carried on link ``i`` holds
  ``min(frame_size * (i + 1), WMAX)`` packet bytes; stages whose output
  window is wider than their input window join the next frame from the
  top-level frame bus;
* one map block per eBPF map with the planned number of channels, the
  WAR write-delay buffer, the Flush Evaluation Blocks and the atomic RMW
  port (§4.4); helper calls instantiate ``ehdl_helper_N`` blocks;
* a top-level that chains the stages and wraps the pipeline in the
  asynchronous FIFOs that decouple it from the NIC shell (§4.5).

Unlike a synthesis-only backend, the emitted text is *executable*: the
:mod:`repro.rtl` subsystem parses, elaborates and simulates it clock by
clock, and a three-way differential harness checks it against both
:mod:`repro.hwsim` and :mod:`repro.ebpf.vm`. Map blocks, helper blocks,
the async FIFOs and the ``ehdl_pkg`` functions are declared here and
bound by name to behavioural simulation primitives (the same split a
vendor flow uses for IP cores).

State vector layout of link ``i`` (low bits first):

====================  =======================================
packet window         ``8 * W_i`` bits, byte ``k`` at ``8k``
plen                  16 bits (current packet length)
haj                   16 bits (signed head adjustment)
done                  1 bit (verdict delivered)
verdict               32 bits (raw R0 when done)
live registers        64 bits each, ascending reg number
live stack ranges     8 bits per byte, ascending offset
====================  =======================================

R10 never appears in a layout: it is the hardware constant
``STACK_TOP``. Byte ``k`` of a range sits at bit ``8k``, so a
little-endian multi-byte load is a plain slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from typing import Dict, List, Optional, Set, Tuple

from ..ebpf import isa
from ..ebpf.disasm import format_instruction
from ..ebpf.helpers import BPF_REDIRECT_MAP, helper_spec
from ..ebpf.isa import Instruction
from ..ebpf.xdp import (
    XDP_MD_DATA, XDP_MD_DATA_END, XDP_MD_DATA_META, XDP_MD_EGRESS_IFINDEX,
    XDP_MD_INGRESS_IFINDEX, XDP_MD_RX_QUEUE_INDEX, AddressSpace, XdpContext,
)
from .framing import DEFAULT_DYNAMIC_ACCESS_DEPTH
from .labeling import Region
from .pipeline import PipeOp, Pipeline, Stage

#: marker comment naming the top-level entity; the RTL loader greps it.
TOP_MARKER = "-- top: "

_PKT_DATA = AddressSpace.PACKET_BASE + AddressSpace.PACKET_HEADROOM
_STACK_TOP = AddressSpace.STACK_BASE + AddressSpace.STACK_SIZE
_DROP_CODE = 1  # XdpAction.DROP

#: channel-op encoding (low nibble; high nibble = access size for 4/5)
CH_OP_LOOKUP = 0x1
CH_OP_UPDATE = 0x2
CH_OP_DELETE = 0x3
CH_OP_LOAD = 0x4
CH_OP_STORE = 0x5
CH_OP_REDIRECT = 0x6


class VhdlEmitError(ValueError):
    """The pipeline uses a construct the hardware backend cannot express
    (e.g. a dynamically computed packet/stack offset)."""


def _ident(name: str) -> str:
    out = "".join(c if c.isalnum() else "_" for c in name.lower())
    if not out or not out[0].isalpha():
        out = "p_" + out
    return out


class _Names:
    """Design-unit name registry: collisions get a ``_uN`` suffix."""

    def __init__(self) -> None:
        self._taken: Set[str] = set()

    def claim(self, base: str) -> str:
        name, k = base, 1
        while name in self._taken:
            k += 1
            name = f"{base}_u{k}"
        self._taken.add(name)
        return name


# ---------------------------------------------------------------------------
# Packet window planning (§4.2)
# ---------------------------------------------------------------------------


def _is_packet_helper(op: PipeOp) -> bool:
    if op.call is None or op.call.map_fd is not None:
        return False
    spec = helper_spec(op.call.helper_id)
    return spec.reads_packet or spec.writes_packet


def max_window_bytes(pipeline: Pipeline) -> int:
    """WMAX: the widest packet window any link carries.

    Static accesses need their ``offset + size``; packet helpers operate
    on the whole packet, so the window must be complete (== WMAX) by the
    time they run — which caps WMAX at ``frame_size * stage_number`` of
    the earliest packet helper. Bytes beyond WMAX ride in the shell-side
    tail buffer and are re-joined by the helpers / at egress.
    """
    frame = pipeline.frame_size
    static_need = frame
    helper_cap: Optional[int] = None
    for stage in pipeline.stages:
        for op in stage.ops:
            label = op.label
            if (label is not None and label.region is Region.PACKET
                    and label.offset is not None):
                static_need = max(static_need, label.offset + label.size)
            if _is_packet_helper(op):
                cap = frame * stage.number
                helper_cap = cap if helper_cap is None else min(helper_cap, cap)

    def ceil_frame(n: int) -> int:
        return frame * ((n + frame - 1) // frame)

    wmax = ceil_frame(static_need)
    if helper_cap is not None:
        if wmax > helper_cap:
            raise VhdlEmitError(
                f"packet access at depth {static_need} behind a packet "
                f"helper whose window is only {helper_cap} bytes"
            )
        wmax = max(wmax, min(ceil_frame(DEFAULT_DYNAMIC_ACCESS_DEPTH),
                             helper_cap))
    return wmax


def link_windows(pipeline: Pipeline) -> List[int]:
    """Window bytes on each link: entry link 0, then one per stage."""
    frame = pipeline.frame_size
    wmax = max_window_bytes(pipeline)
    return [min(frame * (i + 1), wmax)
            for i in range(pipeline.n_stages + 1)]


# ---------------------------------------------------------------------------
# State layout: where each live item sits inside a stage's state vector
# ---------------------------------------------------------------------------


@dataclass
class StateLayout:
    """Bit positions inside one link's state vector (see module doc)."""

    window_bytes: int
    regs: Dict[int, int]  # register -> low bit
    stack: Dict[Tuple[int, int], int]  # (offset, size) -> low bit

    @property
    def window_bits(self) -> int:
        return 8 * self.window_bytes

    @property
    def plen_low(self) -> int:
        return self.window_bits

    @property
    def haj_low(self) -> int:
        return self.window_bits + 16

    @property
    def done_bit(self) -> int:
        return self.window_bits + 32

    @property
    def verdict_low(self) -> int:
        return self.window_bits + 33

    @property
    def header_bits(self) -> int:
        return 65  # plen + haj + done + verdict

    @property
    def total_bits(self) -> int:
        bits = self.window_bits + self.header_bits + 64 * len(self.regs)
        bits += sum(8 * size for (_o, size) in self.stack)
        return bits

    def reg_slice(self, reg: int) -> str:
        low = self.regs[reg]
        return f"({low + 63} downto {low})"

    def window_slice(self, offset: int, size: int) -> str:
        return f"({8 * (offset + size) - 1} downto {8 * offset})"

    @property
    def plen_slice(self) -> str:
        return f"({self.plen_low + 15} downto {self.plen_low})"

    @property
    def haj_slice(self) -> str:
        return f"({self.haj_low + 15} downto {self.haj_low})"

    @property
    def verdict_slice(self) -> str:
        return f"({self.verdict_low + 31} downto {self.verdict_low})"

    def stack_low_bit(self, offset: int, size: int) -> Optional[int]:
        """Low bit of stack bytes [offset, offset+size) if fully carried."""
        for (lo, length), base in self.stack.items():
            if lo <= offset and offset + size <= lo + length:
                return base + 8 * (offset - lo)
        return None

    def stack_slice(self, offset: int, size: int) -> Optional[str]:
        low = self.stack_low_bit(offset, size)
        if low is None:
            return None
        return f"({low + 8 * size - 1} downto {low})"


def _layout_for(stage: Optional[Stage], window_bytes: int) -> StateLayout:
    """Input layout of ``stage``; header-only layout when stage is None."""
    if stage is None:
        return StateLayout(window_bytes, {}, {})
    layout = StateLayout(window_bytes, {}, {})
    pos = layout.window_bits + layout.header_bits
    for reg in sorted(stage.live_in_regs):
        if reg == isa.R10:
            continue  # hardware constant, never carried
        layout.regs[reg] = pos
        pos += 64
    for off, size in stage.live_in_stack:
        layout.stack[(off, size)] = pos
        pos += 8 * size
    return layout


# ---------------------------------------------------------------------------
# Datapath expressions (exact ebpf.vm semantics)
# ---------------------------------------------------------------------------


def _imm64(value: int) -> str:
    return f'x"{value & isa.MASK64:016x}"'


def _hex(value: int, bits: int) -> str:
    assert bits % 4 == 0
    return f'x"{value & ((1 << bits) - 1):0{bits // 4}x}"'


#: the xdp_md loads a stage can make, by (offset, size): the packet
#: pointers, which each site renders from its own signals, and the
#: constant fields at ``XdpContext``'s defaults (data_meta is unused).
_XDP_MD = {
    (XDP_MD_DATA, 8): "data|data_end",
    (XDP_MD_DATA, 4): "data",
    (XDP_MD_DATA_END, 4): "data_end",
    (XDP_MD_DATA_META, 4): 0,
    (XDP_MD_INGRESS_IFINDEX, 4): XdpContext.ingress_ifindex,
    (XDP_MD_RX_QUEUE_INDEX, 4): XdpContext.rx_queue_index,
    (XDP_MD_EGRESS_IFINDEX, 4): XdpContext.egress_ifindex,
}


def _ctx_load(off: int, size: int, pointers: Dict[str, str]) -> Optional[str]:
    """64-bit slv of a ``size``-byte ctx load at ``off``, the packet
    pointers taken from ``pointers``; ``None`` where ``_XDP_MD`` has no
    such field."""
    field = _XDP_MD.get((off, size))
    return _imm64(field) if isinstance(field, int) else pointers.get(field)


# Every op is one row rendered at its width ``w`` (64 or 32 for ALU and
# jumps, the access width for stack atomics) over three views of its
# 64-bit slv operands. As in metalibm's zext, extending by 0 bits hands
# the input back: at full width an op whose value is its operand (mov,
# a to-le swap) is the operand itself.


class _FullView(str):
    """``_u(a, 64)``: ``unsigned(a)``, remembering ``a`` for ``_zext``."""

    def __new__(cls, slv: str) -> "_FullView":
        view = super().__new__(cls, f"unsigned({slv})")
        view.slv = slv
        return view


def _u(a: str, w: int) -> str:
    """The low ``w`` bits of slv ``a``, unsigned."""
    return f"resize(unsigned({a}), {w})" if w < 64 else _FullView(a)


def _s(a: str, w: int) -> str:
    """The low ``w`` bits of slv ``a``, signed."""
    if w < 64:
        return f"signed(std_logic_vector({_u(a, w)}))"
    return f"signed({a})"


def _zext(u: str, w: int, to: int = 64) -> str:
    """A ``w``-bit unsigned zero-extended to a ``to``-bit slv."""
    if w < to:
        return f"std_logic_vector(resize({u}, {to}))"
    return u.slv if isinstance(u, _FullView) else f"std_logic_vector({u})"


def _resize(a: str, bits: int) -> str:
    """slv ``a`` zero-extended or cut to a ``bits``-bit slv."""
    return f"std_logic_vector(resize(unsigned({a}), {bits}))"


# Row makers: a row is ``(a, b, w) -> text`` over the operands' views.


def _infix(sym: str, view=_u):
    return lambda a, b, w: f"{view(a, w)} {sym} {view(b, w)}"


def _shift(fn: str, view=_u):
    return lambda a, b, w: (f"{fn}({view(a, w)}, to_integer("
                            f"resize(unsigned({b}), {w.bit_length() - 1})))")


def _divider(fn: str):
    return lambda a, b, w: (f"unsigned({fn}(std_logic_vector({_u(a, w)}), "
                            f"std_logic_vector({_u(b, w)})))")


#: ALU op -> its ``w``-bit unsigned value for ``dst <op> src``
#: (``BPF_END`` is ``_swap_expr``).
_ALU_ROWS = {
    isa.BPF_ADD: _infix("+"),
    isa.BPF_SUB: _infix("-"),
    isa.BPF_MUL: lambda a, b, w: f"resize({_infix('*')(a, b, w)}, {w})",
    isa.BPF_DIV: _divider("ehdl_udiv"),
    isa.BPF_MOD: _divider("ehdl_urem"),
    isa.BPF_OR: _infix("or"),
    isa.BPF_AND: _infix("and"),
    isa.BPF_XOR: _infix("xor"),
    isa.BPF_LSH: _shift("shift_left"),
    isa.BPF_RSH: _shift("shift_right"),
    isa.BPF_ARSH: lambda a, b, w: (
        f"unsigned(std_logic_vector({_shift('shift_right', _s)(a, b, w)}))"),
    isa.BPF_NEG: lambda a, b, w: f"to_unsigned(0, {w}) - {_u(a, w)}",
    isa.BPF_MOV: lambda a, b, w: _u(b, w),
}

#: jump op -> its boolean condition on ``dst``, ``src``.
_CMP_ROWS = {
    isa.BPF_JEQ: _infix("="),
    isa.BPF_JNE: _infix("/="),
    isa.BPF_JGT: _infix(">"),
    isa.BPF_JGE: _infix(">="),
    isa.BPF_JLT: _infix("<"),
    isa.BPF_JLE: _infix("<="),
    isa.BPF_JSGT: _infix(">", _s),
    isa.BPF_JSGE: _infix(">=", _s),
    isa.BPF_JSLT: _infix("<", _s),
    isa.BPF_JSLE: _infix("<=", _s),
    isa.BPF_JSET: lambda a, b, w: (
        f"({_infix('and')(a, b, w)}) /= to_unsigned(0, {w})"),
}


def _alu_expr(op: int, a: str, b: str, bits: int) -> str:
    """64-bit slv expression for ``a <op> b`` at ``bits`` (VM masking)."""
    if op not in _ALU_ROWS:
        raise VhdlEmitError(f"unsupported ALU op {op:#x}")
    return _zext(_ALU_ROWS[op](a, b, bits), bits)


def _swap_expr(a: str, bits: int, to_big: bool) -> str:
    if bits not in isa.SWAP_WIDTHS:
        raise VhdlEmitError(f"bswap to {bits} bits")
    if to_big:
        return f"ehdl_bswap{bits}({a})"
    return _zext(_u(a, bits), bits)


def _cmp_expr(op: int, a: str, b: str, bits: int) -> str:
    """Boolean VHDL condition for a conditional jump at ``bits``."""
    if op not in _CMP_ROWS:
        raise VhdlEmitError(f"unsupported jump op {op:#x}")
    return _CMP_ROWS[op](a, b, bits)


# ---------------------------------------------------------------------------
# Port bundles: each stage-to-block interface is declared once, as
# (field, direction, width) rows seen from the block. "in" fields are the
# request a stage drives (``req`` is its strobe), "out" fields the block's
# response; a stage's ports are the same rows with directions flipped.
# ---------------------------------------------------------------------------

#: one channel of a map block (§4.4); "key" and "value" widths are the
#: map's (``_map_widths``).
MAP_CHANNEL = (
    ("req", "in", 1),
    ("op", "in", 8),
    ("addr", "in", 64),
    ("key", "in", "key"),
    ("wdata", "in", "value"),
    ("rdata", "out", 64),
    ("oob", "out", 1),
)

#: a map block's atomic read-modify-write port (§4.4).
ATOMIC_PORT = (
    ("req", "in", 1),
    ("op", "in", 8),
    ("size", "in", 4),
    ("addr", "in", 64),
    ("wdata", "in", 64),
    ("expected", "in", 64),
    ("old", "out", 64),
    ("oob", "out", 1),
)

#: a helper block's port, with a fourth column: the rows a helper has
#: only when it reads the packet ("frame"), writes it ("frame_out") or
#: reads the carried stack ("stack"). "window" and "stack" widths are
#: the block's packet window and stack bundle bits.
HELPER_PORT = (
    ("req", "in", 1, None),
    *((f"r{i}", "in", 64, None) for i in range(1, 6)),
    ("frame_i", "in", "window", "frame"),
    ("plen_i", "in", 16, "frame"),
    ("haj_i", "in", 16, "frame"),
    ("frame_o", "out", "window", "frame_out"),
    ("plen_o", "out", 16, "frame_out"),
    ("haj_o", "out", 16, "frame_out"),
    ("stack_i", "in", "stack", "stack"),
    ("rsp", "out", 64, None),
)

_FLIP = {"in": "out", "out": "in"}


def _map_widths(pipeline: Pipeline, fd: int) -> Tuple[int, int]:
    """Key and value bits of map ``fd``'s channels."""
    spec = pipeline.program.maps.get(fd)
    if spec is None:
        return 8, 64
    return 8 * max(spec.key_size, 1), 8 * max(spec.value_size, 8)


def _channel_rows(pipeline: Pipeline, fd: int) -> Tuple[Tuple, ...]:
    """``MAP_CHANNEL`` with map ``fd``'s widths."""
    return _channel_port(*_map_widths(pipeline, fd))


@lru_cache(maxsize=256)
def _channel_port(key_bits: int, value_bits: int) -> Tuple[Tuple, ...]:
    widths = {"key": key_bits, "value": value_bits}
    return tuple((f, d, widths.get(w, w)) for f, d, w in MAP_CHANNEL)


def _helper_rows(spec, window_bits: int, stack_bits: int) -> Tuple[Tuple, ...]:
    """The ``HELPER_PORT`` rows one helper block has, widths resolved."""
    has = {None: True, "frame": spec.reads_packet or spec.writes_packet,
           "frame_out": spec.writes_packet, "stack": stack_bits > 0}
    widths = {"window": window_bits, "stack": stack_bits}
    return tuple((f, d, widths.get(w, w), when)
                 for f, d, w, when in HELPER_PORT if has[when])


def _stack_bundle(spec, layout: StateLayout) -> Tuple[List, str, int]:
    """The live stack ranges a helper reads, their ``G_STACK_LAYOUT``
    text and their bits (none when the helper reads no stack)."""
    ranges = sorted(layout.stack) if spec.reads_stack else []
    return (ranges, ";".join(f"{o}:{s}" for o, s in ranges),
            sum(8 * s for _o, s in ranges))


def _driven(rows) -> List[Tuple]:
    """The rows a stage drives, the ``req`` strobe first."""
    return [row for row in rows if row[1] == "in"]


def _vtype(width: int) -> str:
    return ("std_logic" if width == 1
            else f"std_logic_vector({width - 1} downto 0)")


@lru_cache(maxsize=256)
def _port_decls(rows: Tuple[Tuple, ...], prefix: str = "",
                flip: bool = False) -> Tuple[str, ...]:
    """Port declarations of ``rows`` named ``prefix + field``, aligned on
    the longest field; ``flip`` declares the stage side. Cached: a
    bundle is declared once per channel and stage, and emission is on
    the compile path."""
    pad = max([len(row[0]) for row in rows])
    return tuple(f"{prefix}{row[0].ljust(pad)} : "
                 f"{(_FLIP[row[1]] if flip else row[1]).ljust(3)} "
                 f"{_vtype(row[2])}" for row in rows)


def _signal_decls(rows, prefix: str) -> List[str]:
    return [f"  signal {prefix}{row[0]} : {_vtype(row[2])};" for row in rows]


def _assoc(rows, formal: str, request: str,
           response: Optional[str] = None) -> List[Tuple[str, str]]:
    """Port-map pairs binding ``formal + field`` to ``request + field`` for
    the fields a stage drives, ``response + field`` for the others."""
    response = request if response is None else response
    return [(formal + row[0], (request if row[1] == "in" else response)
             + row[0]) for row in rows]


def _mux(rows, target: str, sources: List[str]) -> List[str]:
    """Drive a block's request fields ``target + field`` from the stages
    sharing it: ``req`` is their OR, each other field the requester's."""
    fields = [row[0] for row in _driven(rows)[1:]]
    if not sources:
        return ([f"  {target}req <= '0';"]
                + [f"  {target}{f} <= (others => '0');" for f in fields])
    return ([f"  {target}req <= "
             + " or ".join(f"{s}req" for s in sources) + ";"]
            + [f"  {target}{f} <= "
               + " else ".join(f"{s}{f} when {s}req = '1'" for s in sources)
               + " else (others => '0');" for f in fields])


# ---------------------------------------------------------------------------
# Stage entities
# ---------------------------------------------------------------------------


@dataclass
class _MapPortUse:
    """One map-channel operation wired out of a stage."""

    port: str  # stage-side port prefix, e.g. "mp0"
    fd: int
    channel: int  # the map's channel (``MapHazardPlan.ports``)


@dataclass
class _AtomicUse:
    """A stage's atomic port on one map. Mutually exclusive blocks may
    each drive it: every ``ap_*`` input then muxes on the enable bits."""

    port: str
    fd: int
    at: int  # index of the port's drives in the stage's concurrent lines
    # per atomic op: (block id, guard, field -> driving expression)
    drives: List[Tuple[int, str, Dict[str, str]]] = field(
        default_factory=list)

    FIELDS = tuple(row[0] for row in _driven(ATOMIC_PORT)[1:])

    def lines(self) -> List[str]:
        """The port's drives: ``ap_req`` and then each of ``FIELDS``."""
        out = [f"  ap_req <= "
               + "".join(f"'1' when {guard} else "
                         for _b, guard, _f in self.drives) + "'0';"]
        for name in self.FIELDS:
            *muxed, (_b, _g, last) = self.drives
            out.append(f"  ap_{name} <= "
                       + "".join(f"{exprs[name]} when enable_in({b}) = '1' "
                                 "else " for b, _g, exprs in muxed)
                       + f"{last[name]};")
        return out


class _StageBuilder:
    """Builds one stage entity: ports, concurrent drives, clocked body."""

    def __init__(self, pipeline: Pipeline, stage: Stage,
                 layout_in: StateLayout, layout_out: StateLayout,
                 enable_width: int, helper_names: Dict[int, str]) -> None:
        self.pipeline = pipeline
        self.stage = stage
        self.layout_in = layout_in
        self.layout_out = layout_out
        self.enable_width = enable_width
        self.helper_names = helper_names
        self.ports: List[str] = []
        self.decls: List[str] = []
        self.conc: List[str] = []
        self.seq: List[str] = []
        self.map_uses: List[_MapPortUse] = []
        self.atomic_use: Optional[_AtomicUse] = None
        # In-stage forwarding and the drop chain of the block whose op is
        # being emitted (emit_op selects them): ops of exclusive blocks
        # sharing this stage never see each other's results or drops.
        self._drop_chains: Dict[int, List[str]] = {}
        self._reg_exprs: Dict[int, Dict[int, str]] = {}
        self._mp_count = 0
        self._helper_count = 0

    # -- operand access ------------------------------------------------------

    def _src(self, reg: int) -> str:
        if reg == isa.R10:
            return _imm64(_STACK_TOP)
        if reg in self._reg_expr:
            return f"({self._reg_expr[reg]})"
        if reg in self.layout_in.regs:
            return f"state_in{self.layout_in.reg_slice(reg)}"
        return _imm64(0)

    def _dst_slice(self, reg: int) -> Optional[str]:
        if reg in self.layout_out.regs:
            return f"state_out{self.layout_out.reg_slice(reg)}"
        return None

    def _set(self, reg: int, value: str) -> List[str]:
        """The statement latching ``value`` into ``reg``, if it is live
        out of the stage."""
        dst = self._dst_slice(reg)
        return [] if dst is None else [f"{dst} <= {value};"]

    def _operand(self, insn: Instruction) -> str:
        if insn.uses_reg_src:
            return self._src(insn.src)
        return _imm64(isa.to_signed32(insn.imm))

    # -- guards and the in-stage drop chain ----------------------------------

    def _guard(self, op: PipeOp) -> str:
        parts = [
            "valid_in = '1'",
            f"enable_in({op.block_id}) = '1'",
            f"state_in({self.layout_in.done_bit}) = '0'",
        ]
        parts += [f"not ({d})" for d in self._drop_conds]
        return " and ".join(parts)

    def _drop_stmts(self) -> List[str]:
        return [
            f"state_out({self.layout_out.done_bit}) <= '1';",
            f"state_out{self.layout_out.verdict_slice} <= "
            + _hex(_DROP_CODE, 32) + ";",
        ]

    def _pkt_bounds(self, offset: int, size: int) -> str:
        return (f"unsigned(state_in{self.layout_in.plen_slice}) < "
                f"to_unsigned({offset + size}, 16)")

    def _succ_enables(self, op: PipeOp) -> List[str]:
        block = self.pipeline.cfg.blocks[op.block_id]
        if op.insn_index != block.terminator_index:
            return []
        if op.insn.is_cond_jump or op.insn.is_exit:
            return []  # handled by their own emitters
        return [f"enable_out({succ}) <= '1';" for succ, _kind in block.succs]

    def _emit_guarded(self, op: PipeOp, effects: List[str],
                      drop_cond: Optional[str] = None) -> None:
        """Wrap effect statements in the enable/done/drop guard."""
        effects = effects + self._succ_enables(op)
        guard = self._guard(op)
        pad = "        "
        if drop_cond is None:
            if not effects:
                return
            self.seq.append(f"{pad}if {guard} then")
            self.seq += [f"{pad}  {s}" for s in effects]
            self.seq.append(f"{pad}end if;")
        else:
            self.seq.append(f"{pad}if {guard} then")
            self.seq.append(f"{pad}  if {drop_cond} then")
            self.seq += [f"{pad}    {s}" for s in self._drop_stmts()]
            self.seq.append(f"{pad}  else")
            self.seq += [f"{pad}    {s}" for s in effects]
            self.seq.append(f"{pad}  end if;")
            self.seq.append(f"{pad}end if;")
            self._drop_conds.append(drop_cond)

    def _req_expr(self, op: PipeOp) -> str:
        return f"'1' when {self._guard(op)} else '0'"

    # -- map channels --------------------------------------------------------

    def _map_request(self, op: PipeOp, fd: int, ch_op: int, addr: str,
                     key: str = "(others => '0')",
                     wdata: str = "(others => '0')") -> str:
        """Wire a new channel port to map ``fd`` and drive its request;
        returns the port prefix (``mp<N>``)."""
        port = f"mp{self._mp_count}"
        self._mp_count += 1
        plan = self.pipeline.map_hazards[fd]
        channel = next(ch for a, ch in zip(plan.accesses, plan.ports)
                       if a.op.insn_index == op.insn_index)
        self.map_uses.append(_MapPortUse(port=port, fd=fd, channel=channel))
        rows = _channel_rows(self.pipeline, fd)
        self.ports += _port_decls(rows, f"{port}_", flip=True)
        drive = {"req": self._req_expr(op), "op": _hex(ch_op, 8),
                 "addr": addr, "key": key, "wdata": wdata}
        self.conc += [f"  {port}_{row[0]} <= {drive[row[0]]};"
                      for row in _driven(rows)]
        return port

    # -- op emitters ---------------------------------------------------------

    def emit_op(self, op: PipeOp) -> None:
        insn = op.insn
        self._drop_conds = self._drop_chains.setdefault(op.block_id, [])
        self._reg_expr = self._reg_exprs.setdefault(op.block_id, {})
        self.seq.append(f"        -- b{op.block_id}: {format_instruction(insn)}")
        if insn.is_ld_imm64:
            self._emit_ld_imm64(op)
        elif insn.is_alu:
            self._emit_alu(op)
        elif insn.is_cond_jump:
            self._emit_cond_jump(op)
        elif insn.is_uncond_jump:
            self._emit_guarded(op, [
                f"enable_out({succ}) <= '1';"
                for succ, _k in self.pipeline.cfg.blocks[op.block_id].succs
            ])
        elif insn.is_exit:
            self._emit_guarded(op, [
                f"state_out({self.layout_out.done_bit}) <= '1';",
                f"state_out{self.layout_out.verdict_slice} <= "
                f"{_resize(self._src(isa.R0), 32)};",
            ])
        elif insn.is_atomic:
            self._emit_atomic(op)
        elif insn.is_mem_load:
            self._emit_load(op)
        elif insn.is_mem_store:
            self._emit_store(op)
        elif insn.is_call:
            self._emit_call(op)
        else:
            raise VhdlEmitError(
                f"insn {op.insn_index}: cannot emit {format_instruction(insn)}"
            )

    def _emit_ld_imm64(self, op: PipeOp) -> None:
        insn = op.insn
        if insn.src in (isa.BPF_PSEUDO_MAP_FD, isa.BPF_PSEUDO_MAP_VALUE):
            fd = ((insn.imm64 if insn.imm64 is not None else insn.imm)
                  & isa.MASK32)
            value = 0x3000_0000 + fd  # helpers.map_ptr
        else:
            value = ((insn.imm64 if insn.imm64 is not None else insn.imm)
                     & isa.MASK64)
        self._reg_expr[insn.dst] = _imm64(value)
        self._emit_guarded(op, self._set(insn.dst, _imm64(value)))

    def _emit_alu(self, op: PipeOp) -> None:
        insn = op.insn
        if insn.op == isa.BPF_END:
            expr = _swap_expr(self._src(insn.dst), insn.imm,
                              to_big=insn.uses_reg_src)
        else:
            expr = _alu_expr(insn.op, self._src(insn.dst), self._operand(insn),
                             64 if insn.is_alu64 else 32)
        self._reg_expr[insn.dst] = expr
        self._emit_guarded(op, self._set(insn.dst, expr))

    def _emit_cond_jump(self, op: PipeOp) -> None:
        insn = op.insn
        cond = _cmp_expr(insn.op, self._src(insn.dst), self._operand(insn),
                         64 if insn.opclass == isa.BPF_JMP else 32)
        block = self.pipeline.cfg.blocks[op.block_id]
        taken = fall = None
        for succ, kind in block.succs:
            if kind == "taken":
                taken = succ
            elif kind == "fall":
                fall = succ
        guard = self._guard(op)
        pad = "        "
        self.seq.append(f"{pad}if {guard} then")
        if taken is not None and fall is not None:
            self.seq.append(f"{pad}  if {cond} then")
            self.seq.append(f"{pad}    enable_out({taken}) <= '1';")
            self.seq.append(f"{pad}  else")
            self.seq.append(f"{pad}    enable_out({fall}) <= '1';")
            self.seq.append(f"{pad}  end if;")
        elif taken is not None:
            self.seq.append(f"{pad}  if {cond} then")
            self.seq.append(f"{pad}    enable_out({taken}) <= '1';")
            self.seq.append(f"{pad}  end if;")
        elif fall is not None:
            self.seq.append(f"{pad}  if not ({cond}) then")
            self.seq.append(f"{pad}    enable_out({fall}) <= '1';")
            self.seq.append(f"{pad}  end if;")
        self.seq.append(f"{pad}end if;")

    def _emit_load(self, op: PipeOp) -> None:
        insn, label = op.insn, op.label
        if label is None:
            raise VhdlEmitError(f"insn {op.insn_index}: unlabeled load")
        size = insn.size_bytes
        if label.region is Region.PACKET:
            if label.offset is None:
                raise VhdlEmitError(
                    f"insn {op.insn_index}: dynamic packet offset"
                )
            if 8 * (label.offset + size) > self.layout_in.window_bits:
                raise VhdlEmitError(
                    f"insn {op.insn_index}: packet byte "
                    f"{label.offset + size} beyond the stage window"
                )
            src = f"state_in{self.layout_in.window_slice(label.offset, size)}"
            self._emit_guarded(op, self._set(insn.dst, _resize(src, 64)),
                               drop_cond=self._pkt_bounds(label.offset, size))
        elif label.region is Region.STACK:
            if label.offset is None:
                raise VhdlEmitError(
                    f"insn {op.insn_index}: dynamic stack offset"
                )
            slc = self.layout_in.stack_slice(label.offset, size)
            if slc is None:
                raise VhdlEmitError(
                    f"insn {op.insn_index}: stack [{label.offset}:{size}] "
                    "not carried into this stage"
                )
            self._emit_guarded(
                op, self._set(insn.dst, _resize(f"state_in{slc}", 64)))
        elif label.region is Region.CTX:  # a dead load reads no field
            live = self._dst_slice(insn.dst) is not None
            self._emit_guarded(
                op, self._set(insn.dst, self._ctx_expr(op)) if live else [])
        elif label.region is Region.MAP_VALUE:
            addr = (f"std_logic_vector(unsigned({self._src(insn.src)}) + "
                    f"unsigned({_imm64(insn.off)}))")
            port = self._map_request(
                op, op.call.map_fd if op.call else label.map_fd,
                (size << 4) | CH_OP_LOAD, addr)
            self._emit_guarded(op, self._set(insn.dst, f"{port}_rdata"),
                               drop_cond=f"{port}_oob = '1'")
        else:
            raise VhdlEmitError(f"insn {op.insn_index}: load from "
                                f"{label.region.value}")

    def _ctx_expr(self, op: PipeOp) -> str:
        """xdp_md field loads become arithmetic over plen/haj (the context
        is not stored anywhere: it is synthesized from the header)."""
        off, size = op.label.offset, op.label.size
        lin = self.layout_in
        data32 = (f"unsigned(std_logic_vector(to_signed({_PKT_DATA}, 32) + "
                  f"resize(signed(state_in{lin.haj_slice}), 32)))")
        dend32 = (f"unsigned(std_logic_vector(to_signed({_PKT_DATA}, 32) + "
                  f"resize(signed(state_in{lin.haj_slice}), 32) + "
                  f"signed(std_logic_vector(resize("
                  f"unsigned(state_in{lin.plen_slice}), 32)))))")
        value = _ctx_load(off, size, {
            "data": _zext(data32, 32),
            "data_end": _zext(dend32, 32),
            "data|data_end": (f"std_logic_vector({dend32}) & "
                              f"std_logic_vector({data32})"),
        })
        if value is None:
            raise VhdlEmitError(
                f"insn {op.insn_index}: ctx load at offset {off} size {size}"
            )
        return value

    def _value_bits(self, op: PipeOp, width_bits: int) -> str:
        """The stored value as a ``width_bits``-wide slv expression."""
        insn = op.insn
        if insn.opclass == isa.BPF_ST:
            return _hex(isa.to_signed32(insn.imm), width_bits)
        src = self._src(insn.src)
        return src if width_bits == 64 else _resize(src, width_bits)

    def _value_segment(self, op: PipeOp, byte_off: int, nbytes: int) -> str:
        """Bytes [byte_off, byte_off+nbytes) of the stored value."""
        insn = op.insn
        if insn.opclass == isa.BPF_ST:
            value = (isa.to_signed32(insn.imm) >> (8 * byte_off))
            return _hex(value, 8 * nbytes)
        src = self._src(insn.src)
        if byte_off == 0:
            return _resize(src, 8 * nbytes)
        return (f"std_logic_vector(resize(shift_right(unsigned({src}), "
                f"{8 * byte_off}), {8 * nbytes}))")

    def _emit_store(self, op: PipeOp) -> None:
        insn, label = op.insn, op.label
        if label is None:
            raise VhdlEmitError(f"insn {op.insn_index}: unlabeled store")
        size = insn.size_bytes
        if label.region is Region.PACKET:
            if label.offset is None:
                raise VhdlEmitError(
                    f"insn {op.insn_index}: dynamic packet offset"
                )
            if 8 * (label.offset + size) > self.layout_out.window_bits:
                raise VhdlEmitError(
                    f"insn {op.insn_index}: packet store beyond the window"
                )
            tgt = f"state_out{self.layout_out.window_slice(label.offset, size)}"
            self._emit_guarded(
                op, [f"{tgt} <= {self._value_bits(op, 8 * size)};"],
                drop_cond=self._pkt_bounds(label.offset, size),
            )
        elif label.region is Region.STACK:
            if label.offset is None:
                raise VhdlEmitError(
                    f"insn {op.insn_index}: dynamic stack offset"
                )
            effects = []
            for seg_off, seg_len, low in self._out_stack_segments(
                    label.offset, size):
                tgt = f"state_out({low + 8 * seg_len - 1} downto {low})"
                effects.append(
                    f"{tgt} <= "
                    f"{self._value_segment(op, seg_off - label.offset, seg_len)};"
                )
            self._emit_guarded(op, effects)
        elif label.region is Region.MAP_VALUE:
            addr = (f"std_logic_vector(unsigned({self._src(insn.dst)}) + "
                    f"unsigned({_imm64(insn.off)}))")
            _kb, wb = _map_widths(self.pipeline, label.map_fd)
            port = self._map_request(op, label.map_fd,
                                     (size << 4) | CH_OP_STORE, addr,
                                     wdata=self._value_bits(op, wb))
            self._emit_guarded(op, [], drop_cond=f"{port}_oob = '1'")
        else:
            raise VhdlEmitError(f"insn {op.insn_index}: store to "
                                f"{label.region.value}")

    def _out_stack_segments(self, offset: int, size: int):
        """Split [offset, offset+size) into live-out runs (off, len, low_bit);
        bytes not carried out are dead and silently skipped."""
        runs = []
        cur = None
        for b in range(offset, offset + size):
            low = self.layout_out.stack_low_bit(b, 1)
            if low is None:
                cur = None
                continue
            if cur is not None and low == cur[2] + 8 * cur[1]:
                cur[1] += 1
            else:
                cur = [b, 1, low]
                runs.append(cur)
        return [(o, ln, lo) for o, ln, lo in runs]

    # -- atomics -------------------------------------------------------------

    def _emit_atomic(self, op: PipeOp) -> None:
        insn, label = op.insn, op.label
        if label is None:
            raise VhdlEmitError(f"insn {op.insn_index}: unlabeled atomic")
        if label.region is Region.STACK:
            self._emit_stack_atomic(op)
            return
        if label.region is not Region.MAP_VALUE:
            raise VhdlEmitError(f"insn {op.insn_index}: atomic on "
                                f"{label.region.value}")
        fd = label.map_fd
        use = self.atomic_use
        if use is None:
            use = self.atomic_use = _AtomicUse(port="ap", fd=fd,
                                               at=len(self.conc))
            self.ports += _port_decls(ATOMIC_PORT, "ap_", flip=True)
        elif use.fd != fd:
            raise VhdlEmitError(
                f"stage {self.stage.number}: atomics on two maps"
            )
        addr = (f"std_logic_vector(unsigned({self._src(insn.dst)}) + "
                f"unsigned({_imm64(insn.off)}))")
        expected = (self._src(isa.R0)
                    if insn.imm == isa.ATOMIC_CMPXCHG else _imm64(0))
        use.drives.append((op.block_id, self._guard(op), {
            "op": _hex(insn.imm & 0xFF, 8),
            "size": _hex(insn.size_bytes, 4),
            "addr": addr,
            "wdata": self._src(insn.src),
            "expected": expected,
        }))
        self.conc[use.at:use.at + 1 + len(use.FIELDS)] = use.lines()
        self._emit_guarded(op, self._fetched(insn, "ap_old"),
                           drop_cond="ap_oob = '1'")

    def _fetched(self, insn: Instruction, old: str) -> List[str]:
        """A fetching atomic's latch of the old value: into r0 for
        cmpxchg, into src otherwise."""
        if not insn.imm & isa.BPF_FETCH:
            return []
        return self._set(isa.R0 if insn.imm == isa.ATOMIC_CMPXCHG
                         else insn.src, old)

    def _emit_stack_atomic(self, op: PipeOp) -> None:
        """A carried stack slot's read-modify-write: the ALU row of the
        atomic's name at the access width (xchg and cmpxchg store src,
        the MOV row)."""
        insn, label = op.insn, op.label
        if label.offset is None:
            raise VhdlEmitError(f"insn {op.insn_index}: dynamic stack atomic")
        size = insn.size_bytes
        bits = 8 * size
        slc = self.layout_in.stack_slice(label.offset, size)
        if slc is None:
            raise VhdlEmitError(
                f"insn {op.insn_index}: atomic stack bytes not carried"
            )
        slot = f"state_in{slc}"
        alu_op = insn.imm & ~isa.BPF_FETCH
        if insn.imm in (isa.ATOMIC_XCHG, isa.ATOMIC_CMPXCHG):
            alu_op = isa.BPF_MOV
        elif alu_op not in isa.ATOMIC_SYMBOLS:
            raise VhdlEmitError(
                f"insn {op.insn_index}: atomic op {insn.imm:#x}"
            )
        new = _zext(_ALU_ROWS[alu_op](slot, self._src(insn.src), bits),
                    bits, to=bits)
        effects = [
            f"state_out({low + bits - 1} downto {low}) <= {new};"
            for seg_off, seg_len, low in self._out_stack_segments(
                label.offset, size)
            if seg_off == label.offset and seg_len == size
        ]
        if insn.imm == isa.ATOMIC_CMPXCHG:
            cond = _cmp_expr(isa.BPF_JEQ, slot, self._src(isa.R0), bits)
            effects = [f"if {cond} then", *(f"  {e}" for e in effects),
                       "end if;"]
        effects += self._fetched(insn, _resize(slot, 64))
        self._emit_guarded(op, effects)

    # -- helper calls --------------------------------------------------------

    def _emit_call(self, op: PipeOp) -> None:
        call = op.call
        if call is None:
            raise VhdlEmitError(f"insn {op.insn_index}: unlabeled call")
        if call.map_fd is not None:
            self._emit_map_call(op)
        else:
            self._emit_helper_block(op)

    def _clobber_callers(self, effects: List[str]) -> None:
        for reg in (isa.R1, isa.R2, isa.R3, isa.R4, isa.R5):
            effects += self._set(reg, "(others => '0')")

    def _emit_map_call(self, op: PipeOp) -> None:
        call = op.call
        spec = helper_spec(call.helper_id)
        kb, wb = _map_widths(self.pipeline, call.map_fd)
        if call.helper_id == BPF_REDIRECT_MAP:  # the key IS r2's low bits
            key = _resize(self._src(isa.R2), kb)
            addr = self._src(isa.R3)  # miss fallback action
            ch_op = CH_OP_REDIRECT
        else:
            if call.key_stack_offset is None or not call.key_size:
                raise VhdlEmitError(
                    f"insn {op.insn_index}: {spec.name} key is not a "
                    "static stack slice"
                )
            slc = self.layout_in.stack_slice(call.key_stack_offset,
                                             call.key_size)
            if slc is None:
                raise VhdlEmitError(
                    f"insn {op.insn_index}: map key bytes not carried"
                )
            key = f"state_in{slc}"
            ch_op = {1: CH_OP_LOOKUP, 2: CH_OP_UPDATE,
                     3: CH_OP_DELETE}[call.helper_id]
            addr = self._src(isa.R4) if call.helper_id == 2 else _imm64(0)
        wdata = "(others => '0')"
        if call.helper_id == 2:
            if call.value_stack_offset is None or not call.value_size:
                raise VhdlEmitError(
                    f"insn {op.insn_index}: update value is not a static "
                    "stack slice"
                )
            vslc = self.layout_in.stack_slice(call.value_stack_offset,
                                              call.value_size)
            if vslc is None:
                raise VhdlEmitError(
                    f"insn {op.insn_index}: update value bytes not carried"
                )
            wdata = _resize(f"state_in{vslc}", wb)
        port = self._map_request(op, call.map_fd, ch_op, addr, key, wdata)
        effects = self._set(isa.R0, f"{port}_rdata")
        self._clobber_callers(effects)
        self._emit_guarded(op, effects, drop_cond=f"{port}_oob = '1'")

    def _emit_helper_block(self, op: PipeOp) -> None:
        call = op.call
        spec = helper_spec(call.helper_id)
        entity = self.helper_names.get((self.stage.number, op.insn_index))
        if entity is None:
            raise VhdlEmitError(
                f"insn {op.insn_index}: no helper entity for id "
                f"{call.helper_id}"
            )
        h = f"h{self._helper_count}"
        self._helper_count += 1
        lin, lout = self.layout_in, self.layout_out
        touches_packet = spec.reads_packet or spec.writes_packet
        if touches_packet and lin.window_bytes * 8 != lin.window_bits:
            raise VhdlEmitError("window accounting error")  # pragma: no cover
        ranges, layout_desc, stack_bits = _stack_bundle(spec, lin)
        rows = _helper_rows(spec, lin.window_bits, stack_bits)
        # the rows every helper has are declared first
        self.decls += _signal_decls(
            sorted(rows, key=lambda row: row[3] is not None), f"{h}_")
        drive = {
            "req": self._req_expr(op),
            "frame_i": f"state_in({lin.window_bits - 1} downto 0)",
            "plen_i": f"state_in{lin.plen_slice}",
            "haj_i": f"state_in{lin.haj_slice}",
            "stack_i": " & ".join(f"state_in{lin.stack_slice(o, s)}"
                                  for o, s in reversed(ranges)),
        }
        for i in range(5):
            drive[f"r{i + 1}"] = (self._src(isa.R1 + i) if i < spec.nargs
                                  else _imm64(0))
        self.conc += [f"  {h}_{row[0]} <= {drive[row[0]]};"
                      for row in _driven(rows)]
        generics = [("G_HELPER_ID", str(call.helper_id))]
        if touches_packet:
            generics.append(("G_WIN_BYTES", str(lin.window_bytes)))
        if ranges:
            generics.append(("G_STACK_LAYOUT", f'"{layout_desc}"'))
        assoc = [("clk", "clk")] + _assoc(rows, "", f"{h}_")
        gmap = ", ".join(f"{f} => {v}" for f, v in generics)
        pmap = ", ".join(f"{f} => {v}" for f, v in assoc)
        self.conc.append(
            f"  {h} : entity work.{entity} generic map ({gmap}) "
            f"port map ({pmap});"
        )
        effects = self._set(isa.R0, f"{h}_rsp")
        if spec.writes_packet:
            effects += [
                f"state_out({lout.window_bits - 1} downto 0) <= "
                f"{h}_frame_o;",
                f"state_out{lout.plen_slice} <= {h}_plen_o;",
                f"state_out{lout.haj_slice} <= {h}_haj_o;",
            ]
        self._clobber_callers(effects)
        self._emit_guarded(op, effects)

    # -- carries and rendering ----------------------------------------------

    def _carries(self) -> List[str]:
        lin, lout = self.layout_in, self.layout_out
        lines = []
        wi, wo = lin.window_bits, lout.window_bits
        lines.append(
            f"        state_out({wi - 1} downto 0) <= "
            f"state_in({wi - 1} downto 0);"
        )
        if wo > wi:
            lines.append(
                f"        state_out({wo - 1} downto {wi}) <= frame_in;"
            )
        lines += [
            f"        state_out{lout.plen_slice} <= state_in{lin.plen_slice};",
            f"        state_out{lout.haj_slice} <= state_in{lin.haj_slice};",
            f"        state_out({lout.done_bit}) <= "
            f"state_in({lin.done_bit});",
            f"        state_out{lout.verdict_slice} <= "
            f"state_in{lin.verdict_slice};",
        ]
        for reg, low in sorted(lout.regs.items(), key=lambda kv: kv[1]):
            if reg in lin.regs:
                lines.append(
                    f"        state_out{lout.reg_slice(reg)} <= "
                    f"state_in{lin.reg_slice(reg)};  -- carry r{reg}"
                )
            else:
                lines.append(
                    f"        state_out{lout.reg_slice(reg)} <= "
                    f"(others => '0');  -- r{reg} defined here"
                )
        for (off, size), base in sorted(lout.stack.items(),
                                        key=lambda kv: kv[1]):
            runs = []
            cur = None
            for b in range(off, off + size):
                src_low = lin.stack_low_bit(b, 1)
                dst_low = base + 8 * (b - off)
                if (cur is not None and cur[2] is not None
                        and src_low is not None
                        and src_low == cur[2] + 8 * cur[1]):
                    cur[1] += 1
                elif (cur is not None and cur[2] is None
                        and src_low is None):
                    cur[1] += 1
                else:
                    cur = [dst_low, 1, src_low]
                    runs.append(cur)
            for dst_low, nbytes, src_low in runs:
                tgt = f"state_out({dst_low + 8 * nbytes - 1} downto {dst_low})"
                if src_low is None:
                    lines.append(f"        {tgt} <= (others => '0');")
                else:
                    lines.append(
                        f"        {tgt} <= state_in("
                        f"{src_low + 8 * nbytes - 1} downto {src_low});"
                    )
        return lines

    def render(self, name: str) -> List[str]:
        stage, lin, lout = self.stage, self.layout_in, self.layout_out
        ew = self.enable_width
        desc = (" | ".join(format_instruction(op.insn) for op in stage.ops)
                if stage.ops else f"({stage.kind.value})")
        ports = [
            "clk        : in  std_logic",
            "rst        : in  std_logic",
            "flush      : in  std_logic",
            "valid_in   : in  std_logic",
            "valid_out  : out std_logic",
            f"enable_in  : in  std_logic_vector({ew - 1} downto 0)",
            f"enable_out : out std_logic_vector({ew - 1} downto 0)",
            f"state_in   : in  std_logic_vector({lin.total_bits - 1} downto 0)",
            f"state_out  : out std_logic_vector({lout.total_bits - 1} downto 0)",
        ]
        if lout.window_bits > lin.window_bits:
            join = lout.window_bits - lin.window_bits
            ports.append(
                f"frame_in   : in  std_logic_vector({join - 1} downto 0)"
            )
        ports += self.ports
        body = self.conc + [
            "  process(clk)",
            "  begin",
            "    if rising_edge(clk) then",
            "      if rst = '1' or flush = '1' then",
            "        valid_out <= '0';",
            "      else",
            "        valid_out <= valid_in;",
            "        enable_out <= enable_in;  -- predication fan-through",
        ]
        body += self._carries()
        body += self.seq
        body += [
            "      end if;",
            "    end if;",
            "  end process;",
        ]
        return ([f"-- stage {stage.number}: {desc}"]
                + _entity(name, ports, decls=self.decls, body=body))


# ---------------------------------------------------------------------------
# Shared design units
# ---------------------------------------------------------------------------


def _context_clause() -> List[str]:
    return [
        "library ieee;",
        "use ieee.std_logic_1164.all;",
        "use ieee.numeric_std.all;",
        "use work.ehdl_pkg.all;",
        "",
    ]


def _entity(name: str, ports: List[str], *, doc: List[str] = (),
            generics: List[Tuple[str, str, object]] = (), arch: str = "rtl",
            decls: List[str] = (), body: List[str] = ()) -> List[str]:
    """One design unit: the context clause, ``doc`` comments, the entity
    with its ``(name, type, default)`` generics and its ports (a port's
    trailing ``  -- `` comment follows its separator), then architecture
    ``arch`` with ``decls`` and ``body``."""
    lines = _context_clause() + list(doc)
    lines.append(f"entity {name} is")
    if generics:
        lines.append("  generic ("
                     + "; ".join(f"{g} : {t} := {v}" for g, t, v in generics)
                     + ");")
    lines.append("  port (")
    lines += [f"    {port};" if "  -- " not in port
              else "    {};{}{}".format(*port.partition("  -- "))
              for port in ports[:-1]]
    lines += [f"    {ports[-1]}", "  );", f"end entity {name};", "",
              f"architecture {arch} of {name} is"]
    lines += decls
    lines.append("begin")
    lines += body
    lines += [f"end architecture {arch};", ""]
    return lines


def _package(name: str) -> List[str]:
    return [
        "library ieee;",
        "use ieee.std_logic_1164.all;",
        "use ieee.numeric_std.all;",
        "",
        f"package {name} is",
        "  -- byte-order and division blocks; the RTL simulator binds these",
        "  -- declarations to behavioural builtins (div by zero yields 0,",
        "  -- rem by zero yields the dividend, as the eBPF ISA requires).",
        "  function ehdl_bswap16(v : std_logic_vector(63 downto 0))"
        " return std_logic_vector;",
        "  function ehdl_bswap32(v : std_logic_vector(63 downto 0))"
        " return std_logic_vector;",
        "  function ehdl_bswap64(v : std_logic_vector(63 downto 0))"
        " return std_logic_vector;",
        "  function ehdl_udiv(a : std_logic_vector; b : std_logic_vector)"
        " return std_logic_vector;",
        "  function ehdl_urem(a : std_logic_vector; b : std_logic_vector)"
        " return std_logic_vector;",
        f"end package {name};",
        "",
    ]


def _fifo_entity(name: str, width: int) -> List[str]:
    return _entity(name, [
        "wr_clk  : in  std_logic",
        "rd_clk  : in  std_logic",
        "rst     : in  std_logic",
        "wr_en   : in  std_logic",
        f"wr_data : in  std_logic_vector({width - 1} downto 0)",
        "rd_en   : in  std_logic",
        f"rd_data : out std_logic_vector({width - 1} downto 0)",
        "empty   : out std_logic",
        "full    : out std_logic",
    ], doc=[
        "-- dual-clock FIFO decoupling the pipeline from the shell (§4.5);",
        "-- the single-clock RTL model binds it to a pass-through primitive.",
    ], generics=[("G_WIDTH", "integer", width)], arch="behavioral", body=[
        "  -- vendor dual-clock FIFO macro (simulation primitive)",
    ])


def _helper_entity(name: str, spec, win_bytes: int, stack_bits: int,
                   stack_desc: str) -> List[str]:
    ports = ["clk : in  std_logic"]
    # aligned per group of rows present together
    for _when, rows in groupby(_helper_rows(spec, 8 * win_bytes, stack_bits),
                               key=lambda row: row[3]):
        ports += _port_decls(tuple(rows))
    return _entity(name, ports, doc=[
        f"-- helper block: {spec.name} ({spec.hw_stages} internal stages)",
    ], generics=[
        ("G_HELPER_ID", "integer", spec.helper_id),
        ("G_WIN_BYTES", "integer", win_bytes),
        ("G_STACK_LAYOUT", "string", f'"{stack_desc}"'),
    ], arch="behavioral", body=[
        "  -- behavioural helper model (simulation primitive)",
    ])


def _map_entity(pipeline: Pipeline, fd: int, name: str) -> List[str]:
    plan = pipeline.map_hazards[fd]
    spec = pipeline.program.maps.get(fd)
    interlock = ("keyed interlock: at most one packet per key"
                 if plan.bank_key is not None and plan.bank_key.keyed
                 else "LRU recency interlock: at most one packet")
    _kb, wb = _map_widths(pipeline, fd)
    ports = ["clk : in  std_logic", "rst : in  std_logic"]
    rows = _channel_rows(pipeline, fd)
    for ch in range(plan.channels):
        ports += _port_decls(rows, f"ch{ch}_")
    if plan.uses_atomic:
        ports += _port_decls(ATOMIC_PORT, "at_")
    if plan.needs_flush:
        ports.append("flush_out : out std_logic")
    ports += [
        "host_req   : in  std_logic  -- userspace eBPF map interface",
        "host_wr    : in  std_logic",
        "host_addr  : in  std_logic_vector(31 downto 0)",
        f"host_wdata : in  std_logic_vector({wb - 1} downto 0)",
        f"host_rdata : out std_logic_vector({wb - 1} downto 0)",
    ]
    return _entity(name, ports, doc=[
        f"-- eHDL map block for fd {fd}"
        + (f" ({spec.name}, {spec.map_type})" if spec else ""),
        f"--   channels: {plan.channels}"
        f"  WAR buffer depth: {plan.war_buffer_depth}"
        f"  flush blocks: {len(plan.flush_blocks)}"
        f"  atomic port: {'yes' if plan.uses_atomic else 'no'}"
        + (
            f"  serial window: stages "
            f"{plan.serial_window[0]}..{plan.serial_window[1]}"
            f" ({interlock} in the window)"
            if plan.serial_window is not None else ""
        ),
    ], generics=[
        ("G_FD", "integer", fd),
        ("G_DEPTH", "integer", spec.max_entries if spec else 0),
        ("G_KEY_BYTES", "integer", spec.key_size if spec else 1),
        ("G_VALUE_BYTES", "integer", spec.value_size if spec else 8),
        ("G_MAP_TYPE", "string", f'"{spec.map_type if spec else "hash"}"'),
    ], arch="behavioral", body=[
        f"  -- BRAM + WAR delay chain ({plan.war_buffer_depth} slots) + "
        f"{len(plan.flush_blocks)} Flush Evaluation Blocks (Figs. 6-7);",
        "  -- bound to the repro.rtl simulation primitive backed by the",
        "  -- shared MapSet.",
    ])


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


def _entry_value(op: PipeOp) -> str:
    """Injection-time value of one elided ctx load (haj == 0, so the data
    pointer is the headroom base)."""
    insn = op.insn
    if insn.opclass != isa.BPF_LDX:
        raise VhdlEmitError(
            f"entry op {op.insn_index}: only ctx loads can be elided"
        )
    off, size = insn.off, insn.size_bytes
    data32 = _hex(_PKT_DATA, 32)
    dend32 = (f"std_logic_vector(to_unsigned({_PKT_DATA}, 32) + "
              "resize(unsigned(inj_tlen), 32))")
    value = _ctx_load(off, size, {
        "data": _resize(data32, 64),
        "data_end": (f"std_logic_vector(to_unsigned({_PKT_DATA}, 64) + "
                     "resize(unsigned(inj_tlen), 64))"),
        "data|data_end": f"{dend32} & {data32}",
    })
    if value is None:
        raise VhdlEmitError(
            f"entry op {op.insn_index}: ctx load of {size} bytes at {off}"
        )
    return value


def _top(pipeline: Pipeline, name: str, fifo_name: str,
         stage_names: List[str], builders: List["_StageBuilder"],
         layouts: List[StateLayout], windows: List[int], ew: int,
         map_names: Dict[int, str]) -> List[str]:
    n = len(pipeline.stages)
    wmax = windows[-1]
    wbits = 8 * wmax
    in_low = wbits + 16  # s_axis bundle width
    final = layouts[-1]
    fw = max(in_low, final.total_bits)
    decls: List[str] = []
    conc: List[str] = []

    def sig(text: str) -> None:
        decls.append(f"  signal {text};")

    sig("tie_one : std_logic")
    sig("tie_zero : std_logic")
    sig("tie_addr : std_logic_vector(31 downto 0)")
    conc += [
        "  tie_one <= '1';",
        "  tie_zero <= '0';",
        "  tie_addr <= (others => '0');",
        "  s_axis_tready <= '1';",
    ]

    # -- input side: shell FIFO, injection, entry checks ---------------------
    sig(f"fifo_in_bus : std_logic_vector({fw - 1} downto 0)")
    sig(f"fifo_in_q : std_logic_vector({fw - 1} downto 0)")
    sig("fifo_in_empty : std_logic")
    sig("fifo_in_full : std_logic")
    sig(f"inj_frame : std_logic_vector({wbits - 1} downto 0)")
    sig("inj_tlen : std_logic_vector(15 downto 0)")
    sig("inj_done : std_logic")
    sig("inj_verdict : std_logic_vector(31 downto 0)")
    sig(f"pkt_window : std_logic_vector({wbits - 1} downto 0)")
    conc.append(
        f"  fifo_in_bus({in_low - 1} downto 0) <= s_axis_tdata & s_axis_tlen;"
    )
    if fw > in_low:
        conc.append(
            f"  fifo_in_bus({fw - 1} downto {in_low}) <= (others => '0');"
        )
    conc += [
        f"  input_fifo : entity work.{fifo_name} port map (",
        "    wr_clk => shell_clk, rd_clk => pipe_clk, rst => rst,",
        "    wr_en => s_axis_tvalid, wr_data => fifo_in_bus,",
        "    rd_en => tie_one, rd_data => fifo_in_q,",
        "    empty => fifo_in_empty, full => fifo_in_full);",
        f"  inj_frame <= fifo_in_q({in_low - 1} downto 16);",
        "  inj_tlen <= fifo_in_q(15 downto 0);",
    ]
    checks = []
    for min_len, action in pipeline.entry_checks:
        code = action & 0xFFFFFFFF
        if code > 4:
            code = 0  # invalid verdicts abort, like hwsim/_finish
        cond = f"unsigned(inj_tlen) < to_unsigned({min_len}, 16)"
        checks.append((cond, code))
    if checks:
        conc.append(
            "  inj_done <= "
            + " else ".join(f"'1' when {c}" for c, _ in checks)
            + " else '0';"
        )
        conc.append(
            "  inj_verdict <= "
            + " else ".join(f"{_hex(code, 32)} when {c}"
                            for c, code in checks)
            + " else x\"00000000\";"
        )
    else:
        conc += [
            "  inj_done <= '0';",
            "  inj_verdict <= x\"00000000\";",
        ]

    # -- per-link valid / enable / state signals -----------------------------
    for i in range(n + 1):
        sig(f"v{i} : std_logic")
        sig(f"e{i} : std_logic_vector({ew - 1} downto 0)")
        sig(f"st{i} : std_logic_vector({layouts[i].total_bits - 1} downto 0)")
    sig("flush_sig : std_logic")

    conc.append("  v0 <= not fifo_in_empty;")
    entry_block = pipeline.cfg.entry.block_id
    conc.append(f"  e0 <= {_hex(1 << entry_block, ew)};")

    lay0 = layouts[0]
    w0 = 8 * windows[0]
    conc += [
        f"  st0({w0 - 1} downto 0) <= inj_frame({w0 - 1} downto 0);",
        f"  st0{lay0.plen_slice} <= inj_tlen;",
        f"  st0{lay0.haj_slice} <= x\"0000\";",
        f"  st0({lay0.done_bit}) <= inj_done;",
        f"  st0{lay0.verdict_slice} <= inj_verdict;",
    ]
    reg_exprs: Dict[int, str] = {}
    for reg in lay0.regs:
        reg_exprs[reg] = (_imm64(AddressSpace.CTX_BASE)
                          if reg == isa.R1 else _imm64(0))
    for op in pipeline.entry_ops:
        if op.insn.dst in lay0.regs:
            reg_exprs[op.insn.dst] = _entry_value(op)
    for reg in sorted(reg_exprs):
        conc.append(f"  st0{lay0.reg_slice(reg)} <= {reg_exprs[reg]};")
    for (off, size) in sorted(lay0.stack):
        conc.append(
            f"  st0{lay0.stack_slice(off, size)} <= (others => '0');"
        )

    conc += [
        "  process(pipe_clk)",
        "  begin",
        "    if rising_edge(pipe_clk) then",
        "      if v0 = '1' then",
        "        pkt_window <= inj_frame;  -- frame bus for later joins",
        "      end if;",
        "    end if;",
        "  end process;",
    ]

    # -- stage instances -----------------------------------------------------
    for i, b in enumerate(builders):
        num = pipeline.stages[i].number
        for use in b.map_uses:
            decls += _signal_decls(_driven(_channel_rows(pipeline, use.fd)),
                                   f"s{num}_{use.port}_")
        if b.atomic_use is not None:
            decls += _signal_decls(_driven(ATOMIC_PORT), f"s{num}_ap_")

    # map-side shared wires
    for fd in sorted(map_names):
        plan = pipeline.map_hazards[fd]
        _kb, wb = _map_widths(pipeline, fd)
        for ch in range(plan.channels):
            decls += _signal_decls(_channel_rows(pipeline, fd),
                                   f"m{fd}_ch{ch}_")
        if plan.uses_atomic:
            decls += _signal_decls(ATOMIC_PORT, f"m{fd}_at_")
        if plan.needs_flush:
            sig(f"m{fd}_flush : std_logic")
        sig(f"m{fd}_host_wdata : std_logic_vector({wb - 1} downto 0)")
        sig(f"m{fd}_host_rdata : std_logic_vector({wb - 1} downto 0)")
        conc.append(f"  m{fd}_host_wdata <= (others => '0');")

    for i, b in enumerate(builders):
        num = pipeline.stages[i].number
        lin, lout = layouts[i], layouts[i + 1]
        assoc = [
            ("clk", "pipe_clk"), ("rst", "rst"), ("flush", "flush_sig"),
            ("valid_in", f"v{i}"), ("valid_out", f"v{i + 1}"),
            ("enable_in", f"e{i}"), ("enable_out", f"e{i + 1}"),
            ("state_in", f"st{i}"), ("state_out", f"st{i + 1}"),
        ]
        if lout.window_bits > lin.window_bits:
            hi, lo = lout.window_bits - 1, lin.window_bits
            src = "inj_frame" if i == 0 else "pkt_window"
            assoc.append(("frame_in", f"{src}({hi} downto {lo})"))
        for use in b.map_uses:
            assoc += _assoc(MAP_CHANNEL, f"{use.port}_",
                            f"s{num}_{use.port}_",
                            f"m{use.fd}_ch{use.channel}_")
        if b.atomic_use is not None:
            assoc += _assoc(ATOMIC_PORT, "ap_", f"s{num}_ap_",
                            f"m{b.atomic_use.fd}_at_")
        conc += _instance(f"s{num:03d}", stage_names[i], assoc)

    # -- map channel / atomic muxes and map instances ------------------------
    for fd in sorted(map_names):
        users: Dict[int, List[str]] = {}
        at_users: List[str] = []
        for i, b in enumerate(builders):
            num = pipeline.stages[i].number
            for use in b.map_uses:
                if use.fd == fd:
                    users.setdefault(use.channel, []).append(
                        f"s{num}_{use.port}_")
            if b.atomic_use is not None and b.atomic_use.fd == fd:
                at_users.append(f"s{num}_ap_")
        plan = pipeline.map_hazards[fd]
        assoc = [("clk", "pipe_clk"), ("rst", "rst")]
        for ch in range(plan.channels):
            conc += _mux(MAP_CHANNEL, f"m{fd}_ch{ch}_", users.get(ch, []))
            assoc += _assoc(MAP_CHANNEL, f"ch{ch}_", f"m{fd}_ch{ch}_")
        if plan.uses_atomic:
            conc += _mux(ATOMIC_PORT, f"m{fd}_at_", at_users)
            assoc += _assoc(ATOMIC_PORT, "at_", f"m{fd}_at_")
        if plan.needs_flush:
            assoc.append(("flush_out", f"m{fd}_flush"))
        assoc += [
            ("host_req", "tie_zero"), ("host_wr", "tie_zero"),
            ("host_addr", "tie_addr"),
            ("host_wdata", f"m{fd}_host_wdata"),
            ("host_rdata", f"m{fd}_host_rdata"),
        ]
        conc += _instance(f"m{fd:03d}", map_names[fd], assoc)

    flush_fds = [fd for fd in sorted(map_names)
                 if pipeline.map_hazards[fd].needs_flush]
    if flush_fds:
        conc.append(
            "  flush_sig <= "
            + " or ".join(f"m{fd}_flush" for fd in flush_fds) + ";"
        )
    else:
        conc.append("  flush_sig <= '0';")

    # -- output side ---------------------------------------------------------
    sig(f"fifo_out_bus : std_logic_vector({fw - 1} downto 0)")
    sig(f"fifo_out_q : std_logic_vector({fw - 1} downto 0)")
    sig("fifo_out_empty : std_logic")
    sig("fifo_out_full : std_logic")
    conc.append(
        f"  fifo_out_bus({final.total_bits - 1} downto 0) <= st{n};"
    )
    if fw > final.total_bits:
        conc.append(
            f"  fifo_out_bus({fw - 1} downto {final.total_bits}) <= "
            "(others => '0');"
        )
    conc += [
        f"  output_fifo : entity work.{fifo_name} port map (",
        "    wr_clk => pipe_clk, rd_clk => shell_clk, rst => rst,",
        f"    wr_en => v{n}, wr_data => fifo_out_bus,",
        "    rd_en => tie_one, rd_data => fifo_out_q,",
        "    empty => fifo_out_empty, full => fifo_out_full);",
        "  m_axis_tvalid <= not fifo_out_empty;",
        f"  m_axis_tdata <= fifo_out_q({wbits - 1} downto 0);",
        f"  m_axis_tlen <= fifo_out_q({final.plen_low + 15} downto "
        f"{final.plen_low});",
        "  m_axis_tlast <= '1';",
        f"  m_axis_tverdict <= fifo_out_q({final.verdict_low + 31} downto "
        f"{final.verdict_low}) when fifo_out_q({final.done_bit}) = '1' "
        "else x\"00000000\";",
    ]

    ports = [
        "pipe_clk      : in  std_logic",
        "shell_clk     : in  std_logic",
        "rst           : in  std_logic",
        f"s_axis_tdata  : in  std_logic_vector({wbits - 1} downto 0)",
        "s_axis_tlen   : in  std_logic_vector(15 downto 0)",
        "s_axis_tvalid : in  std_logic",
        "s_axis_tlast  : in  std_logic",
        "s_axis_tready : out std_logic",
        f"m_axis_tdata  : out std_logic_vector({wbits - 1} downto 0)",
        "m_axis_tlen   : out std_logic_vector(15 downto 0)",
        "m_axis_tverdict : out std_logic_vector(31 downto 0)",
        "m_axis_tvalid : out std_logic",
        "m_axis_tlast  : out std_logic",
        "m_axis_tready : in  std_logic",
    ]
    return ([f"-- top-level pipeline wrapper ({n} stages)"]
            + _entity(name, ports, decls=decls, body=conc))


def _instance(label: str, entity: str,
              assoc: List[Tuple[str, str]]) -> List[str]:
    """A top-level instance, one port association per line."""
    return ([f"  {label} : entity work.{entity} port map ("]
            + [f"    {f} => {a}," for f, a in assoc[:-1]]
            + [f"    {assoc[-1][0]} => {assoc[-1][1]});"])


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def emit_vhdl(pipeline: Pipeline) -> str:
    """Render a compiled pipeline as a single self-contained VHDL file."""
    from .compiler import _pass_span

    with _pass_span("vhdl_emit", program=pipeline.name):
        return _emit_vhdl(pipeline)


def _emit_vhdl(pipeline: Pipeline) -> str:
    names = _Names()
    pkg_name = names.claim("ehdl_pkg")
    fifo_name = names.claim("ehdl_async_fifo")
    windows = link_windows(pipeline)
    wmax = windows[-1]
    n_blocks = len(pipeline.cfg.blocks)
    ew = max(32, 4 * ((n_blocks + 3) // 4))
    layouts = [
        _layout_for(stage, windows[i])
        for i, stage in enumerate(pipeline.stages)
    ]
    layouts.append(_layout_for(None, wmax))

    # Helper entities: one per distinct (helper, window, stack) signature.
    helper_entities: Dict[Tuple, Tuple] = {}
    helper_names: Dict[Tuple[int, int], str] = {}
    for i, stage in enumerate(pipeline.stages):
        lin = layouts[i]
        for op in stage.ops:
            if op.call is None or op.call.map_fd is not None:
                continue
            spec = helper_spec(op.call.helper_id)
            touches = spec.reads_packet or spec.writes_packet
            win = lin.window_bytes if touches else 0
            _ranges, sdesc, sbits = _stack_bundle(spec, lin)
            key = (op.call.helper_id, win, sdesc)
            if key not in helper_entities:
                ename = names.claim(f"ehdl_helper_{op.call.helper_id}")
                helper_entities[key] = (ename, spec, win, sbits, sdesc)
            helper_names[(stage.number, op.insn_index)] = \
                helper_entities[key][0]

    prog = _ident(pipeline.name)
    map_names = {fd: names.claim(f"{prog}_map_{fd}")
                 for fd in sorted(pipeline.map_hazards)}

    builders: List[_StageBuilder] = []
    stage_names: List[str] = []
    for i, stage in enumerate(pipeline.stages):
        b = _StageBuilder(pipeline, stage, layouts[i], layouts[i + 1],
                          ew, helper_names)
        for op in stage.ops:
            if op.block_id < 0 or op.block_id >= n_blocks:
                raise VhdlEmitError(
                    f"insn {op.insn_index}: block id {op.block_id} "
                    "out of range"
                )
            b.emit_op(op)
        builders.append(b)
        stage_names.append(names.claim(f"{prog}_stage_{stage.number:03d}"))
    top_name = names.claim(f"ehdl_{prog}")

    lines = [
        f"-- {pipeline.name}: eHDL-generated pipeline "
        f"({pipeline.n_stages} stages, {n_blocks} blocks)",
        f"{TOP_MARKER}{top_name}",
        "-- window plan (bytes per link): "
        + " ".join(str(w) for w in windows),
        f"-- enable width: {ew}  frame size: {pipeline.frame_size}",
        "",
    ]
    lines += _package(pkg_name)
    fw = max(8 * wmax + 16, layouts[-1].total_bits)
    lines += _fifo_entity(fifo_name, fw)
    for key in sorted(helper_entities):
        ename, spec, win, sbits, sdesc = helper_entities[key]
        lines += _helper_entity(ename, spec, win, sbits, sdesc)
    for fd in sorted(map_names):
        lines += _map_entity(pipeline, fd, map_names[fd])
    for i, b in enumerate(builders):
        lines += b.render(stage_names[i])
    lines += _top(pipeline, top_name, fifo_name, stage_names, builders,
                  layouts, windows, ew, map_names)
    return "\n".join(lines) + "\n"
