"""Instruction labeling: which memory does each instruction touch?

Implements §3.1 of the paper. eHDL tracks R10 (stack pointer), R1 (xdp_md
→ packet buffer) and R0 after ``bpf_map_lookup_elem`` (map value), then
propagates those origins through register dataflow so every load/store/
atomic gets a label: **stack**, **packet**, **ctx** or **map[fd]**.

The region *kinds* come from the verifier's type analysis
(:mod:`repro.ebpf.verifier`); this pass adds a constant-offset analysis on
top (is the access at a statically known byte offset within its region?),
which packet framing (§4.2), state pruning (§4.3) and the dependency graph
all rely on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ebpf import isa
from ..ebpf.helpers import helper_spec
from ..ebpf.isa import Instruction, Program
from ..ebpf.verifier import (
    AbsState,
    RegKind,
    VerifierResult,
    verify,
)


class Region(enum.Enum):
    PACKET = "packet"
    STACK = "stack"
    CTX = "ctx"
    MAP_VALUE = "map_value"


@dataclass(frozen=True)
class MemLabel:
    """Label of one memory-accessing instruction.

    ``offset`` is the constant byte offset of the access within its region
    (packet: from the start of packet data; stack: negative, from R10;
    map value: from the start of the looked-up value) or ``None`` when the
    address is computed dynamically. ``size`` is the access width in bytes.
    """

    region: Region
    size: int
    offset: Optional[int] = None
    map_fd: Optional[int] = None
    is_write: bool = False
    is_atomic: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.region.value
        if self.map_fd is not None:
            where += f"[fd={self.map_fd}]"
        off = "?" if self.offset is None else str(self.offset)
        rw = "atomic" if self.is_atomic else ("w" if self.is_write else "r")
        return f"<{where}+{off} x{self.size} {rw}>"


@dataclass(frozen=True)
class CallInfo:
    """Label of one helper call: which helper and, for map-channel helpers,
    which map it reaches and where its key comes from."""

    helper_id: int
    map_fd: Optional[int] = None
    key_stack_offset: Optional[int] = None  # stack offset of the key (R2)
    key_size: int = 0
    is_map_read: bool = False
    is_map_write: bool = False
    # bpf_map_update_elem also reads the *value* through R3; liveness and
    # the VHDL backend need its stack location just like the key's.
    value_stack_offset: Optional[int] = None
    value_size: int = 0


@dataclass
class ProgramLabels:
    """Per-instruction labels for a whole program."""

    program: Program
    verifier: VerifierResult
    mem: Dict[int, MemLabel]
    calls: Dict[int, CallInfo]
    # Constant-offset abstract value of each register *before* each
    # instruction (None entry = unreachable or offset unknown).
    reg_offsets: List[Optional[Tuple[Optional[int], ...]]]

    def label_for(self, index: int) -> Optional[MemLabel]:
        return self.mem.get(index)

    def call_for(self, index: int) -> Optional[CallInfo]:
        return self.calls.get(index)

    def map_fds_used(self) -> List[int]:
        fds = []
        for label in self.mem.values():
            if label.map_fd is not None and label.map_fd not in fds:
                fds.append(label.map_fd)
        for info in self.calls.values():
            if info.map_fd is not None and info.map_fd not in fds:
                fds.append(info.map_fd)
        return sorted(fds)


_OffsetState = Tuple[Optional[int], ...]  # one entry per register


def _join_offsets(a: _OffsetState, b: _OffsetState) -> _OffsetState:
    return tuple(x if x == y else None for x, y in zip(a, b))


def _offset_transfer(
    insn: Instruction, state: _OffsetState, abs_state: Optional[AbsState]
) -> _OffsetState:
    """Propagate constant region offsets through one instruction.

    Only pointer-typed registers have meaningful offsets; we keep scalars'
    entries as None. The analysis understands: loading ``data`` from the
    ctx (offset 0 in the packet), R10 (offset 0 in the stack, accesses are
    negative), map lookup results (offset 0 in the value), pointer copies
    and pointer ± constant.
    """
    out = list(state)

    def set_dst(value: Optional[int]) -> None:
        out[insn.dst] = value

    if insn.is_ld_imm64:
        set_dst(None)
        return tuple(out)
    cls = insn.opclass
    if cls in (isa.BPF_ALU, isa.BPF_ALU64):
        if insn.op == isa.BPF_MOV and insn.uses_reg_src and insn.is_alu64:
            if insn.src == isa.R10:
                set_dst(0)
            else:
                set_dst(state[insn.src])
        elif insn.op == isa.BPF_ADD and insn.is_alu64 and not insn.uses_reg_src:
            base = 0 if insn.dst == isa.R10 else state[insn.dst]
            set_dst(None if base is None else base + isa.to_signed32(insn.imm))
        elif insn.op == isa.BPF_SUB and insn.is_alu64 and not insn.uses_reg_src:
            base = 0 if insn.dst == isa.R10 else state[insn.dst]
            set_dst(None if base is None else base - isa.to_signed32(insn.imm))
        else:
            set_dst(None)
        return tuple(out)
    if cls == isa.BPF_LDX:
        # Loading xdp_md->data yields the packet base (offset 0); any other
        # load produces a scalar or a pointer at unknown offset.
        result: Optional[int] = None
        if abs_state is not None:
            base_type = abs_state.reg(insn.src)
            if base_type.kind == RegKind.CTX and insn.off == 0:
                result = 0  # packet data pointer
        set_dst(result)
        return tuple(out)
    if cls in (isa.BPF_JMP, isa.BPF_JMP32) and insn.is_call:
        out[isa.R0] = 0 if insn.imm == 1 else None  # lookup returns value+0
        for reg in (isa.R1, isa.R2, isa.R3, isa.R4, isa.R5):
            out[reg] = None
        return tuple(out)
    return tuple(out)


class LabelError(ValueError):
    """Raised when an access cannot be attributed to a memory region."""


def offset_states(
    program: Program, vres: VerifierResult
) -> List[Optional[_OffsetState]]:
    """Each register's constant region offset before each instruction
    (None: unreachable), the fixpoint of :func:`_offset_transfer` over
    the program's control flow."""
    from .liveness import program_facts  # local: liveness imports labeling

    succs = program_facts(program).succs
    insns = program.instructions
    n = len(insns)
    states: List[Optional[_OffsetState]] = [None] * n
    states[0] = tuple([None] * isa.NUM_REGS)
    worklist = [0]
    while worklist:
        index = worklist.pop()
        new_state = _offset_transfer(insns[index], states[index],
                                     vres.state_before(index))
        for succ in succs[index]:
            if succ >= n:
                continue
            old = states[succ]
            joined = new_state if old is None else _join_offsets(old, new_state)
            if old is None or joined != old:
                states[succ] = joined
                worklist.append(succ)
    return states


def label_program(
    program: Program, verifier_result: Optional[VerifierResult] = None
) -> ProgramLabels:
    """Run the labeling analysis over a verified program."""
    vres = verifier_result if verifier_result is not None else verify(program)
    states = offset_states(program, vres)

    mem: Dict[int, MemLabel] = {}
    calls: Dict[int, CallInfo] = {}

    for index, insn in enumerate(program.instructions):
        abs_state = vres.state_before(index)
        off_state = states[index]
        if abs_state is None:
            continue  # unreachable
        if insn.is_mem_load or insn.is_mem_store or insn.is_atomic:
            base_reg = insn.src if insn.is_mem_load else insn.dst
            base_type = abs_state.reg(base_reg)
            base_off = None if off_state is None else off_state[base_reg]
            if base_reg == isa.R10:
                base_off = 0
            offset = None if base_off is None else base_off + insn.off
            size = insn.size_bytes
            is_write = insn.is_mem_store or insn.is_atomic
            if base_type.kind == RegKind.STACK:
                mem[index] = MemLabel(
                    Region.STACK, size, offset, is_write=is_write,
                    is_atomic=insn.is_atomic,
                )
            elif base_type.kind == RegKind.PACKET:
                mem[index] = MemLabel(
                    Region.PACKET, size, offset, is_write=is_write,
                    is_atomic=insn.is_atomic,
                )
            elif base_type.kind == RegKind.CTX:
                mem[index] = MemLabel(Region.CTX, size, insn.off, is_write=is_write)
            elif base_type.kind == RegKind.MAP_VALUE:
                mem[index] = MemLabel(
                    Region.MAP_VALUE, size, offset, map_fd=base_type.map_fd,
                    is_write=is_write, is_atomic=insn.is_atomic,
                )
            else:
                raise LabelError(
                    f"insn {index}: cannot label access via r{base_reg} "
                    f"({base_type.kind.value})"
                )
        elif insn.is_call:
            spec = helper_spec(insn.imm)
            if spec.map_channel:
                r1_type = abs_state.reg(isa.R1)
                if r1_type.kind != RegKind.MAP_PTR:
                    raise LabelError(
                        f"insn {index}: {spec.name} without a map pointer in r1"
                    )
                fd = r1_type.map_fd
                key_off = None
                key_size = program.map_for_fd(fd).key_size if fd in program.maps else 0
                r2_type = abs_state.reg(isa.R2)
                if r2_type.kind == RegKind.STACK and off_state is not None:
                    key_off = off_state[isa.R2]
                value_off = None
                value_size = 0
                if spec.helper_id == 2:  # update reads the value via R3
                    value_size = (
                        program.map_for_fd(fd).value_size if fd in program.maps else 0
                    )
                    r3_type = abs_state.reg(isa.R3)
                    if r3_type.kind == RegKind.STACK and off_state is not None:
                        value_off = off_state[isa.R3]
                calls[index] = CallInfo(
                    helper_id=spec.helper_id,
                    map_fd=fd,
                    key_stack_offset=key_off,
                    key_size=key_size,
                    is_map_read=spec.helper_id in (1, 51),
                    is_map_write=spec.map_write,
                    value_stack_offset=value_off,
                    value_size=value_size,
                )
            else:
                calls[index] = CallInfo(helper_id=spec.helper_id)

    return ProgramLabels(program, vres, mem, calls, states)
