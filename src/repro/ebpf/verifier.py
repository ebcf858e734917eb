"""Static verifier and register-type analysis.

This module plays two roles, mirroring how eHDL leans on the kernel
verifier's guarantees (Section 2.2):

1. **Verification** — reject programs the kernel would reject: backward
   branches (unbounded loops), reads of uninitialised registers,
   out-of-bounds stack accesses, dereferences of possibly-NULL map values,
   writes to the read-only context, jumps into the middle of a LD_IMM64,
   map-channel keys and values that point anywhere but the stack or the
   packet, ALU / jump ops outside the ``isa`` tables and byte swaps of a
   width other than 16/32/64 (checked on every instruction, reachable or
   not).

2. **Type analysis** — a branch-sensitive abstract interpretation that
   assigns every register at every program point one of the region types
   {scalar, ctx, packet, packet_end, stack, map_ptr, map_value}. This is
   exactly the analysis eHDL's instruction-labeling step needs (§3.1:
   "eHDL tracks the use of R10 … R1 … R0") and
   :mod:`repro.core.labeling` consumes its results.

The analysis is a fixpoint over instruction indices with pointwise joins;
conditional branches against 0 refine ``map_value_or_null`` registers on
each edge, the way the kernel verifier's branch tracking does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from . import isa
from .helpers import PACKET_RESIZING_HELPERS, HelperError, helper_spec
from .isa import Instruction, Program
from .xdp import XDP_MD_DATA, XDP_MD_DATA_END, XDP_MD_SIZE, AddressSpace


class VerifierError(ValueError):
    """Raised when a program fails verification; message includes the
    instruction index."""


def _opcode_fault(insn: Instruction) -> Optional[str]:
    """The rule ``insn`` breaks by its opcode alone, if any. The legal op
    set is what the isa tables name — every later layer (disassembler,
    engines, VHDL emitter) indexes them."""
    if insn.is_alu:
        if insn.op not in isa.ALU_OP_NAMES:
            return f"unknown ALU op {insn.op:#x}"
        if insn.op == isa.BPF_END and insn.imm not in isa.SWAP_WIDTHS:
            return f"byte swap width {insn.imm} not in {{16, 32, 64}}"
    elif insn.is_jump_class and insn.op not in isa.JMP_OP_NAMES:
        return f"unknown jump op {insn.op:#x}"
    elif insn.is_atomic and insn.imm not in isa.ATOMIC_OP_NAMES:
        return f"unknown atomic op {insn.imm:#x}"
    return None


# Opcode bytes sound whatever their operands (all but unknown ops and
# the two rules that read the immediate, BPF_END's and the atomics' —
# probed here with one no rule accepts): verify() runs a dozen times per
# compile, so its pre-pass is one set lookup per instruction.
_SOUND_OPCODES = frozenset(
    opcode for opcode in range(256)
    if _opcode_fault(Instruction(opcode, imm=-1)) is None
)

# What a map-channel helper reads through r2 (and r3), by helper id.
_CHANNEL_OPERANDS = {1: ("key",), 2: ("key", "value"), 3: ("key",)}


class RegKind(enum.Enum):
    UNINIT = "uninit"
    SCALAR = "scalar"
    CTX = "ctx"
    PACKET = "packet"
    PACKET_END = "packet_end"
    STACK = "stack"
    MAP_PTR = "map_ptr"
    MAP_VALUE = "map_value"
    MAP_VALUE_OR_NULL = "map_value_or_null"
    MIXED = "mixed"  # join of incompatible types; unusable as a pointer


@dataclass(frozen=True)
class RegType:
    """Abstract type of one register: a kind plus the map it refers to
    (for map pointers/values)."""

    kind: RegKind
    map_fd: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.map_fd is not None:
            return f"{self.kind.value}[fd={self.map_fd}]"
        return self.kind.value

    @property
    def is_pointer(self) -> bool:
        return self.kind in (
            RegKind.CTX,
            RegKind.PACKET,
            RegKind.PACKET_END,
            RegKind.STACK,
            RegKind.MAP_PTR,
            RegKind.MAP_VALUE,
            RegKind.MAP_VALUE_OR_NULL,
        )


UNINIT = RegType(RegKind.UNINIT)
SCALAR = RegType(RegKind.SCALAR)
CTX = RegType(RegKind.CTX)
PACKET = RegType(RegKind.PACKET)
PACKET_END = RegType(RegKind.PACKET_END)
STACK = RegType(RegKind.STACK)
MIXED = RegType(RegKind.MIXED)


def map_ptr_type(fd: int) -> RegType:
    return RegType(RegKind.MAP_PTR, fd)


def map_value_type(fd: int) -> RegType:
    return RegType(RegKind.MAP_VALUE, fd)


def map_value_or_null_type(fd: int) -> RegType:
    return RegType(RegKind.MAP_VALUE_OR_NULL, fd)


def join_types(a: RegType, b: RegType) -> RegType:
    """Pointwise lattice join of two register types."""
    if a == b:
        return a
    if a.kind == RegKind.UNINIT or b.kind == RegKind.UNINIT:
        # A register that might be uninitialised on one path must not be
        # read; keep UNINIT so the read check fires.
        return UNINIT
    kinds = {a.kind, b.kind}
    if kinds == {RegKind.MAP_VALUE, RegKind.MAP_VALUE_OR_NULL} and a.map_fd == b.map_fd:
        return map_value_or_null_type(a.map_fd)
    if kinds == {RegKind.MAP_VALUE_OR_NULL, RegKind.SCALAR}:
        # NULL (scalar 0) joined with a maybe-null value pointer.
        fd = a.map_fd if a.map_fd is not None else b.map_fd
        return map_value_or_null_type(fd)
    if a.kind == RegKind.SCALAR and b.kind == RegKind.SCALAR:
        return SCALAR
    return MIXED


# Stack state: mapping from 8-byte-aligned slot offset (negative, relative
# to R10) to the RegType spilled there. Absent slots hold scalar data.
StackState = Tuple[Tuple[int, RegType], ...]


@dataclass(frozen=True)
class AbsState:
    """Abstract machine state at one program point."""

    regs: Tuple[RegType, ...]
    stack: StackState = ()

    def reg(self, n: int) -> RegType:
        return self.regs[n]

    def with_reg(self, n: int, t: RegType) -> "AbsState":
        regs = list(self.regs)
        regs[n] = t
        return AbsState(tuple(regs), self.stack)

    def stack_slot(self, off: int) -> RegType:
        for slot, t in self.stack:
            if slot == off:
                return t
        return SCALAR

    def with_stack_slot(self, off: int, t: RegType) -> "AbsState":
        slots = dict(self.stack)
        if t == SCALAR:
            slots.pop(off, None)
        else:
            slots[off] = t
        return AbsState(self.regs, tuple(sorted(slots.items())))

    def invalidate_stack_range(self, off: int, size: int) -> "AbsState":
        """A partial write destroys any pointer spilled in the range."""
        slots = {
            slot: t
            for slot, t in self.stack
            if slot + 8 <= off or slot >= off + size
        }
        return AbsState(self.regs, tuple(sorted(slots.items())))


def join_states(a: AbsState, b: AbsState) -> AbsState:
    regs = tuple(join_types(x, y) for x, y in zip(a.regs, b.regs))
    slots_a = dict(a.stack)
    slots_b = dict(b.stack)
    joined: Dict[int, RegType] = {}
    for off in set(slots_a) | set(slots_b):
        t = join_types(slots_a.get(off, SCALAR), slots_b.get(off, SCALAR))
        if t != SCALAR:
            joined[off] = t
    return AbsState(regs, tuple(sorted(joined.items())))


def initial_state() -> AbsState:
    regs = [UNINIT] * isa.NUM_REGS
    regs[isa.R1] = CTX
    regs[isa.R10] = STACK
    return AbsState(tuple(regs))


@dataclass
class VerifierResult:
    """Analysis output: the abstract state *before* each instruction."""

    program: Program
    states: List[Optional[AbsState]]  # None = unreachable

    def state_before(self, index: int) -> Optional[AbsState]:
        return self.states[index]

    def reachable(self, index: int) -> bool:
        return self.states[index] is not None


class Verifier:
    """Branch-sensitive fixpoint analysis over a program."""

    def __init__(self, program: Program, allow_back_edges: bool = False) -> None:
        self.program = program
        self.allow_back_edges = allow_back_edges

    # -- entry point -----------------------------------------------------------

    def verify(self) -> VerifierResult:
        program = self.program
        n = len(program.instructions)
        for index, insn in enumerate(program.instructions):
            if insn.opcode not in _SOUND_OPCODES:
                fault = _opcode_fault(insn)
                if fault is not None:
                    raise self._err(index, fault)
        states: List[Optional[AbsState]] = [None] * n
        states[0] = initial_state()
        worklist = [0]
        while worklist:
            index = worklist.pop()
            state = states[index]
            assert state is not None
            insn = program.instructions[index]
            for succ, succ_state in self._transfer(index, insn, state):
                if succ >= n:
                    raise VerifierError(
                        f"insn {index}: control flow falls off the program end"
                    )
                if not self.allow_back_edges and succ <= index:
                    raise VerifierError(
                        f"insn {index}: backward branch to {succ} "
                        "(unbounded loop?)"
                    )
                old = states[succ]
                new = succ_state if old is None else join_states(old, succ_state)
                if old is None or new != old:
                    states[succ] = new
                    worklist.append(succ)
        return VerifierResult(program, states)

    # -- helpers ------------------------------------------------------------------

    def _err(self, index: int, message: str) -> VerifierError:
        return VerifierError(f"insn {index}: {message}")

    def _check_read(self, index: int, state: AbsState, reg: int) -> RegType:
        t = state.reg(reg)
        if t.kind == RegKind.UNINIT:
            raise self._err(index, f"read of uninitialised register r{reg}")
        return t

    def _check_deref(
        self, index: int, state: AbsState, reg: int, off: int, size: int, write: bool
    ) -> RegType:
        t = self._check_read(index, state, reg)
        if t.kind == RegKind.MAP_VALUE_OR_NULL:
            raise self._err(
                index, f"r{reg} may be NULL; check the map lookup result first"
            )
        if t.kind == RegKind.MAP_PTR:
            raise self._err(index, f"r{reg} is a map pointer, not a value pointer")
        if t.kind in (RegKind.SCALAR, RegKind.MIXED, RegKind.PACKET_END):
            raise self._err(index, f"r{reg} ({t.kind.value}) is not dereferenceable")
        if t.kind == RegKind.STACK and reg == 10:
            # Precise bounds only for direct R10 accesses; derived stack
            # pointers carry an unknown base offset here (the labeling
            # pass tracks it) and are range-checked at runtime.
            if off >= 0 or off + size > 0 or off < -AddressSpace.STACK_SIZE:
                raise self._err(
                    index,
                    f"stack access at r{reg}{off:+d} size {size} out of "
                    f"[-{AddressSpace.STACK_SIZE}, 0)",
                )
        if t.kind == RegKind.CTX:
            if off < 0 or off + size > XDP_MD_SIZE:
                raise self._err(index, f"ctx access at {off:+d} out of bounds")
            if write:
                raise self._err(index, "xdp_md context is read-only")
        return t

    # -- transfer function -----------------------------------------------------------

    def _transfer(
        self, index: int, insn: Instruction, state: AbsState
    ) -> List[Tuple[int, AbsState]]:
        """Return the successor (index, state) pairs of executing ``insn``."""
        program = self.program
        cls = insn.opclass

        if cls in (isa.BPF_ALU, isa.BPF_ALU64):
            return [(index + 1, self._transfer_alu(index, insn, state))]

        if cls == isa.BPF_LD:
            if not insn.is_ld_imm64:
                raise self._err(index, f"unsupported LD mode {insn.mode:#x}")
            if insn.src == isa.BPF_PSEUDO_MAP_FD:
                fd = (insn.imm64 or insn.imm) & isa.MASK32
                if fd not in program.maps:
                    raise self._err(index, f"reference to unknown map fd {fd}")
                return [(index + 1, state.with_reg(insn.dst, map_ptr_type(fd)))]
            return [(index + 1, state.with_reg(insn.dst, SCALAR))]

        if cls == isa.BPF_LDX:
            base = self._check_deref(
                index, state, insn.src, insn.off, insn.size_bytes, write=False
            )
            result = SCALAR
            if base.kind == RegKind.CTX:
                if insn.off == XDP_MD_DATA:
                    result = PACKET
                elif insn.off == XDP_MD_DATA_END:
                    result = PACKET_END
            elif base.kind == RegKind.STACK and insn.size_bytes == 8:
                result = state.stack_slot(insn.off)
            return [(index + 1, state.with_reg(insn.dst, result))]

        if cls in (isa.BPF_ST, isa.BPF_STX):
            base = self._check_deref(
                index, state, insn.dst, insn.off, insn.size_bytes, write=True
            )
            if cls == isa.BPF_STX:
                value_type = self._check_read(index, state, insn.src)
            else:
                value_type = SCALAR
            if insn.is_atomic and base.kind not in (
                RegKind.MAP_VALUE,
                RegKind.STACK,
                RegKind.PACKET,
            ):
                raise self._err(index, "atomic op requires map/stack/packet memory")
            new_state = state
            if base.kind == RegKind.STACK:
                if insn.size_bytes == 8 and cls == isa.BPF_STX:
                    new_state = state.invalidate_stack_range(insn.off, 8)
                    new_state = new_state.with_stack_slot(insn.off, value_type)
                else:
                    if value_type.is_pointer:
                        raise self._err(
                            index, "partial spill of a pointer to the stack"
                        )
                    new_state = state.invalidate_stack_range(insn.off, insn.size_bytes)
            if insn.is_atomic and (insn.imm & isa.BPF_FETCH):
                target = isa.R0 if (insn.imm & 0xF0) == 0xF0 else insn.src
                new_state = new_state.with_reg(target, SCALAR)
            return [(index + 1, new_state)]

        if cls in (isa.BPF_JMP, isa.BPF_JMP32):
            return self._transfer_jump(index, insn, state)

        raise self._err(index, f"unknown instruction class {cls:#x}")

    def _transfer_alu(self, index: int, insn: Instruction, state: AbsState) -> AbsState:
        dst = insn.dst
        if insn.op == isa.BPF_MOV:
            if insn.uses_reg_src:
                t = self._check_read(index, state, insn.src)
                if not insn.is_alu64:
                    t = SCALAR  # 32-bit move truncates pointers to scalars
                return state.with_reg(dst, t)
            return state.with_reg(dst, SCALAR)
        if insn.op in (isa.BPF_NEG, isa.BPF_END):
            self._check_read(index, state, dst)
            return state.with_reg(dst, SCALAR)
        dst_type = self._check_read(index, state, dst)
        src_type = (
            self._check_read(index, state, insn.src) if insn.uses_reg_src else SCALAR
        )
        result = SCALAR
        if insn.is_alu64 and insn.op in (isa.BPF_ADD, isa.BPF_SUB):
            if dst_type.is_pointer and not src_type.is_pointer:
                result = dst_type  # ptr ± scalar stays in the same region
            elif insn.op == isa.BPF_ADD and src_type.is_pointer and not dst_type.is_pointer:
                result = src_type  # scalar + ptr
            elif dst_type.is_pointer and src_type.is_pointer:
                result = SCALAR  # ptr - ptr (bounds-check pattern)
        return state.with_reg(dst, result)

    def _transfer_jump(
        self, index: int, insn: Instruction, state: AbsState
    ) -> List[Tuple[int, AbsState]]:
        program = self.program
        if insn.is_exit:
            self._check_read(index, state, isa.R0)
            return []
        if insn.is_call:
            try:
                spec = helper_spec(insn.imm)
            except HelperError:
                raise self._err(index, f"call to unknown helper {insn.imm}")
            arg_regs = (isa.R1, isa.R2, isa.R3, isa.R4, isa.R5)[: spec.nargs]
            for reg in arg_regs:
                self._check_read(index, state, reg)
            new_state = state
            r0_type = SCALAR
            if spec.map_channel:
                r1_type = state.reg(isa.R1)
                if r1_type.kind != RegKind.MAP_PTR:
                    raise self._err(
                        index, f"r1 must hold a map pointer for {spec.name}"
                    )
                if spec.helper_id == 1:  # bpf_map_lookup_elem
                    r0_type = map_value_or_null_type(r1_type.map_fd)
                # The data plane reads a key or value from the stack or
                # the frame only: map bytes as an operand would need
                # store forwarding and a recorded read.
                operands = _CHANNEL_OPERANDS.get(spec.helper_id, ())
                for reg, what in zip((isa.R2, isa.R3), operands):
                    kind = state.reg(reg).kind
                    if kind not in (RegKind.STACK, RegKind.PACKET):
                        raise self._err(
                            index,
                            f"{spec.name} {what} (r{reg}) must point to "
                            f"the stack or packet, not {kind.value}",
                        )
                if spec.helper_id == 3 and r1_type.map_fd is not None:
                    map_spec = program.maps.get(r1_type.map_fd)
                    if map_spec is not None and map_spec.map_type in (
                        "array", "percpu_array"
                    ):
                        raise self._err(
                            index,
                            f"{spec.name} on array map "
                            f"{map_spec.name!r}: array entries "
                            "cannot be deleted",
                        )
            new_state = new_state.with_reg(isa.R0, r0_type)
            for reg in (isa.R1, isa.R2, isa.R3, isa.R4, isa.R5):
                new_state = new_state.with_reg(reg, UNINIT)
            if spec.helper_id in PACKET_RESIZING_HELPERS:
                regs = list(new_state.regs)
                for i, t in enumerate(regs):
                    if t.kind in (RegKind.PACKET, RegKind.PACKET_END):
                        regs[i] = UNINIT
                slots = tuple(
                    (off, t)
                    for off, t in new_state.stack
                    if t.kind not in (RegKind.PACKET, RegKind.PACKET_END)
                )
                new_state = AbsState(tuple(regs), slots)
            return [(index + 1, new_state)]
        # Branches: compute target, apply null-refinement where possible.
        target = program.jump_target_index(index)
        if insn.op == isa.BPF_JA:
            return [(target, state)]
        self._check_read(index, state, insn.dst)
        if insn.uses_reg_src:
            self._check_read(index, state, insn.src)
        taken_state, fall_state = state, state
        dst_type = state.reg(insn.dst)
        if (
            dst_type.kind == RegKind.MAP_VALUE_OR_NULL
            and not insn.uses_reg_src
            and insn.imm == 0
        ):
            not_null = map_value_type(dst_type.map_fd)
            if insn.op == isa.BPF_JEQ:
                taken_state = state.with_reg(insn.dst, SCALAR)
                fall_state = state.with_reg(insn.dst, not_null)
            elif insn.op == isa.BPF_JNE:
                taken_state = state.with_reg(insn.dst, not_null)
                fall_state = state.with_reg(insn.dst, SCALAR)
        return [(target, taken_state), (index + 1, fall_state)]


def verify(program: Program, allow_back_edges: bool = False) -> VerifierResult:
    """Verify a program, returning the per-instruction abstract states.

    Raises :class:`VerifierError` on the first rule violation found.
    """
    return Verifier(program, allow_back_edges=allow_back_edges).verify()
