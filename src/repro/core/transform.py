"""Program-level transformations applied before pipeline construction.

Two of the paper's optimizations work best as bytecode rewrites:

* **Bounds-check elision** (§4.4): branches that compare a packet-derived
  pointer against ``data_end`` exist only to satisfy the kernel verifier;
  "this check is readily implemented in hardware when accessing the packet
  frame, and it can be therefore safely skipped". We rewrite such a branch
  into the in-bounds direction; the generated hardware (and the simulator)
  drops packets on genuinely out-of-bounds accesses instead.

* **Dead-code elimination**: after elision the pointer arithmetic feeding
  the check is dead; "the resulting hardware has only the features
  strictly required by the input program".

Both rewrites preserve eBPF jump-offset (slot-based) encoding via
:func:`delete_instructions` / :func:`replace_instructions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ebpf import isa
from ..ebpf.isa import Instruction, Program
from ..ebpf.verifier import RegKind, VerifierResult, verify
from .liveness import reg_liveness


class TransformError(ValueError):
    """Raised on invalid rewrites (deleting a needed terminator, ...)."""


def rewrite_program(
    program: Program,
    replacements: Dict[int, Optional[List[Instruction]]],
) -> Program:
    """Rewrite a program, fixing every jump offset.

    ``replacements`` maps instruction indices to their new instruction
    list (``None`` or ``[]`` deletes the instruction). Branches *within*
    a replacement list are not supported — replacements must be straight
    line code. Jumps elsewhere in the program are retargeted to the first
    surviving instruction at or after their old target.
    """
    old = program.instructions
    new_lists: List[List[Instruction]] = []
    for index, insn in enumerate(old):
        if index in replacements:
            new_lists.append(list(replacements[index] or []))
        else:
            new_lists.append([insn])

    # New slot address of the first instruction emitted for each old index
    # (or of the next surviving instruction).
    new_slot_of_old_index: List[int] = []
    slot = 0
    for lst in new_lists:
        new_slot_of_old_index.append(slot)
        slot += sum(i.slots for i in lst)
    new_slot_of_old_index.append(slot)  # virtual end

    out: List[Instruction] = []
    here = 0  # slot of the next instruction out
    for index, lst in enumerate(new_lists):
        for insn in lst:
            if insn.is_jump and index not in replacements:
                # retarget surviving jump
                try:
                    old_target = program.jump_target_index(index)
                except isa.ISAError as exc:
                    raise TransformError(f"jump into the middle of an "
                                         f"instruction: {exc}") from exc
                new_target_slot = new_slot_of_old_index[old_target]
                new_off = new_target_slot - here - insn.slots
                insn = Instruction(
                    insn.opcode, insn.dst, insn.src, new_off, insn.imm, insn.imm64
                )
            elif insn.is_jump and index in replacements:
                raise TransformError("replacement code must be straight-line")
            out.append(insn)
            here += insn.slots
    if not out:
        raise TransformError("rewrite removed every instruction")
    return program.with_instructions(out)


def delete_instructions(program: Program, indices: Iterable[int]) -> Program:
    """Delete the given instructions, retargeting jumps."""
    return rewrite_program(program, {i: None for i in indices})


# ---------------------------------------------------------------------------
# Bounds-check elision
# ---------------------------------------------------------------------------

_PTR_CMP_OPS = {
    isa.BPF_JGT, isa.BPF_JGE, isa.BPF_JLT, isa.BPF_JLE,
    isa.BPF_JSGT, isa.BPF_JSGE, isa.BPF_JSLT, isa.BPF_JSLE,
    isa.BPF_JEQ, isa.BPF_JNE,
}


@dataclass
class EntryCheck:
    """An elided entry-side bounds check, re-expressed as the hardware's
    input-length comparator: packets shorter than ``min_len`` bytes take
    ``action`` without entering the program."""

    min_len: int
    action: int  # XDP action code of the out-of-bounds path


@dataclass
class ElisionReport:
    """What bounds-check elision did, for logging and tests."""

    elided_branches: List[int]
    entry_checks: List[EntryCheck] = None
    dce_removed: int = 0

    def __post_init__(self) -> None:
        if self.entry_checks is None:
            self.entry_checks = []


def find_bounds_checks(
    program: Program, vres: Optional[VerifierResult] = None
) -> List[Tuple[int, bool]]:
    """Find packet bounds-check branches.

    Returns (index, taken_is_oob) pairs: branches whose two operands are a
    packet pointer and ``data_end``. ``taken_is_oob`` says whether the
    *taken* edge corresponds to the out-of-bounds outcome (pointer past
    data_end), i.e. the edge the hardware handles implicitly.
    """
    vres = vres or verify(program)
    found = []
    for index, insn in enumerate(program.instructions):
        classified = _classify_check(program, vres, index)
        if classified is not None:
            found.append((index, classified[0]))
    return found


def _classify_check(
    program: Program, vres: VerifierResult, index: int
) -> Optional[Tuple[bool, Optional[int]]]:
    """Classify instruction ``index`` as a bounds check.

    Returns (taken_is_oob, min_len) or None; ``min_len`` is the packet
    length below which the OOB edge fires (None when the pointer offset is
    not statically known).
    """
    insn = program.instructions[index]
    if not (insn.is_cond_jump and insn.uses_reg_src):
        return None
    if insn.op not in _PTR_CMP_OPS:
        return None
    state = vres.state_before(index)
    if state is None:
        return None
    dst_t = state.reg(insn.dst)
    src_t = state.reg(insn.src)
    kinds = (dst_t.kind, src_t.kind)
    if kinds == (RegKind.PACKET, RegKind.PACKET_END):
        ptr_reg = insn.dst
        # `if pkt <op> end goto L`
        taken_is_oob = insn.op in (
            isa.BPF_JGT, isa.BPF_JGE, isa.BPF_JSGT, isa.BPF_JSGE, isa.BPF_JNE,
        )
        # OOB condition in terms of packet length (ptr = data + D):
        #   pkt >  end  <=>  len <  D        (JGT taken / JLE fallthrough)
        #   pkt >= end  <=>  len <= D        (JGE taken / JLT fallthrough)
        ge_like = insn.op in (isa.BPF_JGE, isa.BPF_JSGE, isa.BPF_JLT, isa.BPF_JSLT)
    elif kinds == (RegKind.PACKET_END, RegKind.PACKET):
        ptr_reg = insn.src
        taken_is_oob = insn.op in (
            isa.BPF_JLT, isa.BPF_JLE, isa.BPF_JSLT, isa.BPF_JSLE, isa.BPF_JNE,
        )
        #   end <  pkt  <=>  len <  D
        #   end <= pkt  <=>  len <= D
        ge_like = insn.op in (isa.BPF_JLE, isa.BPF_JSLE, isa.BPF_JGT, isa.BPF_JSGT)
    else:
        return None
    min_len: Optional[int] = None
    if insn.op not in (isa.BPF_JEQ, isa.BPF_JNE):
        offset = _packet_offset_of(program, index, ptr_reg)
        if offset is not None:
            min_len = offset + (1 if ge_like else 0)
    return taken_is_oob, min_len


def _packet_offset_of(program: Program, index: int, reg: int) -> Optional[int]:
    """Constant offset of a PACKET-typed register before ``index``."""
    from .labeling import label_program

    labels = label_program(program)
    state = labels.reg_offsets[index]
    if state is None:
        return None
    return state[reg]


def _oob_path_action(program: Program, index: int, taken_is_oob: bool) -> Optional[int]:
    """The XDP action the out-of-bounds edge produces, if it is the simple
    `r0 = K; exit` pattern (what compilers emit for the verifier check)."""
    if taken_is_oob:
        target = program.jump_target_index(index)
    else:
        target = index + 1
    insns = program.instructions
    if target + 1 >= len(insns):
        return None
    mov, ex = insns[target], insns[target + 1]
    if not ex.is_exit:
        return None
    if mov.is_alu and mov.op == isa.BPF_MOV and not mov.uses_reg_src and mov.dst == isa.R0:
        return mov.imm
    return None


def _is_entry_side(program: Program, index: int) -> bool:
    """True when no branch precedes ``index`` — the check runs on every
    packet, so it can be hoisted to the pipeline input."""
    return not any(
        insn.is_jump or insn.is_exit for insn in program.instructions[:index]
    )


def elide_bounds_checks(
    program: Program, vres: Optional[VerifierResult] = None
) -> Tuple[Program, ElisionReport]:
    """Remove verifier bounds checks; keep only the in-bounds direction.

    Only *entry-side* checks with a statically resolvable out-of-bounds
    action are elided: the hardware replaces them with a single length
    comparator at the packet input (recorded as :class:`EntryCheck`), and
    per-access bounds enforcement covers everything else. Checks buried in
    branches, or with data-dependent failure behaviour, are kept — eliding
    them could change the verdict of short packets that never reach an
    actual packet access.
    """
    elided: List[int] = []
    entry_checks: List[EntryCheck] = []
    # Elide one check per round (indices shift after each rewrite).
    for _ in range(len(program.instructions)):
        vres = vres if vres is not None else verify(program)
        candidate = None
        for index, insn in enumerate(program.instructions):
            classified = _classify_check(program, vres, index)
            if classified is None:
                continue
            taken_is_oob, min_len = classified
            if min_len is None or not _is_entry_side(program, index):
                continue
            action = _oob_path_action(program, index, taken_is_oob)
            if action is None:
                continue
            candidate = (index, taken_is_oob, min_len, action)
            break
        vres = None  # recompute on subsequent rounds
        if candidate is None:
            break
        index, taken_is_oob, min_len, action = candidate
        if taken_is_oob:
            # Fall-through is the in-bounds path: drop the branch entirely.
            program = rewrite_program(program, {index: None})
        else:
            # Taken edge is the in-bounds path: make it unconditional.
            program = rewrite_program_with_jump(
                program, index, _retargeted_ja(program, index)
            )
        elided.append(index)
        entry_checks.append(EntryCheck(min_len, action))
    return program, ElisionReport(elided, entry_checks)


def _retargeted_ja(program: Program, index: int) -> Instruction:
    insn = program.instructions[index]
    return isa.jump(insn.off)  # JA has the same slot count as a cond jump


def rewrite_program_with_jump(
    program: Program, index: int, ja: Instruction
) -> Program:
    """Replace instruction ``index`` with an unconditional jump carrying
    the same slot offset (both are single-slot, so offsets are preserved)."""
    instructions = list(program.instructions)
    instructions[index] = ja
    return program.with_instructions(instructions)


# ---------------------------------------------------------------------------
# Dead-code elimination
# ---------------------------------------------------------------------------


def _is_pure(insn: Instruction) -> bool:
    """Instructions removable when their destination is dead: anything
    that only writes registers (ALU, loads, LD_IMM64)."""
    if insn.is_alu or insn.is_ld_imm64 or insn.is_mem_load:
        return True
    return False


def dead_code_elimination(program: Program, max_rounds: int = 10) -> Tuple[Program, int]:
    """Iteratively remove pure instructions whose results are never used.

    Liveness is :func:`repro.core.liveness.reg_liveness`'s backward
    dataflow across the CFG. Returns the new program and the number of
    removed instructions.
    """
    removed_total = 0
    for _ in range(max_rounds):
        dead = _find_dead(program)
        if not dead:
            break
        program = delete_instructions(program, dead)
        removed_total += len(dead)
    return program, removed_total


def _find_dead(program: Program) -> Set[int]:
    live_out = reg_liveness(program)[1]
    dead: Set[int] = set()
    for index, insn in enumerate(program.instructions):
        if not _is_pure(insn):
            continue
        written = set(insn.regs_written())
        if written and not (written & live_out[index]):
            dead.add(index)
    return dead
