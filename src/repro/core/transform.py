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

A third rewrite serves the path-parallel layout: **speculation** hoists a
branch arm's pure setup into the branch block, so it no longer waits for
the branch to resolve (:func:`speculate`).

The rewrites preserve eBPF jump-offset (slot-based) encoding via
:func:`delete_instructions` / :func:`replace_instructions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from ..ebpf import isa
from ..ebpf.helpers import helper_spec
from ..ebpf.isa import Instruction, Program
from ..ebpf.verifier import RegKind, VerifierResult, verify
from .cfg import BasicBlock, Cfg, build_cfg, reachable_blocks
from .ddg import Access, access_of, dependences
from .labeling import ProgramLabels, Region, offset_states
from .liveness import (_stack_effects, program_facts, reg_liveness, regs_read,
                       stack_liveness)
from .scheduler import RowPacker

if TYPE_CHECKING:
    from .compiler import CompileOptions


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


def _compares_registers(insn: Instruction) -> bool:
    """Could ``insn`` compare a packet pointer against ``data_end``?"""
    return insn.is_cond_jump and insn.uses_reg_src and insn.op in _PTR_CMP_OPS


def _classify_check(
    program: Program, vres: VerifierResult, index: int
) -> Optional[Tuple[bool, Optional[int]]]:
    """Classify instruction ``index`` as a bounds check.

    Returns (taken_is_oob, min_len) or None; ``min_len`` is the packet
    length below which the OOB edge fires (None when the pointer offset is
    not statically known).
    """
    insn = program.instructions[index]
    if not _compares_registers(insn):
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
        # the pointer's constant offset: labeling's fixpoint, nothing more
        offsets = offset_states(program, vres)[index]
        if offsets is not None and offsets[ptr_reg] is not None:
            min_len = offsets[ptr_reg] + (1 if ge_like else 0)
    return taken_is_oob, min_len


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
    vres = vres or verify(program)
    # Elide one check per round (indices shift after each rewrite). Only
    # the program's first branch runs on every packet, so each round has
    # one candidate, and a rewritten program is verified only when that
    # branch may be a check.
    while True:
        index = next((i for i, insn in enumerate(program.instructions)
                      if insn.is_terminator), None)
        if index is None or not _compares_registers(program[index]):
            break
        classified = _classify_check(program, vres or verify(program), index)
        vres = None  # recompute on subsequent rounds
        if classified is None or classified[1] is None:
            break
        taken_is_oob, min_len = classified
        action = _oob_path_action(program, index, taken_is_oob)
        if action is None:
            break
        if taken_is_oob:
            # Fall-through is the in-bounds path: drop the branch entirely.
            program = rewrite_program(program, {index: None})
        else:
            # Taken edge is the in-bounds path: make it unconditional. A
            # JA has the branch's slot count, so every offset holds.
            insns = list(program.instructions)
            insns[index] = isa.jump(insns[index].off)
            program = program.with_instructions(insns)
        elided.append(index)
        entry_checks.append(EntryCheck(min_len, action))
    return program, ElisionReport(elided, entry_checks)


# ---------------------------------------------------------------------------
# Dead-code elimination
# ---------------------------------------------------------------------------


def _is_pure(insn: Instruction) -> bool:
    """Instructions removable when their destination is dead: anything
    that only writes registers (ALU, loads, LD_IMM64)."""
    return insn.is_alu or insn.is_ld_imm64 or insn.is_mem_load


def dead_code_elimination(program: Program) -> Tuple[Program, int]:
    """Remove pure instructions whose results are never used.

    One backward pass of strong liveness over the program's fact table
    (:func:`repro.core.liveness.program_facts`): a pure instruction
    whose written registers are all dead is removed and generates no
    uses, so a whole chain of dead definitions falls in the same pass.
    Every edge of a verified program goes forward, so reverse index order
    visits each instruction after all of its successors. Returns the new
    program and the number of removed instructions.
    """
    insns = program.instructions
    succs, reads, writes, forward = program_facts(program)
    if not forward:
        raise TransformError("dead-code elimination needs a loop-free "
                             "program with forward branches only")
    live_in = [0] * len(insns)
    dead: List[int] = []
    for index in range(len(insns) - 1, -1, -1):
        out = 0
        for s in succs[index]:
            out |= live_in[s]
        if _is_pure(insns[index]) and not writes[index] & out:
            dead.append(index)
            live_in[index] = out
        else:
            live_in[index] = reads[index] | (out & ~writes[index])
    if not dead:
        return program, 0
    return delete_instructions(program, dead), len(dead)


# ---------------------------------------------------------------------------
# Speculation above branches
# ---------------------------------------------------------------------------

# Registers a renamed op may move into: r0-r5 are a call's result and
# clobbers, r10 the read-only frame pointer.
_RENAME_TARGETS = (isa.R6, isa.R7, isa.R8, isa.R9)
_CALL_CLOBBERED = frozenset(range(isa.R1, isa.R5 + 1))


def speculate(
    program: Program, labels: ProgramLabels, options: CompileOptions,
) -> Tuple[Program, int, int]:
    """Hoist a branch arm's pure setup into the branch block above it.

    A block cannot start before the branch that selects it resolves, even
    when its setup reads nothing the branch decides. When a serialised
    map's window spans that wait, every packet pays for it. So, in a
    block D that ends in a conditional branch and touches a serialised
    map or lies below an access to one, ops move from each successor S
    whose only predecessor is D into D, each right after the last op of
    D it depends on (see below). §3.5's enable bits gate side effects only, so a register or stack
    slot written on the path a packet does not take is wasted wires, not
    wrong state. An op moves when:

    * it is an ALU op, a mov or an ``ld_imm64``, or a store to a constant
      ``r10`` stack slot — never a load, call, atomic, packet or map
      store, or exit;
    * its operands are defined outside S or by ops already moved, none
      of them is a register D's branch reads (the verifier narrows a
      null-checked map value in the arms only, so a copy taken above the
      branch would stay ``map_value_or_null``), and no op staying in S
      ahead of it touches what it writes;
    * what it writes is dead on every other successor of D (registers by
      :func:`reg_liveness`, slots by :func:`stack_liveness`, which counts
      a helper's key pointer as a read), not read by D's branch, and not
      written by an op moved from another arm;
    * it does not make D longer: its dependence depth in D stays within
      the branch's row.

    An op writing an r1-r5 register that an op moved from another arm
    also writes, or that a call in D clobbers while an op reading the
    value would move too (so the pair can sit above the call), is
    renamed into a register not live at D's entry and not referenced
    below D, with its reads in S — unless a call reads the value as an
    argument. An op another arm's write forces a rename on stays when
    none is possible. A moved op goes right after the last op of D it
    depends on, so D's own ops never see it. Each block moves ops at
    most one level, deepest branch first.

    Returns the program (unchanged when nothing moved) and the number of
    ops moved and renamed. Programs without a serialised map, or
    scheduled with capped lanes (where a block's list schedule depends
    on op order), are returned at once.
    """
    serialised = {fd for fd, spec in program.maps.items() if spec.serialised}
    if not serialised or options.max_row_width is not None:
        return program, 0, 0
    cfg = build_cfg(program)
    insns = program.instructions
    reachable = reachable_blocks(cfg)
    below: Set[int] = set()  # blocks touching a serialised map, or below one
    for block in cfg.blocks_in_topo_order():
        if block.block_id in reachable and (
            block.block_id in below
            or any(_touches(insns[i], labels, i, serialised)
                   for i in block.indices())
        ):
            below.add(block.block_id)
            below.update(succ for succ, _kind in block.succs)
    branches = [
        b for b in reversed(cfg.topo_order)
        if b in below and b in reachable
        and insns[cfg.blocks[b].terminator_index].is_cond_jump
        and cfg.blocks[b].start < cfg.blocks[b].terminator_index
        and len({succ for succ, _kind in cfg.blocks[b].succs}) == 2
    ]
    if not branches:
        return program, 0, 0

    live = _Liveness(program, labels, cfg)
    edits = _Edits(list(insns))
    touched: Set[int] = set()  # blocks that gained or lost ops
    for d in branches:
        arms = [succ for succ in sorted({s for s, _k in cfg.blocks[d].succs})
                if succ not in touched and cfg.blocks[succ].preds == [d]]
        if arms and _hoist_into(program, labels, cfg, d, arms, live, options,
                                edits):
            touched.add(d)
            touched.update(arms)
    if not edits.moved:
        return program, 0, 0
    return (edits.apply(program), edits.moved, edits.renamed)


def _touches(insn: Instruction, labels: ProgramLabels, index: int,
             serialised: Set[int]) -> bool:
    """Does the op access a serialised map: a channel call with its fd,
    or a load, store or atomic on its value?"""
    if insn.is_call:
        call = labels.call_for(index)
        return (helper_spec(insn.imm).map_channel and call is not None
                and call.map_fd in serialised)
    label = labels.label_for(index)
    return (label is not None and label.region is Region.MAP_VALUE
            and label.map_fd in serialised)


def _hoistable(insn: Instruction, labels: ProgramLabels, index: int) -> bool:
    if insn.is_alu or insn.is_ld_imm64:
        return True
    label = labels.label_for(index)
    return (insn.is_mem_store and insn.dst == isa.R10 and label is not None
            and label.region is Region.STACK and label.offset is not None)


class _Liveness:
    """The facts :func:`speculate` reads off the input program: register
    and stack liveness, and which rename targets each block references
    (kept current as ops are renamed)."""

    def __init__(self, program: Program, labels: ProgramLabels,
                 cfg: Cfg) -> None:
        self.reg_in, self.reg_out = reg_liveness(program)
        self.stack_in = stack_liveness(program, labels)
        self.cfg = cfg
        # r6-r9 appear in an op only through its register fields
        self.refs: Dict[int, Set[int]] = {
            block.block_id: {
                reg for i in block.indices()
                for reg in (program.instructions[i].dst,
                            program.instructions[i].src)
                if reg in _RENAME_TARGETS}
            for block in cfg.blocks}

    def referenced_below(self, d: int) -> Set[int]:
        seen, todo, regs = set(), [d], set()
        while todo:
            for succ, _kind in self.cfg.blocks[todo.pop()].succs:
                if succ not in seen:
                    seen.add(succ)
                    regs |= self.refs[succ]
                    todo.append(succ)
        return regs


class _Edits:
    """The rewrite :func:`speculate` accumulates: in-place substitutions
    (renamed reads, same slot count), deletions, and insertions before a
    given instruction."""

    def __init__(self, insns: List[Instruction]) -> None:
        self.insns = insns
        self.deleted: Set[int] = set()
        self.precede: Dict[int, List[Instruction]] = {}
        self.moved = 0
        self.renamed = 0

    def apply(self, program: Program) -> Program:
        replacements: Dict[int, Optional[List[Instruction]]] = {
            i: None for i in self.deleted}
        for k in sorted(self.precede):
            if self.insns[k].is_jump:  # a branch: follow its predecessor
                replacements[k - 1] = (replacements.get(k - 1)
                                       or [self.insns[k - 1]]) \
                    + self.precede[k]
            else:
                replacements[k] = self.precede[k] + [self.insns[k]]
        return rewrite_program(program.with_instructions(self.insns),
                               replacements)


def _hoist_into(program: Program, labels: ProgramLabels, cfg: Cfg, d: int,
                arms: List[int], live: _Liveness, options: CompileOptions,
                edits: _Edits) -> bool:
    """Move what may move from ``arms`` into branch block ``d``; True if
    anything moved."""
    insns = program.instructions
    block = cfg.blocks[d]
    term = block.terminator_index
    # D's own list schedule: a moved op must land on or above the
    # branch's row, so D does not get longer.
    packer = RowPacker({}, options)
    placed: List[Tuple[int, Access]] = []
    for i in range(block.start, term):
        access = access_of(insns[i], labels.label_for(i), labels.call_for(i))
        packer.insns[i] = insns[i]
        packer.add(i, dependences(access, placed))
        placed.append((i, access))
    branch_row = packer.terminator_row(
        dependences(access_of(insns[term], None, None), placed))
    clobbered = (_CALL_CLOBBERED if any(insns[i].is_call
                                        for i in range(block.start, term))
                 else frozenset())
    branch_reads = set(regs_read(insns[term]))
    free = [r for r in _RENAME_TARGETS
            if r not in live.reg_in[block.start] and r not in branch_reads
            and r not in live.referenced_below(d)]
    # Where a moved op goes: after every op of D it depends on and after
    # the moved ops it depends on, so D's other ops never see it and
    # pruning carries it only from where it is computed.
    precede: Dict[int, int] = {}  # moved op -> the op of D it precedes
    moved_any = False
    arm_regs: Dict[int, Set[int]] = {}  # per arm: registers its moves write
    arm_stack: Dict[int, Set[int]] = {}  # per arm: stack bytes they write
    for s in arms:
        others = [cfg.blocks[o].start for o in
                  {succ for succ, _k in block.succs} - {s}]
        other_regs = set().union(*(live.reg_in[o] for o in others))
        other_stack = set().union(*(live.stack_in[o] for o in others))
        foreign_regs = set().union(*arm_regs.values())
        foreign_stack = set().union(*arm_stack.values())
        arm_regs[s], arm_stack[s] = set(), set()
        sblock = cfg.blocks[s]
        rename: Dict[int, int] = {}  # register -> where its value now sits
        stayed_defs: Set[int] = set()  # registers last written by a stayer
        stayer_regs: Set[int] = set()  # registers stayers so far touch
        stayer_stack: Set[int] = set()  # stack bytes stayers so far touch
        for i in sblock.indices():
            insn = insns[i]
            new = _with_regs(insn, rename, reads_only=True)
            hoist = None
            # the verifier narrows what the branch reads (a null check)
            # in the arms only: a read of it above the branch stays wide
            if (_hoistable(insn, labels, i)
                    and stayed_defs.isdisjoint(regs_read(insn))
                    and branch_reads.isdisjoint(regs_read(insn))):
                hoist = _try_hoist(
                    i, new, labels, sblock, live, packer, placed,
                    branch_row, clobbered, free,
                    forbidden_regs=stayer_regs | other_regs | branch_reads,
                    foreign_regs=foreign_regs,
                    forbidden_stack=(stayer_stack | other_stack
                                     | foreign_stack))
            writes = set(insn.regs_written())
            if hoist is None:
                if new is not insn:
                    edits.insns[i] = new
                stayer_regs.update(regs_read(new), writes)
                gen, kill = _stack_effects(i, insn, labels)
                stayer_stack |= gen | kill
                stayed_defs |= writes
                for reg in writes:
                    rename.pop(reg, None)
                continue
            moved, deps = hoist
            precede[i] = max([block.start] + [
                precede[k] if k in precede else k + 1 for k in deps])
            edits.precede.setdefault(precede[i], []).append(moved)
            edits.deleted.add(i)
            edits.moved += 1
            moved_any = True
            label = labels.label_for(i)
            if moved.is_mem_store:
                arm_stack[s].update(range(label.offset,
                                          label.offset + label.size))
            else:
                (reg,) = writes
                stayed_defs.discard(reg)
                arm_regs[s].add(moved.dst)
                if moved.dst != reg:
                    rename[reg] = moved.dst
                    free.remove(moved.dst)
                    live.refs[d].add(moved.dst)
                    live.refs[s].add(moved.dst)
                    edits.renamed += 1
                else:
                    rename.pop(reg, None)
    return moved_any


def _try_hoist(index: int, insn: Instruction, labels: ProgramLabels,
               sblock: BasicBlock, live: _Liveness, packer: RowPacker,
               placed: List[Tuple[int, Access]], branch_row: int,
               clobbered: FrozenSet[int], free: List[int], *,
               forbidden_regs: Set[int], foreign_regs: Set[int],
               forbidden_stack: Set[int],
               ) -> Optional[Tuple[Instruction, Dict[int, str]]]:
    """The op as it moves into D (renamed if need be), placed in D's
    schedule, with its dependences there; None if it stays. ``insn``
    already reads renamed registers."""
    label = labels.label_for(index)
    if insn.is_mem_store:
        if set(range(label.offset, label.offset + label.size)) \
                & forbidden_stack:
            return None
    else:
        reg = insn.dst
        if reg in _CALL_CLOBBERED and (reg in clobbered
                                       or reg in foreign_regs):
            uses = _value_uses(labels.program.instructions, sblock, index,
                               reg, live)
            # another arm's move writes the register: rename or stay. A
            # call in D clobbers it: rename so the op can sit above the
            # call, if that helps — if an op reading it would move too.
            if free and uses is not None and (reg in foreign_regs or any(
                    _hoistable(labels.program.instructions[k], labels, k)
                    for k in uses)):
                insn = _with_regs(insn, {reg: free[0]}, reads_only=False)
            elif reg in foreign_regs:
                return None
        if insn.dst == reg and reg in forbidden_regs | foreign_regs:
            return None
    access = access_of(insn, label, None)
    deps = dependences(access, placed)
    packer.insns[index] = insn
    if packer.slot(index, deps)[0] > branch_row:
        return None
    packer.add(index, deps)
    placed.append((index, access))
    return insn, deps


def _value_uses(insns: Sequence[Instruction], sblock: BasicBlock,
                index: int, reg: int, live: _Liveness) -> Optional[List[int]]:
    """The ops in S that read the value op ``index`` writes to ``reg``, or
    None when it cannot live in another register: the op reads ``reg``
    itself, a call (fixed argument registers) or an op that also writes
    ``reg`` reads the value, or the value is live past S."""
    if reg in regs_read(insns[index]):
        return None
    uses: List[int] = []
    for k in range(index + 1, sblock.end):
        insn = insns[k]
        reads = reg in regs_read(insn)
        writes = reg in insn.regs_written()
        if reads and (insn.is_call or writes):
            return None
        if writes:
            return uses
        if reads:
            uses.append(k)
    if reg in live.reg_out[sblock.terminator_index]:
        return None
    return uses


def _with_regs(insn: Instruction, mapping: Dict[int, int], *,
               reads_only: bool) -> Instruction:
    """``insn`` with its register fields renamed by ``mapping``: the
    registers it reads (``reads_only``), or its destination only."""
    if not mapping:
        return insn
    if reads_only:
        reads = set(regs_read(insn)) & set(mapping)
        if not reads:
            return insn
        dst = mapping[insn.dst] if insn.dst in reads else insn.dst
        src = mapping[insn.src] if insn.src in reads else insn.src
    else:
        dst, src = mapping.get(insn.dst, insn.dst), insn.src
    return Instruction(insn.opcode, dst, src, insn.off, insn.imm, insn.imm64)
