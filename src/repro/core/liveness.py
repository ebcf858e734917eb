"""CFG-level liveness analyses shared by pruning and dead-code elimination.

Pruning cannot reason per-stage alone: a write inside a *predicated* block
(disabled for some packets) must not kill a value other control paths
still need. These analyses run classic backward dataflow over the
program's real control flow, producing per-instruction live-in sets that
the stage-level passes then project onto pipeline boundaries.
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set,
                    Tuple)

from ..ebpf import isa
from ..ebpf.helpers import helper_spec
from ..ebpf.isa import Instruction, Program
from ..ebpf.xdp import AddressSpace
from .labeling import ProgramLabels, Region

STACK_SIZE = AddressSpace.STACK_SIZE


class ProgramFacts(NamedTuple):
    """What each instruction does to control flow and to the registers,
    derived once per program (:meth:`Program.derived`) and read by
    labeling's offset fixpoint, both liveness analyses, dead-code
    elimination, pruning and the DDG. Shared: read it, never edit it."""

    succs: List[List[int]]  # successor indices, the taken edge first
    reads: List[int]  # bit r: reads register r (calls: their helper's args)
    writes: List[int]  # bit r: writes register r
    forward: bool  # every edge goes to a higher index: one sweep suffices


def program_facts(program: Program) -> ProgramFacts:
    """The program's fact table, derived on first use."""
    return program.derived(_derive_facts)


def _derive_facts(program: Program) -> ProgramFacts:
    insns = program.instructions
    n = len(insns)
    succs: List[List[int]] = []
    forward = True
    for index, insn in enumerate(insns):
        if insn.is_jump:
            target = program.jump_target_index(index)
            forward = forward and target > index
            succs.append([target] if insn.is_uncond_jump or index + 1 == n
                         else [target, index + 1])
        else:
            succs.append([] if insn.is_exit or index + 1 == n
                         else [index + 1])
    return ProgramFacts(succs, [_mask(regs_read(insn)) for insn in insns],
                        [_mask(insn.regs_written()) for insn in insns],
                        forward)


def successors(program: Program) -> List[List[int]]:
    """Instruction-level successor lists."""
    return program_facts(program).succs


def regs_read(insn: Instruction) -> Tuple[int, ...]:
    """Register read set with helper calls refined to their arity."""
    if insn.is_call:
        return tuple(range(isa.R1, isa.R1 + helper_spec(insn.imm).nargs))
    return insn.regs_read()


def reg_liveness(
    program: Program, reads: Optional[Sequence[int]] = None,
    only_writes: Optional[Dict[int, int]] = None,
) -> Tuple[List[FrozenSet[int]], List[FrozenSet[int]]]:
    """Per-instruction (live_in, live_out) register sets.

    ``reads`` replaces the instructions' read masks (bit r: reads
    register r) where a consumer executes fewer or other reads than the
    ISA states — the codegen engine's ``_stream``, which folds pointers
    into offsets and map operands into stack slices. The writes stay the
    ISA's. ``only_writes`` maps an instruction whose one effect is to
    write a register to that register: its reads count only where the
    register is live after it (strong liveness: a store no read takes
    keeps nothing alive, so a chain of them dies at once)."""
    facts = program_facts(program)
    live_in, live_out = mask_liveness(
        program, facts.reads if reads is None else reads, facts.writes,
        only_writes)
    sets: Dict[int, FrozenSet[int]] = {}  # a program has few distinct masks
    for mask in live_in + live_out:
        if mask not in sets:
            sets[mask] = frozenset(
                reg for reg in range(isa.R10 + 1) if mask >> reg & 1)
    return [sets[m] for m in live_in], [sets[m] for m in live_out]


def mask_liveness(
    program: Program, gen: Sequence[int], kill: Sequence[int],
    only_writes: Optional[Dict[int, int]] = None,
) -> Tuple[List[int], List[int]]:
    """Per-instruction (live_in, live_out) bitmasks of a backward
    dataflow over the program's control flow: instruction i reads the
    bits ``gen[i]`` and overwrites the bits ``kill[i]``; ``only_writes``
    is :func:`reg_liveness`'s strong rule (bit -> its reads count only
    where that bit is live after it). What the bits name is the
    caller's: registers here, the codegen stream's value-slot shadows and
    stack atoms elsewhere."""
    n = len(program.instructions)
    succs, _reads, _writes, forward = program_facts(program)
    only_writes = only_writes or {}
    # When every edge goes forward, one reverse sweep is the fixpoint.
    live_in = [0] * n
    live_out = [0] * n
    changed = True
    while changed:
        changed = False
        for index in range(n - 1, -1, -1):
            out = 0
            for s in succs[index]:
                out |= live_in[s]
            dst = only_writes.get(index)
            used = dst is None or out >> dst & 1
            new_in = (gen[index] if used else 0) | (out & ~kill[index])
            if out != live_out[index] or new_in != live_in[index]:
                live_out[index] = out
                live_in[index] = new_in
                changed = not forward
    return live_in, live_out


def _mask(regs: Sequence[int]) -> int:
    mask = 0
    for reg in regs:
        mask |= 1 << reg
    return mask


def _stack_effects(
    index: int, insn: Instruction, labels: ProgramLabels
) -> Tuple[Set[int], Set[int]]:
    """(gen bytes, kill bytes) of one instruction on the stack.

    Offsets are negative, relative to R10. Unknown-offset accesses read
    everything and kill nothing (conservative).
    """
    gen: Set[int] = set()
    kill: Set[int] = set()
    label = labels.label_for(index)
    if label is not None and label.region is Region.STACK:
        if label.offset is None:
            gen |= set(range(-STACK_SIZE, 0))
        else:
            byte_range = set(range(label.offset, label.offset + label.size))
            if label.is_atomic:
                gen |= byte_range
                kill |= byte_range
            elif label.is_write:
                kill |= byte_range
            else:
                gen |= byte_range
    call = labels.call_for(index)
    if call is not None:
        spec = helper_spec(call.helper_id)
        if spec.reads_stack:
            if call.key_stack_offset is not None and call.key_size:
                gen |= set(
                    range(call.key_stack_offset,
                          call.key_stack_offset + call.key_size)
                )
                # bpf_map_update_elem also reads value_size bytes through
                # R3. Without this, pruning drops the value bytes between
                # the stack store and the call stage — invisible to hwsim
                # (which keeps the whole stack per packet) but fatal in
                # the emitted VHDL, whose state vector IS the pruned set.
                if call.helper_id == 2:
                    if call.value_stack_offset is not None and call.value_size:
                        gen |= set(
                            range(call.value_stack_offset,
                                  call.value_stack_offset + call.value_size)
                        )
                    else:
                        gen |= set(range(-STACK_SIZE, 0))
            else:
                gen |= set(range(-STACK_SIZE, 0))
    return gen, kill


def stack_liveness(program: Program, labels: ProgramLabels) -> List[Set[int]]:
    """Per-instruction live-in stack *bytes* (negative offsets from R10)."""
    n = len(program.instructions)
    succs, _reads, _writes, forward = program_facts(program)
    live_in: List[Set[int]] = [set() for _ in range(n)]
    effects = [
        _stack_effects(i, program.instructions[i], labels) for i in range(n)
    ]
    changed = True
    while changed:
        changed = False
        for index in range(n - 1, -1, -1):
            out: Set[int] = set()
            for s in succs[index]:
                out |= live_in[s]
            gen, kill = effects[index]
            new_in = gen | (out - kill)
            if new_in != live_in[index]:
                live_in[index] = new_in
                changed = not forward
    return live_in
