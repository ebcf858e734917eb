"""State pruning (§4.3).

Each stage of the naive pipeline carries all 11 registers (88 B) and the
full 512 B stack. At any program point only a small subset is actually
*live* — written earlier and read later. This pass projects CFG-level
liveness (:mod:`repro.core.liveness`) onto pipeline-stage boundaries and
records, per stage, exactly the state the hardware must latch: Figure 8's
result ("most of the stages (9) only have a single 8B register … stack
memory is only present in 2 stages out of 20, and it is only big enough to
hold the key … 4B in place of 512B").

Liveness must be computed on the real control-flow graph, not stage by
stage: a register assigned inside a predicated block (disabled for some
packets) still has to be carried for the packets that skip that block.

Disabling the pass (``enabled=False``) reproduces the §5.4 ablation where
the unpruned pipeline needs 46%/66%/123% more LUT/FF/BRAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..ebpf import isa
from ..ebpf.isa import Program
from ..ebpf.xdp import AddressSpace
from .labeling import ProgramLabels
from .liveness import _stack_effects, reg_liveness, stack_liveness, successors
from .pipeline import PipeOp, Stage

STACK_SIZE = AddressSpace.STACK_SIZE


@dataclass
class PruningReport:
    enabled: bool
    total_live_reg_slots: int  # sum over stages of carried registers
    total_live_stack_bytes: int
    stages_with_stack: int
    reg_histogram: Dict[int, int]  # live-reg count -> number of stages


def apply_pruning(
    stages: List[Stage],
    enabled: bool = True,
    program: "Program" = None,
    labels: "ProgramLabels" = None,
    entry_ops: Sequence[PipeOp] = (),
) -> PruningReport:
    """Fill each stage's ``live_in_regs`` / ``live_in_stack``.

    With pruning disabled every stage carries all registers (R0-R9; R10 is
    a hardware constant) and the full stack — the naive design of §2.4.
    ``program``/``labels`` default to those reachable from the staged ops.
    """
    n = len(stages)
    if not enabled:
        all_regs = frozenset(range(isa.R0, isa.R10))  # R10 is wired, not latched
        full_stack = ((-STACK_SIZE, STACK_SIZE),)
        for stage in stages:
            stage.live_in_regs = all_regs
            stage.live_in_stack = full_stack
        return PruningReport(
            enabled=False,
            total_live_reg_slots=10 * n,
            total_live_stack_bytes=STACK_SIZE * n,
            stages_with_stack=n,
            reg_histogram={10: n},
        )

    if program is None or labels is None:
        raise ValueError("pruning requires the program and its labels")

    live_in_cfg, _ = reg_liveness(program)
    stack_live_cfg = stack_liveness(program, labels)

    # Precise projection of CFG liveness onto stage boundaries: a value is
    # carried into stage b exactly when some instruction-level CFG edge
    # (i -> j) crosses the boundary (stage(i) < b <= stage(j)) and the
    # value is live-in at j. Every def-use range then contributes to every
    # boundary it spans, and nothing else.
    stage_of: Dict[int, int] = {}
    for stage in stages:
        for op in stage.ops:
            stage_of[op.insn_index] = stage.number
    succs = successors(program)
    carried_regs: List[Set[int]] = [set() for _ in range(n)]
    carried_stack: List[Set[int]] = [set() for _ in range(n)]

    def project(src_stage: int, dst_index: int) -> None:
        dst_stage = stage_of.get(dst_index)
        if dst_stage is None:
            return
        regs = live_in_cfg[dst_index] - {isa.R10}
        stack_bytes = stack_live_cfg[dst_index]
        for b in range(src_stage + 1, dst_stage + 1):
            carried_regs[b - 1] |= regs
            carried_stack[b - 1] |= stack_bytes

    entry_indices = {op.insn_index for op in entry_ops}
    first_scheduled = min(stage_of, default=None)
    if first_scheduled is not None:
        project(0, first_scheduled)
    for i, insn in enumerate(program.instructions):
        src_stage = 0 if i in entry_indices else stage_of.get(i)
        if src_stage is None:
            continue
        for j in succs[i]:
            project(src_stage, j)

    defined: Set[int] = {isa.R1}
    for op in entry_ops:
        defined |= set(op.insn.regs_written())
    stack_defined: Set[int] = set()
    for s in range(n):
        carried_regs[s] &= defined
        carried_stack[s] &= stack_defined
        for op in stages[s].ops:
            defined |= set(op.insn.regs_written())
            _gen, kill = _stack_effects(op.insn_index, op.insn, labels)
            stack_defined |= kill
            # An unknown-offset store may define any byte: treat the whole
            # stack as written so later reads are carried.
            label = op.label
            if (
                label is not None
                and label.region.value == "stack"
                and (label.is_write or label.is_atomic)
                and label.offset is None
            ):
                stack_defined |= set(range(-STACK_SIZE, 0))

    hist: Dict[int, int] = {}
    total_regs = 0
    total_stack = 0
    stages_with_stack = 0
    for s, stage in enumerate(stages):
        stage.live_in_regs = frozenset(carried_regs[s])
        ranges = _ranges(sorted(carried_stack[s]))
        stage.live_in_stack = tuple(ranges)
        total_regs += len(stage.live_in_regs)
        stack_bytes = sum(size for _, size in ranges)
        total_stack += stack_bytes
        if stack_bytes:
            stages_with_stack += 1
        hist[len(stage.live_in_regs)] = hist.get(len(stage.live_in_regs), 0) + 1
    return PruningReport(True, total_regs, total_stack, stages_with_stack, hist)


def _ranges(sorted_bytes: Sequence[int]) -> List[Tuple[int, int]]:
    """Compress a sorted byte list into (offset, size) ranges."""
    out: List[Tuple[int, int]] = []
    start = prev = None
    for b in sorted_bytes:
        if start is None:
            start = prev = b
        elif b == prev + 1:
            prev = b
        else:
            out.append((start, prev - start + 1))
            start = prev = b
    if start is not None:
        out.append((start, prev - start + 1))
    return out
