"""Instruction parallelization (§3.3) and fusion (§3.2).

Turns the labeled, dependency-analysed program into a *schedule*: an
ordered list of rows, one row per future pipeline stage. Each reachable
basic block is list-scheduled on its own ("two instructions can be
executed in parallel if they belong to the same control block"):

* instructions in one of its rows are mutually independent, **except**
  for short dependent chains admitted by instruction fusion
  (three-operand ALU fusion, load+ALU fusion) — the chain executes
  combinationally within the stage,
* helper calls and atomics own a row of their block (their hardware
  blocks have their own timing), and the terminator sits in its last.

The block schedules are then placed, so the pipeline is strictly
forward-feeding (§3.5). The paper's layout (``path_parallel=False``)
concatenates them in CFG topological order, one block per row. The
default path-parallel layout places each block ASAP instead: it starts
on the first row after every predecessor's last, and each of its rows
lands on the earliest row whose other occupants are all *exclusive*
with it — blocks it cannot reach and that cannot reach it, which no
packet executes together. Every op is gated by its own block's enable
bit, so exclusive arms of a branch share stages (HLS if-conversion) and
pipeline depth follows the longest path instead of the sum of blocks.
Two more rules keep a shared row sound: it holds at most one map atomic
(one atomic port per stage), and a row with an op other packets observe
— a map access, the clock, the PRNG — lands no earlier than the last
such row placed before it. Those ops therefore keep the paper layout's
block order, and the hazard plan sees no cross-packet interleaving the
paper layout does not have (without it, an insert on a miss arm can
overtake the hit arm's flush-checked stores, and a squashed packet then
replays its committed insert).

Because eHDL generates hardware per-program, a row can be arbitrarily wide
— "the degree of parallelism can grow and shrink in each pipeline's
stage" — which is where Table 5's max-ILP numbers come from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ebpf import isa
from ..ebpf.helpers import ORDER_SENSITIVE_HELPERS, helper_spec
from ..ebpf.isa import Instruction, Program
from .cfg import Cfg, reachable_blocks
from .ddg import Ddg
from .labeling import ProgramLabels, Region


@dataclass
class ScheduleRow:
    """One pipeline stage's worth of instructions (indices into the
    program, kept in program order), of one block or of several mutually
    exclusive ones. ``fused`` marks instructions that are dependent
    continuations fused into the same hardware primitive as an earlier
    op in the row."""

    ops: List[int] = field(default_factory=list)
    fused: Set[int] = field(default_factory=set)

    @property
    def width(self) -> int:
        return len(self.ops)


@dataclass
class Schedule:
    """The complete parallel schedule of a program."""

    program: Program
    rows: List[ScheduleRow]
    # Extra pipeline latency (in stages) charged after given rows, e.g.
    # pipelined helper blocks: row position -> extra stages.
    extra_latency: Dict[int, int] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_stages(self) -> int:
        return len(self.rows) + sum(self.extra_latency.values())

    @property
    def n_instructions(self) -> int:
        return sum(len(r.ops) for r in self.rows)

    @property
    def max_ilp(self) -> int:
        return max((r.width for r in self.rows), default=0)

    @property
    def avg_ilp(self) -> float:
        if not self.rows:
            return 0.0
        return self.n_instructions / len(self.rows)

    def row_of(self, insn_index: int) -> int:
        for pos, row in enumerate(self.rows):
            if insn_index in row.ops:
                return pos
        raise KeyError(f"instruction {insn_index} not scheduled")


# Instruction categories that must not share a row with anything else:
# their hardware blocks own the stage.

def _is_solo(insn: Instruction) -> bool:
    return insn.is_call or insn.is_atomic


def _is_shared(insn: Instruction, labels: ProgramLabels, index: int) -> bool:
    """Touches state other packets observe: a map (channel call or value
    access) or an order-sensitive helper's clock or PRNG."""
    if insn.is_call:
        return (helper_spec(insn.imm).map_channel
                or insn.imm in ORDER_SENSITIVE_HELPERS)
    if not (insn.is_mem_load or insn.is_mem_store or insn.is_atomic):
        return False
    label = labels.label_for(index)
    return label is None or label.region is Region.MAP_VALUE


def _is_fusible(insn: Instruction) -> bool:
    """Ops that may be fused as a dependent continuation within a row:
    simple ALU/mov operations (the three-operand fusion of §3.2) — their
    combinational depth is small enough to chain in one clock cycle."""
    return insn.is_alu and insn.op != isa.BPF_END


@dataclass
class SchedulerOptions:
    enable_ilp: bool = True
    enable_fusion: bool = True
    max_fuse_chain: int = 2  # ops per combinational chain (footnote 1: keep Fmax)
    max_row_width: Optional[int] = None  # None = unbounded (eHDL); 2 = hXDP-like
    # Exclusive blocks share rows (the module docstring); False is the
    # paper's one-block-per-row concatenation. Needs enable_ilp.
    path_parallel: bool = True


def schedule_program(
    cfg: Cfg,
    ddg: Ddg,
    labels: ProgramLabels,
    options: Optional[SchedulerOptions] = None,
    excluded: Optional[Set[int]] = None,
) -> Schedule:
    """List-schedule each reachable basic block and place the block
    schedules in topo order: concatenated, or ASAP with exclusive blocks
    sharing rows (``options.path_parallel``).

    ``excluded`` instructions (e.g. ctx loads realised at packet injection)
    are not scheduled; dependencies on them count as already satisfied.
    """
    options = options or SchedulerOptions()
    excluded = excluded or set()
    program = cfg.program
    reachable = reachable_blocks(cfg)
    share = options.path_parallel and options.enable_ilp
    related = _related_blocks(cfg, reachable) if share else {}
    rows: List[ScheduleRow] = []
    row_blocks: List[int] = []  # per row: bitmask of its blocks
    row_atomic: List[bool] = []  # per row: holds a map atomic
    end: Dict[int, int] = {}  # block id -> first row after its last
    shared_floor = 0  # the last row holding a shared-state op

    for block in cfg.blocks_in_topo_order():
        b = block.block_id
        if b not in reachable:
            continue
        indices = [i for i in block.indices() if i not in excluded]
        pos = len(rows)
        if share:
            pos = max((end[p] for p in block.preds if p in end), default=0)
        for row in _schedule_block(program, ddg, indices, options):
            shared_ops = [program.instructions[i] for i in row.ops
                          if _is_shared(program.instructions[i], labels, i)]
            shared = bool(shared_ops)
            # a map atomic drives the stage's one atomic port
            atomic = any(insn.is_atomic for insn in shared_ops)
            if shared:
                pos = max(pos, shared_floor)
            while pos < len(rows) and (
                row_blocks[pos] & related[b]
                or (atomic and row_atomic[pos])
                or (options.max_row_width is not None
                    and rows[pos].width + row.width > options.max_row_width)
            ):
                pos += 1
            if pos == len(rows):
                rows.append(ScheduleRow())
                row_blocks.append(0)
                row_atomic.append(False)
            target = rows[pos]
            target.ops = sorted(target.ops + row.ops)
            target.fused |= row.fused
            row_blocks[pos] |= 1 << b
            row_atomic[pos] = row_atomic[pos] or atomic
            if shared:
                shared_floor = pos
            pos += 1
        end[b] = pos
    extra_latency = {
        pos: latency for pos, row in enumerate(rows)
        if (latency := _row_extra_latency(program, row))
    }
    return Schedule(program, rows, extra_latency)


def _related_blocks(cfg: Cfg, reachable: Set[int]) -> Dict[int, int]:
    """Per reachable block, the bitmask of blocks it may not share a row
    with: itself, its ancestors and its descendants. In a DAG every
    other block is exclusive with it — no path runs through both."""
    order = [b for b in cfg.topo_order if b in reachable]
    below = {b: 1 << b for b in order}
    for b in reversed(order):
        for succ, _kind in cfg.blocks[b].succs:
            below[b] |= below[succ]
    above = {b: 1 << b for b in order}
    for b in order:
        for succ, _kind in cfg.blocks[b].succs:
            above[succ] |= above[b]
    return {b: below[b] | above[b] for b in order}


def _row_extra_latency(program: Program, row: ScheduleRow) -> int:
    """Pipelined helper blocks occupy extra stages after their row."""
    latency = 0
    for index in row.ops:
        insn = program.instructions[index]
        if insn.is_call:
            latency = max(latency, helper_spec(insn.imm).hw_stages - 1)
    return latency


def _schedule_block(
    program: Program,
    ddg: Ddg,
    indices: List[int],
    options: SchedulerOptions,
) -> List[ScheduleRow]:
    """Greedy list scheduling of one block.

    Maintains the invariant that ops are assigned to rows in program
    order; a row accepts an op if all of its in-block dependencies are in
    earlier rows, or (with fusion) form a short chain within the row.
    """
    if not indices:
        return []
    in_block = set(indices)
    placed_row: Dict[int, int] = {}  # insn index -> row position
    chain_len: Dict[int, int] = {}  # insn index -> fused chain length in its row
    rows: List[ScheduleRow] = []

    from .ddg import RAW, WAR

    # The block terminator (branch/exit) is placed last: its side effect —
    # choosing successors or latching the verdict — must not precede any
    # of the block's other (program-order earlier) operations.
    terminator: Optional[int] = None
    if program.instructions[indices[-1]].is_terminator:
        terminator = indices[-1]
        indices = indices[:-1]

    for index in indices:  # program order guarantees deps seen first
        insn = program.instructions[index]
        deps = {d: k for d, k in ddg.predecessors(index).items() if d in in_block}
        min_row = 0
        for d, kind in deps.items():
            d_row = placed_row[d]
            # WAR may share the predecessor's row (reads latch the previous
            # stage's values); RAW/WAW must come strictly later.
            min_row = max(min_row, d_row if kind == WAR else d_row + 1)
        hard_deps = [d for d, k in deps.items() if k != WAR]
        if options.enable_fusion and hard_deps and _is_fusible(insn):
            # Can this op chain combinationally onto its latest RAW
            # dependency's row (three-operand fusion)?
            last_dep = max(hard_deps, key=lambda d: placed_row[d])
            d_row = placed_row[last_dep]
            others_ok = all(
                placed_row[d] < d_row for d in hard_deps if d != last_dep
            ) and all(
                placed_row[d] <= d_row for d, k in deps.items() if k == WAR
            )
            dep_insn = program.instructions[last_dep]
            if (
                others_ok
                and deps[last_dep] == RAW
                and _is_fusible(dep_insn)
                and chain_len[last_dep] < options.max_fuse_chain
                and (
                    options.max_row_width is None
                    or rows[d_row].width < options.max_row_width
                )
            ):
                rows[d_row].ops.append(index)
                rows[d_row].fused.add(index)
                placed_row[index] = d_row
                chain_len[index] = chain_len[last_dep] + 1
                continue
        if not options.enable_ilp:
            min_row = len(rows)
        target: Optional[int] = None
        if _is_solo(insn):
            target = None  # always a fresh row
        else:
            for pos in range(min_row, len(rows)):
                row = rows[pos]
                if any(_is_solo(program.instructions[i]) for i in row.ops):
                    continue
                if (
                    options.max_row_width is not None
                    and row.width >= options.max_row_width
                ):
                    continue
                target = pos
                break
        if target is None:
            rows.append(ScheduleRow())
            target = len(rows) - 1
        rows[target].ops.append(index)
        placed_row[index] = target
        chain_len[index] = 1

    if terminator is not None:
        deps = {d: k for d, k in ddg.predecessors(terminator).items() if d in in_block}
        min_row = 0
        for d, kind in deps.items():
            d_row = placed_row[d]
            min_row = max(min_row, d_row if kind == WAR else d_row + 1)
        last = len(rows) - 1
        if (
            rows
            and options.enable_ilp
            and min_row <= last
            and not any(_is_solo(program.instructions[i]) for i in rows[last].ops)
            and (
                options.max_row_width is None
                or rows[last].width < options.max_row_width
            )
        ):
            rows[last].ops.append(terminator)
        else:
            rows.append(ScheduleRow(ops=[terminator]))

    for row in rows:
        row.ops.sort()  # program order within the row (simulator relies on it)
    return rows
