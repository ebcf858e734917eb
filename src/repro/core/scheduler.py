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
More rules keep a shared row sound. Its map atomics are all on one map:
a stage has one atomic port, which exclusive blocks' atomics on that map
share, each driving it under its own enable bit. An op other packets
observe — a map access, the clock, the PRNG — lands no earlier than the
last row placed before it with such an op of another *ordering domain*.
A serialised map (``MapSpec.serialised``) is a domain of its own, and
every other such op shares one domain. So those ops keep the paper layout's block order,
and the hazard plan sees no cross-packet interleaving the paper layout
does not have (without it, an insert on a miss arm can overtake the hit
arm's flush-checked stores, and a squashed packet then replays its
committed insert) — except that ops on one serialised map may skip over
one another: its window admits one packet at a time, which orders them
across packets wherever they sit. Last, a serialised map's window should
open in one row: when the path-first accesses (no ancestor block touches
the map) land on different rows, the blocks are placed again with each
of them floored at the latest, kept if no window widens and the
pipeline does not deepen.

Because eHDL generates hardware per-program, a row can be arbitrarily wide
— "the degree of parallelism can grow and shrink in each pipeline's
stage" — which is where Table 5's max-ILP numbers come from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..ebpf import isa
from ..ebpf.helpers import ORDER_SENSITIVE_HELPERS, helper_spec
from ..ebpf.isa import Instruction, Program
from .cfg import Cfg, reachable_blocks
from .ddg import RAW, WAR, Ddg
from .labeling import ProgramLabels, Region

if TYPE_CHECKING:
    from .compiler import CompileOptions

# Ops per fused combinational chain (§3.2 footnote 1: keeps Fmax).
MAX_FUSE_CHAIN = 2


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


def _ordering_domains(
    program: Program, labels: ProgramLabels, indices: Sequence[int],
) -> Dict[int, Optional[int]]:
    """Per op that touches state other packets observe — a map (channel
    call or value access), an order-sensitive helper's clock or PRNG —
    its ordering domain: the fd of a serialised map, or ``None`` for every
    other such op. Ops other packets cannot observe are absent."""
    domains: Dict[int, Optional[int]] = {}
    for index in indices:
        insn = program.instructions[index]
        if insn.is_call:
            if not (helper_spec(insn.imm).map_channel
                    or insn.imm in ORDER_SENSITIVE_HELPERS):
                continue
            info = labels.call_for(index)
            fd = info.map_fd if info is not None else None
        elif insn.is_mem_load or insn.is_mem_store or insn.is_atomic:
            label = labels.label_for(index)
            if label is not None and label.region is not Region.MAP_VALUE:
                continue
            fd = label.map_fd if label is not None else None
        else:
            continue
        spec = program.maps.get(fd)
        domains[index] = fd if spec is not None and spec.serialised else None
    return domains


def _is_fusible(insn: Instruction) -> bool:
    """Ops that may be fused as a dependent continuation within a row:
    simple ALU/mov operations (the three-operand fusion of §3.2) — their
    combinational depth is small enough to chain in one clock cycle."""
    return insn.is_alu and insn.op != isa.BPF_END


# Each reachable block's id and list schedule, in topological order.
_BlockRows = List[Tuple[int, List[ScheduleRow]]]


def schedule_program(
    cfg: Cfg,
    ddg: Ddg,
    labels: ProgramLabels,
    options: CompileOptions,
    excluded: Optional[Set[int]] = None,
) -> Schedule:
    """List-schedule each reachable basic block and place the block
    schedules in topo order: concatenated, or ASAP with exclusive blocks
    sharing rows (``options.path_parallel``).

    ``excluded`` instructions (e.g. ctx loads realised at packet injection)
    are not scheduled; dependencies on them count as already satisfied.
    """
    excluded = excluded or set()
    program = cfg.program
    reachable = reachable_blocks(cfg)
    blocks: _BlockRows = [
        (block.block_id, _schedule_block(
            program, ddg,
            [i for i in block.indices() if i not in excluded], options))
        for block in cfg.blocks_in_topo_order() if block.block_id in reachable
    ]
    if not (options.path_parallel and options.enable_ilp):
        return _with_latency(
            program, [row for _b, block_rows in blocks for row in block_rows])

    domains = _ordering_domains(
        program, labels,
        [i for _b, block_rows in blocks for row in block_rows for i in row.ops])
    atomic_fds = {}  # map atomic -> its map's fd (unlabeled: a key of its own)
    for i in domains:
        if program.instructions[i].is_atomic:
            fd = getattr(labels.label_for(i), "map_fd", None)
            atomic_fds[i] = -1 - i if fd is None else fd
    related, ancestors = _block_relations(cfg, reachable)
    rows, placed = _place(cfg, blocks, related, domains, atomic_fds,
                          options, {})
    schedule = _with_latency(program, rows)
    floors = _aligned_entry_floors(blocks, ancestors, domains, placed)
    if floors:
        aligned = _with_latency(program, _place(
            cfg, blocks, related, domains, atomic_fds, options, floors)[0])
        serialised = {fd for fd in domains.values() if fd is not None}
        if aligned.n_stages <= schedule.n_stages and all(
            _window_width(aligned, fd, domains)
            <= _window_width(schedule, fd, domains) for fd in serialised
        ):
            schedule = aligned
    return schedule


def _place(
    cfg: Cfg,
    blocks: _BlockRows,
    related: Dict[int, int],
    domains: Dict[int, Optional[int]],
    atomic_fds: Dict[int, int],
    options: CompileOptions,
    floors: Dict[Tuple[int, int], int],
) -> Tuple[List[ScheduleRow], Dict[Tuple[int, int], int]]:
    """Place the block schedules ASAP (the module docstring's rules).
    ``floors`` gives a least row to some (block, row-in-block) pairs.
    Returns the rows and the row each (block, row-in-block) landed on."""
    rows: List[ScheduleRow] = []
    row_blocks: List[int] = []  # per row: bitmask of its blocks
    row_atomic: List[Optional[int]] = []  # per row: its map atomics' fd
    end: Dict[int, int] = {}  # block id -> first row after its last
    last: Dict[Optional[int], int] = {}  # domain -> last row with its ops
    placed: Dict[Tuple[int, int], int] = {}
    for b, block_rows in blocks:
        pos = max((end[p] for p in cfg.blocks[b].preds if p in end),
                  default=0)
        for k, row in enumerate(block_rows):
            own = {domains[i] for i in row.ops if i in domains}
            # a map atomic drives the stage's one atomic port, on its map
            atomic = next((atomic_fds[i] for i in row.ops
                           if i in atomic_fds), None)
            if own:
                # an op on a serialised map skips only that map's earlier
                # ops; any other shared op lands after every earlier one
                pos = max([pos, floors.get((b, k), 0)] + [
                    at for d, at in last.items() if None in own or own != {d}
                ])
            while pos < len(rows) and (
                row_blocks[pos] & related[b]
                or (atomic is not None
                    and row_atomic[pos] not in (None, atomic))
                or (options.max_row_width is not None
                    and rows[pos].width + row.width > options.max_row_width)
            ):
                pos += 1
            while pos >= len(rows):  # a floor may leave rows empty
                rows.append(ScheduleRow())
                row_blocks.append(0)
                row_atomic.append(None)
            target = rows[pos]
            target.ops = sorted(target.ops + row.ops)
            target.fused |= row.fused
            row_blocks[pos] |= 1 << b
            if atomic is not None:
                row_atomic[pos] = atomic
            for d in own:
                last[d] = max(last.get(d, pos), pos)
            placed[(b, k)] = pos
            pos += 1
        end[b] = pos
    return rows, placed


def _aligned_entry_floors(
    blocks: _BlockRows,
    ancestors: Dict[int, int],
    domains: Dict[int, Optional[int]],
    placed: Dict[Tuple[int, int], int],
) -> Dict[Tuple[int, int], int]:
    """Floors that align each serialised map's path-first accesses — the
    first access in each block with no ancestor block touching the map —
    on the latest row one of them landed on, so the map's window opens
    in one row. Empty when every map's path-first accesses share a row."""
    first: Dict[int, Dict[int, int]] = {}  # fd -> block -> row-in-block
    for b, block_rows in blocks:
        for k, row in enumerate(block_rows):
            for i in row.ops:
                if domains.get(i) is not None:
                    first.setdefault(domains[i], {}).setdefault(b, k)
    floors: Dict[Tuple[int, int], int] = {}
    for by_block in first.values():
        touching = sum(1 << b for b in by_block)
        entries = [(b, k) for b, k in by_block.items()
                   if not ancestors[b] & touching]
        landed = {placed[entry] for entry in entries}
        if len(landed) > 1:
            floors.update(dict.fromkeys(entries, max(landed)))
    return floors


def _window_width(
    schedule: Schedule, fd: int, domains: Dict[int, Optional[int]],
) -> int:
    """Stages from the first to the last stage touching map ``fd``."""
    touching: List[int] = []
    stage = 0
    for pos, row in enumerate(schedule.rows):
        if any(domains.get(i) == fd for i in row.ops):
            touching.append(stage)
        stage += 1 + schedule.extra_latency.get(pos, 0)
    return touching[-1] - touching[0] + 1


def _with_latency(program: Program, rows: List[ScheduleRow]) -> Schedule:
    extra_latency = {
        pos: latency for pos, row in enumerate(rows)
        if (latency := _row_extra_latency(program, row))
    }
    return Schedule(program, rows, extra_latency)


def _block_relations(
    cfg: Cfg, reachable: Set[int],
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Per reachable block, two bitmasks: the blocks it may not share a
    row with — itself, its ancestors and its descendants; in a DAG every
    other block is exclusive with it, no path runs through both — and
    its ancestors alone."""
    order = [b for b in cfg.topo_order if b in reachable]
    below = {b: 1 << b for b in order}
    for b in reversed(order):
        for succ, _kind in cfg.blocks[b].succs:
            below[b] |= below[succ]
    above = {b: 1 << b for b in order}
    for b in order:
        for succ, _kind in cfg.blocks[b].succs:
            above[succ] |= above[b]
    related = {b: below[b] | above[b] for b in order}
    return related, {b: above[b] & ~(1 << b) for b in order}


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
    options: CompileOptions,
) -> List[ScheduleRow]:
    """Greedy list scheduling of one block (see :class:`RowPacker`).

    The block terminator (branch/exit) is placed last: its side effect —
    choosing successors or latching the verdict — must not precede any
    of the block's other (program-order earlier) operations.
    """
    if not indices:
        return []
    in_block = set(indices)

    def deps(index: int) -> Dict[int, str]:
        return {d: k for d, k in ddg.predecessors(index).items()
                if d in in_block}

    packer = RowPacker(program.instructions, options)
    terminator: Optional[int] = None
    if program.instructions[indices[-1]].is_terminator:
        terminator = indices[-1]
        indices = indices[:-1]
    for index in indices:  # program order guarantees deps seen first
        packer.add(index, deps(index))
    if terminator is not None:
        packer.add_terminator(terminator, deps(terminator))
    for row in packer.rows:
        row.ops.sort()  # program order within the row (simulator relies on it)
    return packer.rows


class RowPacker:
    """Greedy list scheduling of one block, one op at a time in program
    order: an op lands on the earliest row after its in-block
    dependencies, or (with fusion) on its latest dependency's row as a
    short combinational chain. Helper calls and atomics own a fresh row.
    ``insns`` maps an op's key to its instruction."""

    def __init__(self, insns, options: CompileOptions) -> None:
        self.insns = insns
        self.options = options
        self.rows: List[ScheduleRow] = []
        self.placed_row: Dict[int, int] = {}  # op -> row position
        self.chain_len: Dict[int, int] = {}  # op -> fused chain length

    def slot(self, index: int, deps: Dict[int, str]) -> Tuple[int, int]:
        """Where :meth:`add` would put an op: (row position, length of
        its fused chain, 1 when not fused); a position of ``len(rows)``
        is a fresh row."""
        options, rows = self.options, self.rows
        insn = self.insns[index]
        min_row = self._min_row(deps)
        hard_deps = [d for d, k in deps.items() if k != WAR]
        if options.enable_fusion and hard_deps and _is_fusible(insn):
            # Can this op chain combinationally onto its latest RAW
            # dependency's row (three-operand fusion)?
            last_dep = max(hard_deps, key=lambda d: self.placed_row[d])
            d_row = self.placed_row[last_dep]
            others_ok = all(
                self.placed_row[d] < d_row for d in hard_deps if d != last_dep
            ) and all(
                self.placed_row[d] <= d_row for d, k in deps.items()
                if k == WAR
            )
            if (
                others_ok
                and deps[last_dep] == RAW
                and _is_fusible(self.insns[last_dep])
                and self.chain_len[last_dep] < MAX_FUSE_CHAIN
                and (
                    options.max_row_width is None
                    or rows[d_row].width < options.max_row_width
                )
            ):
                return d_row, self.chain_len[last_dep] + 1
        if not options.enable_ilp:
            min_row = len(rows)
        if not _is_solo(insn):  # a solo op always takes a fresh row
            for pos in range(min_row, len(rows)):
                if any(_is_solo(self.insns[i]) for i in rows[pos].ops):
                    continue
                if (
                    options.max_row_width is not None
                    and rows[pos].width >= options.max_row_width
                ):
                    continue
                return pos, 1
        return len(rows), 1

    def add(self, index: int, deps: Dict[int, str]) -> int:
        """Place an op; returns its row position."""
        pos, chain = self.slot(index, deps)
        if pos == len(self.rows):
            self.rows.append(ScheduleRow())
        self.rows[pos].ops.append(index)
        if chain > 1:
            self.rows[pos].fused.add(index)
        self.placed_row[index] = pos
        self.chain_len[index] = chain
        return pos

    def terminator_row(self, deps: Dict[int, str]) -> int:
        """The row the block's terminator lands on: the last row when its
        dependencies allow and the row has room, else a fresh one."""
        rows, options = self.rows, self.options
        last = len(rows) - 1
        if (
            rows
            and options.enable_ilp
            and self._min_row(deps) <= last
            and not any(_is_solo(self.insns[i]) for i in rows[last].ops)
            and (
                options.max_row_width is None
                or rows[last].width < options.max_row_width
            )
        ):
            return last
        return len(rows)

    def add_terminator(self, index: int, deps: Dict[int, str]) -> None:
        pos = self.terminator_row(deps)
        if pos == len(self.rows):
            self.rows.append(ScheduleRow())
        self.rows[pos].ops.append(index)

    def _min_row(self, deps: Dict[int, str]) -> int:
        min_row = 0
        for d, kind in deps.items():
            # WAR may share the predecessor's row (reads latch the previous
            # stage's values); RAW/WAW must come strictly later.
            d_row = self.placed_row[d]
            min_row = max(min_row, d_row if kind == WAR else d_row + 1)
        return min_row
