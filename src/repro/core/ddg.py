"""Data-dependency graph.

Second analysis of §3.1: for every pair of instructions determine whether
one must execute before the other. Register dependencies (RAW/WAR/WAW) use
the ISA's read/write sets refined with per-helper argument counts; memory
dependencies use the labeling pass — two accesses conflict only if their
regions may alias and at least one writes, so a stack store at ``r10-4``
never serialises against a packet load, and accesses to *different maps*
are independent (each map has "its own dedicated address space", §3.1).

The scheduler consumes the within-block edges; Table 5's ILP numbers fall
out of the schedule this graph permits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ebpf.helpers import helper_spec
from ..ebpf.isa import Instruction, Program
from .cfg import Cfg
from .labeling import CallInfo, MemLabel, ProgramLabels, Region
from .liveness import _mask, program_facts, regs_read


@dataclass(frozen=True)
class MemRef:
    """One abstract memory effect of an instruction."""

    region: Region
    write: bool
    map_fd: Optional[int] = None
    offset: Optional[int] = None  # None = dynamic/unknown
    size: Optional[int] = None  # None = whole region

    def conflicts(self, other: "MemRef") -> bool:
        if self.region is not other.region:
            return False
        if self.region is Region.MAP_VALUE and self.map_fd != other.map_fd:
            return False
        if not (self.write or other.write):
            return False
        if (
            self.offset is not None
            and other.offset is not None
            and self.size is not None
            and other.size is not None
        ):
            return not (
                self.offset + self.size <= other.offset
                or other.offset + other.size <= self.offset
            )
        return True  # unknown extent: assume aliasing


def _mem_refs(
    insn: Instruction, label: Optional[MemLabel], call: Optional[CallInfo]
) -> List[MemRef]:
    refs: List[MemRef] = []
    if label is not None:
        write = label.is_write or label.is_atomic
        refs.append(
            MemRef(label.region, write, label.map_fd, label.offset, label.size)
        )
        if label.is_atomic:
            # read-modify-write: also a read of the same location
            refs.append(
                MemRef(label.region, False, label.map_fd, label.offset, label.size)
            )
    if call is not None:
        spec = helper_spec(call.helper_id)
        if spec.reads_stack:
            if call.key_stack_offset is not None and call.key_size:
                refs.append(
                    MemRef(
                        Region.STACK, False, offset=call.key_stack_offset,
                        size=call.key_size,
                    )
                )
            else:
                refs.append(MemRef(Region.STACK, False))
        if spec.reads_packet:
            refs.append(MemRef(Region.PACKET, False))
        if spec.writes_packet:
            refs.append(MemRef(Region.PACKET, True))
        if call.map_fd is not None:
            if call.is_map_read:
                refs.append(MemRef(Region.MAP_VALUE, False, map_fd=call.map_fd))
            if call.is_map_write:
                refs.append(MemRef(Region.MAP_VALUE, True, map_fd=call.map_fd))
    return refs


# Dependence kinds. RAW and WAW force the dependent op into a later
# pipeline stage; WAR only forbids an *earlier* stage — in a hardware
# pipeline a stage's reads come from the previous stage's latches, so a
# read and a write of the same location can share a stage (Figure 8 shows
# the paper exploiting this).
RAW = "raw"
WAW = "waw"
WAR = "war"

_STRENGTH = {RAW: 3, WAW: 2, WAR: 1}


@dataclass
class Ddg:
    """Dependency edges: ``deps[j]`` maps each index j must respect to the
    strongest dependence kind between them."""

    program: Program
    labels: ProgramLabels
    deps: Dict[int, Dict[int, str]] = field(default_factory=dict)

    def predecessors(self, j: int) -> Dict[int, str]:
        return self.deps.get(j, {})


@dataclass(frozen=True)
class Access:
    """What one instruction reads and writes: registers (bit r is
    register r), and memory as :class:`MemRef` effects."""

    reads: int
    writes: int
    mem: Tuple[MemRef, ...]


def access_of(
    insn: Instruction, label: Optional[MemLabel], call: Optional[CallInfo]
) -> Access:
    return Access(_mask(regs_read(insn)), _mask(insn.regs_written()),
                  tuple(_mem_refs(insn, label, call)))


def dependences(
    access: Access, earlier: Sequence[Tuple[int, Access]]
) -> Dict[int, str]:
    """The strongest dependence kind of an op on each ``(index, access)``
    that precedes it in its block."""
    deps: Dict[int, str] = {}
    for i, prior in earlier:
        if prior.writes & access.reads:
            kind: Optional[str] = RAW
        elif prior.writes & access.writes:
            kind = WAW
        elif prior.reads & access.writes:
            kind = WAR
        else:
            kind = None
        for ref_i in prior.mem:
            for ref_j in access.mem:
                if kind == RAW or not ref_i.conflicts(ref_j):
                    continue
                if ref_i.write and ref_j.write:
                    found = WAW
                elif ref_i.write:
                    found = RAW
                else:
                    found = WAR
                if kind is None or _STRENGTH[found] > _STRENGTH[kind]:
                    kind = found
        if kind is not None:
            deps[i] = kind
    return deps


def build_ddg(cfg: Cfg, labels: ProgramLabels) -> Ddg:
    """Build within-block dependency edges for every basic block."""
    program = cfg.program
    ddg = Ddg(program, labels, {i: {} for i in range(len(program.instructions))})

    facts = program_facts(program)
    for block in cfg.blocks:
        earlier: List[Tuple[int, Access]] = []
        for j in block.indices():
            access = Access(facts.reads[j], facts.writes[j], tuple(_mem_refs(
                program.instructions[j], labels.label_for(j),
                labels.call_for(j))))
            ddg.deps[j] = dependences(access, earlier)
            earlier.append((j, access))
    return ddg


def critical_path_length(ddg: Ddg, indices: Sequence[int]) -> int:
    """Length (in dependence levels) of the longest chain within ``indices``.

    This is the minimum number of pipeline stages the block needs, i.e.
    the block's schedule height under unbounded parallelism.
    """
    depth: Dict[int, int] = {}
    for j in indices:  # indices are in program order
        level = 1
        for i, kind in ddg.predecessors(j).items():
            if i not in depth:
                continue
            # WAR allows sharing a stage with the predecessor; RAW/WAW
            # push the op at least one level deeper.
            level = max(level, depth[i] + (0 if kind == WAR else 1))
        depth[j] = level
    return max(depth.values(), default=0)
