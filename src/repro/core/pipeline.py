"""Pipeline intermediate representation.

The compiler's output: a sequence of :class:`Stage` objects, each holding
the (possibly fused) instructions that execute in one clock cycle, plus
the per-stage carried state (after pruning), the packet-framing plan and
the per-map hazard machinery. This IR is consumed by three backends:

* :mod:`repro.hwsim` — cycle-level simulation,
* :mod:`repro.core.vhdl` — VHDL text generation,
* :mod:`repro.core.resources` — LUT/FF/BRAM estimation.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from typing import (Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
                    Union)

from ..ebpf import isa
from ..ebpf.helpers import helper_spec
from ..ebpf.isa import Instruction, Program
from ..ebpf.maps import bank_of
from ..ebpf.xdp import AddressSpace
from .cfg import Cfg
from .ddg import Ddg
from .labeling import CallInfo, MemLabel, ProgramLabels, Region
from .scheduler import Schedule, ScheduleRow


class StageKind(enum.Enum):
    OPS = "ops"  # executes instructions
    HELPER_LATENCY = "helper_latency"  # pipelined helper block internals
    NOP_FRAMING = "nop_framing"  # synthetic stage waiting for a packet frame


@dataclass
class PipeOp:
    """One instruction placed in a stage."""

    insn_index: int
    insn: Instruction
    block_id: int
    fused: bool = False
    label: Optional[MemLabel] = None
    call: Optional[CallInfo] = None

    @property
    def is_terminator(self) -> bool:
        return self.insn.is_terminator or self.insn.is_exit


@dataclass
class Stage:
    """One pipeline stage (one clock cycle of latency)."""

    number: int  # 1-based position, like Figure 8
    kind: StageKind
    # In program order; ops of mutually exclusive blocks may share a stage,
    # each gated by its own block's enable bit (PipeOp.block_id).
    ops: List[PipeOp] = field(default_factory=list)
    note: str = ""
    # State carried INTO this stage, filled by the pruning pass. Stack
    # liveness is byte ranges (offset, size) with negative offsets
    # relative to R10.
    live_in_regs: FrozenSet[int] = frozenset()
    live_in_stack: Tuple[Tuple[int, int], ...] = ()

    @property
    def width(self) -> int:
        return len(self.ops)

    def state_bytes(self, frame_size: int) -> int:
        """Per-stage state memory: one packet frame + live registers +
        live stack bytes (the paper's 88 B example for the toy pipeline)."""
        stack_bytes = sum(size for _, size in self.live_in_stack)
        return frame_size + 8 * len(self.live_in_regs) + stack_bytes


# The consistency classes, weakest last: what packets in flight together
# leave in a map, against sequential execution of the same packets.
EXACT = "exact"        # no other packet can observe it
WINDOWED = "windowed"  # one serialization window holds every access
REPAIRED = "repaired"  # WAR buffers and flush blocks make it exact
RELAXED = "relaxed"    # may differ (§4.1.2, Appendix A.2, helper writes)
CLASSES = (EXACT, WINDOWED, REPAIRED, RELAXED)
# The rules that relax a map (see ``hazards``): atomics interleave across
# packets, a flush replay repeats a committed effect, a helper write lands
# out of packet order.
ATOMICS, REPLAY, HELPER_WRITE = "4.1.2", "A.2", "helper write"


@dataclass(frozen=True)
class MapConsistency:
    """One map's consistency class: a relaxed one names the ``rule``
    that relaxes it and ``why`` it applies."""

    kind: str = EXACT
    rule: Optional[str] = None
    why: str = ""

    def __str__(self) -> str:
        return f"{self.kind}({self.why})" if self.why else self.kind


# Cycles lost reloading the pipeline after a flush (Appendix A.1: "K has
# an additional overhead of 4 clock cycles").
RELOAD_OVERHEAD = 4


@dataclass
class FlushBlock:
    """A Flush Evaluation Block (§4.1.2, Figure 7) guarding one RAW pair.

    ``read_stage``/``write_stage`` are 1-based stage numbers; ``L`` is the
    distance between them (the hazard window of Appendix A.1) and ``K``
    the cycles a flush costs, Eq. 2's K: the stages the cycle loop
    squashes when the packet right behind the writer is the victim,
    plus the :data:`RELOAD_OVERHEAD` the appendix charges. The writer
    commits as it enters ``write_stage``; shifting deepest first, the
    packet right behind it has not yet left ``write_stage - 2``, so
    stages 1 .. ``write_stage - 2`` restart. The one definition:
    ``repro stats`` prints it and ``analysis.flush_model`` reads it."""

    map_fd: int
    read_stage: int
    write_stage: int

    @property
    def L(self) -> int:
        return self.write_stage - self.read_stage

    def K(self) -> int:
        return self.write_stage - 2 + RELOAD_OVERHEAD


@dataclass(frozen=True)
class BankKey:
    """Where a packet's lane of a window is read: the map's key, ``size``
    bytes at ``offset`` from R10 on the packet's stack. A holder waits
    only for in-window holders of its own lane. A banked LRU map's lane
    is its bank, the key hashed into ``banks`` banks by the map's own
    :func:`~repro.ebpf.maps.bank_of`; a keyed window's (``banks`` 0, a
    plain hash map) is the key itself. ``hazards`` gives a window one
    only when every store to those bytes precedes the window, so the
    bytes a packet holds on entering it are the key it accesses the map
    with there."""

    map_fd: int
    offset: int
    size: int
    banks: int

    @property
    def keyed(self) -> bool:
        return not self.banks

    def of(self, stack):
        """The lane of the packet whose stack is ``stack`` (the
        ``STACK_SIZE``-byte buffer that R10 points past): its key bytes
        in a keyed window, else their bank."""
        start = AddressSpace.STACK_SIZE + self.offset
        key = stack[start:start + self.size]
        return bank_of(key, self.banks) if self.banks else bytes(key)


# When a forwarding window's holder frees its lane, as a decision over
# the block flags of its path: a stage offset from ``lo``, or
# ``(block, branch, then, otherwise)`` — ``then`` if the packet enabled
# ``block``, else ``otherwise``; ``branch`` is the set of successors of
# the block that decides the test (``Forwarding.release``).
Release = Union[int, Tuple[int, FrozenSet[int], "Release", "Release"]]


@dataclass(frozen=True)
class Forwarding:
    """A window's bypass (``hazards.forwarding``): a younger holder of a
    lane (a key, a bank, or the window's one lane) may enter ``lo`` once
    the lane's older holder sits at stage ``lo + release`` or deeper.
    Its last conflicting in-window write then lands in the cycle of the
    younger packet's first access that depends on it, ahead of that
    access (stages run deepest-first): in hardware a write-port →
    read-port bypass on the map's read data, or on an LRU lane's slot
    directory. The cycle loop evaluates ``release`` (:meth:`released`),
    the stream path renders it (``codegen._release_offset``); ``arms``
    names, per holder arm, its release and the access pair or decision
    that sets it."""

    release: Release
    arms: Tuple[str, ...]

    def released(self, enabled: Set[int], done: bool) -> float:
        """``release`` for an in-flight holder that has enabled
        ``enabled``. It has decided a test once it enabled a block of
        the test's ``branch``, or once it is ``done`` (a flag it never
        set reads False); an undecided test holds the lane."""
        release = self.release
        while not isinstance(release, int):
            block, branch, then, otherwise = release
            if block in enabled:
                release = then
            elif done or not branch.isdisjoint(enabled):
                release = otherwise
            else:
                return math.inf
        return release


# A map access's kinds (an atomic's op is its instruction's ``imm``), and
# the parts of a lane's entries it reads or writes: a slot in the lane's
# directory (a map call), a key's value (a load, a store, an atomic), or
# both (an update writes the value along with the slot).
CALL, LOAD, STORE, ATOMIC = "call", "load", "store", "atomic"
SLOT, VALUE = 1, 2


@dataclass(frozen=True)
class MapAccess:
    """One staged op's access to a map (``hazards.plan_hazards``). A
    call's lane parts are a keyed window's: a lookup reads its key's
    slot, an update or a delete writes slot and value."""

    stage: int
    op: PipeOp
    block: int
    map_fd: int
    kind: str
    reads: int
    writes: int


@dataclass
class MapHazardPlan:
    """All consistency machinery for one map (§4.1): its accesses in
    stage order (program order within a stage), the views of them, each
    computed once, and what ``hazards.plan_hazards`` decides."""

    map_fd: int
    accesses: Tuple[MapAccess, ...] = ()
    # The serialization window [lo, hi] (1-based, inclusive; ``None``:
    # none), its holder blocks, its lane key (``None``: one lane, and
    # ``unbanked`` names the rule that refused a split) and its bypass
    # (``None`` on a window that accesses another map too), as
    # ``hazards.plan_hazards`` decides them.
    serial_window: Optional[Tuple[int, int]] = None
    holders: FrozenSet[int] = frozenset()
    bank_key: Optional[BankKey] = None
    unbanked: str = ""
    forwarding: Optional[Forwarding] = None
    # Whether packets in flight together leave this map as sequential
    # execution would (see ``hazards.plan_hazards``).
    consistency: MapConsistency = MapConsistency()

    @cached_property
    def read_stages(self) -> List[int]:
        """The stages of its lookups and value loads."""
        return [a.stage for a in self.accesses
                if a.reads and a.kind != ATOMIC]

    @cached_property
    def write_stages(self) -> List[int]:
        """The stages of its helper writes and value stores."""
        return [a.stage for a in self.accesses
                if a.writes and a.kind != ATOMIC]

    @cached_property
    def atomic_stages(self) -> List[int]:
        """The stages of its atomics, once each."""
        return sorted({a.stage for a in self.accesses if a.kind == ATOMIC})

    @cached_property
    def store_stages(self) -> List[int]:
        return [a.stage for a in self.accesses if a.kind == STORE]

    @cached_property
    def value_stages(self) -> List[int]:
        """The stages that load, store or atomically update its values."""
        return sorted({a.stage for a in self.accesses if a.kind != CALL})

    @cached_property
    def touching(self) -> List[int]:
        """Every stage that accesses the map, ascending."""
        return sorted({a.stage for a in self.accesses})

    @cached_property
    def war_buffer_depth(self) -> int:
        """Write-delay registers (Figure 6): from the first write to the
        last read stage behind it (see ``hazards``)."""
        last_read = max(self.read_stages, default=0)
        early = [w for w in self.write_stages if w < last_read]
        return last_read - min(early) if early else 0

    @cached_property
    def flush_blocks(self) -> List[FlushBlock]:
        """One per write downstream of a read (Figure 7, ``hazards``)."""
        reads = self.read_stages
        return [FlushBlock(self.map_fd, reads[0], w)
                for w in self.write_stages if reads and reads[0] < w]

    @cached_property
    def ports(self) -> Tuple[Optional[int], ...]:
        """Each access's port, in ``accesses`` order: ``None`` for the
        map's one atomic port, which every atomic shares, else channel
        ``k`` for the ``k``-th request of its block in its stage. Only
        pairwise-exclusive blocks share a stage (``scheduler``), so no
        packet drives one port twice in a stage."""
        nth = defaultdict(count)
        return tuple(None if a.kind == ATOMIC
                     else next(nth[a.stage, a.block])
                     for a in self.accesses)

    @property
    def channels(self) -> int:
        """Its read/write channels (at least one)."""
        return 1 + max((p for p in self.ports if p is not None), default=0)

    @property
    def uses_atomic(self) -> bool:
        """Whether it has an atomic port."""
        return None in self.ports

    @property
    def needs_flush(self) -> bool:
        return bool(self.flush_blocks)

    @property
    def squashes(self) -> bool:
        """Whether its flush blocks squash packets: all do but a keyed
        window's, whose key comparators stall a packet at the window's
        entrance instead."""
        return self.needs_flush and not (self.bank_key is not None
                                         and self.bank_key.keyed)


def commit_stages_of(plans: Dict[int, MapHazardPlan]) -> Dict[int, int]:
    """The WAR commit policy: a buffered value store to map ``fd``
    commits on entry to stage ``result[fd]``, past both the map's last
    read stage (older late readers must not see it, Figure 6) and the
    deepest flush-capable write stage of any map (a committed store
    cannot be unwound, so it waits until no Flush Evaluation Block can
    squash its packet)."""
    last_flush = max((max(plan.write_stages) for plan in plans.values()
                      if plan.needs_flush), default=0)
    return {fd: max(max(plan.read_stages, default=0), last_flush)
            for fd, plan in plans.items()}


@dataclass(frozen=True)
class Consistency:
    """The program-level verdict: the weakest class of its maps, and what
    a run with packets in flight together may differ on from sequential
    execution — ``"action"``, ``"packet bytes"``, ``"egress port"`` or
    ``"map <name>"``, the differential oracle's observables. Only a
    relaxed program exempts any: the values a relaxed map holds flow
    into other maps and into the packet, so the verdict is
    program-level, not per map. ``why`` is set when the PRNG relaxes
    the program too: ``bpf_get_prandom_u32`` draws out of packet
    order."""

    kind: str = EXACT
    exempt: Tuple[str, ...] = ()
    why: str = ""

    def __str__(self) -> str:
        if not self.exempt:
            return f"{self.kind} (equal to sequential execution)"
        why = f"{self.why}; " if self.why else ""
        return (f"{self.kind} ({why}with packets in flight together, "
                f"{', '.join(self.exempt)} may differ from sequential)")


@dataclass
class Pipeline:
    """A compiled hardware pipeline."""

    program: Program  # transformed program the stages execute
    original_program: Program  # what the user supplied
    cfg: Cfg
    labels: ProgramLabels
    ddg: Ddg
    schedule: Schedule
    stages: List[Stage]
    entry_ops: List[PipeOp]  # elided ctx loads, executed at injection
    map_hazards: Dict[int, MapHazardPlan]
    frame_size: int
    name: str = "pipeline"
    consistency: Consistency = Consistency()
    elided_bounds_checks: int = 0
    dce_removed: int = 0
    # Ops speculation hoisted above their branch, and how many of those
    # were renamed (``transform.speculate``).
    speculated: Tuple[int, int] = (0, 0)
    # Elided entry-side bounds checks, realised as input-length comparators
    # at the packet input: (min_len, oob action code) pairs in program order.
    entry_checks: Tuple = ()
    loops_unrolled: int = 0
    # Generated execution source for the codegen engine (see
    # repro.hwsim.codegen). Plain text, so it survives pickling: cached
    # pipelines reuse it instead of regenerating.
    # ``codegen_version`` stamps the emitter that produced it; a mismatch
    # triggers regeneration on load.
    codegen_source: Optional[str] = field(default=None, compare=False,
                                          repr=False)
    codegen_version: int = field(default=0, compare=False)

    # -- structural properties -------------------------------------------------

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def serial_windows(self) -> List[Tuple[int, int]]:
        """Interlock windows, sorted by entry stage."""
        return [window[:2] for window in self.held_windows]

    @property
    def held_windows(self) -> List[Tuple[
            int, int, FrozenSet[int], Optional[BankKey],
            Optional[Forwarding]]]:
        """``(lo, hi, holders, bank_key, forwarding)`` of each interlock
        window, sorted by entry stage: the packets that wait for it are
        those that have enabled one of its holder blocks, and each waits
        only for a holder of its own lane (``bank_key``; ``None``: one
        lane) — for the whole window, or, where the window forwards
        (``forwarding``), until that holder releases its lane."""
        return sorted(((*plan.serial_window, plan.holders, plan.bank_key,
                        plan.forwarding)
                       for plan in self.map_hazards.values()
                       if plan.serial_window is not None),
                      key=lambda window: window[:2])

    @property
    def commit_stages(self) -> Dict[int, int]:
        """``fd -> stage`` on whose entry a packet's WAR-buffered writes
        to the map commit (see :func:`commit_stages_of`)."""
        return commit_stages_of(self.map_hazards)

    @property
    def n_instructions(self) -> int:
        return sum(s.width for s in self.stages)

    @property
    def max_ilp(self) -> int:
        return max((s.width for s in self.stages if s.kind is StageKind.OPS), default=0)

    @property
    def avg_ilp(self) -> float:
        op_stages = [s for s in self.stages if s.kind is StageKind.OPS and s.ops]
        if not op_stages:
            return 0.0
        return sum(s.width for s in op_stages) / len(op_stages)

    @property
    def max_state_bytes(self) -> int:
        return max((s.state_bytes(self.frame_size) for s in self.stages), default=0)

    def stage_of_insn(self, insn_index: int) -> int:
        """1-based stage number holding an instruction."""
        for stage in self.stages:
            for op in stage.ops:
                if op.insn_index == insn_index:
                    return stage.number
        raise KeyError(f"instruction {insn_index} not in pipeline")

    def summary(self) -> str:
        """Human-readable pipeline dump (one line per stage, Figure-8 style)."""
        from ..ebpf.disasm import format_instruction

        lines = [f"pipeline {self.name!r}: {self.n_stages} stages, "
                 f"frame={self.frame_size}B, maps={sorted(self.map_hazards)}"]
        for stage in self.stages:
            regs = ",".join(f"r{r}" for r in sorted(stage.live_in_regs))
            stack = ",".join(f"[{o}:{s}]" for o, s in stage.live_in_stack)
            # A stage exclusive blocks share tags each block's run of ops.
            shared = len({op.block_id for op in stage.ops}) > 1
            body = " | ".join(
                (f"b{op.block_id}: " if shared and (
                    k == 0 or stage.ops[k - 1].block_id != op.block_id)
                 else "") + format_instruction(op.insn)
                for k, op in enumerate(stage.ops))
            if stage.kind is not StageKind.OPS:
                body = f"({stage.kind.value}{': ' + stage.note if stage.note else ''})"
            lines.append(
                f"  stage {stage.number:3d} [{regs or '-'}{' ' + stack if stack else ''}]"
                f" {body}"
            )
        return "\n".join(lines)


def assemble_stages(
    program: Program,
    cfg: Cfg,
    labels: ProgramLabels,
    schedule: Schedule,
) -> List[Stage]:
    """Turn schedule rows into stages, inserting helper-latency stages."""
    stages: List[Stage] = []
    for pos, row in enumerate(schedule.rows):
        ops = [
            PipeOp(
                insn_index=i,
                insn=program.instructions[i],
                block_id=cfg.block_of_insn[i],
                fused=i in row.fused,
                label=labels.label_for(i),
                call=labels.call_for(i),
            )
            for i in row.ops
        ]
        stages.append(Stage(number=0, kind=StageKind.OPS, ops=ops))
        extra = schedule.extra_latency.get(pos, 0)
        for k in range(extra):
            note = ""
            for op in ops:
                if op.insn.is_call:
                    note = helper_spec(op.insn.imm).name
            stages.append(
                Stage(number=0, kind=StageKind.HELPER_LATENCY, note=note)
            )
    _renumber(stages)
    return stages


def _renumber(stages: List[Stage]) -> None:
    for pos, stage in enumerate(stages):
        stage.number = pos + 1
