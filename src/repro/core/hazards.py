"""Map consistency planning (§4.1).

Maps are the only state shared between in-flight packets, so they are the
only source of hazards in the pipeline. This pass scans the assembled
stages for map accesses and instantiates, per map:

* **WAR protection** (Figure 6): when a write stage precedes a read stage,
  writes are delayed in a buffer sized to the write→read distance so an
  older packet's late read still sees pre-write data;
* **Flush Evaluation Blocks** (Figure 7): when a read stage precedes a
  write stage (the lookup-then-update pattern), a RAW hazard window of
  ``L`` stages exists; one flush block is instantiated *per write
  instruction* (§4.1.3), each squashing ``K`` stages on a hit;
* **Atomic blocks**: ``lock`` instructions on map memory execute
  read-modify-write in place at the map port and need no hazard handling
  — the global-state strategy of §4.1.2.

The resulting :class:`MapHazardPlan` objects drive both the simulator's
hazard machinery and the analytical model of Appendix A.1 (each flush
block contributes its (K, L) pair to Table 3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ebpf.disasm import format_instruction
from ..ebpf.isa import MapSpec
from .labeling import Region
from .pipeline import FlushBlock, MapHazardPlan, PipeOp, Pipeline, Stage


def plan_hazards(
    stages: List[Stage],
    maps: Optional[Dict[int, MapSpec]] = None,
) -> Dict[int, MapHazardPlan]:
    """Build per-map hazard plans from the staged map accesses."""
    plans: Dict[int, MapHazardPlan] = {}

    def plan_for(fd: int) -> MapHazardPlan:
        if fd not in plans:
            plans[fd] = MapHazardPlan(map_fd=fd)
        return plans[fd]

    for stage in stages:
        for op in stage.ops:
            access = _map_access(op)
            if access is None:
                continue
            fd, is_read, is_write, is_atomic = access
            plan = plan_for(fd)
            if is_atomic:
                plan.atomic_stages.append(stage.number)
            if is_read:
                plan.read_stages.append(stage.number)
            if is_write:
                plan.write_stages.append(stage.number)

    for plan in plans.values():
        plan.read_stages.sort()
        plan.write_stages.sort()
        plan.atomic_stages.sort()
        # WAR buffers: writes landing before the last read stage must be
        # delayed until that read is finalised (§4.1.1). The buffer is
        # "long enough to enable the last pipeline stage that requests a
        # read to actually perform a read on the previous value".
        if plan.read_stages and plan.write_stages:
            last_read = plan.read_stages[-1]
            early_writes = [w for w in plan.write_stages if w < last_read]
            if early_writes:
                plan.war_buffer_depth = last_read - min(early_writes)
        # Flush blocks: one per map-write instruction downstream of a read
        # (§4.1.3: "a Flush Evaluation Block for every single map write").
        for w in plan.write_stages:
            earlier_reads = [r for r in plan.read_stages if r < w]
            if earlier_reads:
                plan.flush_blocks.append(
                    FlushBlock(plan.map_fd, read_stage=min(earlier_reads),
                               write_stage=w)
                )
        # Memory channels: distinct stages touching the map need parallel
        # ports; "in all the examined use cases at most two memory channels
        # to the same map were needed" (§4.1).
        touching = sorted(
            set(plan.read_stages) | set(plan.write_stages) | set(plan.atomic_stages)
        )
        plan.channels = max(1, min(len(touching), 2))
        # Serialization window: LRU maps mutate recency state on every
        # lookup, so even read-only accesses from two in-flight packets
        # interleave observably (a different eviction victim later).
        # Flush blocks cannot repair that — an eviction is irreversible —
        # so when accesses span more than one stage the window is
        # interlocked: at most one packet between the first and last
        # touching stage. Single-stage access is already serialized by
        # the pipeline itself.
        if maps is not None and len(touching) > 1:
            spec = maps.get(plan.map_fd)
            if spec is not None and spec.serialised:
                plan.serial_window = (touching[0], touching[-1])
    return plans


def _map_access(op: PipeOp) -> Optional[Tuple[int, bool, bool, bool]]:
    """(map fd, reads, writes, atomic) of an op touching a map, else None."""
    if op.call is not None and op.call.map_fd is not None:
        return op.call.map_fd, op.call.is_map_read, op.call.is_map_write, False
    label = op.label
    if label is None or label.region is not Region.MAP_VALUE:
        return None
    writes = label.is_write and not label.is_atomic
    return (label.map_fd, not (label.is_write or label.is_atomic), writes,
            label.is_atomic)


def _window_ends(pipeline: Pipeline, plan: MapHazardPlan) -> str:
    """The map's ops on the window's first and last stage, with their
    blocks: what forces the window's extent."""
    ends = []
    for what, number in zip(("opens", "closes"), plan.serial_window):
        ops = [f"b{op.block_id} {format_instruction(op.insn)}"
               for op in pipeline.stages[number - 1].ops
               if (access := _map_access(op)) and access[0] == plan.map_fd]
        ends.append(f"{what}: {', '.join(ops)} @{number}")
    return "; ".join(ends)


def hazard_summary(pipeline: Pipeline) -> str:
    """One line per map: the (K, L) pairs Table 3 reports, and the
    serialization window with its width and the ops at its two ends."""
    lines = []
    for fd, plan in sorted(pipeline.map_hazards.items()):
        spec = pipeline.program.maps.get(fd)
        name = spec.name if spec else f"fd{fd}"
        parts = [f"map {name}: reads@{plan.read_stages} writes@{plan.write_stages}"]
        if plan.uses_atomic:
            parts.append(f"atomic@{plan.atomic_stages}")
        if plan.war_buffer_depth:
            parts.append(f"WAR buffer depth {plan.war_buffer_depth}")
        for fb in plan.flush_blocks:
            parts.append(f"flush block L={fb.L} K={fb.K()}")
        if plan.serial_window is not None:
            # W stages between admissions: the window's cycles/packet
            lo, hi = plan.serial_window
            parts.append(f"window [{lo}, {hi}] W={hi - lo + 1} "
                         f"({_window_ends(pipeline, plan)})")
        lines.append("  ".join(parts))
    return "\n".join(lines) if lines else "no maps"
