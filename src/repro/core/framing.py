"""Packet framing (§4.2).

Rather than carrying the whole packet buffer in every stage, the packet is
chunked into frames (64 B by default, matching Corundum's datapath) that
enter the pipeline one per cycle behind the head frame. A stage can only
touch packet bytes whose frame has already entered the pipeline:

* frame *k* becomes available at stage *k + 1* (the head frame at stage 1),
* accesses to earlier frames use stage bypass (data forwarded from the
  stages behind, which hold frames that are "simply propagated" since
  those stages are disabled for this packet),
* accesses to frames **not yet in the pipeline** force synthetic NOP
  stages "with the only goal of making the pipeline longer".

This pass walks the assembled stages, computes each stage's deepest packet
access (constant offsets from the labeling pass; dynamic accesses assume
the fixed worst-case depth :data:`DEFAULT_DYNAMIC_ACCESS_DEPTH`, §4.2)
and inserts the NOP stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..ebpf.helpers import helper_spec
from .labeling import Region
from .pipeline import Stage, StageKind, _renumber

DEFAULT_FRAME_SIZE = 64
# Worst-case packet depth assumed for dynamically-computed packet offsets.
# Real network functions "rarely go deep into the payload" (§4.2); 128 B
# covers every header stack the evaluation applications touch.
DEFAULT_DYNAMIC_ACCESS_DEPTH = 128


@dataclass
class FramingReport:
    frame_size: int
    nop_stages_inserted: int
    max_packet_offset: int
    bypass_stages: int  # stages reading frames from earlier stages


def stage_packet_depth(stage: Stage) -> int:
    """Deepest packet byte (exclusive) this stage's ops may touch."""
    depth = 0
    for op in stage.ops:
        if op.label is not None and op.label.region is Region.PACKET:
            if op.label.offset is None:
                depth = max(depth, DEFAULT_DYNAMIC_ACCESS_DEPTH)
            else:
                depth = max(depth, op.label.offset + op.label.size)
        if op.insn.is_call:
            spec = helper_spec(op.insn.imm)
            if spec.reads_packet or spec.writes_packet:
                depth = max(depth, DEFAULT_DYNAMIC_ACCESS_DEPTH)
    return depth


def apply_framing(
    stages: List[Stage],
    frame_size: int = DEFAULT_FRAME_SIZE,
) -> FramingReport:
    """Insert NOP stages so every access's frame is in the pipeline.

    Mutates ``stages`` in place and renumbers. A stage numbered *s* has
    frames ``0 .. s-1`` available (its own plus all the ones that entered
    behind it); an access into frame *f* therefore requires ``s >= f + 1``.
    """
    inserted = 0
    bypass = 0
    max_offset = 0
    pos = 0
    while pos < len(stages):
        stage = stages[pos]
        stage_number = pos + 1
        depth = stage_packet_depth(stage)
        max_offset = max(max_offset, depth)
        if depth > 0:
            frame_index = (depth - 1) // frame_size
            required_stage = frame_index + 1
            if stage_number < required_stage:
                needed = required_stage - stage_number
                for k in range(needed):
                    stages.insert(
                        pos,
                        Stage(
                            number=0,
                            kind=StageKind.NOP_FRAMING,
                            note=f"wait for frame {frame_index}",
                        ),
                    )
                inserted += needed
                pos += needed
            elif frame_index + 1 < stage_number:
                bypass += 1  # reads an older frame via stage bypass
        pos += 1
    _renumber(stages)
    return FramingReport(frame_size, inserted, max_offset, bypass)
