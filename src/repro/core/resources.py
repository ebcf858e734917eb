"""FPGA resource estimation (substitute for Vivado synthesis).

The paper reports post-synthesis LUT/FF/BRAM utilization on a Xilinx
Alveo U50 (Figure 10, §5.2, §5.4). We cannot run Vivado, but the resource
consumption of an eHDL pipeline is a structural function of the design:

* pipeline registers — each stage latches its live state (packet frame +
  live registers + live stack bytes after pruning): FFs ∝ state bits;
* operator logic — each scheduled instruction instantiates a primitive
  (adder, barrel shifter, comparator, multiplier, ...) with a
  characteristic LUT/FF cost;
* helper blocks, eHDLmap interface blocks, WAR delay buffers, Flush
  Evaluation Blocks and atomic RMW ports per the hazard plan;
* map storage — BRAM36 blocks sized to the map geometry, replicated per
  extra access channel beyond the native two ports;
* the NIC shell (Corundum) — a constant overhead included in all of the
  paper's numbers.

The per-primitive constants are calibrated so the five evaluation
applications land in the paper's 6.5%-13.3% utilization band on the U50;
everything else (relative ordering across apps, the §5.4 pruning deltas,
the 2-4x SDNet gap) follows from the structure alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..ebpf import isa
from ..ebpf.helpers import helper_spec
from ..ebpf.isa import Instruction
from .labeling import Region
from .pipeline import Pipeline, Stage, StageKind


@dataclass(frozen=True)
class DeviceSpec:
    """An FPGA device's resource capacity."""

    name: str
    luts: int
    ffs: int
    bram36: int


# Xilinx Alveo U50 (XCU50): 872K LUTs, 1743K FFs, 1344 BRAM36.
ALVEO_U50 = DeviceSpec("xilinx-alveo-u50", luts=872_000, ffs=1_743_000, bram36=1344)

BRAM36_BYTES = 4608  # 36 Kbit


@dataclass
class ResourceEstimate:
    """Absolute and device-relative resource usage."""

    luts: int = 0
    ffs: int = 0
    bram36: int = 0
    device: DeviceSpec = ALVEO_U50

    def __add__(self, other: "ResourceEstimate") -> "ResourceEstimate":
        return ResourceEstimate(
            self.luts + other.luts,
            self.ffs + other.ffs,
            self.bram36 + other.bram36,
            self.device,
        )

    @property
    def lut_pct(self) -> float:
        return 100.0 * self.luts / self.device.luts

    @property
    def ff_pct(self) -> float:
        return 100.0 * self.ffs / self.device.ffs

    @property
    def bram_pct(self) -> float:
        return 100.0 * self.bram36 / self.device.bram36

    @property
    def max_pct(self) -> float:
        return max(self.lut_pct, self.ff_pct, self.bram_pct)

    def summary(self) -> str:
        return (
            f"LUT {self.luts} ({self.lut_pct:.2f}%)  "
            f"FF {self.ffs} ({self.ff_pct:.2f}%)  "
            f"BRAM36 {self.bram36} ({self.bram_pct:.2f}%)"
        )


# The Corundum shell (MACs, DMA engines, PCIe, queues) — a constant that
# the paper's Figure 10 numbers include.
CORUNDUM_SHELL = ResourceEstimate(luts=38_000, ffs=55_000, bram36=110)


# -- per-primitive LUT costs ---------------------------------------------------

# Primitive cost tables. The absolute values are calibrated against the
# paper's reported utilization band (LOGIC_SCALE is the single calibration
# knob); the *ratios* between primitives follow standard FPGA operator
# costs (a 64-bit barrel shifter is ~3x an adder, a multiplier ~9x, ...).
LOGIC_SCALE = 7.0

_ALU_LUTS = {
    isa.BPF_ADD: 70, isa.BPF_SUB: 70, isa.BPF_MUL: 650, isa.BPF_DIV: 1800,
    isa.BPF_MOD: 1800, isa.BPF_OR: 32, isa.BPF_AND: 32, isa.BPF_XOR: 32,
    isa.BPF_LSH: 180, isa.BPF_RSH: 180, isa.BPF_ARSH: 200, isa.BPF_MOV: 8,
    isa.BPF_NEG: 40, isa.BPF_END: 24,
}

_LOAD_STORE_LUTS = {
    Region.PACKET: 90,   # frame byte-select mux + bounds check
    Region.STACK: 45,
    Region.CTX: 4,       # wired metadata
    Region.MAP_VALUE: 120,  # map port adapter
}

_BRANCH_LUTS = 55        # comparator + predication signal fan-out
_PREDICATION_LUTS_PER_STAGE = 18
_STATE_LUTS_PER_BYTE = 0.35   # enable-muxing in front of state registers
_ATOMIC_BLOCK_LUTS = 260
_ATOMIC_BLOCK_FFS = 190
_FLUSH_BLOCK_LUTS = 310
_FLUSH_BLOCK_FFS_PER_ENTRY = 48  # address registers for the L-deep window
_WAR_BUFFER_FFS_PER_STAGE = 80
_MAP_PORT_LUTS = 480     # one eHDLmap block (hash/index logic + host port)
_MAP_PORT_FFS = 350
_FIFO_WRAPPER = ResourceEstimate(luts=900, ffs=1400, bram36=4)
# Per-stage state beyond this many bytes is synthesised into BRAM shift
# buffers (dual-ported) rather than flip-flops.
_STATE_FF_LIMIT_BYTES = 128


def _op_luts(insn: Instruction, label_region: Optional[Region]) -> int:
    if insn.is_alu:
        # 32-bit ALU ops cost roughly half of the 64-bit primitives.
        scale = 1.0 if insn.is_alu64 else 0.55
        return int(_ALU_LUTS[insn.op] * scale)
    if insn.is_ld_imm64:
        return 4  # constant wiring
    if insn.is_mem_load or insn.is_mem_store:
        return _LOAD_STORE_LUTS.get(label_region or Region.STACK, 60)
    if insn.is_atomic:
        return 0  # costed via the atomic block
    if insn.is_cond_jump:
        return _BRANCH_LUTS
    if insn.is_uncond_jump or insn.is_exit:
        return 10
    if insn.is_call:
        return 0  # costed via the helper block
    return 40


def estimate_resources(
    pipeline: Pipeline,
    include_shell: bool = True,
    device: DeviceSpec = ALVEO_U50,
) -> ResourceEstimate:
    """Estimate the FPGA resources of a compiled pipeline."""
    luts = 0.0
    ffs = 0.0
    bram = 0.0

    seen_helper_sites = 0
    spilled_state_bytes = 0
    for stage in pipeline.stages:
        # Carried state: latched in FFs up to a threshold; synthesis maps
        # larger per-stage state (e.g. the full 512 B stack of an unpruned
        # pipeline, §5.4) into block-RAM shift buffers instead.
        state_bytes = stage.state_bytes(pipeline.frame_size)
        ff_bytes = min(state_bytes, _STATE_FF_LIMIT_BYTES)
        spilled_state_bytes += state_bytes - ff_bytes
        ffs += ff_bytes * 8
        luts += state_bytes * _STATE_LUTS_PER_BYTE
        luts += _PREDICATION_LUTS_PER_STAGE
        for op in stage.ops:
            region = op.label.region if op.label is not None else None
            luts += _op_luts(op.insn, region) * LOGIC_SCALE
            if op.insn.is_call:
                spec = helper_spec(op.insn.imm)
                if not spec.map_channel:
                    # Non-map helper blocks are replicated per call site.
                    luts += spec.hw_luts
                    ffs += spec.hw_ffs
                else:
                    # Map-channel helpers share the eHDLmap block; each
                    # call site adds a port adapter.
                    luts += spec.hw_luts * 0.4
                    ffs += spec.hw_ffs * 0.4
                seen_helper_sites += 1

    # One eHDLmap or atomic block per planned port, hazards, map storage.
    for fd, plan in pipeline.map_hazards.items():
        spec = pipeline.program.maps.get(fd)
        luts += _MAP_PORT_LUTS * plan.channels
        ffs += _MAP_PORT_FFS * plan.channels
        if spec is not None:
            storage_bytes = spec.max_entries * spec.value_size
            if spec.map_type in ("hash", "lru_hash"):
                # keys + slot directory roughly double the storage
                storage_bytes += spec.max_entries * (spec.key_size + 4)
            # each bank is a memory of its own (its own port), rounded
            # up to whole BRAMs
            per_bank = storage_bytes // spec.banks
            blocks = spec.banks * max(1, -(-per_bank // BRAM36_BYTES))
            # beyond the two native BRAM ports, channels require replication
            replication = max(1, -(-plan.channels // 2))
            bram += blocks * replication
        if plan.war_buffer_depth:
            ffs += plan.war_buffer_depth * _WAR_BUFFER_FFS_PER_STAGE
            luts += plan.war_buffer_depth * 25
        for fb in plan.flush_blocks:
            luts += _FLUSH_BLOCK_LUTS
            ffs += fb.L * _FLUSH_BLOCK_FFS_PER_ENTRY
        if plan.uses_atomic:
            luts += _ATOMIC_BLOCK_LUTS
            ffs += _ATOMIC_BLOCK_FFS

    if spilled_state_bytes:
        # dual-ported BRAM shift buffers for the state that did not fit FFs
        bram += 2 * spilled_state_bytes / BRAM36_BYTES

    total = ResourceEstimate(int(luts), int(ffs), int(round(bram)), device)
    total = total + _FIFO_WRAPPER  # async FIFO decoupling from the shell (§4.5)
    if include_shell:
        total = total + CORUNDUM_SHELL
    return total
