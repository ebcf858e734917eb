"""Programmatic eBPF program construction.

The builder plays the role of clang's eBPF backend in this reproduction:
applications in :mod:`repro.apps` are written against this API (or the
assembler) and produce bit-exact Linux eBPF bytecode. It offers labels with
automatic slot-offset resolution, map declaration, and helpers named after
the verifier syntax (``mov``, ``load``, ``store``, ``jmp``...).

Example::

    b = ProgramBuilder("drop_ipv6")
    b.load("u16", R2, R1, 12)          # r2 = *(u16 *)(r1 + 12)
    b.jmp_imm("!=", R2, 0xDD86, "out") # if r2 != 0x86DD(le) goto out
    b.mov_imm(R0, XdpAction.DROP)
    b.exit()
    b.label("out")
    b.mov_imm(R0, XdpAction.PASS)
    b.exit()
    prog = b.build()
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from . import isa
from .helpers import HELPER_IDS_BY_NAME
from .isa import Instruction, MapSpec, Program

_SIZES = {"u8": isa.BPF_B, "u16": isa.BPF_H, "u32": isa.BPF_W, "u64": isa.BPF_DW}

# "+" for "+=": the assignment symbols minus their "=" (and minus mov).
_ALU_OPS = {
    symbol[:-1]: op for symbol, op in isa.SYMBOL_TO_ALU.items() if symbol != "="
}


class BuildError(ValueError):
    """Raised on malformed builder usage (duplicate labels, bad sizes...)."""


class ProgramBuilder:
    """Accumulates instructions and resolves label references at build time."""

    def __init__(self, name: str = "prog") -> None:
        self.name = name
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._pending: List[tuple] = []  # (insn_index, label)
        self._maps: Dict[str, MapSpec] = {}
        self._map_fds: Dict[str, int] = {}

    # -- maps ----------------------------------------------------------------

    def add_map(
        self,
        name: str,
        map_type: str,
        key_size: int,
        value_size: int,
        max_entries: int,
    ) -> str:
        """Declare a map; returns its name for use with :meth:`ld_map`."""
        if name in self._maps:
            raise BuildError(f"duplicate map {name!r}")
        self._maps[name] = MapSpec(name, map_type, key_size, value_size, max_entries)
        self._map_fds[name] = len(self._maps)
        return name

    # -- labels ----------------------------------------------------------------

    def label(self, name: str) -> "ProgramBuilder":
        if name in self._labels:
            raise BuildError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)
        return self

    # -- emission ----------------------------------------------------------------

    def emit(self, insn: Instruction) -> "ProgramBuilder":
        self._instructions.append(insn)
        return self

    def mov(self, dst: int, src: int) -> "ProgramBuilder":
        return self.emit(isa.mov64_reg(dst, src))

    def mov_imm(self, dst: int, imm: int) -> "ProgramBuilder":
        return self.emit(isa.mov64_imm(dst, int(imm)))

    def mov32(self, dst: int, src: int) -> "ProgramBuilder":
        return self.emit(isa.alu32_reg(isa.BPF_MOV, dst, src))

    def alu(self, op: str, dst: int, src: int, width: int = 64) -> "ProgramBuilder":
        opcode = _ALU_OPS[op]
        if width == 64:
            return self.emit(isa.alu64_reg(opcode, dst, src))
        return self.emit(isa.alu32_reg(opcode, dst, src))

    def alu_imm(self, op: str, dst: int, imm: int, width: int = 64) -> "ProgramBuilder":
        opcode = _ALU_OPS[op]
        if width == 64:
            return self.emit(isa.alu64_imm(opcode, dst, int(imm)))
        return self.emit(isa.alu32_imm(opcode, dst, int(imm)))

    def neg(self, dst: int, width: int = 64) -> "ProgramBuilder":
        cls = isa.BPF_ALU64 if width == 64 else isa.BPF_ALU
        return self.emit(Instruction(cls | isa.BPF_K | isa.BPF_NEG, dst=dst))

    def endian(self, dst: int, bits: int, to_big: bool = True) -> "ProgramBuilder":
        return self.emit(isa.endian(dst, bits, to_big))

    def load(self, size: str, dst: int, src: int, off: int = 0) -> "ProgramBuilder":
        return self.emit(isa.load(_size(size), dst, src, off))

    def store(self, size: str, dst: int, src: int, off: int = 0) -> "ProgramBuilder":
        return self.emit(isa.store_reg(_size(size), dst, src, off))

    def store_imm(self, size: str, dst: int, off: int, imm: int) -> "ProgramBuilder":
        return self.emit(isa.store_imm(_size(size), dst, off, int(imm)))

    def atomic_add(
        self, size: str, dst: int, src: int, off: int = 0, fetch: bool = False
    ) -> "ProgramBuilder":
        op = isa.ATOMIC_ADD | (isa.BPF_FETCH if fetch else 0)
        return self.emit(isa.atomic_op(_size(size), dst, src, off, op))

    def ld_imm64(self, dst: int, value: int) -> "ProgramBuilder":
        return self.emit(isa.ld_imm64(dst, value))

    def ld_map(self, dst: int, map_name: str) -> "ProgramBuilder":
        if map_name not in self._map_fds:
            raise BuildError(f"unknown map {map_name!r}")
        return self.emit(isa.ld_map_fd(dst, self._map_fds[map_name]))

    def call(self, helper: Union[int, str]) -> "ProgramBuilder":
        if isinstance(helper, str):
            helper = HELPER_IDS_BY_NAME[helper]
        return self.emit(isa.call(helper))

    def exit(self) -> "ProgramBuilder":
        return self.emit(isa.exit_())

    # -- jumps -----------------------------------------------------------------

    def jmp(self, label: str) -> "ProgramBuilder":
        self._pending.append((len(self._instructions), label))
        return self.emit(isa.jump(0))

    def jmp_imm(
        self, op: str, dst: int, imm: int, label: str, width: int = 64
    ) -> "ProgramBuilder":
        opcode = isa.SYMBOL_TO_JMP[op]
        self._pending.append((len(self._instructions), label))
        if width == 64:
            return self.emit(isa.jump_imm(opcode, dst, int(imm), 0))
        return self.emit(isa.jump32_imm(opcode, dst, int(imm), 0))

    def jmp_reg(
        self, op: str, dst: int, src: int, label: str, width: int = 64
    ) -> "ProgramBuilder":
        opcode = isa.SYMBOL_TO_JMP[op]
        self._pending.append((len(self._instructions), label))
        if width == 64:
            return self.emit(isa.jump_reg(opcode, dst, src, 0))
        return self.emit(isa.jump32_reg(opcode, dst, src, 0))

    # -- finalisation -------------------------------------------------------------

    def build(self) -> Program:
        slot_of: List[int] = []
        slot = 0
        for insn in self._instructions:
            slot_of.append(slot)
            slot += insn.slots
        total = slot
        instructions = list(self._instructions)
        for index, label in self._pending:
            if label not in self._labels:
                raise BuildError(f"undefined label {label!r}")
            target_index = self._labels[label]
            target_slot = slot_of[target_index] if target_index < len(slot_of) else total
            insn = instructions[index]
            off = target_slot - slot_of[index] - insn.slots
            instructions[index] = Instruction(
                insn.opcode, insn.dst, insn.src, off, insn.imm, insn.imm64
            )
        maps = {
            self._map_fds[map_name]: spec for map_name, spec in self._maps.items()
        }
        return Program(instructions, maps=maps, name=self.name)


def _size(size: str) -> int:
    try:
        return _SIZES[size]
    except KeyError:
        raise BuildError(f"unknown size {size!r}; expected one of {sorted(_SIZES)}")
