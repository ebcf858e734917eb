"""eBPF disassembler.

Formats instructions in the Linux verifier's textual syntax, the same
notation the paper uses in Listing 2, e.g.::

    r2 = *(u32 *)(r1 + 4)
    r1 <<= 8
    if r1 == 34525 goto +4
    lock *(u64 *)(r1 + 0) += r2
    call 1
    exit

The output of :func:`disassemble` round-trips through
:func:`repro.ebpf.asm.assemble`. The disassembler reads bytecode nobody
has verified, so an op outside the ``isa`` tables is an
:class:`~repro.ebpf.isa.ISAError` — which :func:`disassemble` locates
(``insn N: unknown ALU op 0xe0``) — not a ``KeyError``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from . import isa
from .isa import Instruction


def _reg(n: int, word: bool = False) -> str:
    return f"{'w' if word else 'r'}{n}"


def _mem_operand(size: int, base: int, off: int) -> str:
    size_name = isa.SIZE_NAMES[size]
    sign = "+" if off >= 0 else "-"
    return f"*({size_name} *)(r{base} {sign} {abs(off)})"


def _format_alu(insn: Instruction) -> str:
    word = not insn.is_alu64
    dst = _reg(insn.dst, word)
    if insn.op == isa.BPF_NEG:
        return f"{dst} = -{dst}"
    if insn.op == isa.BPF_END:
        # Byte swaps are encoded in the 32-bit ALU class but the kernel
        # prints them with r-registers.
        name = _reg(insn.dst)
        direction = "be" if insn.uses_reg_src else "le"
        return f"{name} = {direction}{insn.imm} {name}"
    symbol = isa.ALU_SYMBOLS.get(insn.op)
    if symbol is None:
        raise isa.ISAError(f"unknown ALU op {insn.op:#x}")
    if insn.uses_reg_src:
        return f"{dst} {symbol} {_reg(insn.src, word)}"
    return f"{dst} {symbol} {insn.imm}"


def _format_jump(insn: Instruction) -> str:
    if insn.is_exit:
        return "exit"
    if insn.is_call:
        return f"call {insn.imm}"
    target = f"goto {'+' if insn.off >= 0 else ''}{insn.off}"
    if insn.op == isa.BPF_JA:
        return target
    word = insn.opclass == isa.BPF_JMP32
    dst = _reg(insn.dst, word)
    symbol = isa.JMP_SYMBOLS.get(insn.op)
    if symbol is None:
        raise isa.ISAError(f"unknown jump op {insn.op:#x}")
    if insn.uses_reg_src:
        rhs = _reg(insn.src, word)
    else:
        rhs = str(insn.imm)
    return f"if {dst} {symbol} {rhs} {target}"


def _format_load(insn: Instruction) -> str:
    if insn.is_ld_imm64:
        imm64 = insn.imm64 if insn.imm64 is not None else insn.imm
        if insn.src == isa.BPF_PSEUDO_MAP_FD:
            return f"r{insn.dst} = map[{imm64 & isa.MASK32}]"
        return f"r{insn.dst} = {imm64} ll"
    if insn.is_mem_load:
        return f"r{insn.dst} = {_mem_operand(insn.size, insn.src, insn.off)}"
    raise isa.ISAError(f"cannot format load opcode {insn.opcode:#x}")


def _format_store(insn: Instruction) -> str:
    mem = _mem_operand(insn.size, insn.dst, insn.off)
    if insn.is_atomic:
        op = insn.imm & ~isa.BPF_FETCH
        fetch = insn.imm & isa.BPF_FETCH
        if insn.imm == isa.ATOMIC_XCHG:
            return f"lock {mem} xchg r{insn.src}"
        if insn.imm == isa.ATOMIC_CMPXCHG:
            return f"lock {mem} cmpxchg r{insn.src}"
        symbol = isa.ATOMIC_SYMBOLS.get(op)
        if symbol is None:
            raise isa.ISAError(f"unknown atomic op {insn.imm:#x}")
        prefix = "lock fetch " if fetch else "lock "
        return f"{prefix}{mem} {symbol} r{insn.src}"
    if insn.opclass == isa.BPF_STX:
        return f"{mem} = r{insn.src}"
    return f"{mem} = {insn.imm}"


def format_instruction(insn: Instruction) -> str:
    """Render one instruction in verifier syntax."""
    cls = insn.opclass
    if cls in (isa.BPF_ALU, isa.BPF_ALU64):
        return _format_alu(insn)
    if cls in (isa.BPF_JMP, isa.BPF_JMP32):
        return _format_jump(insn)
    if cls in (isa.BPF_LD, isa.BPF_LDX):
        return _format_load(insn)
    if cls in (isa.BPF_ST, isa.BPF_STX):
        return _format_store(insn)
    raise isa.ISAError(f"unknown instruction class {cls:#x}")


def disassemble(
    instructions: Iterable[Instruction], numbered: bool = True
) -> str:
    """Disassemble a program to text.

    With ``numbered`` (the default) each line is prefixed by its *slot*
    number, matching the kernel verifier's listing where LD_IMM64 consumes
    two slots. An instruction that cannot be rendered raises
    :class:`~repro.ebpf.isa.ISAError` naming its index the way the
    verifier does (``insn N: ...``).
    """
    lines: List[str] = []
    slot = 0
    for index, insn in enumerate(instructions):
        try:
            text = format_instruction(insn)
        except isa.ISAError as exc:
            raise isa.ISAError(f"insn {index}: {exc}") from exc
        if numbered:
            lines.append(f"{slot}: {text}")
        else:
            lines.append(text)
        slot += insn.slots
    return "\n".join(lines)
