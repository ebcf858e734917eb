"""Specialized operator closures for the reference VM's dispatch table.

Instead of re-decoding each instruction per packet, the VM
(:mod:`repro.ebpf.vm`) calls :func:`make_alu_fn` / :func:`make_cmp_fn`
once per instruction to bake the opcode dispatch, operand source
(register vs. sign-extended immediate), width masks and shift masks
into a closure.

The closures are built from the *same* primitive semantics as
``Vm._alu`` / ``Vm._compare`` — div-by-zero yields zero, mod-by-zero
yields the dividend, shifts mask their amount, 32-bit ops zero-extend —
so the table is bit-identical by construction to the
decode-per-instruction loop the VM keeps as its test reference
(``Vm._run_interpreted``). Factories return ``None`` for opcodes they
do not specialize; callers fall back to the interpreted helpers (which
raise the canonical errors for genuinely unknown opcodes).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from . import isa
from .isa import MASK32, MASK64, Instruction, to_signed32

AluFn = Callable[[List[int]], None]
CmpFn = Callable[[List[int]], bool]


def make_alu_fn(insn: Instruction) -> Optional[AluFn]:
    """Build a closure performing one ALU/ALU64 instruction on a register
    file, or ``None`` when the opcode has no specialization."""
    is64 = insn.opclass == isa.BPF_ALU64
    mask = MASK64 if is64 else MASK32
    shift_mask = 63 if is64 else 31
    op = insn.op
    dst = insn.dst
    src = insn.src

    if op == isa.BPF_END:
        bits = insn.imm
        if bits not in (16, 32, 64):
            return None
        smask = (1 << bits) - 1
        width = bits // 8
        if insn.uses_reg_src:  # to_be
            def fn(regs: List[int]) -> None:
                value = regs[dst] & smask
                regs[dst] = int.from_bytes(
                    value.to_bytes(width, "little"), "big"
                )
        else:  # to_le on a little-endian model truncates
            def fn(regs: List[int]) -> None:
                regs[dst] = regs[dst] & smask
        return fn

    if op == isa.BPF_NEG:
        def fn(regs: List[int]) -> None:
            regs[dst] = (-regs[dst]) & mask
        return fn

    use_reg = insn.uses_reg_src
    imm = to_signed32(insn.imm) & mask  # pre-masked immediate operand

    if op == isa.BPF_MOV:
        if use_reg:
            def fn(regs: List[int]) -> None:
                regs[dst] = regs[src] & mask
        else:
            def fn(regs: List[int]) -> None:
                regs[dst] = imm
        return fn
    if op == isa.BPF_ADD:
        if use_reg:
            def fn(regs: List[int]) -> None:
                regs[dst] = (regs[dst] + regs[src]) & mask
        else:
            def fn(regs: List[int]) -> None:
                regs[dst] = (regs[dst] + imm) & mask
        return fn
    if op == isa.BPF_SUB:
        if use_reg:
            def fn(regs: List[int]) -> None:
                regs[dst] = (regs[dst] - regs[src]) & mask
        else:
            def fn(regs: List[int]) -> None:
                regs[dst] = (regs[dst] - imm) & mask
        return fn
    if op == isa.BPF_MUL:
        if use_reg:
            def fn(regs: List[int]) -> None:
                regs[dst] = (regs[dst] * regs[src]) & mask
        else:
            def fn(regs: List[int]) -> None:
                regs[dst] = (regs[dst] * imm) & mask
        return fn
    if op == isa.BPF_OR:
        if use_reg:
            def fn(regs: List[int]) -> None:
                regs[dst] = (regs[dst] | regs[src]) & mask
        else:
            def fn(regs: List[int]) -> None:
                regs[dst] = (regs[dst] | imm) & mask
        return fn
    if op == isa.BPF_AND:
        if use_reg:
            def fn(regs: List[int]) -> None:
                regs[dst] = (regs[dst] & regs[src]) & mask
        else:
            def fn(regs: List[int]) -> None:
                regs[dst] = regs[dst] & imm  # imm already masked
        return fn
    if op == isa.BPF_XOR:
        if use_reg:
            def fn(regs: List[int]) -> None:
                regs[dst] = (regs[dst] ^ regs[src]) & mask
        else:
            def fn(regs: List[int]) -> None:
                regs[dst] = (regs[dst] ^ imm) & mask
        return fn
    if op == isa.BPF_LSH:
        if use_reg:
            def fn(regs: List[int]) -> None:
                regs[dst] = (regs[dst] << (regs[src] & shift_mask)) & mask
        else:
            shamt = imm & shift_mask
            def fn(regs: List[int]) -> None:
                regs[dst] = (regs[dst] << shamt) & mask
        return fn
    if op == isa.BPF_RSH:
        if use_reg:
            def fn(regs: List[int]) -> None:
                regs[dst] = (regs[dst] & mask) >> (regs[src] & shift_mask)
        else:
            shamt = imm & shift_mask
            def fn(regs: List[int]) -> None:
                regs[dst] = (regs[dst] & mask) >> shamt
        return fn
    if op == isa.BPF_ARSH:
        bits = 64 if is64 else 32
        sbit = 1 << (bits - 1)
        wrap = 1 << bits
        if use_reg:
            def fn(regs: List[int]) -> None:
                value = regs[dst] & mask
                if value & sbit:
                    value -= wrap
                regs[dst] = (value >> (regs[src] & shift_mask)) & mask
        else:
            shamt = imm & shift_mask
            def fn(regs: List[int]) -> None:
                value = regs[dst] & mask
                if value & sbit:
                    value -= wrap
                regs[dst] = (value >> shamt) & mask
        return fn
    if op == isa.BPF_DIV:
        if use_reg:
            def fn(regs: List[int]) -> None:
                divisor = regs[src] & mask
                regs[dst] = (regs[dst] & mask) // divisor if divisor else 0
        else:
            def fn(regs: List[int]) -> None:
                regs[dst] = (regs[dst] & mask) // imm if imm else 0
        return fn
    if op == isa.BPF_MOD:
        if use_reg:
            def fn(regs: List[int]) -> None:
                divisor = regs[src] & mask
                if divisor:
                    regs[dst] = (regs[dst] & mask) % divisor
                else:
                    regs[dst] = regs[dst] & mask
        else:
            def fn(regs: List[int]) -> None:
                if imm:
                    regs[dst] = (regs[dst] & mask) % imm
                else:
                    regs[dst] = regs[dst] & mask
        return fn
    return None


def make_cmp_fn(insn: Instruction) -> Optional[CmpFn]:
    """Build a closure evaluating a conditional jump's predicate against a
    register file, or ``None`` when the opcode has no specialization."""
    is64 = insn.opclass == isa.BPF_JMP
    bits = 64 if is64 else 32
    mask = MASK64 if is64 else MASK32
    sbit = 1 << (bits - 1)
    wrap = 1 << bits
    op = insn.op
    dst = insn.dst
    src = insn.src
    use_reg = insn.uses_reg_src
    imm = to_signed32(insn.imm) & mask
    simm = imm - wrap if imm & sbit else imm

    unsigned = {
        isa.BPF_JEQ: lambda l, r: l == r,
        isa.BPF_JNE: lambda l, r: l != r,
        isa.BPF_JGT: lambda l, r: l > r,
        isa.BPF_JGE: lambda l, r: l >= r,
        isa.BPF_JLT: lambda l, r: l < r,
        isa.BPF_JLE: lambda l, r: l <= r,
        isa.BPF_JSET: lambda l, r: bool(l & r),
    }
    signed = {
        isa.BPF_JSGT: lambda l, r: l > r,
        isa.BPF_JSGE: lambda l, r: l >= r,
        isa.BPF_JSLT: lambda l, r: l < r,
        isa.BPF_JSLE: lambda l, r: l <= r,
    }

    if op in unsigned:
        rel = unsigned[op]
        if use_reg:
            def fn(regs: List[int]) -> bool:
                return rel(regs[dst] & mask, regs[src] & mask)
        else:
            def fn(regs: List[int]) -> bool:
                return rel(regs[dst] & mask, imm)
        return fn
    if op in signed:
        rel = signed[op]
        if use_reg:
            def fn(regs: List[int]) -> bool:
                lhs = regs[dst] & mask
                if lhs & sbit:
                    lhs -= wrap
                rhs = regs[src] & mask
                if rhs & sbit:
                    rhs -= wrap
                return rel(lhs, rhs)
        else:
            def fn(regs: List[int]) -> bool:
                lhs = regs[dst] & mask
                if lhs & sbit:
                    lhs -= wrap
                return rel(lhs, simm)
        return fn
    return None

