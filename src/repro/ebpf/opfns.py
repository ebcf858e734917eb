"""The specialised tier of ALU and conditional-jump semantics, as text.

Each op's executable meaning exists twice in Python. The *reference*
tier is ``Vm._alu`` / ``_swap`` / ``_compare`` behind the operand decode
:func:`repro.ebpf.vm.alu_operands` / :func:`~repro.ebpf.vm.cmp_operands`:
it evaluates the op every time it runs (the ``Vm`` and the
``interpreted`` pipeline engine). This module is the *specialised*
tier: :func:`alu_source` / :func:`cmp_source` decode once and return
Python source lines over a register file named ``regs`` (or whatever the
``reg`` argument names) — operand source (register vs. sign-extended
immediate) chosen, widths, immediates and shift amounts folded into
literals, a constant divisor's zero test resolved at emit time. The
text has one consumer, :mod:`repro.hwsim.codegen`, which inlines the
lines into the generated pipeline module (the ``codegen`` engine); the
VHDL rendering of the same rows is ``core.vhdl``'s ``_ALU_ROWS`` /
``_CMP_ROWS``, one row per op rendered at its width. So the ``vm`` and ``interpreted`` legs of a differential
are independent of this text, and a wrong row here shows up as a
mismatch against either of them.

**The register invariant.** Every register holds a value in
``[0, 2**64)`` before and after every instruction, on every engine:
loads are unsigned, immediates are masked where they are folded, helper
results are masked at the call, and each line below leaves its
destination in range. The text relies on it, so only results that can
*leave* the range are masked (add, sub, mul, lsh, neg, arsh) and a
64-bit op reads its operands as they stand — mov, and, or, xor, rsh,
div, mod and the unsigned compares carry no ``& 0xffffffffffffffff``.
32-bit ops still cut their operands to the low half. The reference tier
is held to the invariant by ``tests/test_property.py::
TestRegisterInvariant``.

The table-generated sweep in ``tests/test_op_sweep.py`` holds the text
to the reference tier over every op, width and operand source. The text
is built only from an :class:`~repro.ebpf.isa.Instruction`'s integer
fields. Every function returns ``None`` for an op outside
``isa.ALU_OP_NAMES`` / ``isa.JMP_SYMBOLS`` (or a byte swap of a width
other than 16/32/64): the verifier rejects those, and the codegen
emitter refuses them with a ``CodegenError``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from . import isa
from .isa import MASK32, MASK64, Instruction, to_signed32

# How the text names register N. The default is a slot of a register
# file named ``regs``; the pipeline engine's ``_stream`` body keeps
# the registers in Python locals instead and passes ``"r{}".format``.
RegName = Callable[[int], str]
_REGS: RegName = "regs[{}]".format

# dst = (dst <sym> operand) & mask, the symbol being the mnemonic's: the
# ops whose result can leave the width.
_WRAPPING_BINOPS = (isa.BPF_ADD, isa.BPF_SUB, isa.BPF_MUL)


def alu_source(
    insn: Instruction, reg: RegName = _REGS
) -> Optional[List[str]]:
    """Statements performing one ALU/ALU64 instruction on the registers
    ``reg`` names (may use ``_v`` as scratch), or ``None`` when the op
    is unknown."""
    is64 = insn.opclass == isa.BPF_ALU64
    mask = MASK64 if is64 else MASK32
    shift_mask = 63 if is64 else 31
    op = insn.op
    D = reg(insn.dst)
    S = reg(insn.src)
    M = hex(mask)

    if op == isa.BPF_END:
        bits = insn.imm
        if bits not in isa.SWAP_WIDTHS:
            return None
        smask = hex((1 << bits) - 1)
        if insn.uses_reg_src:  # to_be
            return [
                f"_v = {D} & {smask}",
                f'{D} = int.from_bytes(_v.to_bytes({bits // 8}, '
                f'"little"), "big")',
            ]
        return [f"{D} = {D} & {smask}"]  # to_le truncates
    if op == isa.BPF_NEG:
        return [f"{D} = (-{D}) & {M}"]

    use_reg = insn.uses_reg_src
    imm = to_signed32(insn.imm) & mask
    I = hex(imm)
    # dst as the op's width sees it: a 64-bit op reads the register as
    # it stands (the invariant), a 32-bit op its low half.
    lo_d = D if is64 else f"({D} & {M})"

    if op == isa.BPF_MOV:
        if not use_reg:
            return [f"{D} = {I}"]
        return [f"{D} = {S}" if is64 else f"{D} = {S} & {M}"]
    if op in _WRAPPING_BINOPS:
        sym = isa.ALU_SYMBOLS[op][:-1]
        return [f"{D} = ({D} {sym} {S if use_reg else I}) & {M}"]
    if op in (isa.BPF_OR, isa.BPF_XOR):
        sym = isa.ALU_SYMBOLS[op][:-1]
        rhs = S if use_reg else I  # imm already masked
        if is64:
            return [f"{D} = {D} {sym} {rhs}"]
        return [f"{D} = ({D} {sym} {rhs}) & {M}"]
    if op == isa.BPF_AND:
        if not use_reg:
            return [f"{D} = {D} & {I}"]  # imm already masked
        return [f"{D} = {D} & {S}" if is64 else f"{D} = {D} & {S} & {M}"]
    if op == isa.BPF_LSH:
        if use_reg:
            return [f"{D} = ({D} << ({S} & {shift_mask})) & {M}"]
        return [f"{D} = ({D} << {imm & shift_mask}) & {M}"]
    if op == isa.BPF_RSH:
        if use_reg:
            return [f"{D} = {lo_d} >> ({S} & {shift_mask})"]
        return [f"{D} = {lo_d} >> {imm & shift_mask}"]
    if op == isa.BPF_ARSH:
        bits = 64 if is64 else 32
        sbit = hex(1 << (bits - 1))
        wrap = hex(1 << bits)
        sh = f"({S} & {shift_mask})" if use_reg else str(imm & shift_mask)
        return [
            f"_v = {D}" if is64 else f"_v = {D} & {M}",
            f"if _v & {sbit}:",
            f"    _v -= {wrap}",
            f"{D} = (_v >> {sh}) & {M}",
        ]
    if op == isa.BPF_DIV:
        if use_reg:
            return [
                f"_v = {S}" if is64 else f"_v = {S} & {M}",
                f"{D} = {lo_d} // _v if _v else 0",
            ]
        return [f"{D} = {lo_d} // {I}"] if imm else [f"{D} = 0"]
    if op == isa.BPF_MOD:
        if use_reg:
            return [
                f"_v = {S}" if is64 else f"_v = {S} & {M}",
                "if _v:",
                f"    {D} = {lo_d} % _v",
            ] + ([] if is64 else [  # x % 0 is x, at the op's width
                "else:",
                f"    {D} = {D} & {M}",
            ])
        if imm:
            return [f"{D} = {lo_d} % {I}"]
        return [f"{D} = {D} & {M}"]
    return None


def cmp_source(
    insn: Instruction, reg: RegName = _REGS
) -> Optional[Tuple[List[str], str]]:
    """A conditional jump's predicate over the registers as (prelude
    statements, condition expression), or ``None`` when the op is
    unknown. The prelude (sign correction into ``_l`` / ``_r``) is empty
    for unsigned relations; the expression is truthy when the branch is
    taken."""
    symbol = isa.JMP_SYMBOLS.get(insn.op)
    if symbol is None:
        return None
    is64 = insn.opclass == isa.BPF_JMP
    bits = 64 if is64 else 32
    mask = MASK64 if is64 else MASK32
    M = hex(mask)
    D = reg(insn.dst)
    S = reg(insn.src)
    use_reg = insn.uses_reg_src
    imm = to_signed32(insn.imm) & mask

    if symbol == "&":
        if not use_reg:
            return [], f"{D} & {hex(imm)}"
        return [], (f"{D} & {S}" if is64 else f"{D} & {S} & {M}")
    if not symbol.startswith("s"):
        if is64:  # registers compare as they stand (the invariant)
            return [], f"{D} {symbol} {S if use_reg else hex(imm)}"
        rhs = f"({S} & {M})" if use_reg else hex(imm)
        return [], f"({D} & {M}) {symbol} {rhs}"
    rel = symbol[1:]
    sbit = hex(1 << (bits - 1))
    wrap = hex(1 << bits)
    prelude = [
        f"_l = {D}" if is64 else f"_l = {D} & {M}",
        f"if _l & {sbit}:",
        f"    _l -= {wrap}",
    ]
    if use_reg:
        prelude += [
            f"_r = {S}" if is64 else f"_r = {S} & {M}",
            f"if _r & {sbit}:",
            f"    _r -= {wrap}",
        ]
        return prelude, f"_l {rel} _r"
    simm = imm - (1 << bits) if imm & (1 << (bits - 1)) else imm
    return prelude, f"_l {rel} {simm}"
