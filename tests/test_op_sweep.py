"""Table-generated edge sweep over every ALU, conditional-jump and atomic row.

An op's meaning is defined five times: the ``isa`` row (name and
mnemonic), ``Vm._alu`` / ``_compare`` (the reference tier), ``opfns``'
``alu_source`` / ``cmp_source`` (the specialised tier), ``core.vhdl``'s
``_ALU_ROWS`` / ``_CMP_ROWS`` (one row per op, rendered at its width),
and the ``_ALU_LUTS`` cost. Nothing here is hand-listed: the
instructions are generated from ``isa.ALU_OP_NAMES`` and
``isa.JMP_SYMBOLS``, so a row added to either table is swept the moment
it exists — and fails until all five definitions do.

* :class:`TestSpecialisedMatchesReference` — the full grid, pure
  Python: the source text, compiled here into a function, equals
  ``alu_step`` / ``cmp_step``.
* :class:`TestTheReferenceIsIndependent` — a wrong row of the text is a
  mismatch on the default ``run_differential`` pair, and a wrong VHDL
  row one on ``vm`` against ``rtl``: the ``vm`` leg runs neither.
* :class:`TestEveryRowIsComplete` — each row has its specialisation, its
  VHDL row rendered at 32 and 64 bits, its LUT cost and an asm <->
  disasm round trip; the stack atomics' rows are ALU rows.
* :class:`TestAllEngines` — the same instructions, packed several to a
  program, through ``run_differential`` on all five engines; this is
  what guards the VHDL rows. (``rtl-interp`` costs ~70 ms per frame on
  these programs, so it sees one diagonal of the operand grid; ``rtl``
  — the same netlist, compiled — sees all of it.)

The atomics ride the same grid, a row per ``isa.ATOMIC_OP_NAMES`` entry
at 4 and 8 bytes: ``atomic_step`` (the reference tier's one value rule)
predicts what the ``Vm`` leaves in memory and registers, and the same
programs go through all five engines — ``hwsim/codegen.py``'s
``_atomic_lines`` text and the VHDL atomic block are the specialised
renderings this holds to it.

The map-channel helpers ride it too, a row per ``map_channel`` entry of
``helpers.HELPERS`` and map kind: ``channel_step`` (the reference tier's
one rule for what a request does to its map and leaves in r0) predicts
what the ``Vm`` does over hit, miss, full-map and update-flag requests,
and the same programs go through all five engines.
"""

import dataclasses
import itertools
import struct

import pytest

from repro.core import compile_program, vhdl
from repro.core.resources import _ALU_LUTS
from repro.core.vhdl import _alu_expr, _cmp_expr, _swap_expr, emit_vhdl
from repro.ebpf import isa
from repro.ebpf.asm import assemble_program
from repro.ebpf.disasm import format_instruction
from repro.ebpf.helpers import (
    BPF_MAP_DELETE_ELEM, BPF_MAP_LOOKUP_ELEM, BPF_MAP_UPDATE_ELEM,
    BPF_REDIRECT_MAP, HELPERS, channel_step, helper_spec,
)
from repro.ebpf.isa import MASK64, Instruction, MapSpec, Program
from repro.ebpf.maps import (
    _MAP_CLASSES, BPF_ANY, BPF_EXIST, BPF_NOEXIST, MapSet,
)
from repro.ebpf import opfns
from repro.ebpf.opfns import alu_source, cmp_source
from repro.ebpf.verifier import VerifierError
from repro.ebpf.vm import Vm, alu_step, atomic_step, cmp_step
from repro.ebpf.xdp import AddressSpace, XdpAction
from repro.hwsim import codegen, run_differential
from repro.hwsim.engines import engine_names
from repro.rtl.codegen import schedule_digest

VALUES = (0, 1, 2**64 - 1, 2**31, 2**32 - 1, 2**63, 32, 63, 65)
IMMS = (0, -1, 32, 63, -2**31)
DST, SRC = 3, 9
PAIRS = tuple(itertools.product(VALUES, VALUES))


def alu_rows(op):
    """Every instruction shape of one ``isa.ALU_OP_NAMES`` row: both
    widths, register and each immediate operand."""
    if op == isa.BPF_END:
        return [isa.endian(DST, bits, to_big)
                for bits in isa.SWAP_WIDTHS for to_big in (True, False)]
    rows = []
    for cls in (isa.BPF_ALU64, isa.BPF_ALU):
        if op == isa.BPF_NEG:
            rows.append(Instruction(cls | isa.BPF_K | op, dst=DST))
            continue
        rows.append(Instruction(cls | isa.BPF_X | op, dst=DST, src=SRC))
        rows += [Instruction(cls | isa.BPF_K | op, dst=DST, imm=imm)
                 for imm in IMMS]
    return rows


def jmp_rows(op, off=0):
    rows = []
    for cls in (isa.BPF_JMP, isa.BPF_JMP32):
        rows.append(
            Instruction(cls | isa.BPF_X | op, dst=DST, src=SRC, off=off))
        rows += [Instruction(cls | isa.BPF_K | op, dst=DST, imm=imm, off=off)
                 for imm in IMMS]
    return rows


def _compile(lines):
    namespace = {}
    exec("def fn(regs):\n" + "".join(f"    {ln}\n" for ln in lines),
         namespace)
    return namespace["fn"]


def alu_fn(insn):
    """``alu_source`` as ``fn(regs)``, or ``None`` for an op without
    text."""
    lines = alu_source(insn)
    return None if lines is None else _compile(lines)


def cmp_fn(insn):
    """``cmp_source`` as ``fn(regs) -> taken``, or ``None``."""
    source = cmp_source(insn)
    if source is None:
        return None
    prelude, cond = source
    return _compile(prelude + [f"return {cond}"])


def _regs(a, b):
    regs = [0] * isa.NUM_REGS
    regs[DST], regs[SRC] = a, b
    return regs


class TestSpecialisedMatchesReference:
    @pytest.mark.parametrize(
        "op", isa.ALU_OP_NAMES, ids=isa.ALU_OP_NAMES.get)
    def test_alu(self, op):
        for insn in alu_rows(op):
            fn = alu_fn(insn)
            for a, b in PAIRS:
                got, want = _regs(a, b), _regs(a, b)
                fn(got)
                alu_step(insn, want)
                assert got == want, (format_instruction(insn), a, b)

    @pytest.mark.parametrize(
        "op", isa.ALU_SYMBOLS, ids=isa.ALU_OP_NAMES.get)
    def test_alu_on_one_register(self, op):
        # dst is src: the text must read both before it writes
        for cls in (isa.BPF_ALU64, isa.BPF_ALU):
            insn = Instruction(cls | isa.BPF_X | op, dst=DST, src=DST)
            fn = alu_fn(insn)
            for a in VALUES:
                got, want = _regs(a, 0), _regs(a, 0)
                fn(got)
                alu_step(insn, want)
                assert got == want, (format_instruction(insn), a)

    @pytest.mark.parametrize(
        "op", isa.JMP_SYMBOLS, ids=isa.JMP_OP_NAMES.get)
    def test_jump(self, op):
        for insn in jmp_rows(op):
            fn = cmp_fn(insn)
            for a, b in PAIRS:
                regs = _regs(a, b)
                assert bool(fn(regs)) == cmp_step(insn, regs), \
                    (format_instruction(insn), a, b)
                assert regs == _regs(a, b)


class TestEveryRowIsComplete:
    def test_the_tables_agree_on_the_rows(self):
        assert set(isa.ALU_OP_NAMES) \
            == set(isa.ALU_SYMBOLS) | {isa.BPF_NEG, isa.BPF_END}
        assert set(isa.JMP_OP_NAMES) \
            == set(isa.JMP_SYMBOLS) | {isa.BPF_JA, isa.BPF_CALL, isa.BPF_EXIT}
        assert set(_ALU_LUTS) == set(isa.ALU_OP_NAMES)
        assert set(vhdl._ALU_ROWS) == set(isa.ALU_OP_NAMES) - {isa.BPF_END}
        assert set(vhdl._CMP_ROWS) == set(isa.JMP_SYMBOLS)
        # a stack atomic renders the ALU row of its name
        assert set(isa.ATOMIC_SYMBOLS) <= set(vhdl._ALU_ROWS)

    @pytest.mark.parametrize(
        "op", isa.ALU_OP_NAMES, ids=isa.ALU_OP_NAMES.get)
    def test_alu_row(self, op):
        assert _ALU_LUTS[op] > 0
        for insn in alu_rows(op):
            assert alu_fn(insn) is not None
            if op == isa.BPF_END:
                assert _swap_expr("a", insn.imm, insn.uses_reg_src)
            else:
                assert _alu_expr(op, "a", "b", 64 if insn.is_alu64 else 32)
            self._round_trips(insn)

    @pytest.mark.parametrize(
        "op", isa.JMP_SYMBOLS, ids=isa.JMP_OP_NAMES.get)
    def test_jump_row(self, op):
        for insn in jmp_rows(op):
            assert cmp_fn(insn) is not None
            assert _cmp_expr(op, "a", "b",
                             64 if insn.opclass == isa.BPF_JMP else 32)
            self._round_trips(insn)

    def test_a_full_width_copy_is_its_operand(self):
        # zero-extending by 0 bits hands the operand back
        assert _alu_expr(isa.BPF_MOV, "a", "b", 64) == "b"
        assert _swap_expr("a", 64, to_big=False) == "a"
        assert _alu_expr(isa.BPF_MOV, "a", "b", 32) \
            == "std_logic_vector(resize(resize(unsigned(b), 32), 64))"

    @staticmethod
    def _round_trips(insn):
        text = format_instruction(insn)
        assert assemble_program(text + "\nexit").instructions[0] == insn, text


class TestTheReferenceIsIndependent:
    """One row of the specialised text made wrong (XOR emits OR's text,
    JGT JLT's), where every consumer reads it: the default differential
    pair, ``vm`` against ``codegen``, must report it. It reports nothing
    if the VM executes the same text."""

    ROWS = {
        "alu": ("alu_source", isa.BPF_XOR, isa.BPF_OR, """
            r0 = 3
            r0 ^= 1
            exit
        """),
        "jump": ("cmp_source", isa.BPF_JGT, isa.BPF_JLT, """
            r0 = 2
            r2 = 5
            if r2 > 3 goto out
            r0 = 1
        out:
            exit
        """),
    }

    @pytest.mark.parametrize("row", sorted(ROWS))
    def test_a_wrong_row_is_a_mismatch(self, monkeypatch, row):
        name, op, other, source = self.ROWS[row]
        program = assemble_program(source)
        frames = [bytes(64)] * 2
        assert run_differential(program, frames).ok
        right = getattr(opfns, name)

        def wrong(insn, *args):
            if insn.op == op:
                insn = dataclasses.replace(
                    insn, opcode=insn.opcode ^ op ^ other)
            return right(insn, *args)

        for module in (opfns, codegen):
            monkeypatch.setattr(module, name, wrong)
        result = run_differential(program, frames)  # compiles uncached
        assert [(m.index, m.what) for m in result.mismatches] \
            == [(0, "action"), (1, "action")]

    VHDL_TABLES = {"alu": "_ALU_ROWS", "jump": "_CMP_ROWS"}

    @pytest.mark.parametrize("row", sorted(ROWS))
    def test_a_wrong_vhdl_row_is_a_mismatch(self, monkeypatch, row):
        # the same wrong row in core.vhdl's table: the rtl leg runs it
        _name, op, other, source = self.ROWS[row]
        program = assemble_program(source)
        pipeline = compile_program(program)
        frames = [bytes(64)] * 2
        legs = ["vm", "rtl"]
        right = emit_vhdl(pipeline)
        assert run_differential(program, frames, pipeline=pipeline,
                                engines=legs).ok
        table = getattr(vhdl, self.VHDL_TABLES[row])
        monkeypatch.setitem(table, op, table[other])
        # the compiled schedule is keyed by the text, so a changed row
        # is never served from one cached for the right text
        assert schedule_digest(emit_vhdl(pipeline)) != schedule_digest(right)
        result = run_differential(program, frames, pipeline=pipeline,
                                  engines=legs)
        assert [(m.index, m.what) for m in result.mismatches] \
            == [(0, "action"), (1, "action")]


# -- the same rows on all five engines ----------------------------------------
#
# A frame carries the two operands; the program loads them, runs a batch
# of rows and writes every result back into the frame, so a disagreement
# on any one row is a "packet bytes" mismatch at that frame.

_DATA, _END, _A, _B, _ACC = 6, 7, 8, 2, 4  # scratch registers
# Each value once as either operand: shifts by 32/63/65, x / 0, -1 % 32.
DIAGONAL = tuple((VALUES[i], VALUES[(i + 4) % 9]) for i in range(9))


def _chunks(ops, per_program):
    ops = list(ops)
    return [tuple(ops[i:i + per_program])
            for i in range(0, len(ops), per_program)]


def _frame_program(name, body, result_bytes):
    """``body`` between the operand loads and ``return XDP_PASS``."""
    size = 16 + result_bytes
    head = [
        isa.load(isa.BPF_W, _DATA, 1, 0),
        isa.load(isa.BPF_W, _END, 1, 4),
        isa.mov64_reg(_ACC, _DATA),
        isa.alu64_imm(isa.BPF_ADD, _ACC, size),
        # short frame: skip body and the pass epilogue, return XDP_DROP
        isa.jump_reg(isa.BPF_JGT, _ACC, _END,
                     sum(insn.slots for insn in body) + 4),
        isa.load(isa.BPF_DW, _A, _DATA, 0),
        isa.load(isa.BPF_DW, _B, _DATA, 8),
    ]
    tail = [
        isa.mov64_imm(0, 2), isa.exit_(),
        isa.mov64_imm(0, 1), isa.exit_(),
    ]
    return Program(head + body + tail, name=name), size


def alu_program(ops):
    body = []
    slot = 0
    for op in ops:
        for insn in alu_rows(op):
            body += [
                isa.mov64_reg(DST, _A),
                isa.mov64_reg(SRC, _B),
                insn,
                isa.store_reg(isa.BPF_DW, _DATA, DST, 16 + 8 * slot),
            ]
            slot += 1
    name = "alu_" + "_".join(isa.ALU_OP_NAMES[op] for op in ops)
    return _frame_program(name, body, 8 * slot)


def jump_program(ops):
    """One result bit per row: set when the branch falls through."""
    body = [
        isa.mov64_reg(DST, _A),
        isa.mov64_reg(SRC, _B),
        isa.mov64_imm(_ACC, 0),
    ]
    words = 0
    bit = 0
    for op in ops:
        for insn in jmp_rows(op, off=1):
            body += [insn, isa.alu64_imm(isa.BPF_OR, _ACC, 1 << bit)]
            bit += 1
            if bit == 31:
                body += [isa.store_reg(isa.BPF_DW, _DATA, _ACC, 16 + 8 * words),
                         isa.mov64_imm(_ACC, 0)]
                words, bit = words + 1, 0
    body.append(isa.store_reg(isa.BPF_DW, _DATA, _ACC, 16 + 8 * words))
    name = "jmp_" + "_".join(isa.JMP_OP_NAMES[op] for op in ops)
    return _frame_program(name, body, 8 * (words + 1))


# Nothing caps a jump program any more (a branch costs two stages and
# the stream body used to nest one indentation level per stage, of
# Python's 100; tests/test_codegen.py::TestStreamPath now holds a
# 100-stage pipeline to the reference). Three rows to a program — 36
# branches, ~75 stages — is kept for what it buys: a failing id names
# at most three ops, and the two RTL engines elaborate every stage.
PROGRAMS = (
    [alu_program(ops) for ops in _chunks(isa.ALU_OP_NAMES, 4)]
    + [jump_program(ops) for ops in _chunks(isa.JMP_SYMBOLS, 3)]
)


# -- atomics ------------------------------------------------------------------
#
# Per row: a slot is set to operand A, r0 to what cmpxchg expects, the
# row runs with operand B as its source, and r0, the source register and
# the slot all go back into the frame. Each shape runs twice: on the
# value of a one-entry array map (the generated source's inline text,
# the RTL's map block) and on the stack (the VHDL's own expressions).
# The map slot is written by an 8-byte xchg and read by a fetching add
# of 0: a plain store would sit in the WAR buffer, and the generated
# source inlines an atomic only where no write of the packet's own can
# pend.

_PTR = 5  # the looked-up value; no call follows the lookup
_SLOT = -16  # the stack slot, from r10
ATOMIC_SIZES = (isa.BPF_W, isa.BPF_DW)


def atomic_rows(imm):
    """``(instruction, register r0 is copied from)`` per shape of one
    ``isa.ATOMIC_OP_NAMES`` row: map value and stack, both widths;
    cmpxchg once expecting the old value (a hit) and once the source
    operand (a miss)."""
    expects = (_A, _B) if imm == isa.ATOMIC_CMPXCHG else (_A,)
    return [(isa.atomic_op(size, base, SRC, off, imm), expected)
            for base, off in ((_PTR, 0), (isa.R10, _SLOT))
            for size in ATOMIC_SIZES for expected in expects]


def atomic_program(imm):
    shapes = atomic_rows(imm)
    rows = []
    for slot, (insn, expected) in enumerate(shapes):
        if insn.dst == _PTR:
            write = [
                isa.mov64_reg(SRC, _A),
                isa.atomic_op(isa.BPF_DW, _PTR, SRC, 0, isa.ATOMIC_XCHG),
            ]
            read = [
                isa.mov64_imm(DST, 0),
                isa.atomic_op(isa.BPF_DW, _PTR, DST, 0,
                              isa.ATOMIC_ADD | isa.BPF_FETCH),
            ]
        else:
            write = [isa.store_reg(isa.BPF_DW, isa.R10, _A, _SLOT)]
            read = [isa.load(isa.BPF_DW, DST, isa.R10, _SLOT)]
        rows += write + [
            isa.mov64_reg(0, expected),
            isa.mov64_reg(SRC, _B),
            insn,
            isa.store_reg(isa.BPF_DW, _DATA, 0, 16 + 24 * slot),
            isa.store_reg(isa.BPF_DW, _DATA, SRC, 24 + 24 * slot),
        ] + read + [
            isa.store_reg(isa.BPF_DW, _DATA, DST, 32 + 24 * slot),
        ]
    lookup = [
        isa.store_imm(isa.BPF_W, isa.R10, -4, 0),
        isa.ld_map_fd(1, 1),
        isa.mov64_reg(2, isa.R10),
        isa.alu64_imm(isa.BPF_ADD, 2, -4),
        isa.call(1),
        isa.jump_imm(isa.BPF_JEQ, 0, 0, 2 + len(rows)),
        isa.mov64_reg(_PTR, 0),
        isa.load(isa.BPF_DW, _B, _DATA, 8),  # the call scrubbed it
    ]
    program, size = _frame_program(
        "atomic_" + isa.ATOMIC_OP_NAMES[imm], lookup + rows, 24 * len(shapes))
    program.maps[1] = MapSpec("slot", "array", 4, 8, 1)
    return program, size


def atomic_results(imm, a, b):
    """The result bytes of ``atomic_program(imm)`` on operands a, b, by
    ``atomic_step`` and the write-back rule."""
    out = b""
    for insn, expected in atomic_rows(imm):
        mask = (1 << (8 * insn.size_bytes)) - 1
        r0 = a if expected == _A else b
        src, old = b, a & mask
        new = atomic_step(imm, old, src, r0, mask)
        if imm == isa.ATOMIC_CMPXCHG:
            r0 = old
        elif imm & isa.BPF_FETCH:
            src = old
        out += b"".join(v.to_bytes(8, "little")
                        for v in (r0, src, a & ~mask | new))
    return out


ATOMIC_PROGRAMS = [atomic_program(imm) for imm in isa.ATOMIC_OP_NAMES]


class TestAtomicStep:
    def test_the_edges_by_hand(self):
        w, dw = isa.MASK32, MASK64
        assert atomic_step(isa.ATOMIC_ADD, w, 1, 0, w) == 0  # 32-bit wrap
        assert atomic_step(isa.ATOMIC_ADD | isa.BPF_FETCH, dw, 2, 0, dw) == 1
        assert atomic_step(isa.ATOMIC_ADD, 1, 2**32 + 1, 0, w) == 2
        assert atomic_step(isa.ATOMIC_XCHG, 5, 2**32 + 9, 0, w) == 9
        assert atomic_step(isa.ATOMIC_CMPXCHG, 5, 9, 2**32 + 5, w) == 9  # hit
        assert atomic_step(isa.ATOMIC_CMPXCHG, 5, 9, 2**32 + 5, dw) == 5
        assert atomic_step(isa.ATOMIC_XOR | isa.BPF_FETCH, 6, 3, 0, dw) == 5

    @pytest.mark.parametrize(
        "imm", isa.ATOMIC_OP_NAMES, ids=isa.ATOMIC_OP_NAMES.get)
    def test_the_vm_leaves_what_atomic_step_says(self, imm):
        program, size = atomic_program(imm)
        vm = Vm(program)
        for (a, b), frame in zip(PAIRS, _frames(PAIRS, size)):
            result = vm.run(frame)
            assert result.packet[16:] == atomic_results(imm, a, b), \
                (isa.ATOMIC_OP_NAMES[imm], a, b)

    @pytest.mark.parametrize("imm", isa.ATOMIC_OP_NAMES,
                             ids=isa.ATOMIC_OP_NAMES.get)
    def test_every_row_round_trips(self, imm):
        for insn, _expected in atomic_rows(imm):
            TestEveryRowIsComplete._round_trips(insn)


def _frames(pairs, size):
    return [
        a.to_bytes(8, "little") + b.to_bytes(8, "little") + bytes(size - 16)
        for a, b in pairs
    ] + [bytes(size - 1)]  # the drop arm


# -- map-channel helpers ------------------------------------------------------
#
# A row per ``map_channel`` helper of ``HELPERS`` and map kind of
# ``maps._MAP_CLASSES``. A frame carries the request: a u32 key at 0, a
# u32 argument at 4 (an update's flags; redirect_map's miss action) and
# an update's u64 value at 8. The program copies key and value to the
# stack, makes the call and writes r0 back at 16; a lookup hit also
# writes the value it points to at 24. A map of four slots starts with
# keys 0-2 set up. ``hwsim/codegen.py``'s folded lookup / redirect_map
# text and the VHDL map port are the specialised renderings the engine
# rows hold to ``channel_step``.

CHANNEL_ROWS = [
    (spec.helper_id, kind)
    for spec, _impl in HELPERS.values() if spec.map_channel
    for kind in _MAP_CLASSES
]
CHANNEL_IDS = [f"{helper_spec(h).name}-{k}" for h, k in CHANNEL_ROWS]
CHANNEL_FRAMES = [
    struct.pack("<IIQ", key, arg, value) + bytes(40)
    for key, arg, value in (
        (1, BPF_ANY, 0xA1),  # hit
        (1, BPF_NOEXIST, 0xA2),  # hit: refused by an update
        (1, BPF_EXIST, 0xA3),
        (7, BPF_EXIST, 0xA4),  # miss (out of range for an array)
        (3, BPF_NOEXIST, 0xA5),  # a hash-map insert fills the map
        (6, BPF_ANY, 0xA6),  # full: hash refuses, lru_hash evicts
        (0, BPF_NOEXIST, 0xA7),
        (2, BPF_ANY, 0xA8),
        (1, BPF_ANY, 0xA9),
    )
]


def channel_refused(helper_id, kind):
    """The verifier refuses a delete on an array kind."""
    return helper_id == BPF_MAP_DELETE_ELEM and "array" in kind


def channel_setup(maps):
    table = maps.by_name("t")
    for key in range(3):
        table.update(struct.pack("<I", key),
                     struct.pack("<Q", 0x11 * (key + 1)))


def channel_program(helper_id, kind):
    if helper_id == BPF_REDIRECT_MAP:  # the key is r2 itself
        args = ["r2 = *(u32 *)(r6 + 0)", "r3 = *(u32 *)(r6 + 4)"]
    else:
        args = ["r2 = r10", "r2 += -4"]
    if helper_id == BPF_MAP_UPDATE_ELEM:
        args += ["r3 = r10", "r3 += -16", "r4 = *(u32 *)(r6 + 4)"]
    deref = (["if r0 == 0 goto out", "r2 = *(u64 *)(r0 + 0)",
              "*(u64 *)(r6 + 24) = r2"]
             if helper_id == BPF_MAP_LOOKUP_ELEM else [])
    source = "\n".join([
        "r6 = *(u32 *)(r1 + 0)",
        "r7 = *(u32 *)(r1 + 4)",
        "r8 = r6",
        "r8 += 32",
        "if r8 > r7 goto drop",
        "r2 = *(u32 *)(r6 + 0)",
        "*(u32 *)(r10 - 4) = r2",
        "r2 = *(u64 *)(r6 + 8)",
        "*(u64 *)(r10 - 16) = r2",
        "r1 = map[t]",
        *args,
        f"call {helper_id}",
        "*(u64 *)(r6 + 16) = r0",
        *deref,
        "out:",
        # redirect_map's r0 is the verdict
        "exit" if helper_id == BPF_REDIRECT_MAP else "r0 = 2\nexit",
        "drop:",
        "r0 = 1",
        "exit",
    ])
    return assemble_program(
        source, maps={"t": MapSpec("t", kind, 4, 8, 4)},
        name=f"{helper_spec(helper_id).name}_{kind}")


class TestChannelStep:
    def test_the_edges_by_hand(self):
        array, hashed, lru = 1, 2, 3  # fds, two slots each
        maps = MapSet({fd: MapSpec("t", kind, 4, 8, 2) for fd, kind in (
            (array, "array"), (hashed, "hash"), (lru, "lru_hash"))})
        k = [struct.pack("<I", i) for i in range(4)]
        v = struct.pack("<Q", 0x0102030405060708)

        def step(helper_id, fd, key, arg=BPF_ANY, value=v):
            return channel_step(helper_id, fd, maps[fd], key, value, arg)

        neg1 = MASK64
        # update: the flags are arg & 3; a refusal is -1 and no slot
        assert step(BPF_MAP_UPDATE_ELEM, hashed, k[0], 4 | BPF_NOEXIST) \
            == (0, 0, None)
        assert step(BPF_MAP_UPDATE_ELEM, hashed, k[0], BPF_NOEXIST) \
            == (neg1, None, None)
        assert step(BPF_MAP_UPDATE_ELEM, hashed, k[1], BPF_EXIST) \
            == (neg1, None, None)
        assert step(BPF_MAP_UPDATE_ELEM, hashed, k[1])[:2] == (0, 1)
        assert step(BPF_MAP_UPDATE_ELEM, hashed, k[2]) \
            == (neg1, None, None)  # full
        assert step(BPF_MAP_UPDATE_ELEM, array, k[2]) \
            == (neg1, None, None)  # out of range
        assert step(BPF_MAP_UPDATE_ELEM, array, k[1], BPF_NOEXIST) \
            == (neg1, None, None)  # array entries always exist
        step(BPF_MAP_UPDATE_ELEM, lru, k[0])
        step(BPF_MAP_UPDATE_ELEM, lru, k[1])
        assert step(BPF_MAP_UPDATE_ELEM, lru, k[2]) == (0, 0, None)
        assert maps[lru].lru_keys() == [k[1], k[2]]  # full: k[0] evicted
        # lookup: the value address, or 0
        base = AddressSpace.map_value_addr(hashed, 0)
        assert step(BPF_MAP_LOOKUP_ELEM, hashed, k[1]) \
            == (base + 8, 1, None)
        assert step(BPF_MAP_LOOKUP_ELEM, hashed, k[3]) == (0, None, None)
        # delete: 0 and the freed slot, or -1 (a MapError too)
        assert step(BPF_MAP_DELETE_ELEM, hashed, k[1]) == (0, 1, None)
        assert step(BPF_MAP_DELETE_ELEM, hashed, k[1]) \
            == (neg1, None, None)
        assert step(BPF_MAP_DELETE_ELEM, array, k[0]) \
            == (neg1, None, None)
        # redirect_map: XDP_REDIRECT and the value's low 4 bytes on a
        # hit with a 4-byte key, else arg's low 32 bits
        assert step(BPF_REDIRECT_MAP, hashed, k[0], value=None) \
            == (int(XdpAction.REDIRECT), 0, 0x05060708)
        assert step(BPF_REDIRECT_MAP, hashed, k[3], 2**32 + 2) \
            == (2, None, None)
        wide = MapSet({1: MapSpec("w", "hash", 8, 8, 2)})[1]
        wide.update(bytes(8), v)
        assert channel_step(BPF_REDIRECT_MAP, 1, wide, k[0], None, 1) \
            == (1, None, None)

    @pytest.mark.parametrize(
        "helper_id, kind", CHANNEL_ROWS, ids=CHANNEL_IDS)
    def test_the_vm_does_what_channel_step_says(self, helper_id, kind):
        program = channel_program(helper_id, kind)
        maps, model = MapSet(program.maps), MapSet(program.maps)
        channel_setup(maps)
        channel_setup(model)
        fd = model.fd_of("t")
        vm = Vm(program, maps=maps)
        hits = set()
        for frame in CHANNEL_FRAMES:
            result = vm.run(frame)
            key, arg, value = struct.unpack_from("<IIQ", frame)
            r0, slot, ifindex = channel_step(
                helper_id, fd, model[fd], struct.pack("<I", key),
                struct.pack("<Q", value), arg)
            assert struct.unpack_from("<Q", result.packet, 16)[0] == r0
            assert result.redirect_ifindex == ifindex
            hits.add(slot is not None)
        if not channel_refused(helper_id, kind):
            assert hits == {True, False}  # the frames reach both outcomes
        assert list(maps[fd].items()) == list(model[fd].items())


class TestAllEngines:
    @pytest.mark.parametrize(
        "program, size", PROGRAMS, ids=[p.name for p, _size in PROGRAMS])
    def test_every_engine_agrees_with_the_vm(self, program, size):
        fast = [name for name in engine_names() if name != "rtl-interp"]
        grid = run_differential(program, _frames(PAIRS, size), engines=fast)
        grid.raise_on_mismatch()
        diagonal = run_differential(
            program, _frames(DIAGONAL, size), engines=engine_names())
        assert list(diagonal.runs) == engine_names()
        diagonal.raise_on_mismatch()

    @pytest.mark.parametrize(
        "helper_id, kind", CHANNEL_ROWS, ids=CHANNEL_IDS)
    def test_every_engine_agrees_on_the_map_channel(self, helper_id, kind):
        program = channel_program(helper_id, kind)
        if channel_refused(helper_id, kind):
            with pytest.raises(VerifierError, match="cannot be deleted"):
                compile_program(program)
            return
        # One packet in flight, as for the atomics: a request re-run by
        # a flush restart (Appendix A.2) is not a divergence here.
        pipeline = compile_program(program)
        diff = run_differential(
            program, CHANNEL_FRAMES, pipeline=pipeline,
            gap=pipeline.n_stages + 2, setup=channel_setup,
            engines=engine_names())
        assert list(diff.runs) == engine_names()
        diff.raise_on_mismatch()

    @pytest.mark.parametrize(
        "program, size", ATOMIC_PROGRAMS,
        ids=[p.name for p, _size in ATOMIC_PROGRAMS])
    def test_every_engine_agrees_on_the_atomics(self, program, size):
        # One packet in flight: atomics run in place, in packet order
        # per stage, so a neighbour's rows would interleave with these.
        pipeline = compile_program(program)
        kwargs = dict(pipeline=pipeline, gap=pipeline.n_stages + 2)
        fast = [name for name in engine_names() if name != "rtl-interp"]
        grid = run_differential(
            program, _frames(PAIRS, size), engines=fast, **kwargs)
        grid.raise_on_mismatch()
        diagonal = run_differential(
            program, _frames(DIAGONAL, size), engines=engine_names(),
            **kwargs)
        assert list(diagonal.runs) == engine_names()
        diagonal.raise_on_mismatch()
