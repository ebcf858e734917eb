"""eBPF assembler.

Parses the Linux verifier's textual syntax (the notation used by the paper
in Listing 2) into :class:`~repro.ebpf.isa.Instruction` objects. Supported
forms::

    r1 = 3                      ; mov64 immediate
    r1 = r2                     ; mov64 register
    w1 = 7                      ; 32-bit ALU (mov32)
    r1 += r2   /  r1 <<= 8      ; ALU ops (+,-,*,/,%,&,|,^,<<,>>,s>>)
    r1 = -r1                    ; negate
    r1 = be16 r1 / r1 = le64 r1 ; byte swap
    r2 = *(u8 *)(r1 + 12)       ; memory load
    *(u32 *)(r10 - 4) = r3      ; memory store (register)
    *(u32 *)(r10 - 4) = 7       ; memory store (immediate)
    lock *(u64 *)(r1 + 0) += r2 ; atomic add
    if r1 == 34525 goto +4      ; conditional branch (==,!=,<,<=,>,>=,s<,...)
    if w1 & 3 goto end          ; jset, label target
    goto +2  /  goto done       ; unconditional branch
    call 1                      ; helper call by id
    call bpf_map_lookup_elem    ; helper call by name
    r1 = 81985529216486895 ll   ; 64-bit immediate load
    r1 = map[stats]             ; map reference (needs the maps= argument)
    exit

Lines may carry labels (``drop:``) and comments (``;``, ``#`` or ``//``).
Branch targets may be relative (``+N``/``-N``, counted in encoding *slots*
like the kernel does) or symbolic labels.

Standalone source files can declare their maps inline with a directive::

    .map stats array key=4 value=8 entries=4
    .map flows hash  key=16 value=8 entries=8192

which :func:`assemble_program` turns into :class:`MapSpec` entries (fds
assigned in declaration order), making an ``.ebpf`` text file a complete,
loadable program — the input format of the command-line tool.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import isa
from .helpers import HELPER_IDS_BY_NAME
from .isa import Instruction, MapSpec, Program


class AsmError(ValueError):
    """Raised on syntax errors, with the offending line in the message."""


_LABEL_RE = re.compile(r"^([A-Za-z_.][\w.]*)\s*:\s*(.*)$")
_REG_RE = re.compile(r"^([rw])(\d+)$")
_MEM_RE = re.compile(
    r"^\*\(\s*(u8|u16|u32|u64)\s*\*\s*\)\s*\(\s*r(\d+)\s*([+-])\s*(\d+)\s*\)$"
)
_SWAP_RE = re.compile(r"^(be|le)(16|32|64)$")
_MAP_RE = re.compile(r"^map\[([\w.]+)\]$")


def _strip_comment(line: str) -> str:
    for marker in (";", "#", "//"):
        idx = line.find(marker)
        if idx >= 0:
            line = line[:idx]
    return line.strip()


def _parse_int(token: str) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AsmError(f"expected integer, got {token!r}")


def _parse_reg(token: str) -> Tuple[int, bool]:
    """Return (register number, is_32bit)."""
    m = _REG_RE.match(token)
    if not m:
        raise AsmError(f"expected register, got {token!r}")
    num = int(m.group(2))
    if num > 10:
        raise AsmError(f"register out of range: {token!r}")
    return num, m.group(1) == "w"


def _size_for(name: str) -> int:
    return {"u8": isa.BPF_B, "u16": isa.BPF_H, "u32": isa.BPF_W, "u64": isa.BPF_DW}[
        name
    ]


class _PendingJump:
    """A branch whose slot offset is resolved after the full parse."""

    def __init__(
        self,
        index: int,
        target: Union[int, str],
        line_no: int,
    ) -> None:
        self.index = index  # instruction index in the output list
        self.target = target  # relative slot offset (int) or label (str)
        self.line_no = line_no


_MAP_DIRECTIVE_RE = re.compile(
    r"^\.map\s+(\w+)\s+(\w+)\s+key=(\d+)\s+value=(\d+)\s+entries=(\d+)$"
)


class Assembler:
    """Two-pass assembler: parse lines, then resolve labels to offsets."""

    def __init__(self, maps: Optional[Dict[str, int]] = None) -> None:
        self._map_fds = dict(maps or {})
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}  # label -> instruction index
        self._pending: List[_PendingJump] = []
        self._line_no = 0
        self.declared_maps: Dict[str, MapSpec] = {}

    # -- public API ---------------------------------------------------------

    def assemble(self, source: str) -> List[Instruction]:
        for raw in source.splitlines():
            self._line_no += 1
            line = _strip_comment(raw)
            if line.startswith(".map"):
                self._parse_map_directive(line)
                continue
            while True:
                m = _LABEL_RE.match(line)
                if not m or _looks_like_mem(line):
                    break
                self._labels[m.group(1)] = len(self._instructions)
                line = m.group(2).strip()
            if line:
                self._parse_line(line)
        self._resolve()
        return self._instructions

    def _parse_map_directive(self, line: str) -> None:
        m = _MAP_DIRECTIVE_RE.match(line)
        if not m:
            raise self._error(
                "bad .map directive; expected "
                "'.map <name> <type> key=N value=N entries=N'"
            )
        name, map_type, key_size, value_size, entries = m.groups()
        if name in self.declared_maps:
            raise self._error(f"duplicate map {name!r}")
        self.declared_maps[name] = MapSpec(
            name, map_type, int(key_size), int(value_size), int(entries)
        )
        self._map_fds[name] = len(self.declared_maps)

    # -- parsing -------------------------------------------------------------

    def _error(self, message: str) -> AsmError:
        return AsmError(f"line {self._line_no}: {message}")

    def _emit(self, insn: Instruction) -> None:
        self._instructions.append(insn)

    def _parse_line(self, line: str) -> None:
        if line == "exit":
            self._emit(isa.exit_())
            return
        if line.startswith("call "):
            self._parse_call(line[5:].strip())
            return
        if line.startswith("goto "):
            self._parse_goto(isa.BPF_JA, None, line[5:].strip(), jmp32=False)
            return
        if line.startswith("if "):
            self._parse_branch(line[3:].strip())
            return
        if line.startswith("lock "):
            self._parse_atomic(line[5:].strip())
            return
        if line.startswith("*("):
            self._parse_store(line)
            return
        self._parse_assignment(line)

    def _parse_call(self, operand: str) -> None:
        if operand in HELPER_IDS_BY_NAME:
            self._emit(isa.call(HELPER_IDS_BY_NAME[operand]))
            return
        self._emit(isa.call(_parse_int(operand)))

    def _parse_goto(
        self,
        op: int,
        cond: Optional[Tuple[int, bool, Optional[int], Optional[int]]],
        target: str,
        jmp32: bool,
    ) -> None:
        """Emit a jump; ``cond`` is (dst, uses_reg, src, imm) or None for JA."""
        cls = isa.BPF_JMP32 if jmp32 else isa.BPF_JMP
        if cond is None:
            insn = Instruction(isa.BPF_JMP | isa.BPF_JA)
        else:
            dst, uses_reg, src, imm = cond
            if uses_reg:
                insn = Instruction(cls | isa.BPF_X | op, dst=dst, src=src or 0)
            else:
                insn = Instruction(cls | isa.BPF_K | op, dst=dst, imm=imm or 0)
        index = len(self._instructions)
        self._emit(insn)
        if target.startswith(("+", "-")):
            self._pending.append(_PendingJump(index, _parse_int(target), self._line_no))
        else:
            self._pending.append(_PendingJump(index, target, self._line_no))

    def _parse_branch(self, rest: str) -> None:
        # "<lhs> <op> <rhs> goto <target>"
        idx = rest.rfind(" goto ")
        if idx < 0:
            raise self._error("conditional branch missing 'goto'")
        cond_text = rest[:idx].strip()
        target = rest[idx + 6 :].strip()
        parts = cond_text.split()
        if len(parts) != 3:
            raise self._error(f"cannot parse condition {cond_text!r}")
        lhs, symbol, rhs = parts
        if symbol not in isa.SYMBOL_TO_JMP:
            raise self._error(f"unknown comparison {symbol!r}")
        op = isa.SYMBOL_TO_JMP[symbol]
        dst, word = _parse_reg(lhs)
        if _REG_RE.match(rhs):
            src, src_word = _parse_reg(rhs)
            if src_word != word:
                raise self._error("mixed 32/64-bit operands in comparison")
            self._parse_goto(op, (dst, True, src, None), target, jmp32=word)
        else:
            self._parse_goto(op, (dst, False, None, _parse_int(rhs)), target, jmp32=word)

    def _parse_atomic(self, rest: str) -> None:
        fetch = False
        if rest.startswith("fetch "):
            fetch = True
            rest = rest[6:].strip()
        for op, symbol in isa.ATOMIC_SYMBOLS.items():
            token = f" {symbol} "
            if token in rest:
                mem_text, reg_text = rest.split(token, 1)
                size, base, off = self._parse_mem(mem_text.strip())
                src, word = _parse_reg(reg_text.strip())
                if word:
                    raise self._error("atomic operand must be a 64-bit register")
                imm = op | (isa.BPF_FETCH if fetch else 0)
                self._emit(
                    Instruction(
                        isa.BPF_STX | isa.BPF_ATOMIC | size,
                        dst=base,
                        src=src,
                        off=off,
                        imm=imm,
                    )
                )
                return
        for keyword, imm in (("xchg", isa.ATOMIC_XCHG), ("cmpxchg", isa.ATOMIC_CMPXCHG)):
            token = f" {keyword} "
            if token in rest:
                mem_text, reg_text = rest.split(token, 1)
                size, base, off = self._parse_mem(mem_text.strip())
                src, _ = _parse_reg(reg_text.strip())
                self._emit(
                    Instruction(
                        isa.BPF_STX | isa.BPF_ATOMIC | size,
                        dst=base,
                        src=src,
                        off=off,
                        imm=imm,
                    )
                )
                return
        raise self._error(f"cannot parse atomic operation {rest!r}")

    def _parse_mem(self, text: str) -> Tuple[int, int, int]:
        m = _MEM_RE.match(text)
        if not m:
            raise self._error(f"cannot parse memory operand {text!r}")
        size = _size_for(m.group(1))
        base = int(m.group(2))
        if base > 10:
            raise self._error(f"register out of range in {text!r}")
        off = int(m.group(4))
        if m.group(3) == "-":
            off = -off
        return size, base, off

    def _parse_store(self, line: str) -> None:
        if " = " not in line:
            raise self._error(f"cannot parse store {line!r}")
        mem_text, value_text = line.split(" = ", 1)
        size, base, off = self._parse_mem(mem_text.strip())
        value_text = value_text.strip()
        if _REG_RE.match(value_text):
            src, _ = _parse_reg(value_text)
            self._emit(isa.store_reg(size, base, src, off))
        else:
            self._emit(isa.store_imm(size, base, off, _parse_int(value_text)))

    def _parse_assignment(self, line: str) -> None:
        # Longest symbols first so "<<=" is not matched as "<=" etc.
        for symbol in sorted(isa.SYMBOL_TO_ALU, key=len, reverse=True):
            token = f" {symbol} "
            idx = line.find(token)
            if idx < 0:
                continue
            lhs = line[:idx].strip()
            rhs = line[idx + len(token) :].strip()
            dst, word = _parse_reg(lhs)
            op = isa.SYMBOL_TO_ALU[symbol]
            self._emit_alu(op, dst, word, rhs)
            return
        raise self._error(f"cannot parse statement {line!r}")

    def _emit_alu(self, op: int, dst: int, word: bool, rhs: str) -> None:
        cls = isa.BPF_ALU if word else isa.BPF_ALU64
        if op == isa.BPF_MOV:
            if rhs.endswith(" ll"):
                value = _parse_int(rhs[:-3].strip())
                self._emit(isa.ld_imm64(dst, value))
                return
            m = _MAP_RE.match(rhs)
            if m:
                name = m.group(1)
                if name not in self._map_fds:
                    raise self._error(f"unknown map {name!r}")
                self._emit(isa.ld_map_fd(dst, self._map_fds[name]))
                return
            if rhs.startswith("*("):
                size, base, off = self._parse_mem(rhs)
                self._emit(isa.load(size, dst, base, off))
                return
            if rhs.startswith("-r") or rhs.startswith("-w"):
                src, src_word = _parse_reg(rhs[1:])
                if src != dst or src_word != word:
                    raise self._error("negation must be of the destination register")
                self._emit(Instruction(cls | isa.BPF_K | isa.BPF_NEG, dst=dst))
                return
            swap = rhs.split()
            if len(swap) == 2 and _SWAP_RE.match(swap[0]):
                m2 = _SWAP_RE.match(swap[0])
                src, _ = _parse_reg(swap[1])
                if src != dst:
                    raise self._error("byte swap must target its own register")
                self._emit(
                    isa.endian(dst, int(m2.group(2)), to_big=m2.group(1) == "be")
                )
                return
        if _REG_RE.match(rhs):
            src, src_word = _parse_reg(rhs)
            if src_word != word:
                raise self._error("mixed 32/64-bit ALU operands")
            self._emit(Instruction(cls | isa.BPF_X | op, dst=dst, src=src))
        else:
            self._emit(Instruction(cls | isa.BPF_K | op, dst=dst, imm=_parse_int(rhs)))

    # -- label resolution -----------------------------------------------------

    def _resolve(self) -> None:
        slot_of: List[int] = []
        slot = 0
        for insn in self._instructions:
            slot_of.append(slot)
            slot += insn.slots
        total_slots = slot
        for pending in self._pending:
            insn = self._instructions[pending.index]
            here = slot_of[pending.index]
            if isinstance(pending.target, int):
                off = pending.target
            else:
                if pending.target not in self._labels:
                    raise AsmError(
                        f"line {pending.line_no}: undefined label {pending.target!r}"
                    )
                target_index = self._labels[pending.target]
                target_slot = (
                    slot_of[target_index]
                    if target_index < len(slot_of)
                    else total_slots
                )
                off = target_slot - here - insn.slots
            self._instructions[pending.index] = Instruction(
                insn.opcode, insn.dst, insn.src, off, insn.imm, insn.imm64
            )


def _looks_like_mem(line: str) -> bool:
    """Guard so '*(u32 *)(r10 - 4) = r3' is not parsed as a label."""
    return line.startswith("*(")


def assemble(
    source: str, maps: Optional[Dict[str, int]] = None
) -> List[Instruction]:
    """Assemble source text into a list of instructions."""
    return Assembler(maps=maps).assemble(source)


def assemble_program(
    source: str,
    maps: Optional[Dict[str, MapSpec]] = None,
    name: str = "prog",
) -> Program:
    """Assemble into a :class:`Program`, allocating map fds by name order.

    ``maps`` associates names (used in ``rX = map[name]`` syntax) with
    :class:`MapSpec` definitions; fds are assigned 1, 2, ... in insertion
    order. Maps may instead be declared in the source itself with ``.map``
    directives (mixing both is rejected to avoid fd-numbering surprises).
    """
    maps = maps or {}
    fds = {map_name: fd for fd, map_name in enumerate(maps, start=1)}
    assembler = Assembler(maps=fds)
    instructions = assembler.assemble(source)
    if assembler.declared_maps:
        if maps:
            raise AsmError("pass maps= or use .map directives, not both")
        declared = assembler.declared_maps
        fds = {map_name: fd for fd, map_name in enumerate(declared, start=1)}
        return Program(
            instructions,
            maps={fds[n]: spec for n, spec in declared.items()},
            name=name,
        )
    return Program(
        instructions,
        maps={fds[map_name]: spec for map_name, spec in maps.items()},
        name=name,
    )
