"""eBPF instruction-set architecture model.

This module defines the eBPF instruction encoding exactly as used by the
Linux kernel: each instruction occupies 8 bytes laid out as

    +--------+----+----+--------+------------+
    | opcode |dst |src | offset | immediate  |
    |  8 bit |4bit|4bit| 16 bit |   32 bit   |
    +--------+----+----+--------+------------+

with the exception of ``BPF_LD | BPF_IMM | BPF_DW`` (64-bit immediate load),
which occupies two consecutive 8-byte slots.

The classes here are shared by the assembler, the disassembler, the virtual
machine, the verifier and the eHDL compiler: an instruction is a small
immutable value object (`Instruction`) carrying the decoded fields plus
convenience predicates (``is_load``, ``is_jump`` ...), and programs are
sequences of instructions wrapped by :class:`Program`.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, TypeVar)

# ---------------------------------------------------------------------------
# Instruction classes (low 3 bits of the opcode)
# ---------------------------------------------------------------------------

BPF_LD = 0x00
BPF_LDX = 0x01
BPF_ST = 0x02
BPF_STX = 0x03
BPF_ALU = 0x04
BPF_JMP = 0x05
BPF_JMP32 = 0x06
BPF_ALU64 = 0x07

CLASS_NAMES = {
    BPF_LD: "ld",
    BPF_LDX: "ldx",
    BPF_ST: "st",
    BPF_STX: "stx",
    BPF_ALU: "alu",
    BPF_JMP: "jmp",
    BPF_JMP32: "jmp32",
    BPF_ALU64: "alu64",
}

# ---------------------------------------------------------------------------
# Size field for load/store (bits 3-4)
# ---------------------------------------------------------------------------

BPF_W = 0x00   # 4 bytes
BPF_H = 0x08   # 2 bytes
BPF_B = 0x10   # 1 byte
BPF_DW = 0x18  # 8 bytes

SIZE_BYTES = {BPF_W: 4, BPF_H: 2, BPF_B: 1, BPF_DW: 8}
BYTES_TO_SIZE = {v: k for k, v in SIZE_BYTES.items()}
SIZE_NAMES = {BPF_W: "u32", BPF_H: "u16", BPF_B: "u8", BPF_DW: "u64"}

# ---------------------------------------------------------------------------
# Mode field for load/store (bits 5-7)
# ---------------------------------------------------------------------------

BPF_IMM = 0x00
BPF_ABS = 0x20
BPF_IND = 0x40
BPF_MEM = 0x60
BPF_ATOMIC = 0xC0  # a.k.a. BPF_XADD in older kernels

# ---------------------------------------------------------------------------
# ALU / JMP operation field (bits 4-7)
# ---------------------------------------------------------------------------

BPF_ADD = 0x00
BPF_SUB = 0x10
BPF_MUL = 0x20
BPF_DIV = 0x30
BPF_OR = 0x40
BPF_AND = 0x50
BPF_LSH = 0x60
BPF_RSH = 0x70
BPF_NEG = 0x80
BPF_MOD = 0x90
BPF_XOR = 0xA0
BPF_MOV = 0xB0
BPF_ARSH = 0xC0
BPF_END = 0xD0
SWAP_WIDTHS = (16, 32, 64)  # BPF_END immediates with a byte-swap primitive

ALU_OP_NAMES = {
    BPF_ADD: "add",
    BPF_SUB: "sub",
    BPF_MUL: "mul",
    BPF_DIV: "div",
    BPF_OR: "or",
    BPF_AND: "and",
    BPF_LSH: "lsh",
    BPF_RSH: "rsh",
    BPF_NEG: "neg",
    BPF_MOD: "mod",
    BPF_XOR: "xor",
    BPF_MOV: "mov",
    BPF_ARSH: "arsh",
    BPF_END: "end",
}

ALU_SYMBOLS = {
    BPF_ADD: "+=",
    BPF_SUB: "-=",
    BPF_MUL: "*=",
    BPF_DIV: "/=",
    BPF_OR: "|=",
    BPF_AND: "&=",
    BPF_LSH: "<<=",
    BPF_RSH: ">>=",
    BPF_MOD: "%=",
    BPF_XOR: "^=",
    BPF_MOV: "=",
    BPF_ARSH: "s>>=",
}
SYMBOL_TO_ALU = {v: k for k, v in ALU_SYMBOLS.items()}

BPF_JA = 0x00
BPF_JEQ = 0x10
BPF_JGT = 0x20
BPF_JGE = 0x30
BPF_JSET = 0x40
BPF_JNE = 0x50
BPF_JSGT = 0x60
BPF_JSGE = 0x70
BPF_CALL = 0x80
BPF_EXIT = 0x90
BPF_JLT = 0xA0
BPF_JLE = 0xB0
BPF_JSLT = 0xC0
BPF_JSLE = 0xD0

JMP_OP_NAMES = {
    BPF_JA: "ja",
    BPF_JEQ: "jeq",
    BPF_JGT: "jgt",
    BPF_JGE: "jge",
    BPF_JSET: "jset",
    BPF_JNE: "jne",
    BPF_JSGT: "jsgt",
    BPF_JSGE: "jsge",
    BPF_CALL: "call",
    BPF_EXIT: "exit",
    BPF_JLT: "jlt",
    BPF_JLE: "jle",
    BPF_JSLT: "jslt",
    BPF_JSLE: "jsle",
}

JMP_SYMBOLS = {
    BPF_JEQ: "==",
    BPF_JGT: ">",
    BPF_JGE: ">=",
    BPF_JSET: "&",
    BPF_JNE: "!=",
    BPF_JSGT: "s>",
    BPF_JSGE: "s>=",
    BPF_JLT: "<",
    BPF_JLE: "<=",
    BPF_JSLT: "s<",
    BPF_JSLE: "s<=",
}
SYMBOL_TO_JMP = {v: k for k, v in JMP_SYMBOLS.items()}

# Source operand selector (bit 3) for ALU/JMP instructions.
BPF_K = 0x00  # immediate
BPF_X = 0x08  # register

# Atomic immediates (subset relevant to XDP programs).
BPF_FETCH = 0x01
ATOMIC_ADD = BPF_ADD
ATOMIC_OR = BPF_OR
ATOMIC_AND = BPF_AND
ATOMIC_XOR = BPF_XOR
ATOMIC_XCHG = 0xE0 | BPF_FETCH
ATOMIC_CMPXCHG = 0xF0 | BPF_FETCH

# The four read-modify-write atomics share their ALU namesakes' symbols.
ATOMIC_SYMBOLS = {
    op: ALU_SYMBOLS[op] for op in (ATOMIC_ADD, ATOMIC_OR, ATOMIC_AND, ATOMIC_XOR)
}

ATOMIC_OP_NAMES = {
    ATOMIC_ADD: "add",
    ATOMIC_ADD | BPF_FETCH: "fetch_add",
    ATOMIC_OR: "or",
    ATOMIC_AND: "and",
    ATOMIC_XOR: "xor",
    ATOMIC_XCHG: "xchg",
    ATOMIC_CMPXCHG: "cmpxchg",
}

# Pseudo source-register values for LD_IMM64 (map references).
BPF_PSEUDO_MAP_FD = 1
BPF_PSEUDO_MAP_VALUE = 2

# Registers.
R0, R1, R2, R3, R4, R5, R6, R7, R8, R9, R10 = range(11)
NUM_REGS = 11
STACK_SIZE = 512  # bytes; R10 points at the *end* of the stack frame

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1


class ISAError(ValueError):
    """Raised on malformed instructions or encodings."""


def sign_extend(value: int, bits: int) -> int:
    """Interpret the low ``bits`` bits of ``value`` as a signed integer."""
    mask = (1 << bits) - 1
    value &= mask
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


def to_signed64(value: int) -> int:
    return sign_extend(value, 64)


def to_signed32(value: int) -> int:
    return sign_extend(value, 32)


def _opcode_row(opcode: int) -> Dict[str, int]:
    """What an opcode is, whatever its operands."""
    cls, op, mode = opcode & 0x07, opcode & 0xF0, opcode & 0xE0
    jump_class = cls in (BPF_JMP, BPF_JMP32)
    jump = jump_class and op not in (BPF_CALL, BPF_EXIT)  # a branch
    exit_ = jump_class and op == BPF_EXIT
    store = cls in (BPF_ST, BPF_STX)
    ld_imm64 = opcode == BPF_LD | BPF_IMM | BPF_DW
    return dict(
        is_alu=cls in (BPF_ALU, BPF_ALU64), is_alu64=cls == BPF_ALU64,
        is_jump_class=jump_class, is_jump=jump,
        is_cond_jump=jump and op != BPF_JA,
        is_uncond_jump=jump_class and op == BPF_JA,
        is_call=jump_class and op == BPF_CALL, is_exit=exit_,
        is_load=cls in (BPF_LD, BPF_LDX), is_store=store,
        is_mem_load=cls == BPF_LDX and mode == BPF_MEM,
        is_mem_store=store and mode == BPF_MEM,
        is_atomic=cls == BPF_STX and mode == BPF_ATOMIC,
        is_ld_imm64=ld_imm64, is_terminator=jump or exit_,
        slots=2 if ld_imm64 else 1,  # 8-byte encoding slots
    )


# Every predicate an Instruction answers from its opcode alone, decoded
# once: the compiler asks them of every instruction in every pass.
_Opcode = namedtuple("_Opcode", _opcode_row(0))
_OPCODES = tuple(_Opcode(**_opcode_row(op)) for op in range(256))


@dataclass(frozen=True)
class Instruction:
    """A single decoded eBPF instruction.

    ``imm`` holds the *signed* 32-bit immediate except for LD_IMM64
    instructions where ``imm64`` carries the full 64-bit constant (and
    ``imm`` its low half).
    """

    opcode: int
    dst: int = 0
    src: int = 0
    off: int = 0
    imm: int = 0
    imm64: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 <= self.opcode <= 0xFF:
            raise ISAError(f"opcode out of range: {self.opcode:#x}")
        if not 0 <= self.dst <= 10:
            raise ISAError(f"dst register out of range: {self.dst}")
        if not 0 <= self.src <= 10 and self.src not in (
            BPF_PSEUDO_MAP_FD,
            BPF_PSEUDO_MAP_VALUE,
        ):
            raise ISAError(f"src register out of range: {self.src}")
        if not -(1 << 15) <= self.off < (1 << 15):
            raise ISAError(f"offset out of range: {self.off}")
        if not -(1 << 31) <= self.imm < (1 << 32):
            raise ISAError(f"immediate out of range: {self.imm}")

    # -- field accessors ---------------------------------------------------

    @property
    def opclass(self) -> int:
        return self.opcode & 0x07

    @property
    def op(self) -> int:
        """Operation field for ALU/JMP classes (bits 4-7)."""
        return self.opcode & 0xF0

    @property
    def size(self) -> int:
        """Size field for load/store classes."""
        return self.opcode & 0x18

    @property
    def size_bytes(self) -> int:
        return SIZE_BYTES[self.size]

    @property
    def mode(self) -> int:
        """Mode field for load/store classes."""
        return self.opcode & 0xE0

    @property
    def uses_reg_src(self) -> bool:
        return bool(self.opcode & BPF_X)

    # -- predicates: each one index into the per-opcode table ---------------

    is_alu = property(lambda self: _OPCODES[self.opcode].is_alu)
    is_alu64 = property(lambda self: _OPCODES[self.opcode].is_alu64)
    is_jump_class = property(lambda self: _OPCODES[self.opcode].is_jump_class)
    is_jump = property(lambda self: _OPCODES[self.opcode].is_jump)
    is_cond_jump = property(lambda self: _OPCODES[self.opcode].is_cond_jump)
    is_uncond_jump = property(lambda self: _OPCODES[self.opcode].is_uncond_jump)
    is_call = property(lambda self: _OPCODES[self.opcode].is_call)
    is_exit = property(lambda self: _OPCODES[self.opcode].is_exit)
    is_load = property(lambda self: _OPCODES[self.opcode].is_load)
    is_store = property(lambda self: _OPCODES[self.opcode].is_store)
    is_mem_load = property(lambda self: _OPCODES[self.opcode].is_mem_load)
    is_mem_store = property(lambda self: _OPCODES[self.opcode].is_mem_store)
    is_atomic = property(lambda self: _OPCODES[self.opcode].is_atomic)
    is_ld_imm64 = property(lambda self: _OPCODES[self.opcode].is_ld_imm64)
    is_terminator = property(lambda self: _OPCODES[self.opcode].is_terminator)
    slots = property(lambda self: _OPCODES[self.opcode].slots)

    @property
    def is_map_ref(self) -> bool:
        return self.is_ld_imm64 and self.src in (BPF_PSEUDO_MAP_FD,
                                                 BPF_PSEUDO_MAP_VALUE)

    # -- register read/write sets -------------------------------------------

    def regs_read(self) -> Tuple[int, ...]:
        """Registers whose value this instruction consumes."""
        row, cls = _OPCODES[self.opcode], self.opcode & 0x07
        reg_src = self.opcode & BPF_X
        if row.is_alu:
            op = self.opcode & 0xF0
            if op == BPF_MOV:
                return (self.src,) if reg_src else ()
            if op in (BPF_NEG, BPF_END) or not reg_src:
                return (self.dst,)
            return (self.dst, self.src)
        if row.is_mem_load:
            return (self.src,)
        if cls == BPF_STX:
            if row.is_atomic and self.imm == ATOMIC_CMPXCHG:
                return (self.dst, self.src, R0)  # compares against R0
            return (self.dst, self.src)
        if cls == BPF_ST:
            return (self.dst,)
        if row.is_cond_jump:
            return (self.dst, self.src) if reg_src else (self.dst,)
        if row.is_call:
            # Helper calls consume R1-R5 conservatively; the VM and
            # compiler refine this per-helper.
            return (R1, R2, R3, R4, R5)
        if row.is_exit:
            return (R0,)
        return ()  # ld_imm64 and ja among them

    def regs_written(self) -> Tuple[int, ...]:
        """Registers this instruction defines."""
        row = _OPCODES[self.opcode]
        if row.is_alu or row.is_mem_load or row.is_ld_imm64:
            return (self.dst,)
        if row.is_atomic and (self.imm & BPF_FETCH):
            return (self.src,) if (self.imm & 0xF0) != 0xF0 else (R0,)
        if row.is_call:
            return (R0, R1, R2, R3, R4, R5)  # caller-saved clobbers
        return ()

    # -- encoding ------------------------------------------------------------

    def encode(self) -> bytes:
        """Encode to the Linux 8-byte (or 16-byte) wire format."""
        regs = (self.src << 4) | self.dst
        low = struct.pack(
            "<BBhi", self.opcode, regs, self.off, to_signed32(self.imm)
        )
        if not self.is_ld_imm64:
            return low
        imm64 = self.imm64 if self.imm64 is not None else self.imm
        hi = (imm64 >> 32) & MASK32
        lo = imm64 & MASK32
        low = struct.pack("<BBhi", self.opcode, regs, self.off, to_signed32(lo))
        high = struct.pack("<BBhi", 0, 0, 0, to_signed32(hi))
        return low + high

    # -- pretty-printing -----------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - exercised via disasm tests
        from .disasm import format_instruction

        return format_instruction(self)


def decode(data: bytes) -> List[Instruction]:
    """Decode raw bytes into a list of instructions.

    Raises :class:`ISAError` if the byte length is not a multiple of 8 or a
    LD_IMM64 second slot is malformed.
    """
    if len(data) % 8 != 0:
        raise ISAError(f"bytecode length {len(data)} is not a multiple of 8")
    out: List[Instruction] = []
    i = 0
    n = len(data)
    while i < n:
        opcode, regs, off, imm = struct.unpack_from("<BBhi", data, i)
        dst = regs & 0x0F
        src = (regs >> 4) & 0x0F
        i += 8
        if opcode == (BPF_LD | BPF_IMM | BPF_DW):
            if i >= n:
                raise ISAError("truncated ld_imm64 instruction")
            op2, regs2, off2, imm_hi = struct.unpack_from("<BBhi", data, i)
            if op2 != 0 or regs2 != 0 or off2 != 0:
                raise ISAError("malformed ld_imm64 second slot")
            i += 8
            imm64 = ((imm_hi & MASK32) << 32) | (imm & MASK32)
            out.append(
                Instruction(opcode, dst, src, off, imm, imm64=imm64)
            )
        else:
            out.append(Instruction(opcode, dst, src, off, imm))
    return out


def encode(instructions: Iterable[Instruction]) -> bytes:
    """Encode a sequence of instructions to the wire format."""
    return b"".join(insn.encode() for insn in instructions)


# ---------------------------------------------------------------------------
# Program container
# ---------------------------------------------------------------------------


@dataclass
class MapSpec:
    """Static definition of an eBPF map referenced by a program.

    Mirrors the fields a loader would read from the ELF maps section: the
    map type plus key/value geometry. ``flags`` carries kernel map flags
    (unused by the reproduction but kept for fidelity). ``banks`` splits
    an ``lru_hash`` map into that many independent LRU maps of
    ``max_entries / banks`` entries each, the bank picked by a fixed
    hash of the key (:func:`repro.ebpf.maps.bank_of`) — Linux's
    ``BPF_F_NO_COMMON_LRU`` contract with the list chosen by key
    instead of by CPU; 1, the default, is one map-wide LRU order.
    """

    name: str
    map_type: str  # "array" | "hash" | "lru_hash" | "percpu_array"
    key_size: int
    value_size: int
    max_entries: int
    flags: int = 0
    banks: int = 1

    def __post_init__(self) -> None:
        if self.key_size <= 0 or self.value_size <= 0:
            raise ISAError("map key/value size must be positive")
        if self.max_entries <= 0:
            raise ISAError("map max_entries must be positive")
        if self.map_type not in ("array", "hash", "lru_hash", "percpu_array"):
            raise ISAError(f"unknown map type {self.map_type!r}")
        banks = self.banks
        if not isinstance(banks, int) or banks < 1 or banks & (banks - 1):
            raise ISAError(f"map banks must be a power of two, got {banks!r}")
        if self.max_entries % banks:
            raise ISAError(f"map banks ({banks}) must divide max_entries "
                           f"({self.max_entries})")
        if banks > 1 and self.map_type != "lru_hash":
            raise ISAError(f"map banks ({banks}) needs an lru_hash map, "
                           f"not {self.map_type}")

    @property
    def serialised(self) -> bool:
        """Accesses from two in-flight packets interleave observably even
        when both only read (an LRU lookup refreshes recency), and no flush
        can repair that: an eviction is irreversible. The hazard plan gives
        such a map a serialization window over its touching stages, and
        the scheduler orders its accesses by that window."""
        return self.map_type == "lru_hash"


_T = TypeVar("_T")


@dataclass(frozen=True)
class Program:
    """An eBPF program: instructions plus the maps it references.

    ``maps`` assigns each map a file-descriptor number; LD_IMM64
    instructions with ``src == BPF_PSEUDO_MAP_FD`` reference maps through
    those numbers (stored in the low imm half).

    The instructions are held as a tuple and the program is frozen, so
    what :meth:`derived` computed from them cannot go stale: a rewrite
    is a new ``Program`` (:meth:`with_instructions`).
    """

    instructions: Tuple[Instruction, ...]
    maps: Dict[int, MapSpec] = field(default_factory=dict)
    name: str = "prog"

    def __post_init__(self) -> None:
        object.__setattr__(self, "instructions", tuple(self.instructions))
        if not self.instructions:
            raise ISAError("program must contain at least one instruction")

    def __getstate__(self) -> Dict[str, object]:
        # pickled as its fields alone: derived facts are rebuilt on demand
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def derived(self, build: Callable[["Program"], _T]) -> _T:
        """``build(self)``, computed on first use and then kept: the one
        place a per-program fact (slot numbers, successors, register
        masks) is cached."""
        try:
            return self.__dict__["_derived"][build]
        except KeyError:
            value = build(self)
            self.__dict__.setdefault("_derived", {})[build] = value
            return value

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, idx: int) -> Instruction:
        return self.instructions[idx]

    @property
    def slot_count(self) -> int:
        """Total 8-byte encoding slots (LD_IMM64 counts twice)."""
        return self.derived(_slot_table)[0][-1]

    def encode(self) -> bytes:
        return encode(self.instructions)

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        maps: Optional[Dict[int, MapSpec]] = None,
        name: str = "prog",
    ) -> "Program":
        return cls(decode(data), maps=dict(maps or {}), name=name)

    def map_for_fd(self, fd: int) -> MapSpec:
        try:
            return self.maps[fd]
        except KeyError:
            raise ISAError(f"program references unknown map fd {fd}")

    def referenced_map_fds(self) -> List[int]:
        """Map fds referenced by LD_IMM64 pseudo-map instructions, in order."""
        fds: List[int] = []
        for insn in self.instructions:
            if insn.is_map_ref:
                fd = insn.imm64 & MASK32 if insn.imm64 is not None else insn.imm
                if fd not in fds:
                    fds.append(fd)
        return fds

    # Offsets in eBPF jumps are expressed in *slots*, not instruction
    # indices, because LD_IMM64 takes two slots. These helpers convert
    # through one derived table, so resolving every jump of a program is
    # linear, not quadratic.

    def slot_of_index(self, index: int) -> int:
        return self.derived(_slot_table)[0][index]

    def index_of_slot(self, slot: int) -> int:
        index = self.derived(_slot_table)[1].get(slot)
        if index is None:
            raise ISAError(f"slot {slot} is inside a multi-slot instruction")
        return index

    def jump_target_index(self, index: int) -> int:
        """Instruction index targeted by the jump at ``index``."""
        insn = self.instructions[index]
        if not insn.is_jump:
            raise ISAError(f"instruction {index} is not a jump")
        target_slot = self.slot_of_index(index) + insn.slots + insn.off
        return self.index_of_slot(target_slot)

    def with_instructions(self, instructions: Sequence[Instruction]) -> "Program":
        return replace(self, instructions=instructions)


def _slot_table(program: Program) -> Tuple[List[int], Dict[int, int]]:
    """The slot each index starts at (plus the end slot), and its inverse."""
    starts = [0]
    for insn in program.instructions:
        starts.append(starts[-1] + insn.slots)
    return starts, {s: i for i, s in enumerate(starts)}


# ---------------------------------------------------------------------------
# Instruction construction helpers (used by the builder and tests)
# ---------------------------------------------------------------------------


def alu64_reg(op: int, dst: int, src: int) -> Instruction:
    return Instruction(BPF_ALU64 | BPF_X | op, dst=dst, src=src)


def alu64_imm(op: int, dst: int, imm: int) -> Instruction:
    return Instruction(BPF_ALU64 | BPF_K | op, dst=dst, imm=imm)


def alu32_reg(op: int, dst: int, src: int) -> Instruction:
    return Instruction(BPF_ALU | BPF_X | op, dst=dst, src=src)


def alu32_imm(op: int, dst: int, imm: int) -> Instruction:
    return Instruction(BPF_ALU | BPF_K | op, dst=dst, imm=imm)


def mov64_reg(dst: int, src: int) -> Instruction:
    return alu64_reg(BPF_MOV, dst, src)


def mov64_imm(dst: int, imm: int) -> Instruction:
    return alu64_imm(BPF_MOV, dst, imm)


def load(size: int, dst: int, src: int, off: int) -> Instruction:
    return Instruction(BPF_LDX | BPF_MEM | size, dst=dst, src=src, off=off)


def store_reg(size: int, dst: int, src: int, off: int) -> Instruction:
    return Instruction(BPF_STX | BPF_MEM | size, dst=dst, src=src, off=off)


def store_imm(size: int, dst: int, off: int, imm: int) -> Instruction:
    return Instruction(BPF_ST | BPF_MEM | size, dst=dst, off=off, imm=imm)


def atomic_op(size: int, dst: int, src: int, off: int, op: int) -> Instruction:
    if size not in (BPF_W, BPF_DW):
        raise ISAError("atomic operations require word or dword size")
    return Instruction(BPF_STX | BPF_ATOMIC | size, dst=dst, src=src, off=off, imm=op)


def jump(off: int) -> Instruction:
    return Instruction(BPF_JMP | BPF_JA, off=off)


def jump_reg(op: int, dst: int, src: int, off: int) -> Instruction:
    return Instruction(BPF_JMP | BPF_X | op, dst=dst, src=src, off=off)


def jump_imm(op: int, dst: int, imm: int, off: int) -> Instruction:
    return Instruction(BPF_JMP | BPF_K | op, dst=dst, imm=imm, off=off)


def jump32_reg(op: int, dst: int, src: int, off: int) -> Instruction:
    return Instruction(BPF_JMP32 | BPF_X | op, dst=dst, src=src, off=off)


def jump32_imm(op: int, dst: int, imm: int, off: int) -> Instruction:
    return Instruction(BPF_JMP32 | BPF_K | op, dst=dst, imm=imm, off=off)


def call(helper_id: int) -> Instruction:
    return Instruction(BPF_JMP | BPF_CALL, imm=helper_id)


def exit_() -> Instruction:
    return Instruction(BPF_JMP | BPF_EXIT)


def ld_imm64(dst: int, imm64: int) -> Instruction:
    return Instruction(
        BPF_LD | BPF_IMM | BPF_DW,
        dst=dst,
        imm=to_signed32(imm64 & MASK32),
        imm64=imm64 & MASK64,
    )


def ld_map_fd(dst: int, fd: int) -> Instruction:
    return Instruction(
        BPF_LD | BPF_IMM | BPF_DW,
        dst=dst,
        src=BPF_PSEUDO_MAP_FD,
        imm=fd,
        imm64=fd,
    )


def endian(dst: int, bits: int, to_big: bool) -> Instruction:
    """Byte-swap instruction (``BPF_END``): le16/le32/le64 or be16/be32/be64."""
    if bits not in SWAP_WIDTHS:
        raise ISAError("endian width must be 16, 32 or 64")
    src_flag = BPF_X if to_big else BPF_K  # BPF_TO_BE / BPF_TO_LE
    return Instruction(BPF_ALU | BPF_END | src_flag, dst=dst, imm=bits)
