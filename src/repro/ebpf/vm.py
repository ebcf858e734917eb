"""Reference eBPF virtual machine.

A direct interpreter for the eBPF ISA with Linux-kernel semantics:
64-bit registers, 32-bit ALU subclass with zero-extension, signed and
unsigned comparisons, masked shifts, div-by-zero-yields-zero, atomic
read-modify-write on map memory, helper calls and the XDP context.

The VM is the *specification* against which every eHDL-generated hardware
pipeline is differentially tested: for the same packet and map state, the
pipeline simulator must produce the same XDP action, packet bytes and map
contents as :meth:`Vm.run`.

ALU and conditional-jump semantics exist in two tiers, each defined
once. This module is the *reference* tier: ``Vm._alu`` / ``_swap`` /
``_compare`` evaluate an op on every execution, behind the one operand
decode :func:`alu_operands` / :func:`cmp_operands` (END, NEG, register
vs. sign-extended immediate). Two engines run it: ``Vm.run``, which
decodes each slot once before the first run (:func:`_decode`) and
evaluates it per execution, and the ``interpreted`` pipeline engine of
:mod:`repro.hwsim.sim`, which goes through :func:`alu_step` /
:func:`cmp_step`. The *specialised* tier — the semantics folded into
text per instruction — lives only in :mod:`repro.ebpf.opfns` (inlined by
the ``codegen`` engine) and in the VHDL, so a differential with a
``vm`` leg checks it against an independent reference. ``Vm.run`` has
one execution path, and an opcode outside the ``isa`` tables raises its
canonical ``VmError`` there (the VM runs unverified programs; the
verifier rejects such opcodes before anything is compiled).

The memory side has the same shape. Its reference tier is three rules,
each defined once and shared by every engine that decodes per
execution: where an address lands (``AddressSpace.locate`` in
:mod:`repro.ebpf.xdp`), what an atomic writes (:func:`atomic_step`,
here) and what r0 means (``XdpAction.of``). The VM adds only its policy
— a span no buffer holds is a ``VmError`` (:func:`_refused`). The
specialised tier is the ``codegen`` engine's access text.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import isa
from .helpers import (
    PRANDOM_SEED,
    HelperError,
    finish_call,
    helper_impl,
    helper_spec,
    map_ptr,
    prandom_step,
)
from .isa import MASK32, MASK64, Instruction, Program, to_signed32
from .maps import MapSet
from .xdp import AddressSpace, XdpAction, XdpContext, XdpResult
from ..telemetry import get_registry

MAX_INSTRUCTIONS = 1_000_000  # kernel's executed-instruction bound

# Opcode-class names for the per-class instruction telemetry.
_CLASS_NAMES = {
    isa.BPF_ALU64: "alu64",
    isa.BPF_ALU: "alu32",
    isa.BPF_LDX: "ldx",
    isa.BPF_LD: "ld",
    isa.BPF_ST: "st",
    isa.BPF_STX: "stx",
    isa.BPF_JMP: "jmp",
    isa.BPF_JMP32: "jmp32",
}


class VmError(RuntimeError):
    """Raised on faults the kernel verifier/runtime would reject: bad
    memory accesses, unknown opcodes, running off the program end."""


def _refused(region: str, why: str, addr: int, size: int,
             writing: bool) -> VmError:
    """The VM's policy for a span ``AddressSpace.locate`` refuses."""
    return VmError(
        f"{region} {'write' if writing else 'read'} {why}: {addr:#x}+{size}")


class Vm:
    """An eBPF execution environment bound to one program and its maps.

    Maps persist across :meth:`run` calls (they model NIC/kernel memory);
    registers, stack and packet state are per-run.
    """

    def __init__(
        self,
        program: Program,
        maps: Optional[MapSet] = None,
        time_ns: int = 0,
        prandom_seed: int = PRANDOM_SEED,
    ) -> None:
        self.program = program
        self.maps = maps if maps is not None else MapSet(program.maps)
        self.time_ns = time_ns
        self.trace_events: List[Tuple[int, ...]] = []
        self._prandom_state = prandom_seed & MASK32 or 1
        # Slot-indexed view of the program, each instruction decoded once
        # into its plain operands (see _decode), with the second slot of
        # LD_IMM64 mapped to None. Branch offsets are in slots, so
        # execution advances through this table. Telemetry: per-slot
        # opcode-class/helper names precomputed so the run loop counts
        # executions per slot (one list increment per instruction,
        # folded into the dicts once per run), and only when the
        # registry is enabled at run() time.
        self._decoded: List[Optional[tuple]] = []
        self._slot_class: List[Optional[str]] = []
        self._slot_helper: List[Optional[str]] = []
        for insn in program.instructions:
            helper = None
            if insn.opclass in (isa.BPF_JMP, isa.BPF_JMP32) and insn.is_call:
                try:
                    helper = helper_spec(insn.imm).name
                except HelperError:
                    helper = f"helper_{insn.imm}"
            self._decoded.append(_decode(insn, len(self._decoded)))
            self._slot_class.append(_CLASS_NAMES.get(insn.opclass, "unknown"))
            self._slot_helper.append(helper)
            if insn.slots == 2:
                self._decoded.append(None)
                self._slot_class.append(None)
                self._slot_helper.append(None)
        # Executed-instruction counts by opcode class, and helper calls by
        # helper name, cumulative across runs of this VM instance.
        self.opcode_class_counts: Dict[str, int] = {}
        self.helper_call_counts: Dict[str, int] = {}
        # Per-run state, initialised by run().
        self.regs: List[int] = [0] * isa.NUM_REGS
        self.stack = bytearray(AddressSpace.STACK_SIZE)
        self.ctx: XdpContext = XdpContext(bytearray())

    # -- deterministic randomness ------------------------------------------

    def next_prandom(self) -> int:
        self._prandom_state = prandom_step(self._prandom_state)
        return self._prandom_state

    # -- memory -------------------------------------------------------------

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes from the VM address space: the span
        ``AddressSpace.locate`` names, under the VM's policy — one no
        buffer holds is a :class:`VmError` (:func:`_refused`)."""
        buf, off, why = AddressSpace.locate(
            addr, size, self.stack, self.ctx, self.maps)
        if buf is None:  # refused: ``off`` names the region
            raise _refused(off, why, addr, size, False)
        return bytes(buf[off : off + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        size = len(data)
        buf, off, why = AddressSpace.locate(
            addr, size, self.stack, self.ctx, self.maps, writing=True)
        if buf is None:
            raise _refused(off, why, addr, size, True)
        buf[off : off + size] = data

    def _load(self, addr: int, size_bytes: int) -> int:
        return int.from_bytes(self.read_bytes(addr, size_bytes), "little")

    def _store(self, addr: int, size_bytes: int, value: int) -> None:
        self.write_bytes(addr, (value & ((1 << (8 * size_bytes)) - 1)).to_bytes(size_bytes, "little"))

    # -- ALU ------------------------------------------------------------------

    @staticmethod
    def _alu(op: int, dst: int, src: int, is64: bool) -> int:
        mask = MASK64 if is64 else MASK32
        if op == isa.BPF_MOV:
            result = src
        elif op == isa.BPF_ADD:
            result = dst + src
        elif op == isa.BPF_AND:
            result = dst & src
        elif op == isa.BPF_LSH:
            result = dst << (src & (63 if is64 else 31))
        elif op == isa.BPF_RSH:
            result = (dst & mask) >> (src & (63 if is64 else 31))
        elif op == isa.BPF_OR:
            result = dst | src
        elif op == isa.BPF_XOR:
            result = dst ^ src
        elif op == isa.BPF_SUB:
            result = dst - src
        elif op == isa.BPF_MUL:
            result = dst * src
        elif op == isa.BPF_DIV:
            result = (dst & mask) // (src & mask) if (src & mask) else 0
        elif op == isa.BPF_MOD:
            result = (dst & mask) % (src & mask) if (src & mask) else dst
        elif op == isa.BPF_ARSH:
            signed = isa.sign_extend(dst, 64 if is64 else 32)
            result = signed >> (src & (63 if is64 else 31))
        elif op == isa.BPF_NEG:
            result = -dst
        else:
            raise VmError(f"unknown ALU op {op:#x}")
        return result & mask

    @staticmethod
    def _swap(value: int, bits: int, to_big: bool) -> int:
        if bits not in isa.SWAP_WIDTHS:
            raise VmError(f"unsupported byte swap width {bits}")
        width = bits // 8
        value &= (1 << bits) - 1
        if to_big:
            return int.from_bytes(value.to_bytes(width, "little"), "big")
        # to_le on a little-endian machine just truncates
        return value

    @staticmethod
    def _compare(op: int, lhs: int, rhs: int, is64: bool) -> bool:
        mask = MASK64 if is64 else MASK32
        lhs &= mask
        rhs &= mask
        if op == isa.BPF_JEQ:
            return lhs == rhs
        if op == isa.BPF_JNE:
            return lhs != rhs
        if op == isa.BPF_JGT:
            return lhs > rhs
        if op == isa.BPF_JGE:
            return lhs >= rhs
        if op == isa.BPF_JLT:
            return lhs < rhs
        if op == isa.BPF_JLE:
            return lhs <= rhs
        if op == isa.BPF_JSET:
            return bool(lhs & rhs)
        bits = 64 if is64 else 32
        slhs = isa.sign_extend(lhs, bits)
        srhs = isa.sign_extend(rhs, bits)
        if op == isa.BPF_JSGT:
            return slhs > srhs
        if op == isa.BPF_JSGE:
            return slhs >= srhs
        if op == isa.BPF_JSLT:
            return slhs < srhs
        if op == isa.BPF_JSLE:
            return slhs <= srhs
        raise VmError(f"unknown jump op {op:#x}")

    # -- atomics ---------------------------------------------------------------

    def _atomic(self, insn: Instruction, addr: int) -> None:
        size = insn.size_bytes
        old = self._load(addr, size)
        self._store(addr, size, atomic_step(
            insn.imm, old, self.regs[insn.src], self.regs[isa.R0],
            (1 << (8 * size)) - 1))
        if insn.imm == isa.ATOMIC_CMPXCHG:
            self.regs[isa.R0] = old
        elif insn.imm & isa.BPF_FETCH:  # xchg carries the fetch bit
            self.regs[insn.src] = old

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        packet: bytes,
        ingress_ifindex: int = 1,
        rx_queue_index: int = 0,
    ) -> XdpResult:
        """Execute the program over one packet and return the verdict."""
        self.ctx = XdpContext(
            bytearray(packet),
            ingress_ifindex=ingress_ifindex,
            rx_queue_index=rx_queue_index,
        )
        self.regs = [0] * isa.NUM_REGS
        self.regs[isa.R1] = AddressSpace.CTX_BASE
        self.regs[isa.R10] = AddressSpace.stack_top()
        self.stack = bytearray(AddressSpace.STACK_SIZE)
        # Per-slot execution tallies, folded into the by-class/by-helper
        # dicts once per run (see _fold_slot_counts): the per-instruction
        # telemetry cost is one list increment instead of two dict bumps.
        scounts = [0] * len(self._decoded) if get_registry().enabled else None
        try:
            return self._loop(scounts)
        finally:
            if scounts is not None:
                self._fold_slot_counts(scounts)

    def _loop(self, scounts: Optional[List[int]]) -> XdpResult:
        """Execute the decoded slots: every op's semantics are evaluated
        here, per execution, by the reference tier's functions."""
        decoded = self._decoded
        n = len(decoded)
        regs = self.regs
        alu, swap, compare = Vm._alu, Vm._swap, Vm._compare
        locate, from_bytes = AddressSpace.locate, int.from_bytes
        stack, ctx, maps = self.stack, self.ctx, self.maps
        collect = scounts is not None
        slot = 0
        executed = 0
        while True:
            if executed >= MAX_INSTRUCTIONS:
                raise VmError("instruction limit exceeded (unbounded loop?)")
            if not 0 <= slot < n:
                raise VmError(f"program counter out of range: slot {slot}")
            d = decoded[slot]
            if d is None:
                raise VmError(f"jump into the middle of ld_imm64 at slot {slot}")
            executed += 1
            if collect:
                scounts[slot] += 1
            kind = d[0]
            if kind == _ALU:
                _, slot, op, dst, src, imm, is64 = d
                regs[dst] = alu(
                    op, regs[dst], imm if src is None else regs[src], is64)
            elif kind == _LDX:
                _, slot, dst, src, off, size = d
                addr = (regs[src] + off) & MASK64
                buf, o, why = locate(addr, size, stack, ctx, maps)
                if buf is None:
                    raise _refused(o, why, addr, size, False)
                regs[dst] = from_bytes(buf[o : o + size], "little")
            elif kind == _ST:
                _, slot, dst, src, off, size, imm = d
                addr = (regs[dst] + off) & MASK64
                buf, o, why = locate(addr, size, stack, ctx, maps, True)
                if buf is None:
                    raise _refused(o, why, addr, size, True)
                buf[o : o + size] = ((imm if src is None else regs[src])
                                     & ((1 << (8 * size)) - 1)
                                     ).to_bytes(size, "little")
            elif kind == _JCC:
                _, slot, target, op, dst, src, imm, is64 = d
                if compare(op, regs[dst],
                           imm if src is None else regs[src], is64):
                    slot = target
            elif kind == _SWAP:
                _, slot, dst, bits, to_big = d
                regs[dst] = swap(regs[dst], bits, to_big)
            elif kind == _CALL:
                _, slot, helper_id = d
                self._call(helper_id)
            elif kind == _MAP_FD:
                _, slot, dst, fd = d
                if fd not in maps:
                    raise VmError(f"unknown map fd {fd}")
                regs[dst] = map_ptr(fd)
            elif kind == _EXIT:
                return XdpResult(
                    action=XdpAction.of(regs[isa.R0]),
                    packet=bytes(ctx.packet),
                    redirect_ifindex=ctx.redirect_ifindex,
                    instructions_executed=executed,
                )
            elif kind == _ATOMIC:
                _, slot, insn, dst, off = d
                self._atomic(insn, (regs[dst] + off) & MASK64)
            elif kind == _JA:
                slot = d[1]
            elif kind == _IMM:
                _, slot, dst, imm = d
                regs[dst] = imm
            else:  # _FAULT: raised only when executed
                raise VmError(d[1])

    def _call(self, helper_id: int) -> None:
        regs = self.regs
        finish_call(regs, helper_impl(helper_id)(self, *regs[1:6]))

    def _fold_slot_counts(self, scounts: List[int]) -> None:
        """Fold one run's per-slot execution tallies into the cumulative
        by-class and by-helper dicts (a per-run batch instead of dict
        bumps on every executed instruction)."""
        classes = self._slot_class
        helpers = self._slot_helper
        ccounts = self.opcode_class_counts
        hcounts = self.helper_call_counts
        for slot, count in enumerate(scounts):
            if not count:
                continue
            cname = classes[slot]
            ccounts[cname] = ccounts.get(cname, 0) + count
            hname = helpers[slot]
            if hname is not None:
                hcounts[hname] = hcounts.get(hname, 0) + count

    def publish_telemetry(self, registry=None) -> None:
        """Flush the VM's per-class/per-helper execution counts into a
        telemetry registry (the process-wide one by default) and reset
        the local tallies, so repeated publishes never double-count."""
        if registry is None:
            registry = get_registry()
        labels = {"program": self.program.name}
        for cname, count in sorted(self.opcode_class_counts.items()):
            registry.counter(
                "ehdl_vm_instructions_total",
                "Instructions executed by the reference VM, by opcode class",
                {**labels, "class": cname},
            ).inc(count)
        for hname, count in sorted(self.helper_call_counts.items()):
            registry.counter(
                "ehdl_vm_helper_calls_total",
                "Helper calls executed by the reference VM",
                {**labels, "helper": hname},
            ).inc(count)
        self.opcode_class_counts = {}
        self.helper_call_counts = {}


Operands = Tuple[int, int, Optional[int], int, bool]


def alu_operands(insn: Instruction) -> Operands:
    """The reference tier's one ALU/ALU64 operand decode: ``(op, dst,
    src, imm, is64)``, where ``src`` is the source register, or ``None``
    when the operand is ``imm`` — the sign-extended immediate folded to
    the op's width (0 for NEG, which reads none). A byte swap
    (``BPF_END``) reads no operand either: its ``imm`` is the swap width
    and its last field is ``to_big``."""
    op = insn.op
    if op == isa.BPF_END:
        return op, insn.dst, None, insn.imm, insn.uses_reg_src
    is64 = insn.opclass == isa.BPF_ALU64
    if op == isa.BPF_NEG:
        return op, insn.dst, None, 0, is64
    if insn.uses_reg_src:
        return op, insn.dst, insn.src, 0, is64
    return op, insn.dst, None, to_signed32(insn.imm) & (
        MASK64 if is64 else MASK32), is64


def cmp_operands(insn: Instruction) -> Operands:
    """The reference tier's one conditional-jump operand decode, shaped
    as :func:`alu_operands`."""
    is64 = insn.opclass == isa.BPF_JMP
    if insn.uses_reg_src:
        return insn.op, insn.dst, insn.src, 0, is64
    return insn.op, insn.dst, None, to_signed32(insn.imm) & (
        MASK64 if is64 else MASK32), is64


def alu_step(insn: Instruction, regs: List[int]) -> None:
    """Execute one ALU/ALU64 instruction on a register file:
    :func:`alu_operands` in front of ``Vm._alu`` / ``Vm._swap``."""
    op, dst, src, imm, is64 = alu_operands(insn)
    if op == isa.BPF_END:
        regs[dst] = Vm._swap(regs[dst], imm, is64)
    else:
        regs[dst] = Vm._alu(
            op, regs[dst], imm if src is None else regs[src], is64)


def cmp_step(insn: Instruction, regs: List[int]) -> bool:
    """Evaluate one conditional jump's predicate on a register file:
    :func:`cmp_operands` in front of ``Vm._compare``."""
    op, dst, src, imm, is64 = cmp_operands(insn)
    return Vm._compare(op, regs[dst], imm if src is None else regs[src], is64)


# The kinds of decoded slot ``Vm._loop`` executes, most frequent first.
(_ALU, _LDX, _ST, _JCC, _SWAP, _CALL, _MAP_FD, _EXIT, _ATOMIC, _JA, _IMM,
 _FAULT) = range(12)


def _decode(insn: Instruction, slot: int) -> tuple:
    """The instruction at ``slot`` as ``(kind, next_slot, operands...)``
    — register numbers, folded immediates, access size, jump target —
    read once, before the first run. An unsupported mode or class
    decodes to its canonical message, raised only if the slot executes
    (the VM runs unverified programs)."""
    nxt = slot + insn.slots
    cls = insn.opclass
    if cls in (isa.BPF_ALU64, isa.BPF_ALU):
        op, dst, src, imm, is64 = alu_operands(insn)
        if op == isa.BPF_END:
            return _SWAP, nxt, dst, imm, is64
        return _ALU, nxt, op, dst, src, imm, is64
    if cls in (isa.BPF_JMP, isa.BPF_JMP32):
        if insn.is_exit:
            return (_EXIT,)
        if insn.is_call:
            return _CALL, nxt, insn.imm
        if insn.op == isa.BPF_JA:
            return _JA, nxt + insn.off
        return (_JCC, nxt, nxt + insn.off) + cmp_operands(insn)
    if cls == isa.BPF_LDX:
        if insn.mode != isa.BPF_MEM:
            return _FAULT, f"unsupported LDX mode {insn.mode:#x}"
        return _LDX, nxt, insn.dst, insn.src, insn.off, insn.size_bytes
    if cls in (isa.BPF_ST, isa.BPF_STX):
        if insn.is_atomic:
            return _ATOMIC, nxt, insn, insn.dst, insn.off
        if cls == isa.BPF_STX:
            return _ST, nxt, insn.dst, insn.src, insn.off, insn.size_bytes, 0
        return (_ST, nxt, insn.dst, None, insn.off, insn.size_bytes,
                to_signed32(insn.imm) & MASK64)
    if cls == isa.BPF_LD:
        if not insn.is_ld_imm64:
            return _FAULT, f"unsupported LD mode {insn.mode:#x}"
        if insn.src == isa.BPF_PSEUDO_MAP_FD:
            return _MAP_FD, nxt, insn.dst, (insn.imm64 or insn.imm) & MASK32
        value = insn.imm64 if insn.imm64 is not None else insn.imm
        return _IMM, nxt, insn.dst, value & MASK64
    return _FAULT, f"unknown instruction class {cls:#x}"


def atomic_step(imm: int, old: int, src: int, expected: int, mask: int) -> int:
    """What one atomic read-modify-write leaves in memory (§4.1.2): the
    reference tier's one value rule, of the instruction's ``imm``, the
    ``old`` memory value, the source register, ``r0`` (what ``cmpxchg``
    expects) and the access-width ``mask``. ``old`` goes back to a
    register by the caller (``r0`` for cmpxchg, the source register on
    a fetch). The verifier refuses an ``imm`` outside
    ``isa.ATOMIC_OP_NAMES``; this raise is for hand-built pipelines."""
    src &= mask
    if imm == isa.ATOMIC_XCHG:
        return src
    if imm == isa.ATOMIC_CMPXCHG:
        return src if old == expected & mask else old
    op = imm & ~isa.BPF_FETCH
    if op == isa.ATOMIC_ADD:
        return (old + src) & mask
    if op == isa.ATOMIC_OR:
        return old | src
    if op == isa.ATOMIC_AND:
        return old & src
    if op == isa.ATOMIC_XOR:
        return old ^ src
    raise VmError(f"unknown atomic op {imm:#x}")


def run_program(
    program: Program,
    packet: bytes,
    maps: Optional[MapSet] = None,
    **kwargs,
) -> XdpResult:
    """One-shot convenience wrapper: build a VM and run a single packet."""
    return Vm(program, maps=maps, **kwargs).run(packet)
