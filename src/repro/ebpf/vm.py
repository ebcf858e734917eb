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
once. This module is the *reference* tier: :func:`alu_step` /
:func:`cmp_step` hold the one operand decode (END, NEG, register vs.
sign-extended immediate) in front of ``Vm._alu`` / ``_swap`` /
``_compare``, and run it per execution — here in the
decode-per-instruction loop (``Vm._run_interpreted``), in
:mod:`repro.hwsim.sim` as the ``interpreted`` pipeline engine.
:mod:`repro.ebpf.opfns` is the *specialised* tier: the same semantics as
source text decoded once per instruction, which ``Vm.run``'s
jump-threaded dispatch table compiles into one closure per program slot
and the ``codegen`` engine inlines. ``Vm.run`` has that one execution
path; the loop it replaced stays in the class only as the reference the
table is tested against, and as where an opcode outside the ``isa``
tables raises its canonical ``VmError`` (the VM runs unverified
programs; the verifier rejects such opcodes before anything is compiled).

The memory side has the same shape. Its reference tier is three rules,
each defined once and shared by every engine that decodes per
execution: where an address lands (``AddressSpace.locate`` in
:mod:`repro.ebpf.xdp`), what an atomic writes (:func:`atomic_step`,
here) and what r0 means (``XdpAction.of``). ``Vm.read_bytes`` /
``write_bytes`` add only the VM's policy — a span no buffer holds is a
``VmError``. The specialised tier is ``_compile_insn``'s inline stack /
packet arms and the ``codegen`` engine's access text.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

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
from .isa import MASK32, MASK64, Instruction, Program, to_signed32, to_signed64
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

# Hot-path constants for the jump-threaded dispatch handlers: region
# bounds without classmethod calls, and single-call little-endian codecs
# per access width (bounds are checked before use).
_STACK_BASE = AddressSpace.STACK_BASE
_STACK_SIZE = AddressSpace.STACK_SIZE
_STACK_END = _STACK_BASE + _STACK_SIZE
_PACKET_BASE = AddressSpace.PACKET_BASE
_PACKET_DATA0 = AddressSpace.PACKET_BASE + AddressSpace.PACKET_HEADROOM

_UNPACK = {
    1: struct.Struct("<B").unpack_from,
    2: struct.Struct("<H").unpack_from,
    4: struct.Struct("<I").unpack_from,
    8: struct.Struct("<Q").unpack_from,
}
_PACK = {
    1: struct.Struct("<B").pack_into,
    2: struct.Struct("<H").pack_into,
    4: struct.Struct("<I").pack_into,
    8: struct.Struct("<Q").pack_into,
}


class VmError(RuntimeError):
    """Raised on faults the kernel verifier/runtime would reject: bad
    memory accesses, unknown opcodes, running off the program end."""


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
        # Slot-indexed view of the program: slot -> instruction index, with
        # the second slot of LD_IMM64 mapped to None. Branch offsets are in
        # slots, so execution advances through this table.
        self._slot_table: List[Optional[int]] = []
        for index, insn in enumerate(program.instructions):
            self._slot_table.append(index)
            if insn.slots == 2:
                self._slot_table.append(None)
        # Telemetry: per-slot opcode-class/helper names precomputed so
        # the run drivers count executions per slot (one list increment
        # per instruction, folded into the dicts once per run), and only
        # when the registry is enabled at run() time.
        self._slot_class: List[Optional[str]] = [None] * len(self._slot_table)
        self._slot_helper: List[Optional[str]] = [None] * len(self._slot_table)
        slot = 0
        for insn in program.instructions:
            self._slot_class[slot] = _CLASS_NAMES.get(insn.opclass, "unknown")
            if insn.opclass in (isa.BPF_JMP, isa.BPF_JMP32) and insn.is_call:
                try:
                    self._slot_helper[slot] = helper_spec(insn.imm).name
                except HelperError:
                    self._slot_helper[slot] = f"helper_{insn.imm}"
            slot += insn.slots
        # Executed-instruction counts by opcode class, and helper calls by
        # helper name, cumulative across runs of this VM instance.
        self.opcode_class_counts: Dict[str, int] = {}
        self.helper_call_counts: Dict[str, int] = {}
        self._collect = False
        # Jump-threaded dispatch table (one bound closure per slot), built
        # lazily on the first run.
        self._dispatch: Optional[List[Optional[Callable]]] = None
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
        buffer holds is a :class:`VmError`."""
        buf, off, why = AddressSpace.locate(
            addr, size, self.stack, self.ctx, self.maps)
        if buf is None:  # refused: ``off`` names the region
            raise VmError(f"{off} read {why}: {addr:#x}+{size}")
        return bytes(buf[off : off + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        size = len(data)
        buf, off, why = AddressSpace.locate(
            addr, size, self.stack, self.ctx, self.maps, writing=True)
        if buf is None:
            raise VmError(f"{off} write {why}: {addr:#x}+{size}")
        buf[off : off + size] = data

    def _load(self, addr: int, size_bytes: int) -> int:
        return int.from_bytes(self.read_bytes(addr, size_bytes), "little")

    def _store(self, addr: int, size_bytes: int, value: int) -> None:
        self.write_bytes(addr, (value & ((1 << (8 * size_bytes)) - 1)).to_bytes(size_bytes, "little"))

    # -- ALU ------------------------------------------------------------------

    @staticmethod
    def _alu(op: int, dst: int, src: int, is64: bool) -> int:
        mask = MASK64 if is64 else MASK32
        bits = 64 if is64 else 32
        shift_mask = 63 if is64 else 31
        if op == isa.BPF_ADD:
            result = dst + src
        elif op == isa.BPF_SUB:
            result = dst - src
        elif op == isa.BPF_MUL:
            result = dst * src
        elif op == isa.BPF_DIV:
            result = (dst & mask) // (src & mask) if (src & mask) else 0
        elif op == isa.BPF_MOD:
            result = (dst & mask) % (src & mask) if (src & mask) else dst
        elif op == isa.BPF_OR:
            result = dst | src
        elif op == isa.BPF_AND:
            result = dst & src
        elif op == isa.BPF_XOR:
            result = dst ^ src
        elif op == isa.BPF_LSH:
            result = dst << (src & shift_mask)
        elif op == isa.BPF_RSH:
            result = (dst & mask) >> (src & shift_mask)
        elif op == isa.BPF_ARSH:
            signed = isa.sign_extend(dst, bits)
            result = signed >> (src & shift_mask)
        elif op == isa.BPF_MOV:
            result = src
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
        bits = 64 if is64 else 32
        mask = MASK64 if is64 else MASK32
        lhs &= mask
        rhs &= mask
        slhs = isa.sign_extend(lhs, bits)
        srhs = isa.sign_extend(rhs, bits)
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
        self._collect = get_registry().enabled
        return self._run_dispatch()

    def _run_dispatch(self) -> XdpResult:
        """Jump-threaded driver: one pre-bound closure per program slot.

        Each handler executes its instruction against the VM state and
        returns the next slot (``None`` for exit). The driver keeps the
        executed counter, program-counter range check and
        mid-``ld_imm64`` check of :meth:`_run_interpreted` — with
        identical error messages — so the two fault identically too."""
        dispatch = self._dispatch
        if dispatch is None:
            dispatch = self._dispatch = self._build_dispatch()
        n = len(dispatch)
        slot = 0
        executed = 0
        collect = self._collect
        # Per-slot execution tallies, folded into the by-class/by-helper
        # dicts once per run (see _fold_slot_counts): the per-instruction
        # telemetry cost is one list increment instead of two dict bumps.
        scounts = [0] * n if collect else None
        try:
            while True:
                if executed >= MAX_INSTRUCTIONS:
                    raise VmError(
                        "instruction limit exceeded (unbounded loop?)")
                if not 0 <= slot < n:
                    raise VmError(
                        f"program counter out of range: slot {slot}")
                handler = dispatch[slot]
                if handler is None:
                    raise VmError(
                        f"jump into the middle of ld_imm64 at slot {slot}")
                executed += 1
                if collect:
                    scounts[slot] += 1
                slot = handler(self)
                if slot is None:
                    return XdpResult(
                        action=XdpAction.of(self.regs[isa.R0]),
                        packet=bytes(self.ctx.packet),
                        redirect_ifindex=self.ctx.redirect_ifindex,
                        instructions_executed=executed,
                    )
        finally:
            if collect:
                self._fold_slot_counts(scounts)

    def _build_dispatch(self) -> List[Optional[Callable]]:
        from .opfns import make_alu_fn, make_cmp_fn

        table: List[Optional[Callable]] = [None] * len(self._slot_table)
        slot = 0
        for insn in self.program.instructions:
            table[slot] = self._compile_insn(insn, slot, make_alu_fn, make_cmp_fn)
            slot += insn.slots
        return table

    def _compile_insn(
        self, insn: Instruction, slot: int, make_alu_fn, make_cmp_fn
    ) -> Callable:
        """Bind one instruction into a ``handler(vm) -> next_slot | None``."""
        next_slot = slot + insn.slots
        cls = insn.opclass

        if cls in (isa.BPF_ALU64, isa.BPF_ALU):
            alu = make_alu_fn(insn)
            if alu is not None:
                def handler(vm):
                    alu(vm.regs)
                    return next_slot
                return handler

            def handler(vm):  # unknown opcode: canonical _alu/_swap errors
                alu_step(insn, vm.regs)
                return next_slot
            return handler

        if cls == isa.BPF_LDX:
            if insn.mode != isa.BPF_MEM:
                mode = insn.mode

                def handler(vm):
                    raise VmError(f"unsupported LDX mode {mode:#x}")
                return handler
            src = insn.src
            dst = insn.dst
            off = insn.off
            size = insn.size_bytes
            unpack = _UNPACK[size]

            def handler(vm):
                addr = (vm.regs[src] + off) & MASK64
                if _STACK_BASE <= addr < _STACK_END:
                    o = addr - _STACK_BASE
                    if o + size <= _STACK_SIZE:
                        vm.regs[dst] = unpack(vm.stack, o)[0]
                        return next_slot
                elif _PACKET_BASE <= addr < _STACK_BASE:
                    ctx = vm.ctx
                    o = addr - _PACKET_DATA0 - ctx.head_adjust
                    if 0 <= o and o + size <= len(ctx.packet):
                        vm.regs[dst] = unpack(ctx.packet, o)[0]
                        return next_slot
                # Other regions and all out-of-bounds accesses take the
                # generic path for the canonical VmError messages.
                vm.regs[dst] = vm._load(addr, size)
                return next_slot
            return handler

        if cls == isa.BPF_LD:
            if not insn.is_ld_imm64:
                mode = insn.mode

                def handler(vm):
                    raise VmError(f"unsupported LD mode {mode:#x}")
                return handler
            dst = insn.dst
            if insn.src == isa.BPF_PSEUDO_MAP_FD:
                fd = (insn.imm64 or insn.imm) & MASK32

                def handler(vm):
                    if fd not in vm.maps:
                        raise VmError(f"unknown map fd {fd}")
                    vm.regs[dst] = map_ptr(fd)
                    return next_slot
                return handler
            value = (insn.imm64 if insn.imm64 is not None else insn.imm) & MASK64

            def handler(vm):
                vm.regs[dst] = value
                return next_slot
            return handler

        if cls in (isa.BPF_ST, isa.BPF_STX):
            rdst = insn.dst
            off = insn.off
            size = insn.size_bytes
            if insn.is_atomic:
                def handler(vm):
                    vm._atomic(insn, (vm.regs[rdst] + off) & MASK64)
                    return next_slot
                return handler
            is_stx = cls == isa.BPF_STX
            rsrc = insn.src
            imm_val = to_signed32(insn.imm) & MASK64
            smask = (1 << (8 * size)) - 1
            pack = _PACK[size]

            def handler(vm):
                addr = (vm.regs[rdst] + off) & MASK64
                value = vm.regs[rsrc] if is_stx else imm_val
                if _STACK_BASE <= addr < _STACK_END:
                    o = addr - _STACK_BASE
                    if o + size <= _STACK_SIZE:
                        pack(vm.stack, o, value & smask)
                        return next_slot
                elif _PACKET_BASE <= addr < _STACK_BASE:
                    ctx = vm.ctx
                    o = addr - _PACKET_DATA0 - ctx.head_adjust
                    if 0 <= o and o + size <= len(ctx.packet):
                        pack(ctx.packet, o, value & smask)
                        return next_slot
                vm._store(addr, size, value)
                return next_slot
            return handler

        if cls in (isa.BPF_JMP, isa.BPF_JMP32):
            if insn.is_exit:
                def handler(vm):
                    return None
                return handler
            if insn.is_call:
                helper_id = insn.imm
                try:
                    helper_spec(helper_id)
                    impl = helper_impl(helper_id)
                except HelperError:
                    def handler(vm):  # unknown helper: fail at execution
                        vm._call(helper_id)
                        return next_slot
                    return handler

                def handler(vm):
                    regs = vm.regs
                    regs[isa.R0] = impl(
                        vm, regs[1], regs[2], regs[3], regs[4], regs[5]
                    ) & MASK64
                    regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = 0
                    return next_slot
                return handler
            target = slot + insn.slots + insn.off
            if insn.op == isa.BPF_JA:
                def handler(vm):
                    return target
                return handler
            cmp = make_cmp_fn(insn)
            if cmp is not None:
                def handler(vm):
                    return target if cmp(vm.regs) else next_slot
                return handler

            def handler(vm):  # unknown compare: canonical _compare error
                return target if cmp_step(insn, vm.regs) else next_slot
            return handler

        def handler(vm):
            raise VmError(f"unknown instruction class {cls:#x}")
        return handler

    def _run_interpreted(self) -> XdpResult:
        """The decode-per-instruction loop: not reachable from
        :meth:`run`, kept as the reference the dispatch table is tested
        against (``tests/test_vm.py::TestVmFastPath`` rebinds
        ``_run_dispatch`` to it)."""
        collect = self._collect
        scounts = [0] * len(self._slot_table) if collect else None
        try:
            return self._interp_loop(scounts)
        finally:
            if collect:
                self._fold_slot_counts(scounts)

    def _interp_loop(self, scounts: Optional[List[int]]) -> XdpResult:
        slot = 0
        executed = 0
        table = self._slot_table
        instructions = self.program.instructions
        collect = scounts is not None

        while True:
            if executed >= MAX_INSTRUCTIONS:
                raise VmError("instruction limit exceeded (unbounded loop?)")
            if not 0 <= slot < len(table):
                raise VmError(f"program counter out of range: slot {slot}")
            index = table[slot]
            if index is None:
                raise VmError(f"jump into the middle of ld_imm64 at slot {slot}")
            insn = instructions[index]
            executed += 1
            if collect:
                scounts[slot] += 1
            next_slot = slot + insn.slots
            cls = insn.opclass

            if cls in (isa.BPF_ALU64, isa.BPF_ALU):
                alu_step(insn, self.regs)
            elif cls == isa.BPF_LDX:
                if insn.mode != isa.BPF_MEM:
                    raise VmError(f"unsupported LDX mode {insn.mode:#x}")
                addr = (self.regs[insn.src] + insn.off) & MASK64
                self.regs[insn.dst] = self._load(addr, insn.size_bytes)
            elif cls == isa.BPF_LD:
                if insn.is_ld_imm64:
                    if insn.src == isa.BPF_PSEUDO_MAP_FD:
                        fd = (insn.imm64 or insn.imm) & MASK32
                        if fd not in self.maps:
                            raise VmError(f"unknown map fd {fd}")
                        self.regs[insn.dst] = map_ptr(fd)
                    else:
                        self.regs[insn.dst] = (
                            insn.imm64 if insn.imm64 is not None else insn.imm
                        ) & MASK64
                else:
                    raise VmError(f"unsupported LD mode {insn.mode:#x}")
            elif cls in (isa.BPF_ST, isa.BPF_STX):
                addr = (self.regs[insn.dst] + insn.off) & MASK64
                if insn.is_atomic:
                    self._atomic(insn, addr)
                elif cls == isa.BPF_STX:
                    self._store(addr, insn.size_bytes, self.regs[insn.src])
                else:
                    self._store(
                        addr, insn.size_bytes, to_signed32(insn.imm) & MASK64
                    )
            elif cls in (isa.BPF_JMP, isa.BPF_JMP32):
                if insn.is_exit:
                    return XdpResult(
                        action=XdpAction.of(self.regs[isa.R0]),
                        packet=bytes(self.ctx.packet),
                        redirect_ifindex=self.ctx.redirect_ifindex,
                        instructions_executed=executed,
                    )
                if insn.is_call:
                    self._call(insn.imm)
                elif insn.op == isa.BPF_JA:
                    next_slot = slot + insn.slots + insn.off
                elif cmp_step(insn, self.regs):
                    next_slot = slot + insn.slots + insn.off
            else:
                raise VmError(f"unknown instruction class {cls:#x}")

            slot = next_slot

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


def alu_step(insn: Instruction, regs: List[int]) -> None:
    """Execute one ALU/ALU64 instruction on a register file: the
    reference tier's one operand decode (END, NEG, register vs.
    sign-extended immediate) in front of ``Vm._alu`` / ``Vm._swap``."""
    if insn.op == isa.BPF_END:
        regs[insn.dst] = Vm._swap(
            regs[insn.dst], insn.imm, to_big=insn.uses_reg_src
        )
        return
    is64 = insn.opclass == isa.BPF_ALU64
    if insn.op == isa.BPF_NEG:
        operand = 0  # unused
    elif insn.uses_reg_src:
        operand = regs[insn.src]
    else:
        operand = to_signed32(insn.imm) & (MASK64 if is64 else MASK32)
    regs[insn.dst] = Vm._alu(insn.op, regs[insn.dst], operand, is64)


def cmp_step(insn: Instruction, regs: List[int]) -> bool:
    """Evaluate one conditional jump's predicate on a register file: the
    reference tier's one operand decode in front of ``Vm._compare``."""
    is64 = insn.opclass == isa.BPF_JMP
    rhs = (
        regs[insn.src]
        if insn.uses_reg_src
        else to_signed32(insn.imm) & (MASK64 if is64 else MASK32)
    )
    return Vm._compare(insn.op, regs[insn.dst], rhs, is64)


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
