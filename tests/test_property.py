"""Property-based tests (hypothesis).

The headline property: for *randomly generated, verifier-valid eBPF
programs* and random packets, the compiled hardware pipeline computes
exactly what the reference VM computes — actions, packet bytes and map
state. Every compiler pass is in the loop.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CompileOptions, compile_program
from repro.core.pipeline import StageKind
from repro.ebpf import isa
from repro.ebpf.asm import assemble
from repro.ebpf.builder import ProgramBuilder
from repro.ebpf.disasm import disassemble
from repro.ebpf.isa import MapSpec, decode, encode
from repro.ebpf.maps import HashMap, MapError, MapSet
from repro.ebpf.verifier import VerifierError, verify
from repro.ebpf.vm import Vm
from repro.hwsim import PipelineSimulator, SimOptions, run_differential
from repro.net.packet import checksum16
from tests.test_property_maps import (
    LAYOUTS,
    differential_both_layouts,
    map_programs,
    packet_batches,
)

# ---------------------------------------------------------------------------
# random program generation
# ---------------------------------------------------------------------------

SCRATCH_REGS = [0, 2, 3, 4, 5, 8, 9]  # r6/r7 hold packet pointers
ALU_OPS = ["+", "-", "*", "&", "|", "^", "<<", ">>", "s>>", "/", "%"]
LOAD_SIZES = ["u8", "u16", "u32", "u64"]
CMP_OPS = ["==", "!=", "<", "<=", ">", ">=", "s<", "s>"]

PACKET_DEPTH = 48  # bounds-checked access window


@st.composite
def simple_ops(draw):
    """One random straight-line operation."""
    kind = draw(st.sampled_from(
        ["alu_imm", "alu_reg", "mov_imm", "mov_reg", "load_pkt",
         "store_pkt", "store_stack", "load_stack", "endian", "neg"]
    ))
    dst = draw(st.sampled_from(SCRATCH_REGS))
    src = draw(st.sampled_from(SCRATCH_REGS))
    imm = draw(st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1))
    width = draw(st.sampled_from([32, 64]))
    op = draw(st.sampled_from(ALU_OPS))
    size = draw(st.sampled_from(LOAD_SIZES))
    size_bytes = {"u8": 1, "u16": 2, "u32": 4, "u64": 8}[size]
    pkt_off = draw(st.integers(min_value=0, max_value=PACKET_DEPTH - size_bytes))
    stack_off = -8 * draw(st.integers(min_value=1, max_value=8))
    bits = draw(st.sampled_from([16, 32, 64]))
    return (kind, dst, src, imm, width, op, size, pkt_off, stack_off, bits)


def emit_op(b: ProgramBuilder, spec, stack_written: set) -> None:
    kind, dst, src, imm, width, op, size, pkt_off, stack_off, bits = spec
    if kind == "alu_imm":
        if op in ("<<", ">>", "s>>"):
            imm = imm % (width - 1) or 1
        b.alu_imm(op, dst, imm, width=width)
    elif kind == "alu_reg":
        if op in ("<<", ">>", "s>>"):
            b.alu_imm("&", src, 31, width=64)  # bound the shift amount
        b.alu(op, dst, src, width=width)
    elif kind == "mov_imm":
        b.mov_imm(dst, imm)
    elif kind == "mov_reg":
        b.mov(dst, src)
    elif kind == "load_pkt":
        b.load(size, dst, 6, pkt_off)
    elif kind == "store_pkt":
        b.store(size, 6, src, pkt_off)
    elif kind == "store_stack":
        b.store("u64", 10, src, stack_off)
        stack_written.add(stack_off)
    elif kind == "load_stack":
        if stack_written:
            b.load("u64", dst, 10, sorted(stack_written)[0])
        else:
            b.mov_imm(dst, 0)
    elif kind == "endian":
        b.endian(dst, bits, to_big=(imm & 1) == 0)
    elif kind == "neg":
        b.neg(dst, width=width)


@st.composite
def random_programs(draw):
    """A verifier-valid program: prologue + random body + classified exit.

    Bodies may contain one level of if/else diamonds whose arms are
    themselves random op sequences.
    """
    b = ProgramBuilder("randprog")
    # prologue: packet pointers + bounds check + initialised scratch regs
    b.load("u32", 7, 1, 4)
    b.load("u32", 6, 1, 0)
    b.mov(2, 6)
    b.alu_imm("+", 2, PACKET_DEPTH)
    b.jmp_reg(">", 2, 7, "drop")
    for reg in SCRATCH_REGS:
        b.mov_imm(reg, draw(st.integers(min_value=-100, max_value=100)))
    stack_written: set = set()

    n_segments = draw(st.integers(min_value=1, max_value=3))
    label_counter = [0]

    def segment(depth: int) -> None:
        ops = draw(st.lists(simple_ops(), min_size=1, max_size=6))
        for spec in ops:
            emit_op(b, spec, stack_written)
        if depth > 0 and draw(st.booleans()):
            label_counter[0] += 1
            n = label_counter[0]
            reg = draw(st.sampled_from(SCRATCH_REGS))
            cmp_op = draw(st.sampled_from(CMP_OPS))
            cmp_imm = draw(st.integers(min_value=-8, max_value=8))
            b.jmp_imm(cmp_op, reg, cmp_imm, f"else_{n}")
            segment(depth - 1)
            b.jmp(f"end_{n}")
            b.label(f"else_{n}")
            segment(depth - 1)
            b.label(f"end_{n}")

    for _ in range(n_segments):
        segment(depth=1)

    result_reg = draw(st.sampled_from(SCRATCH_REGS))
    b.mov(0, result_reg) if result_reg != 0 else None
    b.alu_imm("&", 0, 3)
    b.exit()
    b.label("drop")
    b.mov_imm(0, 1)
    b.exit()
    return b.build()


@st.composite
def packets(draw):
    long = draw(st.booleans())
    if long:
        size = draw(st.integers(min_value=PACKET_DEPTH, max_value=128))
    else:
        size = draw(st.integers(min_value=0, max_value=PACKET_DEPTH - 1))
    return bytes(draw(st.binary(min_size=size, max_size=size)))


class TestRandomProgramEquivalence:
    """The flagship property: VM ≡ pipeline on arbitrary programs."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog=random_programs(), frames=st.lists(packets(), min_size=1, max_size=6))
    def test_pipeline_matches_vm(self, prog, frames):
        verify(prog)  # generated programs must be valid by construction
        for result in differential_both_layouts(prog, frames):
            result.raise_on_mismatch()

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog=random_programs(), frames=st.lists(packets(), min_size=1, max_size=6))
    def test_codegen_matches_vm(self, prog, frames):
        # same property, executed by the generated compile()d source —
        # constant-offset folding and the elision decisions are in the loop
        verify(prog)
        run_differential(prog, frames, engine="codegen").raise_on_mismatch()

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog=random_programs(), frames=st.lists(packets(), min_size=1, max_size=4))
    def test_pipeline_matches_vm_without_optimisations(self, prog, frames):
        options = CompileOptions(
            enable_ilp=False, enable_fusion=False, enable_pruning=False,
            elide_bounds_checks=False,
        )
        run_differential(prog, frames, compile_options=options).raise_on_mismatch()

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog=random_programs())
    def test_disasm_asm_roundtrip(self, prog):
        text = disassemble(prog.instructions, numbered=False)
        again = assemble(text)
        assert again == list(prog.instructions)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog=random_programs())
    def test_encode_decode_roundtrip(self, prog):
        assert decode(prog.encode()) == list(prog.instructions)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog=random_programs())
    def test_schedule_respects_dependencies(self, prog):
        pipe = compile_program(prog)
        stage_of = {}
        for stage in pipe.stages:
            for op in stage.ops:
                stage_of[op.insn_index] = stage.number
        from repro.core.ddg import WAR

        for j, preds in pipe.ddg.deps.items():
            if j not in stage_of:
                continue
            for i, kind in preds.items():
                if i not in stage_of:
                    continue
                if kind == WAR:
                    assert stage_of[i] <= stage_of[j]
                else:
                    # RAW/WAW: strictly later stage unless fused in-row
                    assert stage_of[i] <= stage_of[j]

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog=random_programs())
    def test_pruning_carries_every_needed_register(self, prog):
        """Structural soundness of state pruning: any register an op reads
        is carried into its stage, produced earlier in the stage, or is
        the hardwired R10/R1."""
        from repro.core.liveness import regs_read

        for options in LAYOUTS:
            pipe = compile_program(prog, options)
            entry_written = {isa.R1, isa.R10}
            for op in pipe.entry_ops:
                entry_written |= set(op.insn.regs_written())
            written_so_far = set(entry_written)
            for stage in pipe.stages:
                # in-stage forwarding stays inside a block: exclusive
                # blocks sharing the stage never see each other's results
                produced = {op.block_id: set() for op in stage.ops}
                for op in stage.ops:
                    mine = produced[op.block_id]
                    for r in regs_read(op.insn):
                        if r in (isa.R10, isa.R1) or r in mine:
                            continue
                        if r not in written_so_far:
                            continue  # reading junk: verifier-unreachable path
                        assert r in stage.live_in_regs, (
                            f"stage {stage.number} reads r{r} but does not "
                            "carry it"
                        )
                    mine |= set(op.insn.regs_written())
                for regs in produced.values():
                    written_so_far |= regs


# ---------------------------------------------------------------------------
# focused data-structure properties
# ---------------------------------------------------------------------------

map_keys = st.binary(min_size=4, max_size=4)
map_values = st.binary(min_size=8, max_size=8)


class _RangeCheckedSimulator(PipelineSimulator):
    """The reference tier (``interpreted``: every op through
    ``_execute_op``), asserting the register invariant after each op."""

    def _execute_op(self, pkt, op):
        side_effect = super()._execute_op(pkt, op)
        assert all(0 <= value <= isa.MASK64 for value in pkt.regs), \
            (op.insn, pkt.regs)
        return side_effect


class TestRegisterInvariant:
    """Every register holds a value in [0, 2**64) after every op. The
    specialised tier (``ebpf.opfns``) leans on it — a 64-bit mov, and,
    or, xor, right shift, division, modulo or unsigned compare reads its
    operands unmasked — so the reference tier, whose results the
    specialised text must equal, is held to it here over both generated
    program corpora (``test_op_sweep``'s operand grid stays inside the
    range for the same reason)."""

    @staticmethod
    def _run(program, frames):
        sim = _RangeCheckedSimulator(
            compile_program(program),
            options=SimOptions(engine="interpreted"))
        assert sim.run_packets(frames).packets_out == len(frames)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog=random_programs(),
           frames=st.lists(packets(), min_size=1, max_size=6))
    def test_alu_programs(self, prog, frames):
        self._run(prog, frames)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog_ops=map_programs(), frames=packet_batches())
    def test_map_programs(self, prog_ops, frames):
        self._run(prog_ops[0], frames)


class TestHashMapModel:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["update", "delete", "lookup"]),
                              map_keys, map_values), max_size=60))
    def test_matches_dict_model(self, ops):
        m = HashMap(MapSpec("h", "hash", 4, 8, 16))
        model = {}
        for op, key, value in ops:
            if op == "update":
                try:
                    m.update(key, value)
                    model[key] = value
                except MapError:
                    assert len(model) >= 16 and key not in model
            elif op == "delete":
                assert m.delete(key) == (key in model)
                model.pop(key, None)
            else:
                expected = model.get(key)
                assert m.lookup(key) == expected
        assert dict(m.items()) == model
        assert m.entry_count() == len(model)


class TestChecksumProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=2, max_size=64))
    def test_checksum_of_data_plus_checksum_is_zero(self, data):
        if len(data) % 2:
            data += b"\x00"
        csum = checksum16(data)
        assert checksum16(data + csum.to_bytes(2, "big")) == 0

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=0, max_size=32), st.binary(min_size=0, max_size=32))
    def test_order_independent(self, a, b):
        if len(a) % 2 or len(b) % 2:
            a += b"\x00" * (len(a) % 2)
            b += b"\x00" * (len(b) % 2)
        assert checksum16(a + b) == checksum16(b + a)


class TestVmAluProperties:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_add_sub_inverse(self, a, b):
        added = Vm._alu(isa.BPF_ADD, a, b, True)
        back = Vm._alu(isa.BPF_SUB, added, b, True)
        assert back == a

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_double_swap_identity(self, value):
        swapped = Vm._swap(value, 64, to_big=True)
        assert Vm._swap(swapped, 64, to_big=True) == value & ((1 << 64) - 1)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_compare_antisymmetry(self, a, b):
        lt = Vm._compare(isa.BPF_JLT, a, b, True)
        gt = Vm._compare(isa.BPF_JGT, a, b, True)
        eq = Vm._compare(isa.BPF_JEQ, a, b, True)
        assert lt + gt + eq == 1
