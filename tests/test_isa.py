"""Unit tests for the eBPF ISA model: encoding, decoding, field access."""

import pytest

from repro.ebpf import isa
from repro.ebpf.isa import (
    ISAError,
    Instruction,
    MapSpec,
    Program,
    decode,
    encode,
    sign_extend,
    to_signed32,
    to_signed64,
)


class TestSignExtension:
    def test_positive_stays(self):
        assert sign_extend(5, 8) == 5

    def test_negative_byte(self):
        assert sign_extend(0xFF, 8) == -1

    def test_boundary(self):
        assert sign_extend(0x80, 8) == -128
        assert sign_extend(0x7F, 8) == 127

    def test_32bit(self):
        assert to_signed32(0xFFFFFFFF) == -1
        assert to_signed32(0x7FFFFFFF) == 0x7FFFFFFF

    def test_64bit(self):
        assert to_signed64((1 << 64) - 1) == -1


class TestInstructionFields:
    def test_opclass(self):
        insn = isa.alu64_imm(isa.BPF_ADD, isa.R1, 5)
        assert insn.opclass == isa.BPF_ALU64
        assert insn.is_alu and insn.is_alu64

    def test_alu32(self):
        insn = isa.alu32_imm(isa.BPF_ADD, isa.R1, 5)
        assert insn.opclass == isa.BPF_ALU
        assert insn.is_alu and not insn.is_alu64

    def test_size_bytes(self):
        assert isa.load(isa.BPF_B, 1, 2, 0).size_bytes == 1
        assert isa.load(isa.BPF_H, 1, 2, 0).size_bytes == 2
        assert isa.load(isa.BPF_W, 1, 2, 0).size_bytes == 4
        assert isa.load(isa.BPF_DW, 1, 2, 0).size_bytes == 8

    def test_jump_predicates(self):
        assert isa.jump(3).is_uncond_jump
        assert not isa.jump(3).is_cond_jump
        assert isa.jump_imm(isa.BPF_JEQ, 1, 0, 2).is_cond_jump
        assert isa.call(1).is_call and not isa.call(1).is_jump
        assert isa.exit_().is_exit and isa.exit_().is_terminator

    def test_atomic_predicates(self):
        insn = isa.atomic_op(isa.BPF_DW, 1, 2, 0, isa.ATOMIC_ADD)
        assert insn.is_atomic and insn.is_store

    def test_atomic_requires_word_sizes(self):
        with pytest.raises(ISAError):
            isa.atomic_op(isa.BPF_B, 1, 2, 0, isa.ATOMIC_ADD)

    def test_ld_imm64_slots(self):
        assert isa.ld_imm64(1, 0xDEADBEEF).slots == 2
        assert isa.mov64_imm(1, 5).slots == 1

    def test_map_ref(self):
        insn = isa.ld_map_fd(1, 7)
        assert insn.is_map_ref and insn.imm64 == 7

    def test_invalid_register(self):
        with pytest.raises(ISAError):
            Instruction(isa.BPF_ALU64 | isa.BPF_MOV, dst=11)

    def test_invalid_offset(self):
        with pytest.raises(ISAError):
            Instruction(isa.BPF_JMP | isa.BPF_JA, off=1 << 15)

    def test_endian_width_validation(self):
        with pytest.raises(ISAError):
            isa.endian(1, 24, to_big=True)


class TestMapSpecBanks:
    """``MapSpec.banks`` is validated where the spec is made, naming the
    field."""

    def test_default_is_one_bank(self):
        assert MapSpec("l", "lru_hash", 4, 8, 6).banks == 1

    @pytest.mark.parametrize("banks", [0, -4, 3, 6, 2.0])
    def test_not_a_power_of_two(self, banks):
        with pytest.raises(ISAError, match="banks must be a power of two"):
            MapSpec("l", "lru_hash", 4, 8, 64, banks=banks)

    def test_must_divide_max_entries(self):
        with pytest.raises(ISAError, match=r"banks \(8\) must divide "
                                           r"max_entries \(12\)"):
            MapSpec("l", "lru_hash", 4, 8, 12, banks=8)

    @pytest.mark.parametrize("map_type", ["hash", "array", "percpu_array"])
    def test_only_lru_maps_bank(self, map_type):
        with pytest.raises(ISAError,
                           match=f"banks \\(4\\) needs an lru_hash map, "
                                 f"not {map_type}"):
            MapSpec("m", map_type, 4, 8, 8, banks=4)
        assert MapSpec("m", map_type, 4, 8, 8, banks=1).banks == 1


class TestRegisterSets:
    def test_alu_reg_reads_both(self):
        insn = isa.alu64_reg(isa.BPF_ADD, isa.R1, isa.R2)
        assert set(insn.regs_read()) == {isa.R1, isa.R2}
        assert insn.regs_written() == (isa.R1,)

    def test_mov_imm_reads_nothing(self):
        assert isa.mov64_imm(isa.R3, 7).regs_read() == ()

    def test_mov_reg_reads_src_only(self):
        insn = isa.mov64_reg(isa.R3, isa.R4)
        assert insn.regs_read() == (isa.R4,)

    def test_load_reads_base(self):
        insn = isa.load(isa.BPF_W, isa.R1, isa.R2, 4)
        assert insn.regs_read() == (isa.R2,)
        assert insn.regs_written() == (isa.R1,)

    def test_store_reads_base_and_value(self):
        insn = isa.store_reg(isa.BPF_W, isa.R1, isa.R2, 4)
        assert set(insn.regs_read()) == {isa.R1, isa.R2}
        assert insn.regs_written() == ()

    def test_exit_reads_r0(self):
        assert isa.exit_().regs_read() == (isa.R0,)

    def test_call_clobbers_caller_saved(self):
        written = set(isa.call(1).regs_written())
        assert {isa.R0, isa.R1, isa.R2, isa.R3, isa.R4, isa.R5} == written

    def test_atomic_fetch_writes_src(self):
        insn = isa.atomic_op(
            isa.BPF_DW, isa.R1, isa.R2, 0, isa.ATOMIC_ADD | isa.BPF_FETCH
        )
        assert isa.R2 in insn.regs_written()


class TestEncoding:
    def test_simple_roundtrip(self):
        insns = [
            isa.mov64_imm(isa.R0, 2),
            isa.alu64_reg(isa.BPF_ADD, isa.R0, isa.R1),
            isa.load(isa.BPF_W, isa.R2, isa.R1, 4),
            isa.store_imm(isa.BPF_H, isa.R10, -4, 99),
            isa.jump_imm(isa.BPF_JNE, isa.R0, 5, 2),
            isa.call(1),
            isa.exit_(),
        ]
        assert decode(encode(insns)) == insns

    def test_ld_imm64_roundtrip(self):
        insns = [isa.ld_imm64(isa.R1, 0x1122334455667788), isa.exit_()]
        data = encode(insns)
        assert len(data) == 24  # 2 slots + 1 slot
        assert decode(data) == insns

    def test_negative_imm_roundtrip(self):
        insns = [isa.mov64_imm(isa.R1, -42), isa.exit_()]
        assert decode(encode(insns)) == insns

    def test_negative_offset_roundtrip(self):
        insns = [isa.load(isa.BPF_W, isa.R1, isa.R10, -8), isa.exit_()]
        assert decode(encode(insns)) == insns

    def test_decode_rejects_bad_length(self):
        with pytest.raises(ISAError):
            decode(b"\x00" * 7)

    def test_decode_rejects_truncated_ld_imm64(self):
        data = isa.ld_imm64(isa.R1, 1).encode()[:8]
        with pytest.raises(ISAError):
            decode(data)

    def test_decode_rejects_bad_second_slot(self):
        data = bytearray(isa.ld_imm64(isa.R1, 1).encode())
        data[8] = 0x07  # second slot must be all-zero opcode
        with pytest.raises(ISAError):
            decode(bytes(data))

    def test_encoding_is_8_bytes(self):
        assert len(isa.mov64_imm(isa.R1, 1).encode()) == 8


class TestProgram:
    def _prog(self):
        return Program(
            [
                isa.mov64_imm(isa.R0, 1),
                isa.ld_imm64(isa.R1, 5),
                isa.jump_imm(isa.BPF_JEQ, isa.R0, 1, 1),
                isa.exit_(),
                isa.exit_(),
            ]
        )

    def test_slot_arithmetic(self):
        prog = self._prog()
        assert prog.slot_count == 6
        assert prog.slot_of_index(2) == 3  # after mov (1) + ld_imm64 (2)
        assert prog.index_of_slot(3) == 2

    def test_jump_target_skips_wide_insn(self):
        prog = self._prog()
        # jump at index 2, offset +1 slot -> index 4
        assert prog.jump_target_index(2) == 4

    def test_index_of_slot_rejects_mid_instruction(self):
        prog = self._prog()
        with pytest.raises(ISAError):
            prog.index_of_slot(2)  # middle of the ld_imm64

    def test_empty_program_rejected(self):
        with pytest.raises(ISAError):
            Program([])

    def test_from_bytes(self):
        prog = self._prog()
        again = Program.from_bytes(prog.encode())
        assert again.instructions == prog.instructions

    def test_referenced_map_fds(self):
        prog = Program([isa.ld_map_fd(isa.R1, 3), isa.exit_()],
                       maps={3: MapSpec("m", "array", 4, 8, 1)})
        assert prog.referenced_map_fds() == [3]

    def test_map_for_unknown_fd(self):
        prog = self._prog()
        with pytest.raises(ISAError):
            prog.map_for_fd(9)

    def test_no_stale_slots_after_an_edit(self):
        # Replacing an instruction in place with an ld_imm64 used to keep
        # the cached slot table: slot_of_index(2) read 2, not 3.
        insns = [isa.mov64_imm(isa.R0, 1), isa.mov64_imm(isa.R1, 5),
                 isa.exit_()]
        prog = Program(insns)
        assert prog.slot_of_index(2) == 2
        insns[1] = isa.ld_imm64(isa.R1, 5)  # the caller's list, not prog's
        with pytest.raises(TypeError):
            prog.instructions[1] = isa.ld_imm64(isa.R1, 5)
        with pytest.raises(AttributeError):
            prog.instructions = insns
        assert prog.slot_of_index(2) == 2
        edited = Program(insns)
        assert edited.slot_of_index(2) == 3
        assert prog.with_instructions(insns).slot_of_index(2) == 3

    def test_derived_facts_are_not_pickled(self):
        import pickle

        prog = self._prog()
        assert prog.slot_of_index(4) == 5 and "_derived" in prog.__dict__
        again = pickle.loads(pickle.dumps(prog))
        assert "_derived" not in again.__dict__
        assert again == prog and isinstance(again.instructions, tuple)
        assert [again.slot_of_index(i) for i in range(len(again))] == \
            [prog.slot_of_index(i) for i in range(len(prog))]


class TestOpcodeTable:
    """Every opcode predicate is one index into a 256-row table; this
    writes each one out again from the opcode's fields, so the table
    cannot drift from the ISA."""

    @staticmethod
    def definitions(opcode):
        cls, op, mode = opcode & 0x07, opcode & 0xF0, opcode & 0xE0
        jump_class = cls in (isa.BPF_JMP, isa.BPF_JMP32)
        jump = jump_class and op not in (isa.BPF_CALL, isa.BPF_EXIT)
        exit_ = jump_class and op == isa.BPF_EXIT
        ld_imm64 = opcode == isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW
        return {
            "is_alu": cls in (isa.BPF_ALU, isa.BPF_ALU64),
            "is_alu64": cls == isa.BPF_ALU64,
            "is_jump_class": jump_class,
            "is_jump": jump,
            "is_cond_jump": jump and op != isa.BPF_JA,
            "is_uncond_jump": jump_class and op == isa.BPF_JA,
            "is_call": jump_class and op == isa.BPF_CALL,
            "is_exit": exit_,
            "is_load": cls in (isa.BPF_LD, isa.BPF_LDX),
            "is_store": cls in (isa.BPF_ST, isa.BPF_STX),
            "is_mem_load": cls == isa.BPF_LDX and mode == isa.BPF_MEM,
            "is_mem_store": (cls in (isa.BPF_ST, isa.BPF_STX)
                             and mode == isa.BPF_MEM),
            "is_atomic": cls == isa.BPF_STX and mode == isa.BPF_ATOMIC,
            "is_ld_imm64": ld_imm64,
            "is_terminator": jump or exit_,
            "slots": 2 if ld_imm64 else 1,
        }

    def test_every_opcode(self):
        for opcode in range(256):
            insn = Instruction(opcode)
            for name, expected in self.definitions(opcode).items():
                assert getattr(insn, name) == expected, (hex(opcode), name)

    def test_every_predicate_is_witnessed(self):
        assert set(self.definitions(0)) == set(isa._Opcode._fields)


class TestMapSpec:
    def test_valid(self):
        spec = MapSpec("m", "hash", 4, 8, 16)
        assert spec.max_entries == 16

    def test_rejects_bad_type(self):
        with pytest.raises(ISAError):
            MapSpec("m", "treemap", 4, 8, 16)

    def test_rejects_zero_sizes(self):
        with pytest.raises(ISAError):
            MapSpec("m", "hash", 0, 8, 16)
        with pytest.raises(ISAError):
            MapSpec("m", "hash", 4, 8, 0)
