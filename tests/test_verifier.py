"""Verifier tests: rejection rules and the region type analysis."""

import pytest

from repro.cli import main
from repro.core.compiler import compile_program
from repro.core.vhdl import VhdlEmitError, _swap_expr
from repro.ebpf import isa
from repro.ebpf.asm import assemble_program
from repro.ebpf.isa import Instruction, MapSpec, Program
from repro.ebpf.verifier import (
    RegKind,
    VerifierError,
    verify,
)
from repro.ebpf.vm import Vm, VmError

MAPS = {"m": MapSpec("m", "array", 4, 8, 4)}


def verify_src(source: str, maps=None, **kwargs):
    return verify(assemble_program(source, maps=maps), **kwargs)


class TestRejections:
    def test_uninitialised_register_read(self):
        with pytest.raises(VerifierError, match="uninitialised register r3"):
            verify_src("r0 = r3\nexit")

    def test_uninitialised_on_one_path(self):
        source = """
            if r1 == 0 goto skip
            r2 = 5
        skip:
            r0 = r2
            exit
        """
        with pytest.raises(VerifierError, match="uninitialised"):
            verify_src(source)

    def test_backward_branch_rejected(self):
        source = """
        top:
            r0 = 0
            goto top
        """
        with pytest.raises(VerifierError, match="backward"):
            verify_src(source)

    def test_backward_branch_allowed_with_flag(self):
        source = """
            r0 = 2
            r2 = 3
        top:
            r2 -= 1
            if r2 != 0 goto top
            exit
        """
        verify_src(source, allow_back_edges=True)

    def test_fall_off_end(self):
        with pytest.raises(VerifierError, match="falls off"):
            verify_src("r0 = 0")

    def test_exit_with_uninit_r0(self):
        with pytest.raises(VerifierError):
            verify_src("exit")

    def test_null_map_value_deref(self):
        source = """
            r2 = 0
            *(u32 *)(r10 - 4) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            r0 = *(u64 *)(r0 + 0)
            exit
        """
        with pytest.raises(VerifierError, match="NULL"):
            verify_src(source, maps=MAPS)

    def test_null_check_enables_deref(self):
        source = """
            r2 = 0
            *(u32 *)(r10 - 4) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto out
            r3 = *(u64 *)(r0 + 0)
        out:
            r0 = 2
            exit
        """
        verify_src(source, maps=MAPS)

    def test_ne_null_check_also_works(self):
        source = """
            r2 = 0
            *(u32 *)(r10 - 4) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            if r0 != 0 goto deref
            r0 = 2
            exit
        deref:
            r3 = *(u64 *)(r0 + 0)
            r0 = 2
            exit
        """
        verify_src(source, maps=MAPS)

    def test_map_ptr_deref_rejected(self):
        source = "r1 = map[m]\nr0 = *(u64 *)(r1 + 0)\nexit"
        with pytest.raises(VerifierError, match="map pointer"):
            verify_src(source, maps=MAPS)

    def test_scalar_deref_rejected(self):
        with pytest.raises(VerifierError, match="not dereferenceable"):
            verify_src("r2 = 5\nr0 = *(u64 *)(r2 + 0)\nexit")

    def test_ctx_write_rejected(self):
        with pytest.raises(VerifierError, match="read-only"):
            verify_src("*(u32 *)(r1 + 0) = 5\nr0 = 2\nexit")

    def test_ctx_out_of_bounds(self):
        with pytest.raises(VerifierError, match="ctx access"):
            verify_src("r0 = *(u32 *)(r1 + 100)\nexit")

    def test_stack_out_of_bounds(self):
        with pytest.raises(VerifierError, match="stack access"):
            verify_src("*(u64 *)(r10 - 520) = r1\nr0 = 2\nexit")

    def test_stack_positive_offset_rejected(self):
        with pytest.raises(VerifierError, match="stack access"):
            verify_src("r2 = *(u64 *)(r10 + 8)\nr0 = 2\nexit")

    def test_unknown_helper(self):
        with pytest.raises(VerifierError, match="unknown helper"):
            verify_src("call 9999\nr0 = 2\nexit")

    def test_lookup_without_map_ptr(self):
        source = "r1 = 5\nr2 = r10\nr2 += -4\ncall 1\nr0 = 2\nexit"
        with pytest.raises(VerifierError, match="map pointer"):
            verify_src(source)

    def test_unknown_map_fd(self):
        prog = assemble_program("r1 = map[m]\nr0 = 2\nexit", maps=MAPS)
        # strip the map table to simulate a dangling fd
        prog.maps.clear()
        with pytest.raises(VerifierError, match="unknown map"):
            verify(prog)

    def test_partial_pointer_spill_rejected(self):
        source = "*(u32 *)(r10 - 4) = r1\nr0 = 2\nexit"
        with pytest.raises(VerifierError, match="partial spill"):
            verify_src(source)

    def test_helper_arg_uninitialised(self):
        # bpf_map_lookup_elem takes 2 args; r2 never set
        with pytest.raises(VerifierError, match="uninitialised"):
            verify_src("r1 = map[m]\ncall 1\nr0 = 2\nexit", maps=MAPS)


class TestClosedOpSet:
    """The legal op set is what the isa tables name. One witness per
    rule: each used to pass the verifier and die layers down (a bare
    ``KeyError`` out of the disassembler, a ``VhdlEmitError``) or not
    at all (``le128`` compiled to ``resize(unsigned(a), 128)``)."""

    MALFORMED = {
        "alu_op": (
            Instruction(isa.BPF_ALU64 | isa.BPF_K | 0xE0, dst=0, imm=1),
            "insn 1: unknown ALU op 0xe0", "unknown ALU op 0xe0",
        ),
        "jmp_op": (
            Instruction(isa.BPF_JMP | isa.BPF_K | 0xF0, dst=0, imm=1),
            "insn 1: unknown jump op 0xf0", "unknown jump op 0xf0",
        ),
        "end_width": (
            Instruction(isa.BPF_ALU | isa.BPF_X | isa.BPF_END, dst=0, imm=24),
            "insn 1: byte swap width 24", "byte swap width 24",
        ),
        "atomic_op": (
            Instruction(isa.BPF_STX | isa.BPF_ATOMIC | isa.BPF_DW,
                        dst=isa.R10, src=0, off=-8, imm=0x20),
            "insn 1: unknown atomic op 0x20", "unknown atomic op 0x20",
        ),
    }

    def _program(self, rule):
        bad = self.MALFORMED[rule][0]
        return Program([isa.mov64_imm(0, 2), bad, isa.exit_()])

    @pytest.mark.parametrize("rule", sorted(MALFORMED))
    def test_verify_and_compile_reject_with_the_index(self, rule):
        located = self.MALFORMED[rule][1]
        with pytest.raises(VerifierError, match=located):
            verify(self._program(rule))
        with pytest.raises(VerifierError, match=located):
            compile_program(self._program(rule))

    @pytest.mark.parametrize("rule", sorted(MALFORMED))
    def test_cli_prints_one_line(self, rule, tmp_path):
        raw = tmp_path / f"{rule}.bin"
        raw.write_bytes(self._program(rule).encode())
        with pytest.raises(SystemExit) as err:
            main(["compile", str(raw), "--no-cache"])
        assert str(err.value) == "verifier: " + {
            "alu_op": "insn 1: unknown ALU op 0xe0",
            "jmp_op": "insn 1: unknown jump op 0xf0",
            "end_width": "insn 1: byte swap width 24 not in {16, 32, 64}",
            "atomic_op": "insn 1: unknown atomic op 0x20",
        }[rule]

    @pytest.mark.parametrize("rule", sorted(MALFORMED))
    def test_vm_keeps_its_runtime_error(self, rule):
        # the VM runs unverified programs; its canonical error stays
        vm = Vm(self._program(rule))
        with pytest.raises(VmError, match=self.MALFORMED[rule][2]):
            vm.run(bytes(64))

    def test_unreachable_instructions_are_checked_too(self):
        bad = self.MALFORMED["alu_op"][0]
        program = Program([isa.mov64_imm(0, 2), isa.exit_(), bad])
        with pytest.raises(VerifierError, match="insn 2: unknown ALU op"):
            verify(program)

    @pytest.mark.parametrize("bits", [8, 24, 128])
    @pytest.mark.parametrize("to_big", [True, False])
    def test_swap_widths_without_a_primitive(self, bits, to_big):
        with pytest.raises(VmError, match=f"byte swap width {bits}"):
            Vm._swap(0x1122334455667788, bits, to_big)
        with pytest.raises(VhdlEmitError, match=f"bswap to {bits} bits"):
            _swap_expr("a", bits, to_big)
        insn = Instruction(
            isa.BPF_ALU | (isa.BPF_X if to_big else isa.BPF_K) | isa.BPF_END,
            dst=0, imm=bits)
        with pytest.raises(VerifierError, match=f"byte swap width {bits}"):
            verify(Program([isa.mov64_imm(0, 2), insn, isa.exit_()]))


class TestTypeTracking:
    def test_entry_types(self):
        result = verify_src("r0 = 2\nexit")
        state = result.state_before(0)
        assert state.reg(isa.R1).kind == RegKind.CTX
        assert state.reg(isa.R10).kind == RegKind.STACK
        assert state.reg(isa.R0).kind == RegKind.UNINIT

    def test_packet_pointer_from_ctx(self):
        result = verify_src(
            "r2 = *(u32 *)(r1 + 4)\nr3 = *(u32 *)(r1 + 0)\nr0 = 2\nexit"
        )
        state = result.state_before(2)
        assert state.reg(2).kind == RegKind.PACKET_END
        assert state.reg(3).kind == RegKind.PACKET

    def test_pointer_arithmetic_keeps_region(self):
        result = verify_src(
            "r3 = *(u32 *)(r1 + 0)\nr3 += 14\nr0 = 2\nexit"
        )
        assert result.state_before(2).reg(3).kind == RegKind.PACKET

    def test_pointer_minus_pointer_is_scalar(self):
        result = verify_src(
            """
            r2 = *(u32 *)(r1 + 4)
            r3 = *(u32 *)(r1 + 0)
            r2 -= r3
            r0 = 2
            exit
            """
        )
        assert result.state_before(3).reg(2).kind == RegKind.SCALAR

    def test_spilled_pointer_restored(self):
        source = """
            r3 = *(u32 *)(r1 + 0)
            *(u64 *)(r10 - 8) = r3
            r4 = *(u64 *)(r10 - 8)
            r0 = *(u8 *)(r4 + 0)
            r0 = 2
            exit
        """
        result = verify_src(source)
        assert result.state_before(3).reg(4).kind == RegKind.PACKET

    def test_map_value_type_carries_fd(self):
        source = """
            r2 = 0
            *(u32 *)(r10 - 4) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto out
            r3 = *(u64 *)(r0 + 0)
        out:
            r0 = 2
            exit
        """
        result = verify_src(source, maps=MAPS)
        # instruction 7 is the deref; before it r0 must be MAP_VALUE fd=1
        deref_state = result.state_before(7)
        assert deref_state.reg(0).kind == RegKind.MAP_VALUE
        assert deref_state.reg(0).map_fd == 1

    def test_call_makes_r1_to_r5_uninit(self):
        source = """
            r2 = 0
            *(u32 *)(r10 - 4) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            r0 = 2
            exit
        """
        result = verify_src(source, maps=MAPS)
        after_call = result.state_before(6)
        for reg in (1, 2, 3, 4, 5):
            assert after_call.reg(reg).kind == RegKind.UNINIT

    def test_adjust_head_invalidates_packet_pointers(self):
        source = """
            r9 = r1
            r6 = *(u32 *)(r1 + 0)
            r2 = -20
            call 44
            r0 = *(u8 *)(r6 + 0)
            exit
        """
        with pytest.raises(VerifierError, match="uninitialised"):
            verify_src(source)

    def test_unreachable_code_has_no_state(self):
        source = """
            r0 = 2
            goto out
            r0 = 1
        out:
            exit
        """
        result = verify_src(source)
        assert result.state_before(2) is None
        assert result.reachable(0) and not result.reachable(2)

    def test_join_of_same_map_values(self):
        source = """
            r2 = 0
            *(u32 *)(r10 - 4) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto out
            r3 = *(u64 *)(r0 + 0)
            *(u64 *)(r0 + 0) = r3
        out:
            r0 = 2
            exit
        """
        verify_src(source, maps=MAPS)

    def test_evaluation_apps_all_verify(self):
        from repro.apps import EVALUATION_APPS, leaky_bucket, toy_counter

        for mod in EVALUATION_APPS.values():
            verify(mod.build())
        verify(toy_counter.build())
        verify(leaky_bucket.build())


class TestMapKindRules:
    DELETE = """
        r2 = 0
        *(u32 *)(r10 - 4) = r2
        r1 = map[{name}]
        r2 = r10
        r2 += -4
        call 3
        r0 = 2
        exit
    """

    def test_delete_on_array_rejected(self):
        with pytest.raises(VerifierError, match="cannot be deleted"):
            verify_src(self.DELETE.format(name="m"), maps=MAPS)

    def test_delete_on_percpu_array_rejected(self):
        maps = {"p": MapSpec("p", "percpu_array", 4, 8, 4)}
        with pytest.raises(VerifierError, match="cannot be deleted"):
            verify_src(self.DELETE.format(name="p"), maps=maps)

    def test_delete_on_hash_kinds_allowed(self):
        for kind in ("hash", "lru_hash"):
            maps = {"h": MapSpec("h", kind, 4, 8, 4)}
            verify_src(self.DELETE.format(name="h"), maps=maps)


class TestMapChannelOperands:
    """A map-channel key (r2) or update value (r3) points to the stack or
    the packet. Both witnesses used to verify and then split the engines:
    the VM returned PASS, the pipeline engines dropped every packet and
    the RTL legs failed VHDL emission."""

    MAPS = {"m": MapSpec("m", "array", 4, 8, 4),
            "h": MapSpec("h", "hash", 4, 8, 4)}
    # r0 is a value of m; the update of h takes it as key or as value
    WITNESSES = {
        "key": ("""
            r2 = 0
            *(u32 *)(r10 - 4) = r2
            *(u64 *)(r10 - 16) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto out
            r2 = r0
            r1 = map[h]
            r3 = r10
            r3 += -16
            r4 = 0
            call 2
        out:
            r0 = 2
            exit
        """, "insn 13: bpf_map_update_elem key (r2) must point to the "
             "stack or packet, not map_value"),
        "value": ("""
            r2 = 0
            *(u32 *)(r10 - 4) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto out
            r3 = r0
            r1 = map[h]
            r2 = r10
            r2 += -4
            r4 = 0
            call 2
        out:
            r0 = 2
            exit
        """, "insn 12: bpf_map_update_elem value (r3) must point to the "
             "stack or packet, not map_value"),
    }

    @pytest.mark.parametrize("operand", sorted(WITNESSES))
    def test_a_map_value_operand_is_a_located_error(self, operand, tmp_path):
        source, message = self.WITNESSES[operand]
        program = assemble_program(source, maps=self.MAPS)
        for check in (verify, compile_program):
            with pytest.raises(VerifierError) as err:
                check(program)
            assert str(err.value) == message
        text = tmp_path / f"{operand}.ebpf"
        text.write_text(".map m array key=4 value=8 entries=4\n"
                        ".map h hash key=4 value=8 entries=4\n" + source)
        with pytest.raises(SystemExit) as err:
            main(["compile", str(text), "--no-cache"])
        assert str(err.value) == f"verifier: {message}"

    def test_lookup_and_delete_keys_too(self):
        for helper_id, name in ((1, "bpf_map_lookup_elem"),
                                (3, "bpf_map_delete_elem")):
            source = f"""
                r2 = 5
                r1 = map[h]
                call {helper_id}
                r0 = 2
                exit
            """
            with pytest.raises(VerifierError, match=(
                    f"insn 2: {name} key \\(r2\\) must point to the stack "
                    "or packet, not scalar")):
                verify_src(source, maps=self.MAPS)

    def test_a_packet_key_is_allowed(self):
        verify_src("""
            r2 = *(u32 *)(r1 + 0)
            r1 = map[h]
            call 1
            r0 = 2
            exit
        """, maps=self.MAPS)
