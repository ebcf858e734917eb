"""Reference VM semantics: ALU, jumps, memory, atomics, helpers, faults."""

import pytest

from repro.apps import dnat, firewall, toy_counter
from repro.core import compile_program
from repro.ebpf import isa
from repro.ebpf.asm import assemble_program
from repro.ebpf.isa import MASK64, Instruction, MapSpec, Program
from repro.ebpf.maps import MapSet
from repro.ebpf.vm import Vm, VmError, run_program
from repro.ebpf.xdp import AddressSpace, XdpAction
from repro.hwsim import run_differential
from repro.net.packet import FiveTuple, ipv4, udp_packet

PKT = bytes(range(64))
F1 = FiveTuple(ipv4("10.0.0.1"), ipv4("192.168.0.1"), 17, 1000, 53)


def run_src(source: str, packet: bytes = PKT, maps=None, **kwargs):
    prog = assemble_program(source, maps=maps)
    return run_program(prog, packet, **kwargs)


def r0_of(source_body: str, packet: bytes = PKT, maps=None, **kwargs) -> int:
    """Run a snippet that leaves its result in r0."""
    res = run_src(source_body + "\nexit", packet, maps, **kwargs)
    # encode the full 64-bit r0 in the action? No: use a trick — store to
    # packet instead. Simpler: return the action value (r0 & 0xffffffff).
    return res


class TestAlu:
    def _eval(self, body: str) -> int:
        """Compute a 64-bit result and write it into the packet for readout."""
        source = f"""
            r6 = *(u32 *)(r1 + 0)
            {body}
            *(u64 *)(r6 + 0) = r0
            r0 = 2
            exit
        """
        res = run_src(source)
        return int.from_bytes(res.packet[:8], "little")

    def test_add_wraps_64(self):
        assert self._eval("r0 = -1\nr0 += 2") == 1

    def test_sub_negative(self):
        assert self._eval("r0 = 5\nr0 -= 9") == (-4) & MASK64

    def test_mul(self):
        assert self._eval("r0 = 7\nr0 *= 6") == 42

    def test_div_unsigned(self):
        assert self._eval("r0 = -4\nr2 = 2\nr0 /= r2") == ((-4) & MASK64) // 2

    def test_div_by_zero_yields_zero(self):
        assert self._eval("r0 = 7\nr2 = 0\nr0 /= r2") == 0

    def test_mod_by_zero_keeps_dst(self):
        assert self._eval("r0 = 7\nr2 = 0\nr0 %= r2") == 7

    def test_shift_masked_to_63(self):
        assert self._eval("r0 = 1\nr2 = 65\nr0 <<= r2") == 2

    def test_rsh_logical(self):
        assert self._eval("r0 = -1\nr0 >>= 63") == 1

    def test_arsh_arithmetic(self):
        assert self._eval("r0 = -8\nr0 s>>= 1") == (-4) & MASK64

    def test_alu32_truncates_and_zero_extends(self):
        assert self._eval("r0 = -1\nw0 += 1") == 0
        assert self._eval("w0 = -1") == 0xFFFFFFFF

    def test_neg(self):
        assert self._eval("r0 = 5\nr0 = -r0") == (-5) & MASK64

    def test_be16(self):
        assert self._eval("r0 = 0x1234\nr0 = be16 r0") == 0x3412

    def test_be32(self):
        assert self._eval("r0 = 0x12345678\nr0 = be32 r0") == 0x78563412

    def test_le_truncates(self):
        assert self._eval("r0 = 0x11223344556677 ll\nr0 = le16 r0") == 0x6677

    def test_xor_self_zeroes(self):
        assert self._eval("r0 = 77\nr0 ^= r0") == 0


class TestJumps:
    def _action(self, body: str) -> XdpAction:
        return run_src(body + "\nexit").action

    def test_unsigned_gt(self):
        # -1 as unsigned is huge
        assert self._action("r0 = 1\nr2 = -1\nif r2 > 5 goto +1\nr0 = 2") == XdpAction.DROP

    def test_signed_lt(self):
        assert self._action("r0 = 1\nr2 = -1\nif r2 s< 0 goto +1\nr0 = 2") == XdpAction.DROP

    def test_jset(self):
        assert self._action("r0 = 1\nr2 = 6\nif r2 & 2 goto +1\nr0 = 2") == XdpAction.DROP

    def test_jmp32_compares_low_word(self):
        body = "r0 = 1\nr2 = 0x100000001 ll\nif w2 == 1 goto +1\nr0 = 2"
        assert self._action(body) == XdpAction.DROP

    def test_fallthrough(self):
        assert self._action("r0 = 1\nif r0 == 9 goto +1\nr0 = 2") == XdpAction.PASS


class TestMemory:
    def test_packet_load_little_endian(self):
        source = """
            r6 = *(u32 *)(r1 + 0)
            r0 = *(u16 *)(r6 + 0)
            exit
        """
        res = run_src(source, packet=b"\x02\x00" + bytes(62))
        assert res.action == XdpAction.PASS  # 0x0002

    def test_packet_store_visible_in_result(self):
        source = """
            r6 = *(u32 *)(r1 + 0)
            *(u8 *)(r6 + 5) = 0xAB
            r0 = 2
            exit
        """
        assert run_src(source).packet[5] == 0xAB

    def test_stack_roundtrip(self):
        source = """
            r2 = 0x1122334455667788 ll
            *(u64 *)(r10 - 8) = r2
            r3 = *(u32 *)(r10 - 8)
            r0 = 2
            if r3 == 0x55667788 goto +1
            r0 = 1
            exit
        """
        assert run_src(source).action == XdpAction.PASS

    def test_packet_oob_read_faults(self):
        source = """
            r6 = *(u32 *)(r1 + 0)
            r0 = *(u8 *)(r6 + 1000)
            exit
        """
        with pytest.raises(VmError, match="out of bounds"):
            run_src(source)

    def test_stack_oob_faults(self):
        with pytest.raises(VmError):
            run_src("*(u64 *)(r10 + 0) = r1\nr0 = 2\nexit")

    def test_ctx_write_faults(self):
        with pytest.raises(VmError, match="read-only"):
            run_src("*(u32 *)(r1 + 0) = 5\nr0 = 2\nexit")

    def test_data_end_minus_data_is_length(self):
        source = """
            r2 = *(u32 *)(r1 + 4)
            r3 = *(u32 *)(r1 + 0)
            r2 -= r3
            r0 = 1
            if r2 != 64 goto +1
            r0 = 2
            exit
        """
        assert run_src(source, packet=bytes(64)).action == XdpAction.PASS


class TestAtomics:
    def _maps(self):
        return {"m": MapSpec("m", "array", 4, 8, 1)}

    def _run(self, body, maps=None):
        source = f"""
            r2 = 0
            *(u32 *)(r10 - 4) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto fail
            {body}
            r0 = 2
            exit
        fail:
            r0 = 0
            exit
        """
        prog = assemble_program(source, maps=self._maps())
        maps_rt = MapSet(prog.maps)
        res = run_program(prog, PKT, maps=maps_rt)
        value = maps_rt.by_name("m").lookup(bytes(4))
        return res, int.from_bytes(value, "little")

    def test_atomic_add(self):
        res, value = self._run("r2 = 5\nlock *(u64 *)(r0 + 0) += r2")
        assert res.action == XdpAction.PASS and value == 5

    def test_atomic_or_and_xor(self):
        _, v = self._run("r2 = 0x0f\nlock *(u64 *)(r0 + 0) |= r2")
        assert v == 0x0F
        _, v = self._run("r2 = 3\nlock *(u64 *)(r0 + 0) ^= r2")
        assert v == 3

    def test_atomic_fetch_add_returns_old(self):
        res, value = self._run(
            """
            r2 = 5
            lock fetch *(u64 *)(r0 + 0) += r2
            if r2 != 0 goto bad
            goto ok
        bad:
            r0 = 0
            exit
        ok:
            r3 = 0
            """
        )
        assert res.action == XdpAction.PASS and value == 5

    def test_atomic_xchg(self):
        res, value = self._run("r2 = 9\nlock *(u64 *)(r0 + 0) xchg r2")
        assert value == 9


class TestCallsAndLimits:
    def test_call_scrubs_r1_to_r5(self):
        source = """
            r2 = 0
            *(u32 *)(r10 - 4) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            r3 = 77
            call 1
            r0 = 2
            if r3 == 0 goto +1
            r0 = 1
            exit
        """
        prog = assemble_program(source, maps={"m": MapSpec("m", "array", 4, 8, 1)})
        assert run_program(prog, PKT).action == XdpAction.PASS

    def test_unknown_helper_faults(self):
        with pytest.raises(Exception):
            run_src("call 9999\nr0 = 2\nexit")

    def test_infinite_loop_hits_instruction_limit(self):
        source = """
        top:
            r0 = 0
            goto top
        """
        with pytest.raises(VmError, match="instruction limit"):
            run_src(source)

    def test_instruction_count_reported(self):
        res = run_src("r0 = 2\nexit")
        assert res.instructions_executed == 2

    def test_unknown_action_becomes_aborted(self):
        assert run_src("r0 = 77\nexit").action == XdpAction.ABORTED


class TestBoundedLoop:
    def test_counted_loop_executes(self):
        # sum 1..5 into r0 via a backward jump (legal in the VM; the
        # verifier is what rejects it before compilation)
        source = """
            r0 = 0
            r2 = 5
        loop:
            r0 += r2
            r2 -= 1
            if r2 != 0 goto loop
            r6 = *(u32 *)(r1 + 0)
            *(u64 *)(r6 + 0) = r0
            r0 = 2
            exit
        """
        res = run_src(source)
        assert int.from_bytes(res.packet[:8], "little") == 15


class TestMapsThroughVm:
    def test_lookup_miss_returns_null(self):
        source = """
            r2 = 1
            *(u32 *)(r10 - 4) = r2
            r1 = map[h]
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto miss
            r0 = 1
            exit
        miss:
            r0 = 2
            exit
        """
        prog = assemble_program(source, maps={"h": MapSpec("h", "hash", 4, 8, 4)})
        assert run_program(prog, PKT).action == XdpAction.PASS

    def test_update_then_host_visible(self):
        source = """
            r2 = 7
            *(u32 *)(r10 - 4) = r2
            r2 = 99
            *(u64 *)(r10 - 16) = r2
            r1 = map[h]
            r2 = r10
            r2 += -4
            r3 = r10
            r3 += -16
            r4 = 0
            call 2
            r0 = 2
            exit
        """
        prog = assemble_program(source, maps={"h": MapSpec("h", "hash", 4, 8, 4)})
        maps = MapSet(prog.maps)
        run_program(prog, PKT, maps=maps)
        assert maps.by_name("h").lookup((7).to_bytes(4, "little")) == (99).to_bytes(8, "little")

    def test_delete(self):
        source = """
            r2 = 7
            *(u32 *)(r10 - 4) = r2
            r1 = map[h]
            r2 = r10
            r2 += -4
            call 3
            r0 = r0
            r0 &= 1
            r0 += 1
            exit
        """
        prog = assemble_program(source, maps={"h": MapSpec("h", "hash", 4, 8, 4)})
        maps = MapSet(prog.maps)
        maps.by_name("h").update((7).to_bytes(4, "little"), bytes(8))
        res = run_program(prog, PKT, maps=maps)
        assert res.action == XdpAction.DROP  # r0 = 0 (success) -> &1 -> +1 = 1
        assert maps.by_name("h").lookup((7).to_bytes(4, "little")) is None


# -- one loop: the reference semantics and its canonical faults -----------------

class TestVmMatchesInterpreted:
    """``Vm.run`` against the ``interpreted`` pipeline engine: two
    engines over the reference tier, neither running ``opfns`` text."""

    @pytest.mark.parametrize("app, setup", [
        (toy_counter, None),
        (firewall, lambda m: firewall.allow_flow(m, F1)),
        (dnat, None),
    ], ids=["toy_counter", "firewall", "dnat"])
    def test_parity(self, app, setup):
        program = app.build()
        if app is toy_counter:
            frames = [toy_counter.packet_for_key(k % 4) for k in range(12)]
        else:
            frames = [udp_packet(src_ip=F1.src_ip, dst_ip=F1.dst_ip,
                                 sport=F1.sport, dport=F1.dport)] * 12
        pipeline = compile_program(program)
        result = run_differential(
            program, frames, pipeline=pipeline, setup=setup,
            gap=pipeline.n_stages, engines=("vm", "interpreted"))
        assert result.ok, [str(m) for m in result.mismatches[:5]]
        assert result.not_compared == {}

    def test_instructions_executed_by_hand(self):
        # 2 movs, 3 trips of 3, one ld_imm64 (one instruction, two
        # slots), exit
        source = """
            r0 = 0
            r2 = 3
        loop:
            r0 += r2
            r2 -= 1
            if r2 != 0 goto loop
            r3 = 0x1122334455667788 ll
            exit
        """
        res = run_src(source)
        assert res.instructions_executed == 2 + 3 * 3 + 1 + 1
        assert res.action == XdpAction.ABORTED  # r0 = 6


class _Classless(Instruction):
    """Every 3-bit class is named, so no opcode reaches the VM's
    unknown-class fault; a hand-built instruction can."""

    @property
    def opclass(self):
        return 0x08


class TestVmFaults:
    """Each canonical ``VmError`` of the run loop, raised when the slot
    executes (the VM runs unverified programs)."""

    def _raises(self, instructions, message, maps=None):
        vm = Vm(Program(instructions, maps=maps or {}))
        with pytest.raises(VmError, match=message):
            vm.run(PKT)

    def test_instruction_limit(self):
        self._raises([isa.mov64_imm(0, 0), isa.jump(-2)],
                     r"instruction limit exceeded \(unbounded loop\?\)")

    def test_pc_out_of_range(self):
        self._raises([isa.mov64_imm(0, 2)],
                     "program counter out of range: slot 1")
        self._raises([isa.jump(-3), isa.exit_()],
                     "program counter out of range: slot -2")

    def test_jump_into_ld_imm64(self):
        self._raises([isa.jump(1), isa.ld_imm64(0, 2), isa.exit_()],
                     "jump into the middle of ld_imm64 at slot 2")

    def test_unknown_map_fd(self):
        self._raises([isa.ld_map_fd(1, 7), isa.exit_()],
                     "unknown map fd 7")

    def test_unsupported_ldx_mode(self):
        bad = Instruction(isa.BPF_LDX | isa.BPF_ABS | isa.BPF_W, dst=0, src=1)
        self._raises([bad, isa.exit_()], "unsupported LDX mode 0x20")

    def test_unsupported_ld_mode(self):
        bad = Instruction(isa.BPF_LD | isa.BPF_ABS | isa.BPF_W)
        self._raises([bad, isa.exit_()], "unsupported LD mode 0x20")

    def test_unknown_class(self):
        self._raises([_Classless(0), isa.exit_()],
                     "unknown instruction class 0x8")

    def test_faults_only_when_executed(self):
        program = [isa.mov64_imm(0, 2), isa.exit_(),
                   Instruction(isa.BPF_LD | isa.BPF_ABS | isa.BPF_W),
                   _Classless(0)]
        assert Vm(Program(program)).run(PKT).action == XdpAction.PASS
