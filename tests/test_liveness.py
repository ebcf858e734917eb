"""CFG-level liveness analysis tests (the substrate of pruning and DCE)."""

import pytest

from repro.core.labeling import label_program
from repro.core.liveness import (
    reg_liveness,
    regs_read,
    stack_liveness,
    successors,
)
from repro.ebpf import isa
from repro.ebpf.asm import assemble_program
from repro.ebpf.isa import MapSpec

MAPS = {"m": MapSpec("m", "array", 4, 8, 4)}


class TestSuccessors:
    def test_straight_line(self):
        prog = assemble_program("r0 = 1\nr0 += 1\nexit")
        succs = successors(prog)
        assert succs[0] == [1] and succs[1] == [2] and succs[2] == []

    def test_branch_has_two(self):
        prog = assemble_program("r0 = 1\nif r0 == 1 goto +1\nexit\nexit")
        assert sorted(successors(prog)[1]) == [2, 3]

    def test_goto_has_one(self):
        prog = assemble_program("r0 = 1\ngoto +1\nexit\nexit")
        assert successors(prog)[1] == [3]


class TestRegLiveness:
    def test_def_use_chain(self):
        prog = assemble_program("r2 = 1\nr0 = r2\nexit")
        live_in, live_out = reg_liveness(prog)
        assert isa.R2 in live_out[0]
        assert isa.R2 in live_in[1]
        assert isa.R2 not in live_out[1]

    def test_kill_ends_range(self):
        prog = assemble_program("r2 = 1\nr2 = 5\nr0 = r2\nexit")
        live_in, _ = reg_liveness(prog)
        assert isa.R2 not in live_in[1]  # first def is dead

    def test_branch_keeps_value_alive_on_one_path(self):
        prog = assemble_program(
            """
            r2 = 7
            if r1 == 0 goto use
            r0 = 2
            exit
        use:
            r0 = r2
            exit
            """
        )
        live_in, _ = reg_liveness(prog)
        assert isa.R2 in live_in[1]  # live across the branch

    def test_back_edge_carries_value_around_the_loop(self):
        # reverse index order alone misses r2, read at the loop head
        prog = assemble_program(
            "r2 = 7\nloop:\nr0 = r2\nif r1 == 0 goto loop\nexit")
        live_in, live_out = reg_liveness(prog)
        assert isa.R2 in live_in[2] and isa.R2 in live_out[2]

    def test_exit_needs_r0(self):
        prog = assemble_program("r0 = 2\nexit")
        live_in, _ = reg_liveness(prog)
        assert isa.R0 in live_in[1]

    def test_call_arity_refinement(self):
        # bpf_ktime_get_ns takes no args: r1-r5 are NOT read
        assert regs_read(isa.call(5)) == ()
        # bpf_map_lookup_elem reads r1, r2
        assert regs_read(isa.call(1)) == (isa.R1, isa.R2)


class TestStackLiveness:
    def test_store_then_load(self):
        prog = assemble_program(
            "r2 = 1\n*(u32 *)(r10 - 4) = r2\nr0 = *(u32 *)(r10 - 4)\nexit"
        )
        labels = label_program(prog)
        live = stack_liveness(prog, labels)
        # between store and load, bytes -4..-1 are live
        assert set(range(-4, 0)) <= live[2]
        assert not live[0] & set(range(-4, 0))

    def test_overwrite_kills(self):
        prog = assemble_program(
            """
            r2 = 1
            *(u32 *)(r10 - 4) = r2
            *(u32 *)(r10 - 4) = r2
            r0 = *(u32 *)(r10 - 4)
            exit
            """
        )
        labels = label_program(prog)
        live = stack_liveness(prog, labels)
        assert not live[1] & set(range(-4, 0))  # first store's bytes dead

    def test_key_read_by_helper(self):
        source = """
            r2 = 0
            *(u32 *)(r10 - 8) = r2
            r1 = map[m]
            r2 = r10
            r2 += -8
            call 1
            r0 = 2
            exit
        """
        prog = assemble_program(source, maps=MAPS)
        labels = label_program(prog)
        live = stack_liveness(prog, labels)
        call_index = next(
            i for i, insn in enumerate(prog.instructions) if insn.is_call
        )
        assert set(range(-8, -4)) <= live[call_index]

    def test_partial_overlap_stays_live(self):
        prog = assemble_program(
            """
            r2 = 1
            *(u64 *)(r10 - 8) = r2
            *(u32 *)(r10 - 8) = r2
            r0 = *(u64 *)(r10 - 8)
            exit
            """
        )
        labels = label_program(prog)
        live = stack_liveness(prog, labels)
        # the high half (-4..-1) written at insn 1 is still live at insn 2
        assert set(range(-4, 0)) <= live[2]
