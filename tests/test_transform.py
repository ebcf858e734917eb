"""Bytecode transforms: rewriting, bounds-check elision, DCE,
speculation above branches."""

import pathlib

import pytest
from hypothesis import HealthCheck, given, settings

from repro import apps
from repro.cli import load_program
from repro.core.cfg import build_cfg
from repro.core.compiler import CompileOptions, compile_program
from repro.core.labeling import label_program
from repro.core.liveness import reg_liveness
from repro.core.loops import unroll_loops
from repro.core.transform import (
    TransformError,
    dead_code_elimination,
    delete_instructions,
    elide_bounds_checks,
    find_bounds_checks,
    rewrite_program,
    speculate,
)
from repro.ebpf import isa
from repro.ebpf.asm import assemble_program
from repro.ebpf.disasm import disassemble
from repro.ebpf.isa import MapSpec
from repro.ebpf.maps import MapSet
from repro.ebpf.vm import run_program
from repro.ebpf.xdp import XdpAction
from repro.hwsim.engines import run_differential
from tests.test_property import random_programs

PKT = bytes(range(64))
APP_NAMES = sorted(name for name in apps.__all__ if name.islower())
CORPUS = sorted((pathlib.Path(__file__).parent / "corpus").glob("*.ebpf"))


class TestRewrite:
    def test_delete_retargets_forward_jump(self):
        prog = assemble_program(
            """
            r0 = 2
            if r0 == 9 goto out
            r3 = 7
            r4 = 8
        out:
            exit
            """
        )
        new = delete_instructions(prog, [2])  # delete r3 = 7
        # jump must still reach exit
        assert new.jump_target_index(1) == len(new.instructions) - 1
        assert run_program(new, PKT).action == XdpAction.PASS

    def test_delete_jump_target_moves_to_next(self):
        prog = assemble_program(
            """
            r0 = 1
            goto tgt
        tgt:
            r0 = 2
            exit
            """
        )
        new = delete_instructions(prog, [2])  # delete the r0 = 2 at target
        assert new.jump_target_index(1) == 2  # retargeted to exit
        assert run_program(new, PKT).action == XdpAction.DROP  # r0 stays 1

    def test_delete_across_wide_instruction(self):
        prog = assemble_program(
            """
            r0 = 2
            goto out
            r3 = 5 ll
        out:
            exit
            """
        )
        new = delete_instructions(prog, [2])
        assert run_program(new, PKT).action == XdpAction.PASS

    def test_delete_everything_rejected(self):
        prog = assemble_program("r0 = 1\nexit")
        with pytest.raises(TransformError):
            delete_instructions(prog, [0, 1])

    def test_behaviour_preserved_under_random_nop_deletion(self):
        # deleting dead mov leaves behaviour identical
        prog = assemble_program(
            """
            r5 = 123
            r0 = 2
            if r0 != 2 goto bad
            exit
        bad:
            r0 = 0
            exit
            """
        )
        new = delete_instructions(prog, [0])
        assert run_program(new, PKT).action == run_program(prog, PKT).action


class TestBoundsElision:
    SOURCE = """
        r2 = *(u32 *)(r1 + 4)
        r6 = *(u32 *)(r1 + 0)
        r3 = r6
        r3 += 14
        if r3 > r2 goto drop
        r0 = *(u8 *)(r6 + 12)
        r0 = 2
        exit
    drop:
        r0 = 1
        exit
    """

    def test_detection(self):
        prog = assemble_program(self.SOURCE)
        checks = find_bounds_checks(prog)
        assert len(checks) == 1
        index, taken_is_oob = checks[0]
        assert index == 4 and taken_is_oob

    def test_elision_removes_branch(self):
        prog = assemble_program(self.SOURCE)
        new, report = elide_bounds_checks(prog)
        assert len(report.elided_branches) == 1
        assert not find_bounds_checks(new)
        assert len(new.instructions) == len(prog.instructions) - 1

    def test_behaviour_for_valid_packets_unchanged(self):
        prog = assemble_program(self.SOURCE)
        new, _ = elide_bounds_checks(prog)
        assert run_program(new, PKT).action == run_program(prog, PKT).action

    def test_reversed_operands_detected(self):
        source = """
            r2 = *(u32 *)(r1 + 4)
            r6 = *(u32 *)(r1 + 0)
            r3 = r6
            r3 += 14
            if r2 < r3 goto drop
            r0 = 2
            exit
        drop:
            r0 = 1
            exit
        """
        prog = assemble_program(source)
        checks = find_bounds_checks(prog)
        assert checks and checks[0][1]  # taken edge is OOB

    def test_inbounds_taken_becomes_goto(self):
        source = """
            r2 = *(u32 *)(r1 + 4)
            r6 = *(u32 *)(r1 + 0)
            r3 = r6
            r3 += 14
            if r3 <= r2 goto ok
            r0 = 1
            exit
        ok:
            r0 = 2
            exit
        """
        prog = assemble_program(source)
        new, report = elide_bounds_checks(prog)
        assert len(report.elided_branches) == 1
        assert run_program(new, PKT).action == XdpAction.PASS

    def test_non_bounds_branches_untouched(self):
        source = "r0 = 2\nif r0 == 1 goto +1\nexit\nexit"
        prog = assemble_program(source)
        new, report = elide_bounds_checks(prog)
        assert report.elided_branches == []
        assert new.instructions == prog.instructions


class TestDce:
    def test_removes_dead_alu(self):
        prog = assemble_program("r5 = 99\nr0 = 2\nexit")
        new, removed = dead_code_elimination(prog)
        assert removed == 1
        assert len(new.instructions) == 2

    def test_keeps_live_values(self):
        prog = assemble_program("r0 = 2\nexit")
        new, removed = dead_code_elimination(prog)
        assert removed == 0

    def test_cascading_deadness(self):
        prog = assemble_program("r5 = 1\nr4 = r5\nr3 = r4\nr0 = 2\nexit")
        new, removed = dead_code_elimination(prog)
        assert removed == 3

    def test_keeps_stores_and_calls(self):
        source = """
            r2 = 0
            *(u32 *)(r10 - 4) = r2
            r0 = 2
            exit
        """
        prog = assemble_program(source)
        new, removed = dead_code_elimination(prog)
        assert removed == 0

    def test_liveness_across_branches(self):
        source = """
            r5 = 7
            if r1 == 0 goto use
            r0 = 2
            exit
        use:
            r0 = r5
            r0 = 2
            exit
        """
        prog = assemble_program(source)
        new, removed = dead_code_elimination(prog)
        # r0 = r5 is dead (overwritten before exit); once it is gone, the
        # r5 = 7 definition cascades to dead too.
        assert removed == 2
        texts = disassemble(new.instructions, numbered=False).splitlines()
        assert "r5 = 7" not in texts

    def test_dead_load_removed(self):
        source = """
            r6 = *(u32 *)(r1 + 0)
            r5 = *(u8 *)(r6 + 3)
            r0 = 2
            exit
        """
        prog = assemble_program(source)
        new, removed = dead_code_elimination(prog)
        assert removed == 2  # the load, then the now-dead pointer load

    def test_chain_past_ten_rounds(self):
        # twelve definitions, each read only by the next, the last one
        # dead: the old round-by-round loop stopped after ten rounds
        chain = "\n".join(["r5 = 1"] + [f"r{4 + i % 2} = r{5 - i % 2}"
                                         for i in range(11)])
        prog = assemble_program(chain + "\nr0 = 2\nexit")
        new, removed = dead_code_elimination(prog)
        assert removed == 12
        assert disassemble(new.instructions, numbered=False).splitlines() \
            == ["r0 = 2", "exit"]

    def test_loops_are_refused(self):
        prog = assemble_program("r0 = 0\nloop:\nr0 += 1\n"
                                "if r0 < 4 goto loop\nexit")
        with pytest.raises(TransformError):
            dead_code_elimination(prog)


def _iterated_dce(program):
    """The reference DCE: remove every pure instruction whose written
    registers are not live-out (:func:`reg_liveness`, where a dead
    definition still reads its operands), then recompute, until nothing
    more is dead."""
    removed = 0
    while True:
        live_out = reg_liveness(program)[1]
        dead = [i for i, insn in enumerate(program.instructions)
                if (insn.is_alu or insn.is_ld_imm64 or insn.is_mem_load)
                and not set(insn.regs_written()) & live_out[i]]
        if not dead:
            return program, removed
        program = delete_instructions(program, dead)
        removed += len(dead)


def _assert_dce_matches_reference(program):
    assert dead_code_elimination(program) == _iterated_dce(program)


class TestDceMatchesIteratedLiveness:
    """One backward pass of strong liveness reaches the fixpoint that
    round-by-round removal does, on every loop-free program."""

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_apps(self, app):
        program = getattr(apps, app).build()
        _assert_dce_matches_reference(program)
        _assert_dce_matches_reference(elide_bounds_checks(program)[0])

    @pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
    def test_corpus(self, path):
        program, _report = unroll_loops(load_program(str(path)))
        _assert_dce_matches_reference(program)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=random_programs())
    def test_random_programs(self, program):
        _assert_dce_matches_reference(program)


LRU = {"m": MapSpec("m", "lru_hash", key_size=4, value_size=8,
                    max_entries=16)}
LOOKUP = """
    r2 = 0
    *(u32 *)(r10 - 4) = r2
    r1 = map[m]
    r2 = r10
    r2 += -4
    call 1
"""
# A hit refreshes the entry's counter; a miss installs one. Both arms'
# setup reads nothing the lookup decides.
HIT_OR_INSERT = LOOKUP + """
    if r0 == 0 goto miss
    r1 = 1
    lock *(u64 *)(r0 + 0) += r1
    r0 = 2
    exit
miss:
    r3 = 1
    *(u64 *)(r10 - 16) = r3
    r1 = map[m]
    r2 = r10
    r2 += -4
    r3 = r10
    r3 += -16
    r4 = 0
    call 2
    r0 = 3
    exit
"""


def _speculate(source, maps=LRU):
    program = assemble_program(source, maps=maps)
    new, moved, renamed = speculate(program, label_program(program),
                                    CompileOptions())
    return program, new, moved, renamed


def _blocks_of(program, text):
    """Block id of each instruction that disassembles to ``text``."""
    lines = disassemble(program.instructions, numbered=False).splitlines()
    block_of = build_cfg(program).block_of_insn
    return [block_of[i] for i, line in enumerate(lines) if line == text]


def _block_of(program, text):
    (block,) = _blocks_of(program, text)
    return block


def _branch(program):
    """The first block that branches on a lookup's result."""
    return next(b.block_id for b in build_cfg(program).blocks
                if program.instructions[b.terminator_index].is_cond_jump
                and program.instructions[b.terminator_index].dst == isa.R0)


def _runs(program, packets=3, hit=False):
    """Verdicts and final map contents of ``packets`` runs on one map
    set; ``hit`` preloads key 0."""
    maps = MapSet(program.maps)
    if hit:
        maps.by_name("m").update(bytes(4), bytes(8))
    verdicts = [run_program(program, PKT, maps=maps).action
                for _ in range(packets)]
    return verdicts, {fd: list(m.items()) for fd, m in maps.maps.items()}


class TestSpeculation:
    """``speculate``: an arm's pure setup moves into its branch block,
    one witness program per rule, each refusal beside the program that
    differs only in what the rule looks at."""

    def test_arm_setup_moves_above_the_branch(self):
        program, new, moved, renamed = _speculate(HIT_OR_INSERT)
        branch = _branch(new)
        # the insert's initial value is renamed off the call's clobbers
        # so it can sit above the lookup; the argument setup follows it
        for text in ("r6 = 1", "*(u64 *)(r10 - 16) = r6", "r1 = 1",
                     "r3 = r10", "r3 += -16", "r4 = 0"):
            assert _block_of(new, text) == branch, text
        assert (moved, renamed) == (8, 1)
        assert _runs(new) == _runs(program)

    def test_a_register_live_into_the_other_arm_stays(self):
        source = LOOKUP + """
            r7 = 5
            if r0 == 0 goto miss
            r0 = r7
            exit
        miss:
            r7 = 1
            r0 = r7
            exit
        """
        program, new, _m, _r = _speculate(source)
        assert _block_of(new, "r7 = 1") != _block_of(new, "r7 = 5")
        assert _runs(new, hit=True) == _runs(program, hit=True)
        # the hit arm that does not read r7 lets it move
        _p, new, _m, _r = _speculate(source.replace("r0 = r7\n", "r0 = 2\n",
                                                    1))
        assert _block_of(new, "r7 = 1") == _block_of(new, "r7 = 5")

    def test_a_register_the_branch_reads_stays(self):
        source = LOOKUP + """
            if r0 == 0 goto miss
            r0 = 2
            exit
        miss:
            r0 = 1
            exit
        """
        program, new, moved, _r = _speculate(source)
        assert moved == 0 and new is program

    def test_a_copy_of_the_checked_lookup_result_stays(self):
        # the verifier narrows only the register the null check compares:
        # a copy of r0 taken above the branch would stay map_value_or_null
        source = HIT_OR_INSERT.replace(
            "    r1 = 1\n    lock *(u64 *)(r0 + 0) += r1\n    r0 = 2\n",
            "    r6 = r0\n    r1 = 1\n    lock *(u64 *)(r6 + 0) += r1\n"
            "    r2 = *(u64 *)(r6 + 0)\n    r2 &= 1\n    r0 = r2\n"
            "    r0 += 1\n")
        program, new, moved, _r = _speculate(source)
        branch = _branch(new)
        assert _block_of(new, "r6 = r0") != branch
        assert _block_of(new, "r1 = 1") == branch and moved > 1
        pipeline = compile_program(program)
        assert pipeline.speculated == (moved, _r)
        # the counter's parity picks the verdict: PASS, DROP, PASS, ...
        result = run_differential(program, [PKT] * 5, pipeline=pipeline,
                                  gap=pipeline.n_stages)
        result.raise_on_mismatch()
        assert result.runs["vm"].actions == [
            XdpAction.TX, XdpAction.DROP, XdpAction.PASS,
            XdpAction.DROP, XdpAction.PASS]

    def test_a_rewrite_the_verifier_rejects_is_dropped(self, monkeypatch):
        from repro.core import compiler

        program = assemble_program(HIT_OR_INSERT, maps=LRU)
        unspeculated = assemble_program(HIT_OR_INSERT.replace(
            "    if r0 == 0 goto miss\n    r1 = 1\n",
            "    r6 = r0\n    if r0 == 0 goto miss\n    r1 = 1\n").replace(
            "lock *(u64 *)(r0 + 0)", "lock *(u64 *)(r6 + 0)"), maps=LRU)
        monkeypatch.setattr(compiler, "speculate",
                            lambda program, labels, options: (program, 0, 0))
        expected = compile_program(program).summary()
        monkeypatch.setattr(compiler, "speculate",
                            lambda program, labels, options:
                            (unspeculated, 1, 0))
        pipeline = compile_program(program)
        assert pipeline.speculated == (0, 0)
        assert pipeline.summary() == expected

    def test_a_slot_the_other_arms_helper_reads_stays(self):
        source = """
            r2 = 0
            *(u32 *)(r10 - 8) = r2
        """ + LOOKUP + """
            if r0 == 0 goto miss
            r1 = map[m]
            r2 = r10
            r2 += -8
            call 1
            if r0 == 0 goto gone
            r0 = 2
            exit
        gone:
            r0 = 3
            exit
        miss:
            r3 = 7
            *(u32 *)(r10 - 8) = r3
            r0 = 1
            exit
        """
        program, new, _m, _r = _speculate(source)
        branch = _branch(new)
        # the hit arm's lookup reads its key through r2: slot -8 is live
        assert _block_of(new, "*(u32 *)(r10 - 8) = r6") != branch
        assert _runs(new, hit=True) == _runs(program, hit=True)
        _p, new, _m, _r = _speculate(source.replace("r2 += -8", "r2 += -4"))
        assert _block_of(new, "*(u32 *)(r10 - 8) = r6") == branch

    def test_a_store_below_a_stayer_that_reads_its_slot_stays(self):
        # the miss arm's stack load never moves; the store after it
        # overwrites the slot the load reads, so hoisting the store would
        # hand the load 2 where the program reads 1
        source = "    *(u64 *)(r10 - 16) = 1\n" + LOOKUP + """
            if r0 != 0 goto hit
            r3 = *(u64 *)(r10 - 16)
            *(u64 *)(r10 - 16) = 2
            r0 = r3
            exit
        hit:
            r0 = 2
            exit
        """
        program, new, _m, _r = _speculate(source)
        assert _block_of(new, "*(u64 *)(r10 - 16) = 2") \
            == _block_of(new, "r3 = *(u64 *)(r10 - 16)") != _branch(new)
        result = run_differential(program, [PKT] * 3, gap=1,
                                  engines=("vm", "codegen", "interpreted"))
        result.raise_on_mismatch()
        assert result.runs["vm"].actions == [XdpAction.DROP] * 3

    def test_loads_atomics_and_packet_stores_never_move(self):
        source = """
            r6 = *(u32 *)(r1 + 0)
            r7 = *(u32 *)(r1 + 4)
            r2 = r6
            r2 += 8
            if r2 > r7 goto out
        """ + LOOKUP + """
            if r0 == 0 goto out
            r5 = *(u32 *)(r10 - 4)
            *(u8 *)(r6 + 0) = r5
            r1 = 1
            lock *(u64 *)(r0 + 0) += r1
            r8 = 3
            r0 = r8
            exit
        out:
            r0 = 2
            exit
        """
        program, new, moved, _r = _speculate(source)
        branch = _branch(new)
        for text in ("r5 = *(u32 *)(r10 - 4)", "*(u8 *)(r6 + 0) = r5",
                     "lock *(u64 *)(r0 + 0) += r1"):
            assert _block_of(new, text) != branch, text
        # the pure ops beside them do move
        assert _block_of(new, "r1 = 1") == branch
        assert _block_of(new, "r8 = 3") == branch
        assert moved == 2

    def test_arms_never_clobber_each_others_registers(self):
        # below the lookup, D reads the entry and branches on it; both
        # arms set r3 for their own lock. With no call in D the hit
        # arm's r3 moves as it is, so the other arm's must be renamed
        source = LOOKUP + """
            if r0 == 0 goto out
            r7 = *(u64 *)(r0 + 0)
            r7 &= 1
            if r7 == 0 goto even
            r3 = 1
            lock *(u64 *)(r0 + 0) += r3
            r0 = 2
            exit
        even:
            r3 = 3
            lock *(u64 *)(r0 + 0) += r3
            r0 = 2
            exit
        out:
            r0 = 1
            exit
        """
        program, new, moved, renamed = _speculate(source)
        branch = _block_of(new, "r7 &= 1")
        assert _block_of(new, "r3 = 1") == branch
        assert _block_of(new, "r6 = 3") == branch
        assert (moved, renamed) == (2, 1)
        # the entry's counter steps 0, 3, 4, 7: each packet runs its own
        # arm's increment
        assert _runs(new, packets=4, hit=True) \
            == _runs(program, packets=4, hit=True)

    def test_a_block_with_two_predecessors_stays(self):
        source = LOOKUP + """
            if r0 != 0 goto join
            r7 = 1
        join:
            r8 = 7
            r0 = r8
            exit
        """
        _p, new, _m, _r = _speculate(source)
        branch = _branch(new)
        assert _block_of(new, "r8 = 7") != branch
        # when the other arm exits instead of falling into it, the join
        # is an arm of its own, and the same op moves
        _p, new, _m, _r = _speculate(source.replace("r7 = 1", "exit"))
        assert _block_of(new, "r8 = 7") == _branch(new)

    def test_a_forced_rename_without_a_free_register_stays(self):
        source = """
            r6 = 1
            r7 = 2
            r8 = 3
            r9 = 4
        """ + LOOKUP + """
            if r0 == 0 goto miss
            r1 = 5
            *(u64 *)(r10 - 16) = r1
            r0 = r6
            r0 += r7
            exit
        miss:
            r1 = 6
            *(u64 *)(r10 - 24) = r1
            r0 = r8
            r0 += r9
            exit
        """
        program, new, moved, renamed = _speculate(source)
        branch = _branch(new)
        # r6-r9 are all taken below the branch: the hit arm's r1 moves as
        # it is, so the miss arm's write to r1 would clobber it
        assert _block_of(new, "r1 = 5") == branch
        assert _block_of(new, "r1 = 6") != branch
        assert renamed == 0
        assert _runs(new) == _runs(program)
        # with r9 free, the hit arm's value lives there, and the miss
        # arm's r1 moves too
        freed = source.replace("r9 = 4\n", "").replace("r0 += r9", "r0 += 4")
        program, new, moved, renamed = _speculate(freed)
        branch = _branch(new)
        assert _block_of(new, "r9 = 5") == branch
        assert _block_of(new, "r1 = 6") == branch
        assert renamed == 1
        assert _runs(new) == _runs(program)

    def test_a_call_argument_is_never_renamed(self):
        program, new, _m, _r = _speculate(HIT_OR_INSERT)
        branch = _branch(new)
        # the hit arm's r1 = 1 moves first; the insert's map argument,
        # which call 2 reads from r1, cannot go elsewhere, so it stays
        assert _block_of(new, "r1 = 1") == branch
        lines = disassemble(new.instructions, numbered=False).splitlines()
        assert lines[-4:] == ["r1 = map[1]", "call 2", "r0 = 3", "exit"]
        assert _blocks_of(new, "r1 = map[1]")[-1] != branch

    def test_programs_without_a_serialised_map_are_untouched(self,
                                                             monkeypatch):
        from repro import apps
        from repro.core import compiler

        def digests():
            return {
                name: compile_program(getattr(apps, name).build()).summary()
                for name in sorted(n for n in apps.__all__ if n.islower())
                if not any(spec.serialised for spec in
                           getattr(apps, name).build().maps.values())}

        program = assemble_program(HIT_OR_INSERT, maps={
            "m": MapSpec("m", "hash", key_size=4, value_size=8,
                         max_entries=16)})
        new, moved, renamed = speculate(
            program, label_program(program), CompileOptions())
        assert new is program and (moved, renamed) == (0, 0)
        with_pass = digests()
        monkeypatch.setattr(compiler, "speculate",
                            lambda program, labels, options: (program, 0, 0))
        assert digests() == with_pass
        assert len(with_pass) == 11

    def test_ct_firewall_window_shrinks_with_the_pass(self, monkeypatch):
        from repro.apps import ct_firewall
        from repro.core import compiler

        pipeline = compile_program(ct_firewall.build())
        assert pipeline.serial_windows == [(12, 15)]
        assert pipeline.n_stages == 18
        assert pipeline.speculated == (10, 2)
        monkeypatch.setattr(compiler, "speculate",
                            lambda program, labels, options: (program, 0, 0))
        without = compile_program(ct_firewall.build())
        assert without.serial_windows == [(12, 17)]
        assert without.n_stages == 20
        assert without.speculated == (0, 0)
