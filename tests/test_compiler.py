"""End-to-end compiler tests: pipeline structure, framing, pruning, hazards."""

import re
from pathlib import Path

import pytest

from repro import apps
from repro.apps import toy_counter
from repro.cli import load_program
from repro.core import (
    CompileOptions,
    StageKind,
    compile_program,
)
from repro.core.framing import DEFAULT_DYNAMIC_ACCESS_DEPTH, stage_packet_depth
from repro.core.labeling import Region
from repro.core.vhdl import VhdlEmitError, emit_vhdl
from repro.ebpf import isa
from repro.ebpf.asm import assemble_program
from repro.ebpf.isa import MapSpec

MAPS = {"m": MapSpec("m", "array", 4, 8, 4)}


class TestToyPipeline:
    """Structure of the Figure 8 pipeline."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        return compile_program(toy_counter.build())

    def test_stage_count_near_figure8(self, pipeline):
        # Figure 8 shows 20 stages; our fusion choices land nearby.
        assert 12 <= pipeline.n_stages <= 24

    def test_bounds_check_elided(self, pipeline):
        assert pipeline.elided_bounds_checks == 1

    def test_ctx_loads_become_entry_ops(self, pipeline):
        # the data pointer load is wired at entry; the data_end load became
        # dead after bounds-check elision and was removed entirely
        assert len(pipeline.entry_ops) == 1
        scheduled = [
            op.insn_index for s in pipeline.stages for op in s.ops
        ]
        for entry in pipeline.entry_ops:
            assert entry.insn_index not in scheduled

    def test_max_state_88_bytes(self, pipeline):
        # the paper: "the largest of the stages only requires 88B of memory"
        assert pipeline.max_state_bytes == 88

    def test_stack_pruned_to_key(self, pipeline):
        # stack carried anywhere is exactly the 4-byte lookup key
        widths = {sum(s for _, s in st.live_in_stack) for st in pipeline.stages}
        assert widths <= {0, 4}

    def test_register_histogram_small(self, pipeline):
        for stage in pipeline.stages:
            assert len(stage.live_in_regs) <= 3

    def test_atomic_block_planned(self, pipeline):
        plan = pipeline.map_hazards[1]
        assert plan.uses_atomic and not plan.needs_flush

    def test_exit_is_last_stage(self, pipeline):
        last_ops = pipeline.stages[-1].ops
        assert any(op.insn.is_exit for op in last_ops)

    def test_summary_renders(self, pipeline):
        text = pipeline.summary()
        assert "stage" in text and "call 1" in text


class TestCompileCost:
    @staticmethod
    def _verify_calls(monkeypatch, program):
        import sys

        from repro.ebpf import verifier

        original = verifier.verify
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].name)
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "verify", None) is original:
                monkeypatch.setattr(module, "verify", counting)
        compile_program(program)
        return len(calls)

    def test_each_program_is_verified_once(self, monkeypatch):
        from repro.apps import ct_firewall, firewall

        # the input, then the program the analyses read (elided and
        # dead-code eliminated). Elision's first round and its
        # packet-offset fixpoint reuse the input's result, and its second
        # round verifies only when the elided program's first branch may
        # be a bounds check: firewall's is not (five calls, then three,
        # before).
        assert self._verify_calls(monkeypatch, firewall.build()) == 2
        # speculation rewrites ct_firewall, which is verified once more
        assert self._verify_calls(monkeypatch, ct_firewall.build()) == 3


class TestOptions:
    def test_no_ilp_lengthens_pipeline(self):
        prog = toy_counter.build()
        wide = compile_program(prog)
        narrow = compile_program(
            prog, CompileOptions(enable_ilp=False, enable_fusion=False)
        )
        assert narrow.n_stages > wide.n_stages
        assert narrow.max_ilp == 1

    def test_no_pruning_carries_everything(self):
        prog = toy_counter.build()
        pruned = compile_program(prog)
        unpruned = compile_program(prog, CompileOptions(enable_pruning=False))
        assert unpruned.max_state_bytes > pruned.max_state_bytes
        assert unpruned.max_state_bytes >= 512 + 64  # stack + frame

    def test_keep_bounds_checks(self):
        prog = toy_counter.build()
        kept = compile_program(
            prog, CompileOptions(elide_bounds_checks=False)
        )
        assert kept.elided_bounds_checks == 0
        assert kept.n_instructions > compile_program(prog).n_instructions

    def test_row_width_cap(self):
        prog = toy_counter.build()
        capped = compile_program(prog, CompileOptions(max_row_width=2))
        assert capped.max_ilp <= 2

    def test_invalid_program_rejected(self):
        from repro.ebpf.verifier import VerifierError

        bad = assemble_program("r0 = r5\nexit")
        with pytest.raises(VerifierError):
            compile_program(bad)

    def test_every_option_is_one_the_compiler_reads(self):
        # every field perturbs cache_key; the simulator's clock lives on
        # SimOptions, and what the paper fixes is a module constant
        import dataclasses

        assert {f.name for f in dataclasses.fields(CompileOptions)} == {
            "frame_size", "enable_ilp", "enable_fusion", "enable_pruning",
            "elide_bounds_checks", "max_row_width", "path_parallel",
        }
        with pytest.raises(TypeError):
            CompileOptions(clock_mhz=250.0)
        with pytest.raises(TypeError):
            CompileOptions(flush_reload_overhead=4)
        with pytest.raises(TypeError):
            CompileOptions(dynamic_access_depth=128)


class TestFraming:
    def test_deep_access_inserts_nops(self):
        source = """
            r6 = *(u32 *)(r1 + 0)
            r7 = *(u32 *)(r1 + 4)
            r2 = r6
            r2 += 200
            if r2 > r7 goto out
            r3 = *(u8 *)(r6 + 190)
            *(u8 *)(r6 + 0) = r3
        out:
            r0 = 2
            exit
        """
        prog = assemble_program(source)
        pipe = compile_program(prog)
        nops = [s for s in pipe.stages if s.kind is StageKind.NOP_FRAMING]
        assert nops, "expected NOP stages to wait for frame 2"
        # the deep access must sit at a stage >= frame_index + 1 = 3
        deep_index = next(
            i for i, insn in enumerate(pipe.program.instructions)
            if insn.is_mem_load and insn.off == 190
        )
        assert pipe.stage_of_insn(deep_index) >= 3

    def test_shallow_accesses_insert_no_nops(self):
        pipe = compile_program(toy_counter.build())
        assert not any(s.kind is StageKind.NOP_FRAMING for s in pipe.stages)

    def test_smaller_frames_need_more_nops(self):
        source = """
            r6 = *(u32 *)(r1 + 0)
            r7 = *(u32 *)(r1 + 4)
            r2 = r6
            r2 += 130
            if r2 > r7 goto out
            r3 = *(u8 *)(r6 + 120)
        out:
            r0 = 2
            exit
        """
        prog = assemble_program(source)
        with32 = compile_program(prog, CompileOptions(frame_size=32))
        with64 = compile_program(prog, CompileOptions(frame_size=64))
        nops32 = sum(1 for s in with32.stages if s.kind is StageKind.NOP_FRAMING)
        nops64 = sum(1 for s in with64.stages if s.kind is StageKind.NOP_FRAMING)
        assert nops32 >= nops64

    def test_dynamic_access_assumes_worst_case(self):
        source = """
            r6 = *(u32 *)(r1 + 0)
            r7 = *(u32 *)(r1 + 4)
            r2 = *(u8 *)(r6 + 0)
            r6 += r2
            r3 = r6
            r3 += 2
            if r3 > r7 goto out
            r4 = *(u8 *)(r6 + 0)
            *(u8 *)(r6 + 1) = r4
        out:
            r0 = 2
            exit
        """
        # a dynamic packet offset may reach the fixed worst-case depth
        # (§4.2): its stage waits for every frame up to it
        pipeline = compile_program(assemble_program(source),
                                   CompileOptions(frame_size=32))
        dynamic = [stage for stage in pipeline.stages if any(
            op.label is not None and op.label.region is Region.PACKET
            and op.label.offset is None for op in stage.ops)]
        assert dynamic
        for stage in dynamic:
            assert stage_packet_depth(stage) == DEFAULT_DYNAMIC_ACCESS_DEPTH
            assert stage.number >= DEFAULT_DYNAMIC_ACCESS_DEPTH // 32


class TestHazardPlanning:
    def test_war_buffer_for_early_write(self):
        # store to the map value, then a second lookup later
        source = """
            r2 = 0
            *(u32 *)(r10 - 4) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto out
            r2 = 1
            *(u64 *)(r0 + 0) = r2
            r2 = 0
            *(u32 *)(r10 - 8) = r2
            r1 = map[m]
            r2 = r10
            r2 += -8
            call 1
            if r0 == 0 goto out
            r3 = *(u64 *)(r0 + 0)
        out:
            r0 = 2
            exit
        """
        pipe = compile_program(assemble_program(source, maps=MAPS))
        plan = pipe.map_hazards[1]
        assert plan.war_buffer_depth > 0
        assert plan.needs_flush  # the load after the store is a RAW window

    def test_flush_block_geometry(self):
        source = """
            r2 = 0
            *(u32 *)(r10 - 4) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto out
            r2 = *(u64 *)(r0 + 0)
            r2 += 1
            *(u64 *)(r0 + 0) = r2
        out:
            r0 = 2
            exit
        """
        pipe = compile_program(assemble_program(source, maps=MAPS))
        plan = pipe.map_hazards[1]
        assert plan.flush_blocks
        fb = plan.flush_blocks[0]
        assert fb.write_stage > fb.read_stage
        assert fb.L == fb.write_stage - fb.read_stage
        assert fb.K() == fb.write_stage - 2 + 4

    def test_emitted_ports_are_the_plans(self):
        # every map entity's header states the channels and the atomic
        # port its plan's ports call for, and the stages are wired to
        # those and no others: on every app in both layouts and every
        # corpus program that emits (counted_loop's loop refuses VHDL)
        programs = [getattr(apps, name).build() for name in sorted(
            apps.__all__) if name.islower()]
        programs += [load_program(str(path)) for path in sorted(
            (Path(__file__).parent / "corpus").glob("*.ebpf"))]
        for program in programs:
            for options in (CompileOptions(),
                            CompileOptions(path_parallel=False)):
                pipeline = compile_program(program, options)
                try:
                    text = emit_vhdl(pipeline)
                except VhdlEmitError:
                    assert program.name == "counted_loop"
                    continue
                header = {int(fd): (int(channels), atomic == "yes")
                          for fd, channels, atomic in re.findall(
                              r"-- eHDL map block for fd (\d+).*\n"
                              r"--   channels: (\d+) .* atomic port: "
                              r"(yes|no)", text)}
                plans = pipeline.map_hazards
                assert header == {fd: (plan.channels, plan.uses_atomic)
                                  for fd, plan in plans.items()}, \
                    program.name
                wired = {fd: {0} for fd in plans}
                for fd, channel in re.findall(
                        r"mp\d+_rdata => m(\d+)_ch(\d+)_rdata", text):
                    wired[int(fd)].add(int(channel))
                atomic = {int(fd) for fd in re.findall(
                    r"ap_old => m(\d+)_at_old", text)}
                assert header == {fd: (len(wired[fd]), fd in atomic)
                                  for fd in plans}, program.name
        toy = compile_program(toy_counter.build())
        assert [plan.channels for plan in toy.map_hazards.values()] == [1]
