"""Property-based differential testing of random MAP-USING programs.

The flagship equivalence property of ``test_property.py`` covers
registers/stack/packet; this module adds randomly generated programs that
exercise the hazard machinery: array-map lookups with null checks,
atomic counters, and non-atomic read-modify-write sequences — run
back-to-back so WAR buffers and Flush Evaluation Blocks are active.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CompileOptions, compile_program
from repro.ebpf.builder import ProgramBuilder
from repro.ebpf.verifier import verify
from repro.hwsim import run_differential

PACKET_DEPTH = 32

# Both schedule layouts, each through the reference and both pipeline
# engines: exclusive blocks sharing stages (the default) and §3.3's one
# block per stage.
LAYOUTS = (CompileOptions(), CompileOptions(path_parallel=False))
ENGINES = ("vm", "interpreted", "codegen")


def differential_both_layouts(program, frames, **kwargs):
    """One ``run_differential`` per layout over ``ENGINES``."""
    return [run_differential(program, frames, compile_options=options,
                             engines=ENGINES, **kwargs)
            for options in LAYOUTS]


@st.composite
def map_programs(draw):
    """A program with 1-2 array maps, doing per-packet:

    * a key derived from a packet byte (bounded to the map size),
    * a lookup + null check,
    * then either an atomic add, a plain RMW (load, ALU, store), or a
      second lookup of a different key — in random order across maps.
    """
    b = ProgramBuilder("randmap")
    n_maps = draw(st.integers(min_value=1, max_value=2))
    entries = draw(st.sampled_from([1, 2, 4]))
    map_names = []
    for m in range(n_maps):
        name = f"m{m}"
        b.add_map(name, "array", key_size=4, value_size=8, max_entries=entries)
        map_names.append(name)

    # prologue
    b.load("u32", 7, 1, 4)
    b.load("u32", 6, 1, 0)
    b.mov(2, 6)
    b.alu_imm("+", 2, PACKET_DEPTH)
    b.jmp_reg(">", 2, 7, "drop")

    n_ops = draw(st.integers(min_value=1, max_value=3))
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(map_names),
            st.sampled_from(["atomic", "rmw", "lookup_only"]),
            st.integers(min_value=0, max_value=PACKET_DEPTH - 1),  # key byte
            st.integers(min_value=1, max_value=9),  # delta
        ),
        min_size=n_ops, max_size=n_ops,
    ))

    for i, (map_name, kind, key_off, delta) in enumerate(ops):
        # key = packet[key_off] % entries, built on the stack
        b.load("u8", 2, 6, key_off)
        b.alu_imm("&", 2, entries - 1)
        b.store("u32", 10, 2, -4)
        b.ld_map(1, map_name)
        b.mov(2, 10)
        b.alu_imm("+", 2, -4)
        b.call(1)
        b.jmp_imm("==", 0, 0, f"skip_{i}")
        if kind == "atomic":
            b.mov_imm(2, delta)
            b.atomic_add("u64", 0, 2, 0)
        elif kind == "rmw":
            b.load("u64", 3, 0, 0)
            b.alu_imm("+", 3, delta)
            b.store("u64", 0, 3, 0)
        else:
            b.load("u64", 8, 0, 0)  # value read feeding nothing further
        b.label(f"skip_{i}")

    b.mov_imm(0, 3)
    b.exit()
    b.label("drop")
    b.mov_imm(0, 1)
    b.exit()
    return b.build(), ops


@st.composite
def packet_batches(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    frames = []
    for _ in range(n):
        # small byte alphabet so packets frequently share map keys
        body = draw(st.lists(st.integers(min_value=0, max_value=3),
                             min_size=PACKET_DEPTH, max_size=PACKET_DEPTH))
        frames.append(bytes(body) + bytes(64 - PACKET_DEPTH))
    return frames


class TestRandomMapPrograms:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog_ops=map_programs(), frames=packet_batches())
    def test_line_rate_equivalence(self, prog_ops, frames):
        # Atomics mixed with flushable accesses relax sequential equality
        # under pipelining, exactly as the paper's hardware does (§4.1.2,
        # Appendix A.2): the compiled pipeline's consistency verdict says
        # where, and run_differential holds every leg to it.
        program, ops = prog_ops
        verify(program)
        for result in differential_both_layouts(program, frames):
            assert result.ok, (ops, result.mismatches[:3])

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog_ops=map_programs(), frames=packet_batches())
    def test_spaced_out_always_identical(self, prog_ops, frames):
        # with no pipeline overlap even mixed atomic patterns match exactly
        program, _ops = prog_ops
        for result in differential_both_layouts(program, frames, gap=80):
            result.raise_on_mismatch()

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog_ops=map_programs())
    def test_hazard_plans_are_consistent(self, prog_ops):
        program, _ops = prog_ops
        for options in LAYOUTS:
            pipeline = compile_program(program, options)
            for plan in pipeline.map_hazards.values():
                for fb in plan.flush_blocks:
                    assert fb.write_stage > fb.read_stage
                if plan.war_buffer_depth:
                    assert plan.read_stages and plan.write_stages
                    assert min(plan.write_stages) < max(plan.read_stages)
