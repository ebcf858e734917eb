"""Conformance corpus: every tricky program verifies, compiles, and the
pipeline matches the VM over a battery of packets.

Each ``tests/corpus/*.ebpf`` file targets a distinct hard spot of the
compiler: 32-bit signed branches, byte-swap chains, deep control nesting,
mixed-width stack spills, multi-map interleavings, every atomic flavour,
packet resizing helpers, bounded loops, division edge cases.
"""

import pathlib

import pytest

from repro.cli import load_program
from repro.core import CompileOptions, compile_program
from repro.ebpf.verifier import verify
from repro.hwsim import SimOptions, run_differential
from tests.cases import LAYOUTS
from tests.test_matrix import ctx_stage_ops

CORPUS = sorted((pathlib.Path(__file__).parent / "corpus").glob("*.ebpf"))

# A packet battery that exercises byte values across the range, short
# frames (implicit drops), and enough length for the resize programs.
PACKETS = [
    bytes(range(64)),
    bytes(64),
    bytes([0xFF] * 64),
    bytes([3, 0] + [0x80] * 62),
    bytes([0, 7] + [(i % 56) + 200 for i in range(62)]),
    bytes(range(48)),  # short for some corpus members
    bytes(8),
    b"",
]


def differential(program, frames, compile_options=None, **kwargs):
    """The VM against a pipeline engine at line rate, held to the
    program's consistency relation — a relaxed program (atomic_variants'
    interleaving atomics, §4.1.2) differs at most in what its verdict
    exempts. Where it exempts anything, the run is repeated with packets
    a pipeline apart, where everything compares."""
    pipeline = compile_program(program, compile_options)
    result = run_differential(program, frames, pipeline=pipeline, **kwargs)
    result.raise_on_mismatch()
    if result.not_compared:
        run_differential(program, frames, pipeline=pipeline,
                         gap=pipeline.n_stages, **kwargs).raise_on_mismatch()
    return result


def corpus_ids(path):
    return path.stem


@pytest.mark.parametrize("path", CORPUS, ids=corpus_ids)
class TestCorpus:
    def test_verifies(self, path):
        program = load_program(str(path))
        if program.name == "counted_loop":
            pytest.skip("verified after unrolling")
        verify(program)

    def test_compiles(self, path):
        program = load_program(str(path))
        assert compile_program(program).n_stages > 0
        if path.stem == "head_tail_resize":  # re-reads ctx after a resize
            for options in LAYOUTS.values():
                assert ctx_stage_ops(compile_program(program, options)) == 2

    def test_pipeline_matches_vm(self, path):
        program = load_program(str(path))
        differential(program, PACKETS)

    def test_codegen_matches_vm(self, path):
        # the generated-source backend over the same battery: corpus
        # members hit the folding/elision paths app code doesn't (packet
        # resizing, atomics, division corners, deep nesting)
        program = load_program(str(path))
        differential(program, PACKETS, engine="codegen")

    def test_pipeline_matches_vm_line_rate_repeats(self, path):
        # back-to-back duplicates stress the hazard machinery
        program = load_program(str(path))
        frames = [PACKETS[0]] * 12 + [PACKETS[3]] * 12
        differential(program, frames)

    def test_codegen_matches_interpreted_at_line_rate(self, path):
        # the two pipeline engines are one cycle model: at gap 1, where
        # packets interleave, they agree on map state too — whichever
        # path the codegen engine takes (atomic_variants must not stream)
        program = load_program(str(path))
        frames = [PACKETS[0]] * 12 + [PACKETS[3]] * 12
        run_differential(program, frames, gap=1,
                         engines=("interpreted", "codegen")).raise_on_mismatch()

    def test_line_rate_actions_match_even_for_atomics(self, path):
        # where interleaved atomics relax map-state equality, the relation
        # says which maps; verdicts, bytes and every other map still match
        program = load_program(str(path))
        pipeline = compile_program(program)
        result = run_differential(program, [PACKETS[0]] * 10,
                                  pipeline=pipeline)
        result.raise_on_mismatch()
        exempt = pipeline.consistency.exempt
        assert result.not_compared == (
            {f"vm vs {SimOptions.engine}": exempt} if exempt else {})
        assert "action" not in exempt

    def test_unoptimised_build_matches_too(self, path):
        program = load_program(str(path))
        options = CompileOptions(
            enable_ilp=False, enable_fusion=False, enable_pruning=False,
        )
        differential(program, PACKETS[:5], compile_options=options)


def test_corpus_is_nontrivial():
    assert len(CORPUS) >= 10
