"""Tests of the compiled RTL schedule generator (:mod:`repro.rtl.codegen`).

Semantics (bit-identical agreement with the delta-cycle interpreter on
every app) are covered by ``tests/test_rtl.py``; this file pins the
machinery around the generated schedule source itself:

* golden snapshots of the emitted module text
  (``tests/corpus/rtl_codegen/``, regenerate with
  ``pytest --update-golden``) for one fusion-heavy app and one with
  read-modify-write map channels, so emitter changes show up as diffs;
* determinism: elaborating the same pipeline twice yields identical
  source (the persistent-cache contract — artifacts are keyed by
  netlist digest only);
* the edge rule, ordered or refused, with one witness each way: every
  emitted design compiles without fallback, and a register swap across
  two processes is refused;
* the version stamp and digest plumbing through ``core/cache.py``;
* the guard rule (which process reads wake their process only under a
  guard), on hand-written designs that hold a guard for several cycles
  while the net it guards moves.
"""

from pathlib import Path
from random import Random

import pytest

from repro import apps
from repro.cli import load_program
from repro.core.cache import CompileCache
from repro.core.compiler import compile_program
from repro.core.vhdl import VhdlEmitError, emit_vhdl
from repro.ebpf.maps import MapSet
from repro.rtl import (
    RTL_CODEGEN_VERSION,
    CompiledRtlSimulator,
    RtlCodegenError,
    RtlRunner,
    RtlSimulator,
    elaborate,
    generate_rtl_source,
)
from repro.rtl.codegen import (
    ARTIFACT_KIND,
    load_rtl_module,
    read_guards,
    schedule_digest,
    write_debug_source,
)
from repro.rtl.primitives import RtlContext
from repro.rtl.sim import elaborate_text
from tests.test_corpus import CORPUS, corpus_ids
from tests.test_property_maps import LAYOUTS
from tests.cases import CASES
from tests.test_rtl import SWAP_PROCESSES, _design


def _elaborated(app):
    build = CASES[app].build
    pipeline = compile_program(build())
    text = emit_vhdl(pipeline)
    model = elaborate_text(text, RtlContext(MapSet(pipeline.program.maps)))
    return pipeline, text, model


class TestGolden:
    """Full-text snapshots of the generated schedule modules.

    ``firewall`` exercises comb-node fusion and the generated
    whole-window ``_frame`` stepper; ``router_rmw`` has
    read-modify-write map channels, so its module carries busy-port
    traffic the firewall's channels mostly idle through. Regenerate
    intentionally with ``pytest --update-golden``.
    """

    APPS = ["firewall", "router_rmw"]

    @pytest.mark.parametrize("app", APPS)
    def test_snapshot(self, app, request):
        pipeline, _text, model = _elaborated(app)
        source = generate_rtl_source(model, pipeline.name)
        path = Path(__file__).parent / "corpus" / "rtl_codegen" / f"{app}.py"
        if request.config.getoption("--update-golden"):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
            pytest.skip(f"golden file {path.name} regenerated")
        assert path.exists(), (
            f"missing golden file {path}; run pytest --update-golden"
        )
        assert source == path.read_text(), (
            f"generated schedule for {app} diverged from {path.name}; if "
            "the change is intentional run pytest --update-golden"
        )

    def test_generation_is_deterministic(self):
        pipeline, _text, model_a = _elaborated("firewall")
        _pipeline, _text, model_b = _elaborated("firewall")
        assert generate_rtl_source(model_a, pipeline.name) \
            == generate_rtl_source(model_b, pipeline.name)

    def test_version_stamp_matches(self):
        pipeline, _text, model = _elaborated("firewall")
        source = generate_rtl_source(model, pipeline.name)
        assert f"_GEN_VERSION = {RTL_CODEGEN_VERSION}" in source

    @pytest.mark.parametrize(
        "app", sorted(name for name in apps.__all__ if name.islower()))
    def test_every_app_has_the_frame_stepper(self, app):
        # the accepting witness of "ordered or refused": every app's
        # commit order is acyclic in either layout, so RtlRunner steps
        # it through the generated _frame with no interpreter fallback
        for options in LAYOUTS:
            pipeline = compile_program(getattr(apps, app).build(), options)
            assert RtlRunner(pipeline).engine == "rtl"

    @pytest.mark.parametrize("path", CORPUS, ids=corpus_ids)
    def test_every_corpus_program_has_the_frame_stepper(self, path):
        for options in LAYOUTS:
            pipeline = compile_program(load_program(str(path)), options)
            try:
                text = emit_vhdl(pipeline)
            except VhdlEmitError:
                pytest.skip("outside the VHDL emitter's subset")
            assert RtlRunner(pipeline, text=text).engine == "rtl"

    def test_register_swap_across_processes_is_refused(self):
        # the rejecting witness: each process reads the register the
        # other writes, so no commit order exists. The interpreter runs
        # the swap (tests/test_rtl.py); the generator names both
        # processes and refuses
        model = elaborate(_design(SWAP_PROCESSES), "swap2")
        labels = [proc.label for proc in model.procs]
        assert len(labels) == 2
        with pytest.raises(RtlCodegenError, match="commit order") as exc:
            generate_rtl_source(model, "swap2")
        for label in labels:
            assert label in str(exc.value)


class TestCachePlumbing:
    def test_schedule_persisted_by_digest(self, tmp_path):
        from repro.rtl import codegen as rtl_codegen

        pipeline, text, model = _elaborated("toy_counter")
        cache = CompileCache(tmp_path)
        digest = schedule_digest(text)
        # drop the in-process memo so the artifact path actually runs
        rtl_codegen._MODULE_CACHE.pop(digest, None)
        assert cache.get_artifact(digest, ARTIFACT_KIND) is None
        load_rtl_module(model, text, pipeline.name, cache=cache)
        persisted = cache.get_artifact(digest, ARTIFACT_KIND)
        assert persisted is not None
        assert persisted == generate_rtl_source(model, pipeline.name)

    def test_digest_covers_generator_version(self):
        _pipeline, text, _model = _elaborated("toy_counter")
        # the digest string folds in RTL_CODEGEN_VERSION, so a version
        # bump orphans stale persisted artifacts instead of loading them
        assert schedule_digest(text) != schedule_digest(text + " ")

    def test_debug_source_dump(self, tmp_path):
        pipeline, _text, model = _elaborated("toy_counter")
        source = generate_rtl_source(model, pipeline.name)
        out = write_debug_source(source, tmp_path / "dbg", pipeline.name)
        assert out.read_text() == source


# Each process but the counter reads an internal net (``n``, ``m``) that
# moves every cycle; the stimulus holds g, c and a for runs of cycles.
GUARD_PROCESSES = """
entity guards is
  port (
    clk      : in  std_logic;
    g        : in  std_logic;
    c        : in  std_logic;
    a        : in  std_logic;
    d        : in  std_logic_vector(7 downto 0);
    q_if     : out std_logic_vector(7 downto 0);
    q_elsif  : out std_logic_vector(7 downto 0);
    q_or     : out std_logic_vector(7 downto 0);
    q_else   : out std_logic_vector(7 downto 0);
    q_and    : out std_logic_vector(7 downto 0);
    q_mixed  : out std_logic_vector(7 downto 0);
    q_beside : out std_logic_vector(7 downto 0);
    -- the stream ports every schedule's _run and _frame step
    s_axis_tvalid : in  std_logic;
    s_axis_tlast  : in  std_logic;
    s_axis_tdata  : in  std_logic_vector(7 downto 0);
    s_axis_tlen   : in  std_logic_vector(15 downto 0);
    m_axis_tvalid : out std_logic
  );
end entity guards;
architecture rtl of guards is
  signal cnt : std_logic_vector(7 downto 0);
  signal n   : std_logic_vector(7 downto 0);
  signal m   : std_logic_vector(7 downto 0);
begin
  n <= cnt xor d;
  m <= cnt and d;
  m_axis_tvalid <= '0';
  process(clk)
  begin
    if rising_edge(clk) then
      cnt <= std_logic_vector(unsigned(cnt) + 1);
    end if;
  end process;
  process(clk)
  begin
    if rising_edge(clk) then
      if g = '1' then
        q_if <= n;
      end if;
    end if;
  end process;
  process(clk)
  begin
    if rising_edge(clk) then
      if a = '1' then
        q_elsif <= d;
      elsif g = '1' then
        q_elsif <= n;
      end if;
    end if;
  end process;
  process(clk)
  begin
    if rising_edge(clk) then
      if g = '1' or c = '1' then
        q_or <= n;
      end if;
    end if;
  end process;
  process(clk)
  begin
    if rising_edge(clk) then
      if g = '1' then
        q_else <= d;
      else
        q_else <= n;
      end if;
    end if;
  end process;
  process(clk)
  begin
    if rising_edge(clk) then
      if g = '1' and n(0) = '1' then
        q_and <= d;
      end if;
    end if;
  end process;
  process(clk)
  begin
    if rising_edge(clk) then
      if g = '1' then
        q_mixed <= n xor m;
      end if;
      q_beside <= n;
    end if;
  end process;
end architecture rtl;
"""


class TestGuardRule:
    """A process read whose every occurrence sits under a positive guard
    ``g = '1'`` wakes its process only while ``g`` is high. App traces
    cannot tell a wrong guard from a right one (each stage-valid bit
    rises with each packet and wakes the stage anyway), so these
    designs hold the guards for runs of cycles while the guarded net
    moves."""

    def test_which_reads_are_guarded(self):
        model = elaborate(_design(GUARD_PROCESSES), "guards")
        assert read_guards(model) == {
            # if g = '1' then ... n
            (1, "guards.n"): "top.g",
            # if a = '1' then ... d elsif g = '1' then ... n: an elsif
            # arm has its own guard, not the if's
            (2, "top.d"): "top.a",
            (2, "guards.n"): "top.g",
            # process 3, under g = '1' or c = '1': nothing guarded
            # if g = '1' then ... d else ... n: the else arm is not
            (4, "top.d"): "top.g",
            # a later conjunct, and the arm, under the first
            (5, "top.d"): "top.g",
            (5, "guards.n"): "top.g",
            # n is also read unguarded beside the guarded read; m is not
            (6, "guards.m"): "top.g",
        }

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_net_agrees_under_random_stimulus(self, seed):
        interp = RtlSimulator(elaborate(_design(GUARD_PROCESSES), "guards"))
        model = elaborate(_design(GUARD_PROCESSES), "guards")
        compiled = CompiledRtlSimulator(model, load_rtl_module(model, None))
        rng = Random(seed)
        held = {}
        for cycle in range(600):
            # hold each input for 1-8 cycles: a drive wakes every reader
            # of the input, guarded or not, so only the counter may move
            # n and m in between
            for name, span in (("g", 2), ("c", 2), ("a", 2), ("d", 256)):
                if held.get(name, (0, 0))[1] <= cycle:
                    held[name] = (rng.randrange(span),
                                  cycle + rng.randint(1, 8))
            drives = {name: v for name, (v, _until) in held.items()}
            for sim in (interp, compiled):
                for name, value in drives.items():
                    sim.drive(name, value)
            for phase in ("settle", "edge"):
                interp_step, compiled_step = (getattr(interp, phase),
                                              getattr(compiled, phase))
                interp_step()
                compiled_step()
                assert compiled.values == interp.values, (
                    f"cycle {cycle} {phase}: "
                    + ", ".join(model.net_names[n]
                                for n, (x, y) in enumerate(
                                    zip(compiled.values, interp.values))
                                if x != y))
