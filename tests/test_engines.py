"""Tests of the execution-backend registry (:mod:`repro.hwsim.engines`).

The registry is the single enumeration point for every way the repo can
execute an XDP program. Two properties are load-bearing and pinned here:

* the two ``pipeline`` engines (interpreted, codegen) are different
  executions of the *same* cycle-level model and must be
  bit-identical — XDP actions, packet bytes, final map state AND
  per-packet inject/exit cycles — on every evaluation app;
* the ``vm`` and ``rtl`` engines share the end-to-end observables
  (actions, bytes, maps) with the pipeline engines but not the cycle
  structure, and :func:`compare_runs` must honour that distinction.

The module is also the repo's one differential oracle, so the
comparator itself has negative witnesses here: every observable it
claims to compare, perturbed on a real run, must be reported.

On a pipeline-pair mismatch the generated source is dumped to
``codegen-debug/`` so the CI workflow can upload it as an artifact.
"""

import copy
import functools

import pytest

from repro.core.compiler import compile_program
from repro.ebpf.xdp import XdpAction
from repro.hwsim import SimOptions
from repro.hwsim.codegen import write_debug_source
from repro.hwsim.engines import (
    ENGINES,
    FROZEN_CLOCK_MHZ,
    compare_runs,
    engine_names,
    get_engine,
    pipeline_engine_names,
    run_differential,
    run_engine,
)
from tests.test_rtl import APP_CASES

# Time-dependent programs — the leaky bucket policer — must read the
# same bpf_ktime_get_ns on the cycle-counting engines as on the VM.
_FROZEN = SimOptions(clock_mhz=FROZEN_CLOCK_MHZ)

# The pipeline pair additionally compares cycle structure.
PIPELINE_PAIRS = [
    ("interpreted", "codegen"),
]
REFERENCE_PAIRS = [
    ("vm", "codegen"),
]


class TestRegistry:
    def test_engine_names(self):
        assert engine_names() == [
            "vm", "interpreted", "codegen", "rtl", "rtl-interp"
        ]

    def test_pipeline_engine_names(self):
        assert pipeline_engine_names() == ["interpreted", "codegen"]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            get_engine("verilog")

    def test_retired_fast_engine_rejected(self):
        from repro.apps import toy_counter
        from repro.hwsim import PipelineSimulator, SimError

        with pytest.raises(ValueError, match="unknown engine 'fast'"):
            get_engine("fast")
        pipeline = compile_program(toy_counter.build())
        with pytest.raises(SimError, match="interpreted or codegen"):
            PipelineSimulator(pipeline, options=SimOptions(engine="fast"))

    def test_retired_replica_engine_surface_stays_gone(self):
        import dataclasses

        import repro.hwsim
        from repro.cli import main

        assert {f.name for f in dataclasses.fields(SimOptions)} == {
            "clock_mhz", "input_queue_capacity", "reload_overhead",
            "max_cycles", "keep_records", "engine",
        }
        with pytest.raises(TypeError):
            SimOptions(workers=2)
        with pytest.raises(SystemExit) as exc:
            main(["run", "app:firewall", "--workers", "2"])
        assert exc.value.code == 2
        # the export list is maintained by hand
        for name in repro.hwsim.__all__:
            assert hasattr(repro.hwsim, name), name

    def test_cycle_exactness_split(self):
        # only the pipeline engines promise identical cycle structure
        for name, spec in ENGINES.items():
            assert spec.cycle_exact == (spec.kind == "pipeline"), name

    def test_simulator_rejects_non_pipeline_engine(self):
        from repro.apps import toy_counter
        from repro.hwsim import PipelineSimulator, SimError

        pipeline = compile_program(toy_counter.build())
        with pytest.raises(SimError):
            PipelineSimulator(pipeline, options=SimOptions(engine="rtl"))


@functools.lru_cache(maxsize=None)
def _compiled(app):
    build, _setup, _frames = APP_CASES[app]
    program = build()
    return program, compile_program(program)


def _run_pair(app, a, b, gap=1):
    _build, setup, frames = APP_CASES[app]
    program, pipeline = _compiled(app)
    runs = {
        name: run_engine(
            name, program, frames,
            pipeline=pipeline, sim_options=_FROZEN, setup=setup, gap=gap,
        )
        for name in (a, b)
    }
    mismatches = compare_runs(runs[a], runs[b])
    if mismatches:
        # postmortem material for the CI artifact upload
        path = write_debug_source(pipeline, "codegen-debug")
        mismatches.append(f"generated source dumped to {path}")
    assert not mismatches, "\n".join(map(str, mismatches))
    return runs


class TestEngineMatrix:
    """Cross-engine differential on every evaluation app."""

    @pytest.mark.parametrize("a,b", PIPELINE_PAIRS)
    @pytest.mark.parametrize("app", sorted(APP_CASES))
    def test_pipeline_pair_bit_identical(self, app, a, b):
        runs = _run_pair(app, a, b)
        # cycle_exact pairs must actually have compared cycle structure
        assert runs[a].total_cycles is not None
        assert runs[a].total_cycles == runs[b].total_cycles

    @pytest.mark.parametrize("a,b", REFERENCE_PAIRS)
    @pytest.mark.parametrize("app", sorted(APP_CASES))
    def test_vm_agrees_on_observables(self, app, a, b):
        # One packet in flight: the regime in which the pipeline is
        # sequentially consistent with the VM. At tighter spacings hazard
        # replays may legitimately re-draw bpf_get_prandom_u32 (dnat's
        # port allocator), which the replay-free VM never does.
        _program, pipeline = _compiled(app)
        runs = _run_pair(app, a, b, gap=pipeline.n_stages + 2)
        # the reference leg carries no cycle structure
        assert runs["vm"].total_cycles is None
        assert runs["vm"].packet_cycles == []

    def test_rtl_engine_through_registry(self):
        # One cheap smoke through the rtl entry: full app coverage of the
        # RTL leg lives in test_rtl's three-way differential.
        app = "toy_counter"
        _build, setup, frames = APP_CASES[app]
        program, pipeline = _compiled(app)
        vm = run_engine("vm", program, frames, pipeline=pipeline,
                        setup=setup)
        rtl = run_engine("rtl", program, frames, pipeline=pipeline,
                         setup=setup)
        assert not compare_runs(vm, rtl)

    def test_wide_gap_matches_back_to_back(self):
        # injection spacing must not change verdicts, bytes, or map state
        app = "firewall"
        _build, setup, frames = APP_CASES[app]
        program, pipeline = _compiled(app)
        tight = run_engine("codegen", program, frames, pipeline=pipeline,
                           sim_options=_FROZEN, setup=setup, gap=1)
        wide = run_engine("codegen", program, frames, pipeline=pipeline,
                          sim_options=_FROZEN, setup=setup,
                          gap=pipeline.n_stages + 2)
        assert tight.actions == wide.actions
        assert tight.frames == wide.frames
        assert tight.map_items == wide.map_items
        assert tight.total_cycles < wide.total_cycles


def _flip_action(leg):
    leg.actions[1] = next(a for a in XdpAction if a != leg.actions[1])


def _flip_byte(leg):
    frame = leg.frames[2]
    leg.frames[2] = bytes([frame[0] ^ 1]) + frame[1:]


def _change_map_value(leg):
    (items,) = leg.map_items.values()  # toy_counter has one map, "stats"
    key = min(items)
    items[key] = bytes(b ^ 0xFF for b in items[key])


def _shift_cycles(leg):
    inject, leave = leg.packet_cycles[0]
    leg.packet_cycles[0] = (inject + 1, leave + 1)


def _drop_last_packet(leg):
    for per_packet in (leg.actions, leg.frames, leg.packet_cycles):
        del per_packet[-1]


def _lose_verdict(leg):
    leg.actions[3] = leg.frames[3] = leg.packet_cycles[3] = None


# name -> (engine the perturbed leg claims to be, perturbation,
#          ignore_maps, the (index, what) pairs compare_runs must report)
WITNESSES = {
    "action flipped": ("interpreted", _flip_action, (), [(1, "action")]),
    "byte flipped": ("interpreted", _flip_byte, (), [(2, "packet bytes")]),
    "map value changed":
        ("interpreted", _change_map_value, (), [(-1, "map stats")]),
    "ignored map changed":
        ("interpreted", _change_map_value, ("stats",), []),
    "cycles shifted, cycle_exact pair":
        ("interpreted", _shift_cycles, (), [(0, "inject/exit cycles")]),
    "cycles shifted, non-exact pair": ("rtl", _shift_cycles, (), []),
    "leg one packet short":
        ("interpreted", _drop_last_packet, (), [(-1, "packet count")]),
    # said once: the missing bytes are not a second mismatch (the
    # non-exact pair keeps the missing cycles out of it)
    "verdict missing": ("rtl", _lose_verdict, (), [(3, "action")]),
}


class TestOracleDetects:
    """Nothing else checks that the comparator detects anything."""

    @pytest.fixture(scope="class")
    def run(self):
        _build, setup, frames = APP_CASES["toy_counter"]
        program, pipeline = _compiled("toy_counter")
        return run_engine("codegen", program, frames, pipeline=pipeline,
                          setup=setup)

    def test_a_run_agrees_with_its_copy(self, run):
        assert compare_runs(run, copy.deepcopy(run)) == []

    @pytest.mark.parametrize("name", sorted(WITNESSES))
    def test_witness(self, run, name):
        engine, perturb, ignore_maps, expected = WITNESSES[name]
        leg = copy.deepcopy(run)
        leg.engine = engine
        perturb(leg)
        found = compare_runs(run, leg, ignore_maps)
        assert [(m.index, m.what) for m in found] == expected
        for mismatch in found:
            assert mismatch.ref_value != mismatch.leg_value
            assert str(mismatch).startswith(f"codegen vs {engine}: ")

    def test_time_reading_program_needs_the_frozen_clock(self):
        # Why FROZEN_CLOCK_MHZ exists. leaky_bucket reads
        # bpf_ktime_get_ns: the VM's clock stands still, a pipeline
        # engine's advances with the cycle count, so at a real clock the
        # token buckets refill and verdicts legitimately differ from the
        # VM's — while the two pipeline engines, one model, still agree.
        from repro.apps import leaky_bucket
        from repro.workloads import make_workload, parse_workload_spec

        frames = make_workload(parse_workload_spec(
            "udp-zipf:packets=3000,flows=50")).materialize()

        def differential(clock_mhz):
            return run_differential(
                leaky_bucket.build(), frames, gap=1,
                sim_options=SimOptions(clock_mhz=clock_mhz),
                engines=("vm", "interpreted", "codegen"))

        differential(FROZEN_CLOCK_MHZ).raise_on_mismatch()
        thawed = differential(250.0)
        assert {m.what for m in thawed.mismatches if m.index >= 0} == {
            "interpreted action", "codegen action"}
        assert not compare_runs(thawed.runs["interpreted"],
                                thawed.runs["codegen"])


class TestThreeWayEngineSelection:
    def test_three_way_hw_leg_on_codegen(self):
        from repro.rtl import run_three_way

        build, setup, frames = APP_CASES["firewall"]
        result = run_three_way(build(), frames, setup=setup,
                               engine="codegen")
        result.raise_on_mismatch()
        assert result.ok


class TestCliEngineFlag:
    PROG = """
.map counters array key=4 value=8 entries=1

    r0 = 2
    exit
"""

    @pytest.fixture()
    def prog_file(self, tmp_path):
        path = tmp_path / "simple.ebpf"
        path.write_text(self.PROG)
        return str(path)

    def test_run_engine_codegen(self, capsys, prog_file):
        from repro.cli import main

        assert main(["run", prog_file, "--packets", "40",
                     "--engine", "codegen"]) == 0
        out = capsys.readouterr().out
        assert "engine: codegen" in out
        assert "engine path: stream" in out

    def test_run_and_stats_say_which_path_and_why_not(self, capsys):
        from repro.cli import main

        assert main(["run", "app:ct_firewall", "--workload", "auto",
                     "--packets", "60", "--engine", "codegen"]) == 0
        # ... and what the generated stream body is specialised to
        assert ("engine path: stream (2 of 2 lookups folded, 3 spill "
                "sites)\n") in capsys.readouterr().out
        assert main(["stats", "app:maglev"]) == 0
        assert ("engine path: stream (2 of 2 lookups folded, 1 spill "
                "site)\n") in capsys.readouterr().out
        assert main(["run", "app:ct_firewall", "--workload", "auto",
                     "--packets", "60", "--engine", "interpreted"]) == 0
        assert ("engine path: cycle-loop (engine 'interpreted' has no "
                "stream path)") in capsys.readouterr().out
        assert main(["stats", "app:leaky_bucket"]) == 0
        out = capsys.readouterr().out
        assert ("engine path: cycle-loop (flush plan on map 1 "
                "(stages 8-25) not covered by a window") in out
        # ... and what the generated cycle loop is specialised to
        assert ("not covered by a window; advance visits 7 of 29 stages, "
                "snapshots elided)\n") in out

    def test_run_engine_fast_rejected_by_argparse(self, capsys, prog_file):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["run", prog_file, "--packets", "10", "--engine", "fast"])
        assert exc.value.code == 2
        assert "invalid choice: 'fast'" in capsys.readouterr().err

    def test_run_engine_vm_reference(self, capsys, prog_file):
        from repro.cli import main

        assert main(["run", prog_file, "--packets", "10",
                     "--engine", "vm"]) == 0
        out = capsys.readouterr().out
        assert "engine: vm" in out and "10/10 packets" in out

    def test_bench_enumerates_pipeline_engines(self, capsys, prog_file):
        from repro.cli import main

        assert main(["bench", prog_file, "--packets", "60",
                     "--flows", "4"]) == 0
        out = capsys.readouterr().out
        for engine in pipeline_engine_names():
            assert engine in out
        assert "parity OK" in out and "2 engines" in out

    def test_verify_engine_codegen(self, capsys, prog_file):
        from repro.cli import main

        assert main(["verify", prog_file, "--packets", "6",
                     "--engine", "codegen"]) == 0
        assert "OK" in capsys.readouterr().out
