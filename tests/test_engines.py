"""Tests of the execution-backend registry (:mod:`repro.hwsim.engines`).

The registry is the single enumeration point for every way the repo can
execute an XDP program. Two properties are load-bearing and pinned here:

* two engines of one kind simulate one model — the ``pipeline`` pair
  (interpreted, codegen) one cycle-level model, the ``rtl`` pair (rtl,
  rtl-interp) one elaborated netlist — and must be bit-identical: XDP
  actions, packet bytes, egress ports, final map state down to its raw
  storage AND every packet's cycles and restarts;
* engines of different kinds share the end-to-end observables (actions,
  bytes, egress ports, maps) but not the cycle structure, and
  :func:`compare_runs` must honour that distinction.

The module is also the repo's one differential oracle, so the
comparator itself has negative witnesses here: every observable it
claims to compare, perturbed on a real run, must be reported. The
app × engine sweep itself is ``tests/test_matrix.py``.
"""

import copy
import functools
import itertools
from pathlib import Path

import pytest

from repro.cli import load_program
from repro.core.compiler import compile_program
from repro.ebpf.maps import MapSet
from repro.ebpf.xdp import XdpAction
from repro.hwsim import PipelineSimulator, SimOptions
from repro.rtl import RtlRunner
from repro.hwsim.engines import (
    ENGINES,
    FROZEN_CLOCK_MHZ,
    compare_runs,
    engine_names,
    engine_run,
    exempt_observables,
    get_engine,
    pipeline_engine_names,
    run_differential,
    run_engine,
)
from tests.cases import CASES, SHORT
from tests.test_matrix import check_cell

CORPUS = Path(__file__).parent / "corpus"
# Time-dependent programs — the leaky bucket policer — must read the
# same bpf_ktime_get_ns on the cycle-counting engines as on the VM.
_FROZEN = SimOptions(clock_mhz=FROZEN_CLOCK_MHZ)


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
            "clock_mhz", "input_queue_capacity", "max_cycles",
            "keep_records", "engine",
        }
        with pytest.raises(TypeError):
            SimOptions(workers=2)
        with pytest.raises(TypeError):
            SimOptions(reload_overhead=4)
        with pytest.raises(SystemExit) as exc:
            main(["run", "app:firewall", "--workers", "2"])
        assert exc.value.code == 2
        # the export list is maintained by hand
        for name in repro.hwsim.__all__:
            assert hasattr(repro.hwsim, name), name

    def test_cycle_exactness_split(self):
        # two engines of one kind simulate one model: exactly such a
        # pair compares cycles (interpreted/codegen, rtl/rtl-interp)
        run = _witness_run("toy_counter")
        for ref_engine, leg_engine in itertools.product(ENGINES, repeat=2):
            ref, leg = copy.deepcopy(run), copy.deepcopy(run)
            ref.engine, leg.engine = ref_engine, leg_engine
            _shift_cycles(leg)
            one_model = ENGINES[ref_engine].kind == ENGINES[leg_engine].kind
            found = [(m.index, m.what) for m in compare_runs(ref, leg)]
            assert found == ([(0, "packet cycles")] if one_model else []), \
                (ref_engine, leg_engine)

    def test_simulator_rejects_non_pipeline_engine(self):
        from repro.apps import toy_counter
        from repro.hwsim import PipelineSimulator, SimError

        pipeline = compile_program(toy_counter.build())
        with pytest.raises(SimError):
            PipelineSimulator(pipeline, options=SimOptions(engine="rtl"))


@functools.lru_cache(maxsize=None)
def _witness_run(case):
    """A codegen run of one case: the witnesses perturb copies of it."""
    build, setup, frames, _flushes = CASES[case]
    return run_engine("codegen", build(), frames, setup=setup,
                      sim_options=_FROZEN)


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
    leg.packet_cycles[0] = tuple(c + 1 for c in leg.packet_cycles[0])


def _restart(leg):
    leg.restarts[0] += 1


def _count_a_flush(leg):
    leg.counters["flush events"] += 1


def _drop_last_packet(leg):
    for per_packet in (leg.actions, leg.frames, leg.egress,
                       leg.packet_cycles, leg.restarts):
        del per_packet[-1]


def _lose_verdict(leg):
    leg.actions[3] = leg.frames[3] = leg.packet_cycles[3] = None


def _other_port(leg):
    leg.egress[0] += 1  # redirect_map's first packet leaves by port 11


def _pass_instead(leg):
    leg.actions[0], leg.egress[0] = XdpAction.PASS, None


def _reorder(leg):
    # reverse every map's entry order; contents stay
    for fd, items in leg.map_items.items():
        leg.map_items[fd] = dict(reversed(items.items()))


def _flip_storage(leg):
    (fd, raw), = leg.storage.items()
    leg.storage[fd] = bytes([raw[0] ^ 1]) + raw[1:]


# name -> (case run, engine the perturbed leg claims to be, perturbation,
#          the (index, what) pairs compare_runs must report)
WITNESSES = {
    "action flipped":
        ("toy_counter", "interpreted", _flip_action, [(1, "action")]),
    "byte flipped":
        ("toy_counter", "interpreted", _flip_byte, [(2, "packet bytes")]),
    "map value changed":
        ("toy_counter", "interpreted", _change_map_value,
         [(-1, "map stats")]),
    "cycles shifted, cycle_exact pair":
        ("toy_counter", "interpreted", _shift_cycles,
         [(0, "packet cycles")]),
    "cycles shifted, non-exact pair":
        ("toy_counter", "rtl", _shift_cycles, []),
    "restart added, cycle_exact pair":
        ("toy_counter", "interpreted", _restart, [(0, "restarts")]),
    "flush counted, cycle_exact pair":
        ("toy_counter", "interpreted", _count_a_flush,
         [(-1, "flush events")]),
    "flush counted, non-exact pair":
        ("toy_counter", "rtl", _count_a_flush, []),
    "leg one packet short":
        ("toy_counter", "interpreted", _drop_last_packet,
         [(-1, "packet count")]),
    # said once: the missing bytes are not a second mismatch (the
    # non-exact pair keeps the missing cycles out of it)
    "verdict missing": ("toy_counter", "rtl", _lose_verdict, [(3, "action")]),
    "egress port changed":
        ("redirect_map", "rtl", _other_port, [(0, "egress port")]),
    # said once: a PASS has no port to compare
    "redirect turned pass":
        ("redirect_map", "rtl", _pass_instead, [(0, "action")]),
    # an LRU map's recency is an observable on every pair ...
    "lru order reversed":
        ("ct_firewall", "rtl", _reorder, [(-1, "map conntrack")]),
    # ... a hash map's slot order only between two runs of one cycle model
    "hash order reversed, non-exact pair":
        ("redirect_map", "rtl", _reorder, []),
    "hash order reversed, cycle_exact pair":
        ("redirect_map", "interpreted", _reorder, [(-1, "map ports")]),
    "storage byte flipped, cycle_exact pair":
        ("redirect_map", "interpreted", _flip_storage,
         [(-1, "map ports storage")]),
    "storage byte flipped, non-exact pair":
        ("redirect_map", "rtl", _flip_storage, []),
}


class TestOracleDetects:
    """Nothing else checks that the comparator detects anything."""

    def test_a_run_agrees_with_its_copy(self):
        for case in ("toy_counter", "redirect_map", "ct_firewall"):
            run = _witness_run(case)
            assert compare_runs(run, copy.deepcopy(run)) == [], case

    def test_rtl_pair_compares_cycles(self):
        # the two RTL engines simulate one netlist: the compiled engine
        # leaving one packet a cycle late is a mismatch at that packet
        case = CASES["toy_counter"]  # no host setup
        pipeline = compile_program(case.build())
        runs = {}
        for engine in ("rtl-interp", "rtl"):
            maps = MapSet(pipeline.program.maps)
            runner = RtlRunner(pipeline, maps=maps, engine=engine)
            assert runner.engine == engine
            runs[engine] = (runner.run_packets(case.frames[:SHORT]), maps)
        want = engine_run("rtl-interp", *runs["rtl-interp"], SHORT)
        got = engine_run("rtl", *runs["rtl"], SHORT)
        assert compare_runs(want, got) == []
        runs["rtl"][0].records[2].exit_cycle += 1
        got = engine_run("rtl", *runs["rtl"], SHORT)
        found = compare_runs(want, got)
        assert [(m.index, m.what) for m in found] == [(2, "packet cycles")]
        assert str(found[0]).startswith("rtl-interp vs rtl: packet 2: ")

    @pytest.mark.parametrize("name", sorted(WITNESSES))
    def test_witness(self, name):
        case, engine, perturb, expected = WITNESSES[name]
        run = _witness_run(case)
        leg = copy.deepcopy(run)
        leg.engine = engine
        perturb(leg)
        found = compare_runs(run, leg)
        assert [(m.index, m.what) for m in found] == expected
        for mismatch in found:
            assert mismatch.ref_value != mismatch.leg_value
            assert str(mismatch).startswith(f"codegen vs {engine}: ")

    def test_relaxed_map_changed_is_reported_when_spaced(self):
        # atomic_variants' atomics interleave across packets (§4.1.2): the
        # consistency relation exempts its map m against the VM, but only
        # with packets in flight together. Spaced, a changed m is
        # reported; at line rate it is not compared, and the run says so.
        program = load_program(str(CORPUS / "atomic_variants.ebpf"))
        pipeline = compile_program(program)
        frames = [bytes(range(64))] * 4
        vm = run_engine("vm", program, frames)
        for gap, expected in ((pipeline.n_stages, [(-1, "map m")]), (1, [])):
            leg = run_engine("interpreted", program, frames,
                             pipeline=pipeline, gap=gap)
            _change_map_value(leg)
            exempt = exempt_observables(pipeline, "vm", "interpreted", gap)
            found = [m for m in compare_runs(vm, leg) if m.what not in exempt]
            assert [(m.index, m.what) for m in found] == expected
            result = run_differential(program, frames, pipeline=pipeline,
                                      gap=gap, engines=("vm", "interpreted"))
            assert result.ok
            assert result.not_compared == (
                {"vm vs interpreted": ("map m",)} if gap == 1 else {})
        # two pipeline engines are one cycle model: nothing is exempt
        assert exempt_observables(pipeline, "interpreted", "codegen", 1) == ()

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

        build, setup, frames, _flushes = CASES["firewall"]
        result = run_three_way(build(), frames[:SHORT], setup=setup,
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
        assert ("engine path: stream (2 of 2 lookups, 1 of 1 writes folded, "
                "0 spill sites, 6 stack slots, 2 of 2 value accesses by slot, "
                "2 coalesced runs)\n") in capsys.readouterr().out
        assert main(["stats", "app:maglev"]) == 0
        assert ("engine path: stream (2 of 2 lookups, 0 of 0 writes folded, "
                "0 spill sites, 2 stack slots, 3 of 3 value accesses by slot, "
                "2 coalesced runs)\n") in capsys.readouterr().out
        assert main(["run", "app:ct_firewall", "--workload", "auto",
                     "--packets", "60", "--engine", "interpreted"]) == 0
        assert ("engine path: cycle-loop (engine 'interpreted' has no "
                "stream path)") in capsys.readouterr().out
        # a keyed window in place of its flushes: leaky_bucket streams
        assert main(["stats", "app:leaky_bucket"]) == 0
        assert ("engine path: stream (1 of 1 lookups, 1 of 1 writes folded, "
                "0 spill sites, 5 stack slots, 6 of 6 value accesses by slot, "
                "4 coalesced runs)\n") in capsys.readouterr().out
        assert main(["stats", "app:dnat"]) == 0
        out = capsys.readouterr().out
        assert ("engine path: cycle-loop (flush plan on map 1 "
                "(stages 8-20) not covered by a window)\n") in out

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


# the evaluation apps (router both ways), each a case of tests/cases.py
APPS = ["dnat", "firewall", "icmp_echo", "leaky_bucket", "router",
        "router_rmw", "suricata", "toy_counter", "tunnel"]


class TestEngineMatrix:
    """Each app's engine pairs, as cells of ``tests/test_matrix.py``."""

    @pytest.mark.parametrize("a,b", [("interpreted", "codegen")])
    @pytest.mark.parametrize("app", APPS)
    def test_pipeline_pair_bit_identical(self, app, a, b):
        check_cell(app, "path_parallel", f"{a}-{b}")

    @pytest.mark.parametrize("a,b", [("vm", "codegen")])
    @pytest.mark.parametrize("app", APPS)
    def test_vm_agrees_on_observables(self, app, a, b):
        # one packet in flight: every observable compares
        check_cell(app, "path_parallel", f"{a}-{b}-spaced")

    def test_rtl_engine_through_registry(self):
        # the three-way's RTL leg is run_engine("rtl")
        check_cell("toy_counter", "path_parallel", "three-way-rtl")

    def test_wide_gap_matches_back_to_back(self):
        # injection spacing moves cycles only: never verdicts, bytes,
        # ports or map state
        build, setup, frames, _flushes = CASES["firewall"]
        program = build()
        pipeline = compile_program(program)
        tight, wide = (
            run_engine("codegen", program, frames, pipeline=pipeline,
                       sim_options=_FROZEN, setup=setup, gap=gap)
            for gap in (1, pipeline.n_stages + 2))
        assert {m.what for m in compare_runs(tight, wide)} == {
            "packet cycles", "total cycles"}
        assert tight.total_cycles < wide.total_cycles


class TestAppParity:
    """The two pipeline engines back to back on each app: flushes,
    stalls and queue drops included."""

    def test_toy_counter(self):
        check_cell("toy_counter", "path_parallel", "interpreted-codegen")

    def test_firewall(self):
        check_cell("firewall", "path_parallel", "interpreted-codegen")

    @pytest.mark.parametrize("use_atomic", [True, False])
    def test_router(self, use_atomic):
        # the RMW router's back-to-back stats updates flush
        case = "router" if use_atomic else "router_rmw"
        check_cell(case, "path_parallel", "interpreted-codegen")

    def test_tunnel(self):
        check_cell("tunnel", "path_parallel", "interpreted-codegen")

    def test_suricata(self):
        check_cell("suricata", "path_parallel", "interpreted-codegen")

    def test_dnat(self):
        check_cell("dnat", "path_parallel", "interpreted-codegen")


class TestHazardParity:
    """The RMW and atomic programs of ``tests/cases.py``: back to back
    (their matrix cells), spaced, and record-free."""

    def _pair(self, case, frames, gap, keep_records=True):
        build, _setup, _frames, _flushes = CASES[case]
        program = build()
        pipeline = compile_program(program)
        runs = []
        for engine in ("interpreted", "codegen"):
            maps = MapSet(program.maps)
            sim = PipelineSimulator(pipeline, maps=maps, options=SimOptions(
                engine=engine, keep_records=keep_records))
            report = sim.run_packets(frames, gap=gap)
            runs.append(engine_run(engine, report, maps, len(frames)))
        assert compare_runs(*runs) == []
        return runs[0].report

    def test_rmw_flush_storm(self):
        check_cell("rmw", "path_parallel", "interpreted-codegen")

    def test_atomic_counter(self):
        check_cell("atomic_counter", "path_parallel", "interpreted-codegen")

    def test_rmw_spaced_no_flush(self):
        frames = CASES["rmw"].frames[:10]
        assert self._pair("rmw", frames, gap=40).flush_events == 0

    def test_keep_records_false_aggregates(self):
        # no records: the run compares through its counters alone
        report = self._pair("rmw", CASES["rmw"].frames, gap=1,
                            keep_records=False)
        assert not report.records and report.flush_events > 0


class TestHashStorage:
    def test_snapshots_agree_on_every_engine(self):
        # a hash map's storage grows with the slots handed out, in the
        # order the engines insert: leaky_bucket's buckets end up byte
        # for byte the same on each, the frozen clock and spaced
        # packets making every engine's run the VM's
        from repro.apps import leaky_bucket
        from tests.test_codegen import _zipf_frames

        program = leaky_bucket.build()
        frames = _zipf_frames(flows=12, packets=40)
        snapshots = {}
        for engine in engine_names():
            held = []
            run_engine(engine, program, frames, setup=held.append,
                       sim_options=_FROZEN,
                       gap=compile_program(program).n_stages)
            snapshots[engine] = held[0].snapshot()
            buckets = held[0][1].entry_count()
        reference = snapshots["vm"]
        assert len(reference[1]) == buckets * 16 < 32768 * 16
        assert all(snapshot == reference for snapshot in snapshots.values())
