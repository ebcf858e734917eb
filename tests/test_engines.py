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
from pathlib import Path

import pytest

from repro.apps import dnat, firewall, router, suricata, toy_counter, tunnel
from repro.cli import load_program
from repro.core.compiler import compile_program
from repro.ebpf.asm import assemble_program
from repro.ebpf.isa import MapSpec
from repro.ebpf.maps import MapSet
from repro.ebpf.xdp import XdpAction
from repro.hwsim import PipelineSimulator, SimOptions
from repro.hwsim.codegen import write_debug_source
from repro.hwsim.engines import (
    ENGINES,
    FROZEN_CLOCK_MHZ,
    compare_runs,
    engine_names,
    exempt_observables,
    get_engine,
    pipeline_engine_names,
    run_differential,
    run_engine,
)
from repro.net.packet import FiveTuple, ipv4, mac, udp_packet
from tests.test_rtl import APP_CASES

CORPUS = Path(__file__).parent / "corpus"
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
#          the (index, what) pairs compare_runs must report)
WITNESSES = {
    "action flipped": ("interpreted", _flip_action, [(1, "action")]),
    "byte flipped": ("interpreted", _flip_byte, [(2, "packet bytes")]),
    "map value changed":
        ("interpreted", _change_map_value, [(-1, "map stats")]),
    "cycles shifted, cycle_exact pair":
        ("interpreted", _shift_cycles, [(0, "inject/exit cycles")]),
    "cycles shifted, non-exact pair": ("rtl", _shift_cycles, []),
    "leg one packet short":
        ("interpreted", _drop_last_packet, [(-1, "packet count")]),
    # said once: the missing bytes are not a second mismatch (the
    # non-exact pair keeps the missing cycles out of it)
    "verdict missing": ("rtl", _lose_verdict, [(3, "action")]),
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
        engine, perturb, expected = WITNESSES[name]
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
        # a keyed window in place of its flushes: leaky_bucket streams
        assert main(["stats", "app:leaky_bucket"]) == 0
        assert ("engine path: stream (1 of 1 lookups folded, 1 spill "
                "site)\n") in capsys.readouterr().out
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


# -- codegen ≡ interpreted, observable by observable ---------------------------
#
# The production path and its decode-per-op reference must agree on XDP
# actions, packet bytes, map state and *cycle counts* — through flushes,
# atomics and record-free accounting.

MAPS = {"m": MapSpec("m", "array", 4, 8, 4)}
PKT = bytes(range(64))

RMW = """
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

F1 = FiveTuple(ipv4("10.0.0.1"), ipv4("192.168.0.1"), 17, 1000, 53)


def run_both(program, frames, setup=None, gap=1, keep_records=True):
    """Run frames through the pipeline on the codegen and interpreted
    engines; assert every observable matches and return the (codegen,
    interpreted) reports."""
    pipeline = compile_program(program)
    reports = []
    map_sets = []
    for engine in ("codegen", "interpreted"):
        maps = MapSet(program.maps)
        if setup is not None:
            setup(maps)
        sim = PipelineSimulator(
            pipeline, maps=maps,
            options=SimOptions(engine=engine, keep_records=keep_records),
        )
        reports.append(sim.run_packets(list(frames), gap=gap))
        map_sets.append(maps)

    gen_rep, ref_rep = reports
    assert gen_rep.cycles == ref_rep.cycles
    assert gen_rep.action_counts == ref_rep.action_counts
    assert gen_rep.flush_events == ref_rep.flush_events
    assert gen_rep.squashed_packets == ref_rep.squashed_packets
    assert gen_rep.stall_cycles == ref_rep.stall_cycles
    assert gen_rep.sum_total_cycles == ref_rep.sum_total_cycles
    assert gen_rep.sum_pipeline_cycles == ref_rep.sum_pipeline_cycles
    assert gen_rep.sum_restarts == ref_rep.sum_restarts
    if keep_records:
        assert len(gen_rep.records) == len(ref_rep.records)
        for a, b in zip(gen_rep.records, ref_rep.records):
            assert (a.pid, a.action, a.data) == (b.pid, b.action, b.data)
            assert a.exit_cycle == b.exit_cycle
            assert a.restarts == b.restarts
    for fd in program.maps:
        assert bytes(map_sets[0][fd].storage) == bytes(map_sets[1][fd].storage)
    return gen_rep, ref_rep


class TestAppParity:
    def test_toy_counter(self):
        frames = [toy_counter.packet_for_key(k % 4) for k in range(24)]
        frames.append(b"\x00" * 10)  # short packet -> implicit drop path
        run_both(toy_counter.build(), frames)

    def test_firewall(self):
        frames = []
        for ft in (F1, F1.reversed(), FiveTuple(1, 2, 17, 3, 4)):
            frames.append(udp_packet(src_ip=ft.src_ip, dst_ip=ft.dst_ip,
                                     sport=ft.sport, dport=ft.dport))
        run_both(firewall.build(), frames * 10,
                 setup=lambda m: firewall.allow_flow(m, F1))

    @pytest.mark.parametrize("use_atomic", [True, False])
    def test_router(self, use_atomic):
        def setup(maps):
            router.add_route(maps, ipv4("192.168.1.1"),
                             mac("02:00:00:00:01:01"),
                             mac("02:00:00:00:01:02"), 3)
        frames = [
            udp_packet(dst_ip="192.168.1.200", size=64),
            udp_packet(dst_ip="8.8.8.8", size=64),
            udp_packet(dst_ip="192.168.1.4", size=64, ttl=1),
        ] * 10
        run_both(router.build(use_atomic), frames, setup=setup)
        if not use_atomic:
            # back-to-back routed packets share the stats slot: the RAW
            # hazard fires flushes, and parity must hold through them
            storm = [udp_packet(dst_ip="192.168.1.200", size=64)] * 30
            gen_rep, _ = run_both(router.build(False), storm, setup=setup)
            assert gen_rep.flush_events > 0

    def test_tunnel(self):
        def setup(maps):
            tunnel.add_tunnel(maps, ipv4("10.0.0.9"), ipv4("172.16.0.1"),
                              ipv4("172.16.0.2"),
                              mac("02:00:00:00:02:01"),
                              mac("02:00:00:00:02:02"))
        frames = [udp_packet(dst_ip="10.0.0.9", size=96),
                  udp_packet(dst_ip="10.9.9.9", size=96)] * 8
        run_both(tunnel.build(), frames, setup=setup)

    def test_suricata(self):
        frames = [udp_packet(src_ip=F1.src_ip, dst_ip=F1.dst_ip,
                             sport=F1.sport, dport=F1.dport)] * 12
        run_both(suricata.build(), frames,
                 setup=lambda m: suricata.add_bypass(m, F1))

    def test_dnat(self):
        frames = [udp_packet(src_ip=f"10.1.0.{i}", dst_ip="10.0.0.80",
                             sport=5000 + i, dport=80) for i in range(6)] * 3
        run_both(dnat.build(), frames)


class TestHazardParity:
    def test_rmw_flush_storm(self):
        prog = assemble_program(RMW, maps=MAPS)
        gen_rep, _ = run_both(prog, [PKT] * 40)
        assert gen_rep.flush_events > 0

    def test_rmw_spaced_no_flush(self):
        prog = assemble_program(RMW, maps=MAPS)
        gen_rep, _ = run_both(prog, [PKT] * 10, gap=40)
        assert gen_rep.flush_events == 0

    def test_atomic_counter(self):
        source = """
            r2 = 0
            *(u32 *)(r10 - 4) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto out
            r2 = 1
            lock *(u64 *)(r0 + 0) += r2
        out:
            r0 = 2
            exit
        """
        prog = assemble_program(source, maps=MAPS)
        gen_rep, _ = run_both(prog, [PKT] * 40)
        assert gen_rep.flush_events == 0

    def test_keep_records_false_aggregates(self):
        prog = assemble_program(RMW, maps=MAPS)
        run_both(prog, [PKT] * 40, keep_records=False)


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
