"""Simulator-throughput regression bench across execution engines.

Measures end-to-end simulated packets/second (simulator construction —
and therefore loading the generated module — excluded, matching a warm
compile cache) for the firewall and router applications on each
pipeline engine from the :mod:`repro.hwsim.engines` registry:
``interpreted`` (per-op decode, the reference) and ``codegen``
(generated, ``compile()``'d source, the default). Writes
``BENCH_sim_throughput.json`` at the repo root so future PRs can track
the trajectory, and enforces one floor on the firewall: the codegen
engine must stay >= 15x the interpreted engine.

The ``rtl_sim`` rows time the compiled-schedule RTL engine against the
delta-cycle interpreter on the full 4000-packet firewall and router
traces (interpreter extrapolated from a slice) and enforce a >= 100x
floor on the firewall; the telemetry row times the codegen engine with
metrics on vs off and records the code path each side took (metrics
are per-cycle, so the enabled side always runs the cycle loop).

Both floors are judged on the median of the per-round ratios (each
round times both sides back to back) and only when the rounds agree
better than the median's margin to the floor (``_floor_verdict``): a
host that reads 95x, 97x, 101x against a 100x floor has measured
nothing, and the row says ``inconclusive`` instead of failing.

The ``workload_gen`` row times trace synthesis on its own — the cold
Zipf table build and ``make_workload + materialize`` for the three
template-kernel kinds over 1M flows, cold (table cache emptied first,
which is what every pass cost before the tables were interned) and
warm, in interleaved rounds with median and spread — and carries the
parent commit's figures beside them.
"""

import gc
import json
import pathlib
import statistics
import threading
import time

from conftest import print_table, setup_app_maps

from repro.apps import firewall, router
from repro.core import compile_program
from repro.ebpf.maps import MapSet
from repro import telemetry
from repro.hwsim import PipelineSimulator, SimOptions
from repro.net.flows import TrafficGenerator, TrafficSpec
from repro.rtl import RtlRunner

RESULT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_sim_throughput.json"

# Enough packets that the codegen engine's per-run setup cost is fully
# amortized; at small N the codegen/interpreted ratio under-reads its
# asymptote.
N_PACKETS = 20_000
# codegen vs. interpreted floor on the firewall (measured ~24x:
# constant-offset folding + the straight-line stream path)
MIN_CODEGEN_SPEEDUP = 15.0

# Full bench trace on the compiled RTL engine; the delta-cycle
# interpreter runs a slice extrapolated linearly (its per-frame cost is
# constant: every frame is the same 25-cycle single-packet window).
RTL_PACKETS = 4000
RTL_INTERP_PACKETS = 200
RTL_ROUNDS = 3
# compiled-schedule vs interpreter floor on the firewall, established by
# the compiled RTL simulation PR (measured 101-116x across load
# conditions: levelized schedule + comb fusion + generated frame stepper)
MIN_RTL_SPEEDUP = 100.0
# codegen_pps of the two windowed apps on the generated cycle loop,
# before their serialization window got closed-form stall timing and
# with it the _STREAM path; kept in their rows as the before/after
# reference.
WINDOWED_CODEGEN_PPS_BEFORE = {"ct_firewall": 14290, "syn_cookie": 8777}

SERVE_PACKETS = 20_000
SERVE_FLOWS = 100_000
SERVE_SWAPS = 3

# Second-generation app matrix: each app on its registered workload
# (repro.apps.APP_WORKLOADS — Zipfian, million-flow populations),
# truncated so the interpreted engine keeps the whole matrix cheap.
APP_MATRIX_PACKETS = 6_000


# Trace synthesis: the populations the bench workloads draw from.
WORKLOAD_GEN_FLOWS = 1_000_000
WORKLOAD_GEN_PACKETS = 20_000
WORKLOAD_GEN_ROUNDS = 5
WORKLOAD_GEN_KINDS = ("udp-zipf", "flow-churn", "tunnel-encap")
# The same make_workload + materialize loop on the parent commit
# (df5d6ec: table rebuilt every pass, per-packet flow_at +
# patch_ipv4_flow), measured alternately with this tree on one host.
WORKLOAD_GEN_BEFORE = {
    "cold_table_build_ms": 255.8,
    "frames_per_s": {"udp-zipf": 60741, "flow-churn": 59231,
                     "tunnel-encap": 36271},
}
# warm over cold frames/s on udp-zipf (measured ~14x: a pass that finds
# its table interned skips 2M pow calls); not asserted when the rounds
# spread by more than the margin.
MIN_WARM_OVER_COLD = 4.0
WORKLOAD_GEN_SPREAD_MARGIN = 0.25


def _median_spread(samples):
    """Median and relative spread ``(max - min) / median``."""
    median = statistics.median(samples)
    return median, (max(samples) - min(samples)) / median


def _floor_verdict(ratios, floor):
    """Row fields judging per-round speedup ``ratios`` against
    ``floor``: the median, the rounds' spread, and ``inconclusive``
    when that spread exceeds the median's relative margin to the floor
    — the rounds then disagree by more than the distance being judged,
    on either side of it, and nothing is asserted."""
    median, spread = _median_spread(ratios)
    return {
        "speedup_median": round(median, 2),
        "speedup_spread": round(spread, 3),
        "inconclusive": spread > abs(median - floor) / median,
    }


def _measure(name, program, frames, flows, engines):
    """Timed runs on several registry engines, interleaved.

    Passes are interleaved round-robin (codegen, interpreted, codegen,
    ...) rather than run per-engine back to back, so a noisy
    neighbour on a starved CI host perturbs every engine's window about
    equally and the *ratios* stay stable even when the absolute numbers
    wander. Returns ``({engine: report}, {engine: best_pps},
    {engine: [seconds per round]})``.
    """
    pipeline = compile_program(program)
    reps = {}
    best = {}
    rounds = {engine: [] for engine in engines}
    for _ in range(3):
        for engine in engines:
            maps = MapSet(program.maps)
            setup_app_maps(name, maps, flows)
            sim = PipelineSimulator(
                pipeline, maps=maps,
                options=SimOptions(engine=engine, keep_records=False),
            )
            start = time.perf_counter()
            report = sim.run_packets(frames)
            elapsed = time.perf_counter() - start
            rounds[engine].append(elapsed)
            if engine not in best or elapsed < best[engine]:
                best[engine] = elapsed
                reps[engine] = report
    return reps, {e: len(frames) / dt for e, dt in best.items()}, rounds


def _bench_app(name, program):
    gen = TrafficGenerator(TrafficSpec(n_flows=64, packet_size=64, seed=7))
    frames = list(gen.packets(N_PACKETS))
    flows = list(gen.flows)
    reps, pps, rounds = _measure(
        name, program, frames, flows, ("codegen", "interpreted")
    )
    # both pipeline engines are executions of the same cycle-level
    # model: cycle counts and verdicts must match before pps means
    # anything
    assert reps["codegen"].cycles == reps["interpreted"].cycles
    assert reps["codegen"].action_counts == reps["interpreted"].action_counts
    report_json = reps["codegen"].to_json()
    return {
        "app": name,
        "packets": N_PACKETS,
        "codegen_pps": round(pps["codegen"]),
        "interpreted_pps": round(pps["interpreted"]),
        "codegen_speedup": round(pps["codegen"] / pps["interpreted"], 2),
        **_floor_verdict(
            [slow / fast for fast, slow in
             zip(rounds["codegen"], rounds["interpreted"])],
            MIN_CODEGEN_SPEEDUP),
        "cycles": reps["codegen"].cycles,
        "report": report_json,
    }


def _bench_telemetry_overhead(name, program):
    """Cost of turning telemetry on, on the default (codegen) engine.

    Metrics are per-cycle, so the enabled side always runs the cycle
    loop with per-stage occupancy and the cycles-per-packet histogram;
    the disabled side takes whatever path the pipeline allows. Each
    side's ``engine_path()`` is recorded next to the figure, and both
    runs must retire identical packets."""
    gen = TrafficGenerator(TrafficSpec(n_flows=64, packet_size=64, seed=7))
    frames = list(gen.packets(N_PACKETS))
    flows = list(gen.flows)
    pipeline = compile_program(program)

    def run(telemetry_on):
        best = None
        for _ in range(2):
            maps = MapSet(program.maps)
            setup_app_maps(name, maps, flows)
            sim = PipelineSimulator(
                pipeline, maps=maps,
                options=SimOptions(keep_records=False),
            )
            with telemetry.scoped(enabled=telemetry_on):
                path = sim.engine_path()
                start = time.perf_counter()
                report = sim.run_packets(frames)
                elapsed = time.perf_counter() - start
            if best is None or elapsed < best[1]:
                best = (report, elapsed, path)
        return best

    off_rep, off_dt, off_path = run(False)
    on_rep, on_dt, on_path = run(True)
    assert off_rep.metrics is None
    assert on_rep.metrics is not None
    assert off_rep.cycles == on_rep.cycles
    assert off_rep.action_counts == on_rep.action_counts
    assert on_rep.metrics.packet_cycle_count == on_rep.packets_out
    off_pps = len(frames) / off_dt
    on_pps = len(frames) / on_dt
    return {
        "app": name,
        "packets": N_PACKETS,
        "engine": "codegen",
        "disabled_pps": round(off_pps),
        "disabled_path": off_path,
        "enabled_pps": round(on_pps),
        "enabled_path": on_path,
        "telemetry_overhead_pct": round((off_pps - on_pps) / off_pps * 100, 1),
    }


def _bench_rtl(name, program):
    """Compiled-schedule RTL simulation vs the delta-cycle interpreter.

    The compiled engine runs the full ``RTL_PACKETS`` bench trace; the
    interpreter — which re-walks the whole netlist every delta cycle by
    construction — runs a ``RTL_INTERP_PACKETS`` slice extrapolated
    linearly (per-frame cost is constant in the one-packet-in-flight
    regime: every frame is the same fixed-cycle window). Rounds are
    interleaved compiled/interp so a noisy host perturbs both engines
    about equally, and gc is paused around the timed regions — allocator
    pauses otherwise dominate the compiled engine's sub-second runs.
    The recorded ``speedup`` is best-of-rounds over best-of-rounds; the
    floor is judged on the per-round ratios (``_floor_verdict``)."""
    gen = TrafficGenerator(TrafficSpec(n_flows=16, packet_size=64, seed=7))
    frames = list(gen.packets(RTL_PACKETS))
    flows = list(gen.flows)
    pipeline = compile_program(program)

    def timed(engine, fr):
        maps = MapSet(program.maps)
        setup_app_maps(name, maps, flows)
        runner = RtlRunner(pipeline, maps=maps, engine=engine)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            report = runner.run_packets(fr)
            return report, time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()

    compiled, interp = [], []
    for _ in range(RTL_ROUNDS):
        compiled.append(timed("rtl", frames))
        interp.append(timed("rtl-interp", frames[:RTL_INTERP_PACKETS]))
    report, c_best = min(compiled, key=lambda pair: pair[1])
    i_report, i_slice = min(interp, key=lambda pair: pair[1])
    i_best = i_slice * (RTL_PACKETS / RTL_INTERP_PACKETS)
    # Both engines simulate the same netlist; if they disagree on the
    # slice's verdicts the numbers below compare different computations
    # (bit-identity itself is covered by tests/test_rtl.py).
    assert i_report.packets_out == RTL_INTERP_PACKETS
    assert report.packets_out == RTL_PACKETS
    compiled_pps = RTL_PACKETS / c_best
    interp_pps = RTL_PACKETS / i_best
    return {
        "app": name,
        "engine": "rtl_sim",
        "packets": RTL_PACKETS,
        "interp_packets": RTL_INTERP_PACKETS,
        "n_stages": report.n_stages,
        "sim_cycles": report.cycles,
        "cycles_per_sec": round(report.cycles / c_best),
        "compiled_pps": round(compiled_pps, 1),
        "interp_pps": round(interp_pps, 1),
        "speedup": round(compiled_pps / interp_pps, 1),
        **_floor_verdict(
            [i_dt * (RTL_PACKETS / RTL_INTERP_PACKETS) / c_dt
             for (_c, c_dt), (_i, i_dt) in zip(compiled, interp)],
            MIN_RTL_SPEEDUP),
    }


def _bench_app_matrix():
    """Throughput rows for the second-generation app suite, each on its
    registered Zipfian workload (million-flow populations where the
    :data:`repro.apps.APP_WORKLOADS` spec says so), across both
    pipeline engines. The input queue is sized to the trace: the
    lru_hash apps carry serialization windows that make line-rate
    injection outrun drain, and a queue drop would silently shrink the
    measured work. Engine parity (cycles + verdicts) is asserted before
    any pps is recorded; the three-way vm/hwsim/rtl equivalence on the
    same workloads is enforced by tests/test_second_gen_apps.py and the
    CI app-matrix step."""
    import dataclasses

    from repro.apps import APP_WORKLOADS, SECOND_GEN_APPS
    from repro.workloads import make_workload, parse_workload_spec

    rows = []
    for name in sorted(SECOND_GEN_APPS):
        module = SECOND_GEN_APPS[name]
        program = module.build()
        pipeline = compile_program(program)
        spec = dataclasses.replace(
            parse_workload_spec(APP_WORKLOADS[name]),
            packets=APP_MATRIX_PACKETS,
        )
        frames = make_workload(spec).materialize()
        setup = getattr(module, "default_setup", None)
        reps = {}
        best = {}
        for _ in range(2):
            for engine in ("codegen", "interpreted"):
                maps = MapSet(program.maps)
                if setup is not None:
                    setup(maps)
                sim = PipelineSimulator(
                    pipeline, maps=maps,
                    options=SimOptions(engine=engine, keep_records=False,
                                       input_queue_capacity=len(frames)),
                )
                if engine == "codegen":
                    codegen_path = sim.engine_path()
                gc.collect()
                start = time.perf_counter()
                report = sim.run_packets(frames)
                elapsed = time.perf_counter() - start
                if engine not in best or elapsed < best[engine]:
                    best[engine] = elapsed
                    reps[engine] = report
        assert reps["codegen"].cycles == reps["interpreted"].cycles, name
        assert (reps["codegen"].action_counts
                == reps["interpreted"].action_counts), name
        report = reps["codegen"]
        assert report.packets_dropped_queue == 0, name
        row = {
            "app": name,
            "workload": spec.describe(),
            "packets": APP_MATRIX_PACKETS,
            "workload_flows": spec.flows,
            "n_stages": pipeline.n_stages,
            "serial_windows": len(pipeline.serial_windows),
            "codegen_path": codegen_path,
            "codegen_pps": round(APP_MATRIX_PACKETS / best["codegen"]),
            "interpreted_pps": round(
                APP_MATRIX_PACKETS / best["interpreted"]),
            "cycles": report.cycles,
            "cycles_per_packet": round(
                report.cycles / APP_MATRIX_PACKETS, 2),
            "action_counts": dict(report.action_counts),
        }
        if name in WINDOWED_CODEGEN_PPS_BEFORE:
            row["codegen_pps_before_window_stream"] = \
                WINDOWED_CODEGEN_PPS_BEFORE[name]
        rows.append(row)
    return rows


def _bench_workload_gen():
    """Trace synthesis off the engine: see the module docstring. One
    round visits every kind once, cold then warm, so host-speed drift
    lands on all of them alike. Memo hit rates are counted from outside
    (a miss is an entry the template's memo gained) on one pass from an
    empty memo and the pass after it."""
    from repro.workloads import (
        ZipfSampler,
        ipv4_template,
        make_workload,
        parse_workload_spec,
    )
    from repro.workloads.zipf import cumulative_table

    specs = {
        kind: parse_workload_spec(
            f"{kind}:flows={WORKLOAD_GEN_FLOWS},"
            f"packets={WORKLOAD_GEN_PACKETS}")
        for kind in WORKLOAD_GEN_KINDS
    }

    def timed_pass(spec):
        gc.collect()
        start = time.perf_counter()
        frames = make_workload(spec).materialize()
        elapsed = time.perf_counter() - start
        assert len(frames) == WORKLOAD_GEN_PACKETS
        return WORKLOAD_GEN_PACKETS / elapsed

    build_ms = []
    cold = {kind: [] for kind in specs}
    warm = {kind: [] for kind in specs}
    for _ in range(WORKLOAD_GEN_ROUNDS):
        cumulative_table.cache_clear()
        start = time.perf_counter()
        ZipfSampler(WORKLOAD_GEN_FLOWS, 1.0)
        build_ms.append((time.perf_counter() - start) * 1e3)
        for kind, spec in specs.items():
            cumulative_table.cache_clear()
            cold[kind].append(timed_pass(spec))
            warm[kind].append(timed_pass(spec))

    memo = ipv4_template(specs["udp-zipf"].packet_size).memo
    kinds = []
    for kind, spec in specs.items():
        memo.clear()
        make_workload(spec).materialize()
        first_misses = len(memo)
        make_workload(spec).materialize()
        second_misses = len(memo) - first_misses
        cold_fps, _ = _median_spread(cold[kind])
        warm_fps, spread = _median_spread(warm[kind])
        kinds.append({
            "kind": kind,
            "cold_frames_per_s": round(cold_fps),
            "warm_frames_per_s": round(warm_fps),
            "warm_min_frames_per_s": round(min(warm[kind])),
            "warm_spread": round(spread, 3),
            "frames_per_s_before": WORKLOAD_GEN_BEFORE["frames_per_s"][kind],
            "memo_hit_rate_first_pass": round(
                1 - first_misses / WORKLOAD_GEN_PACKETS, 3),
            "memo_hit_rate_second_pass": round(
                1 - second_misses / WORKLOAD_GEN_PACKETS, 3),
        })
    build, build_spread = _median_spread(build_ms)
    return {
        "flows": WORKLOAD_GEN_FLOWS,
        "packets": WORKLOAD_GEN_PACKETS,
        "rounds": WORKLOAD_GEN_ROUNDS,
        "cold_table_build_ms": round(build, 1),
        "cold_table_build_spread": round(build_spread, 3),
        "cold_table_build_ms_before":
            WORKLOAD_GEN_BEFORE["cold_table_build_ms"],
        "table_builds_before": "one per frames() pass",
        "table_builds": "one per (flows, exponent) per process",
        "kinds": kinds,
        "inconclusive": any(
            row["warm_spread"] > WORKLOAD_GEN_SPREAD_MARGIN for row in kinds),
    }


def _bench_serve():
    """Serving-daemon throughput and hot-swap latency.

    One :class:`~repro.serve.daemon.NicDaemon` streams a Zipfian synth
    feed through the two-slot NIC while a driver thread issues three
    live firewall hot-swaps through the control-plane ``submit`` path —
    so the measured wall time pays for batch dispatch, the drained-
    boundary synchronization, and the swaps themselves. The swap
    latency rows come from the daemon's own request-to-activation
    telemetry (cached compile + draining the in-flight batch). The run
    only counts if the offline segmented replay reproduces it
    bit-identically."""
    from repro.apps import toy_counter
    from repro.net.packet import ETH_P_IP
    from repro.serve import (
        FeedSpec,
        NicDaemon,
        ProgramSpec,
        ServeConfig,
        segmented_replay,
        verify_replay,
    )

    config = ServeConfig(
        programs=[
            ProgramSpec("bg", toy_counter.build()),
            ProgramSpec("fw", firewall.build(), ethertype=ETH_P_IP),
        ],
        feed=FeedSpec(source="synth", packets=SERVE_PACKETS,
                      flows=SERVE_FLOWS, distribution="zipf", seed=7),
        engine="codegen",
        batch_size=1024,
    )
    daemon = NicDaemon(config)

    def driver():
        # live same-program upgrades that keep the flow table — each
        # submit blocks until its swap lands at a drained boundary
        for _ in range(SERVE_SWAPS):
            daemon.submit({"op": "swap", "name": "fw",
                           "program": "app:firewall", "keep_maps": True})

    thread = threading.Thread(target=driver, daemon=True)
    start = time.perf_counter()
    thread.start()
    report = daemon.run()
    elapsed = time.perf_counter() - start
    thread.join(timeout=30)

    assert report["frames"] == SERVE_PACKETS
    latencies = report["swap_latencies_us"]
    assert len(latencies) == SERVE_SWAPS
    offline = segmented_replay(config, report, daemon.program_table)
    assert verify_replay(report, offline) == []
    return {
        "feed": config.feed.describe(),
        "packets": SERVE_PACKETS,
        "batch_size": config.batch_size,
        "engine": config.engine,
        "swaps": len(latencies),
        "serve_pps": round(SERVE_PACKETS / elapsed),
        "serve_swap_latency": {
            "unit": "us",
            "min": round(min(latencies)),
            "mean": round(sum(latencies) / len(latencies)),
            "max": round(max(latencies)),
        },
        "replay_bit_identical": True,
    }


def test_sim_throughput_regression():
    rows = [
        _bench_app("firewall", firewall.build()),
        _bench_app("router", router.build()),
    ]
    rtl_rows = [
        _bench_rtl("firewall", firewall.build()),
        _bench_rtl("router", router.build()),
    ]
    telemetry_row = _bench_telemetry_overhead("firewall", firewall.build())
    matrix_rows = _bench_app_matrix()
    serve_row = _bench_serve()
    workload_row = _bench_workload_gen()
    RESULT_PATH.write_text(json.dumps({
        "benchmark": "sim_throughput",
        "packets_per_run": N_PACKETS,
        "results": rows,
        "rtl_sim": rtl_rows,
        "telemetry": telemetry_row,
        "app_matrix": matrix_rows,
        "serve": serve_row,
        "workload_gen": workload_row,
    }, indent=2) + "\n")
    print_table(
        "simulator throughput by engine",
        ["app", "codegen pps", "interpreted pps", "codegen/interp",
         "median of rounds", "spread"],
        [[r["app"], f"{r['codegen_pps']:,}", f"{r['interpreted_pps']:,}",
          f"{r['codegen_speedup']:.2f}x", f"{r['speedup_median']:.2f}x",
          f"{r['speedup_spread']:.1%}"
          + (" (inconclusive)" if r["inconclusive"] else "")]
         for r in rows],
    )
    print_table(
        "rtl simulation (elaborated VHDL netlist, compiled vs interp)",
        ["app", "stages", "sim cycles", "compiled pps", "interp pps",
         "speedup", "median of rounds", "spread"],
        [[r["app"], r["n_stages"], f"{r['sim_cycles']:,}",
          f"{r['compiled_pps']:,}", f"{r['interp_pps']:,}",
          f"{r['speedup']:.1f}x", f"{r['speedup_median']:.1f}x",
          f"{r['speedup_spread']:.1%}"
          + (" (inconclusive)" if r["inconclusive"] else "")]
         for r in rtl_rows],
    )
    print_table(
        "telemetry overhead (codegen engine, enabled vs disabled)",
        ["app", "disabled pps", "disabled path", "enabled pps",
         "enabled path", "overhead"],
        [[telemetry_row["app"], f"{telemetry_row['disabled_pps']:,}",
          telemetry_row["disabled_path"],
          f"{telemetry_row['enabled_pps']:,}",
          telemetry_row["enabled_path"],
          f"{telemetry_row['telemetry_overhead_pct']:.1f}%"]],
    )
    print_table(
        f"second-generation app matrix ({APP_MATRIX_PACKETS:,} packets "
        "of each app's registered workload)",
        ["app", "stages", "windows", "cyc/pkt", "codegen pps",
         "interp pps"],
        [[r["app"], r["n_stages"], r["serial_windows"],
          f"{r['cycles_per_packet']:.2f}", f"{r['codegen_pps']:,}",
          f"{r['interpreted_pps']:,}"]
         for r in matrix_rows],
    )
    lat = serve_row["serve_swap_latency"]
    print_table(
        f"serving daemon ({serve_row['swaps']} live hot-swaps, "
        "replay-verified)",
        ["packets", "batch", "serve pps", "swap lat min/mean/max (us)"],
        [[f"{serve_row['packets']:,}", serve_row["batch_size"],
          f"{serve_row['serve_pps']:,}",
          f"{lat['min']:,} / {lat['mean']:,} / {lat['max']:,}"]],
    )
    print_table(
        f"trace synthesis ({WORKLOAD_GEN_PACKETS:,} packets over "
        f"{WORKLOAD_GEN_FLOWS:,} flows; cold table build "
        f"{workload_row['cold_table_build_ms']:.0f} ms)",
        ["kind", "frames/s before", "cold frames/s", "warm frames/s",
         "spread", "memo hits 1st/2nd pass"],
        [[r["kind"], f"{r['frames_per_s_before']:,}",
          f"{r['cold_frames_per_s']:,}", f"{r['warm_frames_per_s']:,}",
          f"{r['warm_spread']:.0%}",
          f"{r['memo_hit_rate_first_pass']:.0%} / "
          f"{r['memo_hit_rate_second_pass']:.0%}"]
         for r in workload_row["kinds"]],
    )
    firewall_row = rows[0]
    if not firewall_row["inconclusive"]:
        assert firewall_row["speedup_median"] >= MIN_CODEGEN_SPEEDUP, (
            f"codegen engine regressed: "
            f"{firewall_row['speedup_median']:.2f}x < "
            f"{MIN_CODEGEN_SPEEDUP}x over the interpreted engine on the "
            f"firewall (rounds spread {firewall_row['speedup_spread']:.1%})"
        )
    rtl_firewall = rtl_rows[0]
    if not rtl_firewall["inconclusive"]:
        assert rtl_firewall["speedup_median"] >= MIN_RTL_SPEEDUP, (
            f"compiled RTL engine regressed: "
            f"{rtl_firewall['speedup_median']:.1f}x < {MIN_RTL_SPEEDUP}x "
            f"over the interpreter on the firewall {RTL_PACKETS}-packet "
            f"trace (rounds spread {rtl_firewall['speedup_spread']:.1%})"
        )
    if not workload_row["inconclusive"]:
        udp = workload_row["kinds"][0]
        ratio = udp["warm_frames_per_s"] / udp["cold_frames_per_s"]
        assert ratio >= MIN_WARM_OVER_COLD, (
            f"trace synthesis regressed: a warm udp-zipf pass is "
            f"{ratio:.1f}x a cold one, < {MIN_WARM_OVER_COLD}x — is the "
            f"Zipf table still interned?"
        )
