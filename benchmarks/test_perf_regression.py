"""Host-time speed-up floors: the ratios ``bench/`` does not take.

``bench/run.py`` measures each workload's throughput end to end and
per layer; it has no primitive for the ratio of two code paths timed
side by side. This file holds the three such floors the repo keeps:

* the ``codegen`` pipeline engine runs the firewall >= 15x faster than
  the ``interpreted`` engine;
* the compiled-schedule ``rtl`` engine runs the firewall's 4000-packet
  trace >= 100x faster than the delta-cycle ``rtl-interp``;
* a warm ``udp-zipf`` trace-synthesis pass over 1M flows is >= 4x a
  cold one (the Zipf table interned, not rebuilt per pass).

Each floor times its two sides with one timer, :func:`_ratios`: in
every round the slow side and then the fast one run back to back (their
setup untimed, gc paused), so a noisy neighbour perturbs both about
equally and the per-round ratio stays stable when the absolute times
wander. A floor is judged on the median of the per-round ratios, and
only when the rounds agree better than the median's margin to the floor
(:func:`_floor_verdict`): a host that reads 95x, 97x, 101x against a
100x floor has measured nothing, and the floor reads ``inconclusive``
instead of failing.

Run: ``PYTHONPATH=src python -m pytest benchmarks/test_perf_regression.py -q -s``
(each floor prints one row).
"""

import gc
import statistics
import time

from conftest import setup_app_maps

from repro.apps import firewall
from repro.core import compile_program
from repro.ebpf.maps import MapSet
from repro.hwsim import PipelineSimulator, SimOptions
from repro.net.flows import TrafficGenerator, TrafficSpec
from repro.rtl import RtlRunner

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
# compiled-schedule vs interpreter floor on the firewall, established by
# the compiled RTL simulation PR (measured 101-116x across load
# conditions: levelized schedule + comb fusion + generated frame stepper)
MIN_RTL_SPEEDUP = 100.0

# Trace synthesis over the population the bench workloads draw from.
WORKLOAD_GEN_SPEC = "udp-zipf:flows=1000000,packets=20000"
WORKLOAD_GEN_ROUNDS = 5
# warm over cold frames/s on udp-zipf (measured ~14x: a pass that finds
# its table interned skips 2M pow calls)
MIN_WARM_OVER_COLD = 4.0


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


def _timed(run):
    """``(result, seconds)`` of one call of ``run``, gc paused."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run()
        return result, time.perf_counter() - start
    finally:
        gc.enable()


def _ratios(slow, fast, rounds=3, scale=1.0):
    """Per-round ``scale * t_slow / t_fast`` and the last round's
    ``(slow result, fast result)``. ``slow`` and ``fast`` each build
    one run (untimed) and return it as a zero-argument callable."""
    ratios = []
    for _ in range(rounds):
        slow_result, slow_dt = _timed(slow())
        fast_result, fast_dt = _timed(fast())
        ratios.append(scale * slow_dt / fast_dt)
    return ratios, (slow_result, fast_result)


def _hold(what, ratios, floor):
    """Print ``what``'s row and assert the floor unless inconclusive."""
    verdict = _floor_verdict(ratios, floor)
    median, spread = verdict["speedup_median"], verdict["speedup_spread"]
    print(f"\n{what}: {median:.2f}x (median of {len(ratios)} rounds, "
          f"spread {spread:.1%}; floor {floor}x)"
          + (" inconclusive" if verdict["inconclusive"] else ""))
    if not verdict["inconclusive"]:
        assert median >= floor, (
            f"{what} regressed: {median:.2f}x < {floor}x "
            f"(rounds spread {spread:.1%})")


def _firewall(n_flows, packets):
    gen = TrafficGenerator(TrafficSpec(n_flows=n_flows, packet_size=64,
                                       seed=7))
    frames = list(gen.packets(packets))
    program = firewall.build()

    def maps():
        out = MapSet(program.maps)
        setup_app_maps("firewall", out, gen.flows)
        return out

    return frames, compile_program(program), maps


def test_codegen_over_interpreted():
    frames, pipeline, maps = _firewall(64, N_PACKETS)

    def side(engine):
        def build():
            sim = PipelineSimulator(
                pipeline, maps=maps(),
                options=SimOptions(engine=engine, keep_records=False))
            return lambda: sim.run_packets(frames)
        return build

    ratios, (interp, codegen) = _ratios(side("interpreted"),
                                        side("codegen"))
    # both engines run one cycle model: the ratio compares the same
    # computation only while cycles and verdicts match
    assert codegen.cycles == interp.cycles
    assert codegen.action_counts == interp.action_counts
    _hold("codegen over interpreted, firewall", ratios, MIN_CODEGEN_SPEEDUP)


def test_compiled_rtl_over_interpreter():
    frames, pipeline, maps = _firewall(16, RTL_PACKETS)

    def side(engine, count):
        def build():
            runner = RtlRunner(pipeline, maps=maps(), engine=engine)
            return lambda: runner.run_packets(frames[:count])
        return build

    ratios, (interp, compiled) = _ratios(
        side("rtl-interp", RTL_INTERP_PACKETS), side("rtl", RTL_PACKETS),
        scale=RTL_PACKETS / RTL_INTERP_PACKETS)
    assert interp.packets_out == RTL_INTERP_PACKETS
    assert compiled.packets_out == RTL_PACKETS
    _hold(f"compiled rtl over rtl-interp, firewall {RTL_PACKETS} packets",
          ratios, MIN_RTL_SPEEDUP)


def test_warm_trace_synthesis_over_cold():
    from repro.workloads import make_workload, parse_workload_spec
    from repro.workloads.zipf import cumulative_table

    spec = parse_workload_spec(WORKLOAD_GEN_SPEC)

    def synthesise():
        return make_workload(spec).materialize()

    def cold():
        cumulative_table.cache_clear()
        return synthesise

    ratios, (cold_frames, warm_frames) = _ratios(
        cold, lambda: synthesise, rounds=WORKLOAD_GEN_ROUNDS)
    assert len(cold_frames) == len(warm_frames) == spec.packets
    _hold(f"warm over cold trace synthesis, {WORKLOAD_GEN_SPEC}",
          ratios, MIN_WARM_OVER_COLD)
