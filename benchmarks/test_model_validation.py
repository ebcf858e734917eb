"""Validation of the Appendix A.1 analytical model against measurement.

The paper derives the flushing probability and throughput equations
analytically and notes that "the actual degradation of the throughput is
much less significant than the one foreseen from this model" under real
traces. Here we close the loop quantitatively: sweep the flow count for
the RMW-router pipeline (a genuine lookup→store RAW window), measure the
flush probability and throughput in the cycle-level simulator at full
offered load, and compare against the model's prediction for the same
(K, L, N).
"""

import pytest

from conftest import PAPER_OPTIONS, print_table
from repro.analysis import pipeline_throughput, zipf_flush_probability
from repro.apps import router
from repro.core import compile_program
from repro.ebpf.maps import MapSet
from repro.hwsim import PipelineSimulator, SimOptions
from repro.net.flows import TrafficGenerator, TrafficSpec
from repro.net.packet import ipv4, mac

FLOW_COUNTS = (200, 2_000, 20_000)
N_PACKETS = 4_000


def _measure(n_flows: int):
    """The RMW router under Zipfian traffic at back-to-back injection.

    Its stats counter is a single entry, so every packet shares one slot
    and flushes depend only on the read->write window timing; the flow
    count enters through the *leaky-bucket-style* per-flow variant below.
    Instead we use the leaky bucket, whose buckets are per-flow keys.
    """
    from repro.apps import leaky_bucket

    prog = leaky_bucket.build()
    pipeline = compile_program(prog, PAPER_OPTIONS)
    gen = TrafficGenerator(TrafficSpec(
        n_flows=n_flows, distribution="zipf", packet_size=64, seed=9,
    ))
    sim = PipelineSimulator(prog and pipeline, maps=MapSet(prog.maps),
                            options=SimOptions(keep_records=False))
    report = sim.run_packets(list(gen.packets(N_PACKETS)))
    worst = max(
        (fb for plan in pipeline.map_hazards.values()
         for fb in plan.flush_blocks),
        key=lambda fb: fb.L,
    )
    measured_p = report.flush_events / max(1, report.packets_out)
    predicted_p = zipf_flush_probability(worst.L, n_flows)
    return {
        "L": worst.L,
        "K": worst.K(),
        "measured_p": measured_p,
        "predicted_p": predicted_p,
        "measured_mpps": report.throughput_mpps,
        "predicted_mpps": pipeline_throughput(worst.K(), predicted_p),
    }


@pytest.fixture(scope="module")
def validation():
    rows = {n: _measure(n) for n in FLOW_COUNTS}
    print_table(
        "Model validation: leaky bucket, Zipfian flows, saturating load",
        ["flows", "P_f measured", "P_f model", "Mpps measured", "Mpps model"],
        [
            [n, f"{r['measured_p']:.3f}", f"{r['predicted_p']:.3f}",
             f"{r['measured_mpps']:.1f}", f"{r['predicted_mpps']:.1f}"]
            for n, r in rows.items()
        ],
    )
    return rows


def _check(rows):
    values = [rows[n] for n in FLOW_COUNTS]
    # both model and measurement improve with more flows
    measured = [r["measured_p"] for r in values]
    predicted = [r["predicted_p"] for r in values]
    assert measured == sorted(measured, reverse=True)
    assert predicted == sorted(predicted, reverse=True)
    for r in values:
        # same order of magnitude: the model is a coarse upper-shape, and
        # the paper itself observed measurements come in *below* it
        if r["predicted_p"] > 0.01:
            ratio = r["measured_p"] / r["predicted_p"]
            assert 0.1 <= ratio <= 3.0, r
        # throughput: measured within a factor ~2.5 of the prediction
        assert r["measured_mpps"] >= 0.4 * r["predicted_mpps"], r


class TestModelValidation:
    def test_shape(self, validation):
        _check(validation)

    def test_bench_measurement(self, benchmark, validation):
        _check(validation)
        benchmark(lambda: _measure(500))
