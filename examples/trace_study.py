#!/usr/bin/env python3
"""Flush-behaviour study: the Leaky Bucket under realistic traces (§5.3).

Replays synthetic CAIDA/MAWI-like traces at 100 Gbps through the leaky
bucket pipeline — the application whose read-modify-write of per-flow
(timestamp, level) state cannot use the atomic block — and compares the
measured flush rate and throughput with the analytical model of
Appendix A.1. The pipeline is compiled under the paper's §3.3 layout
(one block per stage, as in the paper tables): there the bucket
update's flush blocks are live, where the default layout's keyed window
stalls a packet behind its own flow instead of flushing.

Run:  python examples/trace_study.py
"""

from repro.analysis import analyze_pipeline, pipeline_throughput, zipf_flush_probability
from repro.apps import leaky_bucket
from repro.core import CompileOptions, compile_program, hazard_summary
from repro.ebpf.maps import MapSet
from repro.hwsim import NicSystem
from repro.net.packet import udp_packet
from repro.net.traces import caida_like, mawi_like

N_PACKETS = 8_000


def main() -> None:
    program = leaky_bucket.build()
    pipeline = compile_program(program, CompileOptions(path_parallel=False))
    print("=== leaky bucket pipeline ===")
    print(f"{pipeline.n_stages} stages")
    print(hazard_summary(pipeline))

    print("\n=== trace replay at 100 Gbps (Table 2) ===")
    for trace in (caida_like(N_PACKETS), mawi_like(N_PACKETS)):
        stats = trace.stats()
        nic = NicSystem(pipeline, maps=MapSet(program.maps), keep_records=False)
        report = nic.replay_trace(trace)
        print(f"{trace.name}: {stats.packets} pkts, {stats.flows} flows, "
              f"mean {stats.mean_size:.0f} B")
        print(f"  lost packets: {report.packets_dropped_queue}   "
              f"flushes/sec: {report.flushes_per_second():,.0f}   "
              f"restarted packets: {report.squashed_packets}")

    print("\n=== worst case: one flow, line rate (§5.3) ===")
    nic = NicSystem(pipeline, maps=MapSet(program.maps), keep_records=False)
    frame = udp_packet(src_ip="10.0.0.1", sport=1000, size=64)
    report = nic.run_at_line_rate([frame] * 3000)
    print(f"max achieved throughput: {report.throughput_mpps:.1f} Mpps "
          f"({report.flush_events} flushes) — the paper's 29->12 Mpps case")

    print("\n=== analytical model (Appendix A.1) ===")
    analysis = analyze_pipeline(pipeline, n_flows=50_000)
    print(analysis.row())
    print("predicted throughput vs hazard window length (50k Zipfian flows):")
    for L in (2, 3, 5, 8, 13):
        p = zipf_flush_probability(L, 50_000)
        tp = pipeline_throughput(analysis.K, p)
        print(f"  L={L:>2}:  P_f={100 * p:5.1f}%   T_p={tp:6.1f} Mpps")


if __name__ == "__main__":
    main()
