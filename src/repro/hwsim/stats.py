"""Simulation statistics and reports."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..ebpf.xdp import XdpAction
from ..telemetry.metrics import N_BUCKETS, Registry, bucket_index


@dataclass
class SimMetrics:
    """NIC-style per-cycle counters collected alongside a ``SimReport``.

    Plain-list storage that merges exactly (additively) under
    :meth:`SimReport.merge_serial` across the serving loop's batches —
    the same contract the report's own aggregates keep. Collected only
    when the telemetry registry is enabled; the simulator's hot loop
    pays one ``is not None`` check per cycle when off.
    """

    n_stages: int
    # cycles each stage slot held a packet (index 0 = stage 1)
    stage_busy_cycles: List[int]
    # sum over cycles of all elastic-buffer queue depths: cycles packets
    # spent serialized behind map-hazard barriers waiting to re-enter
    barrier_wait_cycles: int = 0
    observed_cycles: int = 0
    # cycles-per-packet (inject -> exit) log2 histogram
    packet_cycle_buckets: List[int] = field(
        default_factory=lambda: [0] * N_BUCKETS
    )
    packet_cycle_sum: int = 0
    packet_cycle_count: int = 0

    @classmethod
    def create(cls, n_stages: int) -> "SimMetrics":
        return cls(n_stages=n_stages, stage_busy_cycles=[0] * n_stages)

    def observe_packet(self, pipeline_cycles: int) -> None:
        self.packet_cycle_buckets[bucket_index(pipeline_cycles)] += 1
        self.packet_cycle_sum += pipeline_cycles
        self.packet_cycle_count += 1

    def occupancy_pct(self) -> List[float]:
        """Per-stage busy percentage over the observed cycles."""
        if self.observed_cycles == 0:
            return [0.0] * self.n_stages
        return [
            100.0 * busy / self.observed_cycles
            for busy in self.stage_busy_cycles
        ]

    def merge(self, other: "SimMetrics") -> None:
        if self.n_stages != other.n_stages:
            raise ValueError(
                f"cannot merge metrics for {other.n_stages}-stage pipeline "
                f"into {self.n_stages}-stage metrics"
            )
        for i in range(self.n_stages):
            self.stage_busy_cycles[i] += other.stage_busy_cycles[i]
        self.barrier_wait_cycles += other.barrier_wait_cycles
        self.observed_cycles += other.observed_cycles
        for i in range(N_BUCKETS):
            self.packet_cycle_buckets[i] += other.packet_cycle_buckets[i]
        self.packet_cycle_sum += other.packet_cycle_sum
        self.packet_cycle_count += other.packet_cycle_count


@dataclass
class PacketRecord:
    """Outcome of one packet through the simulated pipeline."""

    pid: int
    action: XdpAction
    data: bytes
    arrival_cycle: int
    inject_cycle: int
    exit_cycle: int
    restarts: int = 0  # times this packet was squashed by a flush
    # The interface a REDIRECT leaves by; None for any other verdict.
    egress: Optional[int] = None

    @property
    def pipeline_cycles(self) -> int:
        return self.exit_cycle - self.inject_cycle

    @property
    def total_cycles(self) -> int:
        return self.exit_cycle - self.arrival_cycle


@dataclass
class SimReport:
    """Aggregate results of one simulation run."""

    clock_mhz: float
    n_stages: int
    cycles: int = 0
    packets_in: int = 0
    packets_out: int = 0
    packets_dropped_queue: int = 0  # input queue overflow (Table 2 "lost")
    flush_events: int = 0
    squashed_packets: int = 0
    stall_cycles: int = 0
    action_counts: Dict[XdpAction, int] = field(default_factory=dict)
    records: List[PacketRecord] = field(default_factory=list)
    keep_records: bool = True
    # Running aggregates, maintained whether or not per-packet records
    # are kept, so latency/restart statistics stay exact in the
    # record-free fast path.
    sum_total_cycles: int = 0
    sum_pipeline_cycles: int = 0
    sum_restarts: int = 0
    # Telemetry counters (per-stage occupancy, barrier waits, the
    # cycles-per-packet histogram); None unless the run collected them.
    metrics: Optional[SimMetrics] = None

    # -- derived metrics -----------------------------------------------------

    @property
    def throughput_mpps(self) -> float:
        """Sustained packet rate through the pipeline."""
        if self.cycles == 0:
            return 0.0
        return self.packets_out * self.clock_mhz / self.cycles

    @property
    def cycle_ns(self) -> float:
        return 1000.0 / self.clock_mhz

    def latency_ns(self, shell_overhead_ns: float = 0.0) -> float:
        """Mean forwarding latency (pipeline traversal + queueing), plus a
        constant shell/MAC overhead supplied by the NIC shell model.

        Computed from the running cycle sums, so it is exact with
        ``keep_records=False`` too."""
        if self.packets_out == 0:
            return 0.0
        mean_cycles = self.sum_total_cycles / self.packets_out
        return mean_cycles * self.cycle_ns + shell_overhead_ns

    def avg_pipeline_cycles(self) -> float:
        """Mean inject-to-exit cycles per packet (0.0 when no packets)."""
        if self.packets_out == 0:
            return 0.0
        return self.sum_pipeline_cycles / self.packets_out

    def flushes_per_second(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.flush_events * self.clock_mhz * 1e6 / self.cycles

    def count_action(self, action: XdpAction) -> int:
        return self.action_counts.get(action, 0)

    def tally(
        self,
        action: XdpAction,
        arrival_cycle: int,
        inject_cycle: int,
        exit_cycle: int,
        restarts: int = 0,
    ) -> None:
        """Account one packet exit without allocating a PacketRecord.

        This is the record-free fast path; :meth:`record` routes through
        it so both modes produce identical aggregates."""
        self.packets_out += 1
        self.action_counts[action] = self.action_counts.get(action, 0) + 1
        self.sum_total_cycles += exit_cycle - arrival_cycle
        self.sum_pipeline_cycles += exit_cycle - inject_cycle
        self.sum_restarts += restarts
        if self.metrics is not None:
            self.metrics.observe_packet(exit_cycle - inject_cycle)

    def record(self, rec: PacketRecord) -> None:
        self.tally(rec.action, rec.arrival_cycle, rec.inject_cycle,
                   rec.exit_cycle, rec.restarts)
        if self.keep_records:
            self.records.append(rec)

    def merge_serial(self, other: "SimReport") -> None:
        """Append a later run's results as if the two ran back-to-back.

        Sequential composition — the serving loop's per-batch reports,
        where the pipeline fully drains between runs on the same
        hardware. ``cycles`` therefore ADD (wall-clock is the sum of
        the segments), and per-packet records concatenate with this
        report's cycle and pid horizon added to the incoming ones, so
        the merged timeline stays monotonic. ``n_stages`` keeps this
        report's value (callers composing across a hot-swap should
        track depth themselves).
        """
        if self.clock_mhz != other.clock_mhz:
            raise ValueError(
                f"cannot merge reports at different clocks: "
                f"{self.clock_mhz} vs {other.clock_mhz} MHz"
            )
        cycle_off = self.cycles
        pid_off = self.packets_in
        self.cycles += other.cycles
        self.packets_in += other.packets_in
        self.packets_out += other.packets_out
        self.packets_dropped_queue += other.packets_dropped_queue
        self.flush_events += other.flush_events
        self.squashed_packets += other.squashed_packets
        self.stall_cycles += other.stall_cycles
        self.sum_total_cycles += other.sum_total_cycles
        self.sum_pipeline_cycles += other.sum_pipeline_cycles
        self.sum_restarts += other.sum_restarts
        for action, count in other.action_counts.items():
            self.action_counts[action] = self.action_counts.get(action, 0) + count
        if self.keep_records:
            for rec in other.records:
                self.records.append(replace(
                    rec,
                    pid=rec.pid + pid_off,
                    arrival_cycle=rec.arrival_cycle + cycle_off,
                    inject_cycle=rec.inject_cycle + cycle_off,
                    exit_cycle=rec.exit_cycle + cycle_off,
                ))
        if other.metrics is not None:
            if self.metrics is None:
                self.metrics = SimMetrics.create(other.metrics.n_stages)
            self.metrics.merge(other.metrics)

    def summary(self) -> str:
        lines = [
            f"cycles={self.cycles} in={self.packets_in} out={self.packets_out} "
            f"lost={self.packets_dropped_queue}",
            f"throughput={self.throughput_mpps:.2f} Mpps "
            f"(clock {self.clock_mhz:.0f} MHz, {self.n_stages} stages)",
            f"flushes={self.flush_events} squashed={self.squashed_packets} "
            f"stalls={self.stall_cycles}",
        ]
        for action, count in sorted(self.action_counts.items()):
            lines.append(f"  {action.name}: {count}")
        return "\n".join(lines)


def publish_report(
    report: SimReport,
    registry: Registry,
    app: str = "",
    engine: str = "hwsim",
) -> None:
    """Translate a report's aggregates into registry metrics.

    Every counter is published with an ``app``/``engine`` label pair so
    runs over different programs or engines coexist in one scrape. The
    per-action packet counters exactly equal ``report.action_counts`` —
    the equality the telemetry acceptance tests pin down.
    """
    base = {"app": app, "engine": engine}
    registry.counter(
        "ehdl_sim_packets_in_total",
        "Packets accepted into the input queue", base,
    ).inc(report.packets_in)
    for action, count in sorted(report.action_counts.items()):
        registry.counter(
            "ehdl_sim_packets_total",
            "Packets retired, by final XDP action",
            {**base, "action": action.name},
        ).inc(count)
    registry.counter(
        "ehdl_sim_queue_drops_total",
        "Packets dropped on input-queue overflow", base,
    ).inc(report.packets_dropped_queue)
    registry.counter(
        "ehdl_sim_cycles_total",
        "Simulated clock cycles", base,
    ).inc(report.cycles)
    registry.counter(
        "ehdl_sim_stall_cycles_total",
        "Cycles the pipeline stalled on map-hazard barriers", base,
    ).inc(report.stall_cycles)
    registry.counter(
        "ehdl_sim_flush_events_total",
        "Flush Evaluation Block firings", base,
    ).inc(report.flush_events)
    registry.counter(
        "ehdl_sim_squashed_packets_total",
        "Packets squashed and restarted by flushes", base,
    ).inc(report.squashed_packets)
    registry.counter(
        "ehdl_sim_restarts_total",
        "Per-packet restart events (squash re-executions)", base,
    ).inc(report.sum_restarts)
    registry.gauge(
        "ehdl_sim_stages",
        "Pipeline depth in stages", base,
    ).set(report.n_stages)
    metrics = report.metrics
    if metrics is not None:
        for i, busy in enumerate(metrics.stage_busy_cycles):
            registry.counter(
                "ehdl_sim_stage_busy_cycles_total",
                "Cycles a stage slot held a packet",
                {**base, "stage": str(i + 1)},
            ).inc(busy)
        registry.counter(
            "ehdl_sim_observed_cycles_total",
            "Cycles the occupancy counters observed", base,
        ).inc(metrics.observed_cycles)
        registry.counter(
            "ehdl_sim_barrier_wait_cycles_total",
            "Packet-cycles spent serialized in map-hazard barrier queues",
            base,
        ).inc(metrics.barrier_wait_cycles)
        registry.histogram(
            "ehdl_sim_packet_cycles",
            "Inject-to-exit pipeline cycles per packet", base,
        ).merge_counts(
            metrics.packet_cycle_buckets,
            metrics.packet_cycle_sum,
            metrics.packet_cycle_count,
        )
