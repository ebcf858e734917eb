"""NIC shell model (Corundum, §4.5).

The generated pipeline is wrapped in asynchronous FIFOs and integrated
into the Corundum 100 Gbps NIC shell, which owns the MACs, DMA engines
and the PCIe interface. For the end-to-end numbers the shell contributes:

* a constant forwarding-latency overhead (MAC + PHY + CDC FIFOs both
  ways) on top of the pipeline traversal — this is why every application
  lands near one microsecond in Figure 9b regardless of its 20-110 stage
  pipeline;
* the clock-domain decoupling that lets the pipeline run at its own
  frequency (250 MHz in all evaluated designs);
* a fixed resource overhead (already folded into
  :data:`repro.core.resources.CORUNDUM_SHELL`).

:class:`NicSystem` bundles a compiled pipeline + simulator + shell
constants into the paper's device-under-test, with line-rate injection
helpers for the throughput experiments.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from ..ebpf.maps import MapSet
from ..core.pipeline import Pipeline
from .sim import PipelineSimulator, SimOptions
from .stats import SimReport

LINE_RATE_GBPS = 100.0
LINE_RATE_64B_MPPS = 148.8
WIRE_OVERHEAD_BYTES = 24  # preamble + FCS + inter-frame gap
# MAC/PHY/FIFO latency, 420 ns one way, charged twice (rx + tx).
# Calibrated so end-to-end latency sits near the paper's ~1 us for
# 20-110 stage pipelines.
SHELL_LATENCY_NS = 2 * 420.0


class NicSystem:
    """A pipeline flashed onto the NIC: the device under test of §5."""

    def __init__(
        self,
        pipeline: Pipeline,
        maps: Optional[MapSet] = None,
        keep_records: bool = True,
        engine: Optional[str] = None,
    ) -> None:
        self.pipeline = pipeline
        self.maps = maps if maps is not None else MapSet(pipeline.program.maps)
        self.sim = PipelineSimulator(
            pipeline,
            maps=self.maps,
            options=SimOptions(keep_records=keep_records,
                               engine=engine or SimOptions.engine),
        )

    # -- experiments -----------------------------------------------------------

    def run_at_line_rate(self, frames: Iterable[bytes]) -> SimReport:
        """Offer 64 B-class frames back-to-back (one per cycle ≥ 148 Mpps)."""
        return self.sim.run_packets(frames, gap=1)

    def run_at_rate(self, frames: Iterable[bytes], offered_mpps: float) -> SimReport:
        """Offer frames at a fixed packet rate."""
        cycles_per_packet = self.sim.options.clock_mhz / offered_mpps
        arrivals = (
            (int(i * cycles_per_packet), frame) for i, frame in enumerate(frames)
        )
        return self.sim.run(arrivals)

    def replay_trace(self, trace) -> SimReport:
        """Replay a :class:`repro.net.traces.SyntheticTrace` at its
        captured timestamps (i.e. at 100 Gbps)."""
        from ..net.flows import TrafficGenerator, TrafficSpec

        gen = TrafficGenerator(TrafficSpec(n_flows=1))
        cycle_ns = 1000.0 / self.sim.options.clock_mhz

        def arrivals() -> Iterable[Tuple[int, bytes]]:
            for record in trace:
                frame = gen.frame_for(record.flow, size=max(60, record.size))
                yield int(record.timestamp_ns / cycle_ns), frame

        return self.sim.run(arrivals())

    # -- program changes (§6) ----------------------------------------------------

    # Reflashing the FPGA takes the NIC out of service; the paper reports
    # synthesis in hours and notes dynamic partial reconfiguration as
    # future work. The model charges a fixed out-of-service window.
    REFLASH_DOWNTIME_MS = 350.0

    def reflash(self, pipeline: Pipeline, maps: Optional[MapSet] = None) -> float:
        """Load a different pipeline onto the NIC.

        Returns the out-of-service time in milliseconds ("loading it
        requires putting the FPGA NIC out of service, to re-flash it",
        §6). Map state is NOT preserved across a reflash unless the same
        MapSet is passed back in (the pinned-maps deployment).
        """
        self.pipeline = pipeline
        self.maps = maps if maps is not None else MapSet(pipeline.program.maps)
        self.sim = PipelineSimulator(
            pipeline,
            maps=self.maps,
            options=self.sim.options,
        )
        return self.REFLASH_DOWNTIME_MS

    # -- derived end-to-end metrics ------------------------------------------------

    def forwarding_latency_ns(self, report: SimReport) -> float:
        """Pipeline traversal + shell overhead: the Figure 9b metric."""
        return report.latency_ns(SHELL_LATENCY_NS)

    def achieved_mpps(self, report: SimReport, offered_mpps: float) -> float:
        """Forwarded rate capped by what was offered (the generator-side
        measurement of §5)."""
        return min(report.throughput_mpps, offered_mpps)
