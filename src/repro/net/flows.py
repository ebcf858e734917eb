"""Flow-level traffic generation.

The paper's end-to-end tests "vary the number of generated flows from 1 to
over 100k" (§5, Testbed) and the analytical model in Appendix A.1 assumes
either a **uniform** or a **Zipfian** distribution of packets over flows.
This module provides exactly those generators, deterministic under a seed,
producing frames via :mod:`repro.net.packet`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from .packet import FiveTuple, IPPROTO_TCP, IPPROTO_UDP
from .packet import tcp_packet, udp_packet


def flow_at(
    i: int,
    proto: int = IPPROTO_UDP,
    base_src: int = 0x0A000000,  # 10.0.0.0/8
    base_dst: int = 0xC0A80000,  # 192.168.0.0/16
    dport: int = 53,
) -> FiveTuple:
    """The ``i``-th flow of the deterministic enumeration — pure
    arithmetic, so million-flow populations need no materialised list
    (the serving feeder synthesises frames straight from the index)."""
    return FiveTuple(
        src_ip=base_src + 1 + (i % 0xFFFFFE),
        dst_ip=base_dst + 1 + (i % 254),
        proto=proto,
        sport=1024 + (i % 60000),
        dport=dport,
    )


def make_flows(
    count: int,
    proto: int = IPPROTO_UDP,
    base_src: int = 0x0A000000,  # 10.0.0.0/8
    base_dst: int = 0xC0A80000,  # 192.168.0.0/16
    dport: int = 53,
) -> List[FiveTuple]:
    """Deterministically enumerate ``count`` distinct 5-tuples.

    Source addresses and ports are varied so that flows hash into distinct
    map entries; destinations rotate over a /24 so router-style programs
    exercise multiple routes.
    """
    return [
        flow_at(i, proto=proto, base_src=base_src, base_dst=base_dst,
                dport=dport)
        for i in range(count)
    ]


# Canonical Zipf implementation lives in repro.workloads.zipf (shared
# by the feeder, the workload generators and this module); re-exported
# here for the many historical importers.
from ..workloads.zipf import ZipfSampler, zipf_weights  # noqa: E402


@dataclass
class TrafficSpec:
    """Configuration of a synthetic packet stream."""

    n_flows: int = 10_000
    distribution: str = "uniform"  # "uniform" | "zipf"
    zipf_exponent: float = 1.0
    packet_size: int = 64
    proto: int = IPPROTO_UDP
    seed: int = 1


class TrafficGenerator:
    """Deterministic stream of frames drawn from a flow population.

    Mirrors the paper's DPDK generator: fixed-size packets (64 B for the
    line-rate tests), ``n_flows`` concurrent flows, uniform or Zipfian
    flow selection.
    """

    def __init__(self, spec: TrafficSpec) -> None:
        self.spec = spec
        self.flows = make_flows(spec.n_flows, proto=spec.proto)
        self._rng = random.Random(spec.seed)
        if spec.distribution == "uniform":
            self._sampler: Optional[ZipfSampler] = None
        elif spec.distribution == "zipf":
            # Shared inverse-CDF sampler (repro.workloads.zipf): table
            # once, binary search per pick — same draws random.choices
            # would make, at O(log n) per packet, which is what makes
            # million-flow Zipfian streams feasible.
            self._sampler = ZipfSampler(spec.n_flows, spec.zipf_exponent)
        else:
            raise ValueError(f"unknown distribution {spec.distribution!r}")
        self._cache: dict = {}

    def pick_flow(self) -> FiveTuple:
        if self._sampler is None:
            return self.flows[self._rng.randrange(len(self.flows))]
        return self.flows[self._sampler.sample(self._rng)]

    def frame_for(self, flow: FiveTuple, size: Optional[int] = None) -> bytes:
        size = size or self.spec.packet_size
        key = (flow, size)
        frame = self._cache.get(key)
        if frame is None:
            if flow.proto == IPPROTO_TCP:
                frame = tcp_packet(
                    src_ip=flow.src_ip, dst_ip=flow.dst_ip,
                    sport=flow.sport, dport=flow.dport, size=size,
                )
            else:
                frame = udp_packet(
                    src_ip=flow.src_ip, dst_ip=flow.dst_ip,
                    sport=flow.sport, dport=flow.dport, size=size,
                )
            self._cache[key] = frame
        return frame

    def packets(self, count: int) -> Iterator[bytes]:
        """Yield ``count`` frames."""
        for _ in range(count):
            yield self.frame_for(self.pick_flow())

    def flow_sequence(self, count: int) -> List[FiveTuple]:
        """Just the flow choices (used by the analytical flush model)."""
        return [self.pick_flow() for _ in range(count)]
