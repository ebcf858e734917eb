"""Data-plane feeders for the serving daemon.

A :class:`Feeder` is a *restartable*, fully deterministic frame source:
calling :meth:`Feeder.frames` twice yields bit-identical sequences. That
property is load-bearing — the offline segmented replay
(:mod:`repro.serve.replay`) re-runs the exact same traffic to prove the
online daemon's results, so any hidden state in the source would show up
as false divergence.

Three source kinds, selected by :func:`parse_feed_spec`:

``gen:`` — :class:`repro.net.flows.TrafficGenerator` (materialises the
flow population; right for populations up to ~100k flows).

``synth:`` — arithmetic synthesis for *million-flow* populations: the
``udp-zipf`` workload under its historical name (same frames, byte for
byte). Frames are patched from one template over the
:func:`repro.net.flows.flow_at` enumeration with inverse-CDF Zipf
sampling, so no per-flow object is ever materialised; what the process
keeps is bounded by constants in :mod:`repro.workloads` (≤ 4 interned
Zipf tables × 8 B/flow, ≤ 64Ki remembered frames per packet size).

``pcap:<path>`` (or a bare ``*.pcap`` path) — replay a capture file via
:func:`repro.net.pcap.read_pcap`.

``workload:<kind>,...`` — any registered :mod:`repro.workloads`
generator (``workload:tcp-handshake,packets=50000,flows=1000000``),
giving the daemon the same stateful traffic vocabulary as run/bench.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterator, List, Optional

from ..net.flows import TrafficGenerator, TrafficSpec
from ..workloads import (
    WorkloadSpec,
    make_workload,
    parse_workload_spec,
    workload_names,
)
from ..workloads.spec import check_traffic


@dataclass(frozen=True)
class FeedSpec:
    """Parsed description of a traffic feed (see :func:`parse_feed_spec`)."""

    source: str = "gen"            # "gen" | "synth" | "pcap" | "workload"
    path: Optional[str] = None     # pcap only
    packets: int = 10_000          # 0 with pcap = the whole capture
    flows: int = 1_000
    distribution: str = "uniform"  # "uniform" | "zipf"
    zipf_exponent: float = 1.0
    packet_size: int = 64
    seed: int = 1
    workload: Optional[str] = None  # workload kind (+ extra params)

    def describe(self) -> str:
        if self.source == "pcap":
            return f"pcap:{self.path}" + (
                f",packets={self.packets}" if self.packets else ""
            )
        if self.source == "workload":
            return "workload:" + self._workload_spec().describe()
        return (
            f"{self.source}:packets={self.packets},flows={self.flows},"
            f"dist={self.distribution},size={self.packet_size},"
            f"seed={self.seed}"
            + (
                f",exponent={self.zipf_exponent}"
                if self.distribution == "zipf"
                else ""
            )
        )

    def _workload_spec(self) -> WorkloadSpec:
        """The :class:`WorkloadSpec` behind a ``synth:`` or
        ``workload:`` feed."""
        if self.source == "synth":
            return WorkloadSpec(
                kind="udp-zipf", packets=self.packets, flows=self.flows,
                distribution=self.distribution,
                zipf_exponent=self.zipf_exponent,
                packet_size=self.packet_size, seed=self.seed)
        if self.workload is None:
            raise ValueError("not a workload feed")
        kind, sep, params = self.workload.partition(",")
        return parse_workload_spec(kind + (":" + params if sep else ""))


_INT_FIELDS = {"packets", "flows", "size", "seed"}
_ALIASES = {"dist": "distribution", "size": "packet_size",
            "exponent": "zipf_exponent"}


def parse_feed_spec(text: str) -> FeedSpec:
    """Parse a ``--feed`` argument.

    Examples::

        gen:packets=20000,flows=1000,dist=zipf,seed=5
        synth:packets=1000000,flows=1000000,dist=zipf,exponent=1.0
        pcap:/tmp/capture.pcap
        /tmp/capture.pcap
    """
    text = text.strip()
    if text.startswith("pcap:"):
        return FeedSpec(source="pcap", path=text[len("pcap:"):], packets=0)
    if text.endswith(".pcap"):
        return FeedSpec(source="pcap", path=text, packets=0)
    if text.startswith("workload:"):
        body = text[len("workload:"):]
        kind = body.partition(",")[0]
        if kind not in workload_names():
            raise ValueError(
                f"unknown workload kind {kind!r} "
                f"(expected one of: {', '.join(workload_names())})"
            )
        spec = FeedSpec(source="workload", workload=body)
        # validate eagerly: the shared options, then the kind's own
        wspec = spec._workload_spec()
        make_workload(wspec)
        return replace(
            spec,
            packets=wspec.packets,
            flows=wspec.flows,
            distribution=wspec.distribution,
            zipf_exponent=wspec.zipf_exponent,
            packet_size=wspec.packet_size,
            seed=wspec.seed,
        )
    head, _, rest = text.partition(":")
    if head not in ("gen", "synth"):
        raise ValueError(
            f"unknown feed source {head!r} (expected gen:, synth:, "
            f"workload:<kind>, pcap:<path> or a *.pcap path)"
        )
    spec = FeedSpec(source=head)
    if not rest:
        return spec
    for item in rest.split(","):
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"feed option {item!r} is not key=value")
        field = _ALIASES.get(key, key)
        if field not in FeedSpec.__dataclass_fields__ or field in (
            "source", "path"
        ):
            raise ValueError(f"unknown feed option {key!r}")
        if key in _INT_FIELDS:
            spec = replace(spec, **{field: int(value, 0)})
        elif field == "zipf_exponent":
            spec = replace(spec, **{field: float(value)})
        else:
            spec = replace(spec, **{field: value})
    check_traffic(spec)
    return spec


class Feeder:
    """Deterministic, restartable frame source for a :class:`FeedSpec`."""

    def __init__(self, spec: FeedSpec) -> None:
        self.spec = spec

    def frames(self) -> Iterator[bytes]:
        """A fresh pass over the feed, identical on every call."""
        spec = self.spec
        if spec.source == "pcap":
            from ..net.pcap import read_pcap

            if spec.path is None:
                raise ValueError("pcap feed needs a path")
            packets = (data for _ts, data in read_pcap(spec.path))
            if spec.packets:
                packets = islice(packets, spec.packets)
            return packets
        if spec.source in ("synth", "workload"):
            return make_workload(spec._workload_spec()).frames()
        if spec.source == "gen":
            gen = TrafficGenerator(TrafficSpec(
                n_flows=spec.flows,
                distribution=spec.distribution,
                zipf_exponent=spec.zipf_exponent,
                packet_size=spec.packet_size,
                seed=spec.seed,
            ))
            return gen.packets(spec.packets)
        raise ValueError(f"unknown feed source {spec.source!r}")

    def batches(self, batch_size: int) -> Iterator[List[bytes]]:
        """The feed cut into ``batch_size``-frame lists (the last one
        shorter). The frames are the source's own ``bytes`` objects — a
        recurring flow's frame is one shared object — handed on as they
        are, a zero-length pcap record included."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        source = self.frames()
        while True:
            chunk = list(islice(source, batch_size))
            if not chunk:
                return
            yield chunk
