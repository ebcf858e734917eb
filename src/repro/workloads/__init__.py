"""Seeded, stateful, million-flow workload generators.

The :class:`WorkloadSpec` API is the one traffic vocabulary shared by
``repro run`` / ``repro bench`` (``--workload``), the serving daemon's
feeder (``--feed workload:<kind>,...``) and the differential tests:
parse a spec, :func:`make_workload`, iterate ``frames()`` — twice if
you like, the sequence is bit-identical each pass.

Import order matters: :mod:`.zipf` is dependency-free and must load
before :mod:`.generators` so ``repro.net.flows`` can import the sampler
without a cycle.
"""

from .zipf import UniformSampler, ZipfSampler, make_sampler, zipf_weights
from .spec import WorkloadSpec, parse_workload_spec
from .generators import (
    WORKLOADS,
    FlowChurnWorkload,
    SynFloodWorkload,
    TcpHandshakeWorkload,
    TunnelEncapWorkload,
    Udp6Nat64Workload,
    UdpZipfWorkload,
    Workload,
    ipv4_template,
    make_workload,
    vxlan_header,
    workload_names,
)

__all__ = [
    "FlowChurnWorkload",
    "SynFloodWorkload",
    "TcpHandshakeWorkload",
    "TunnelEncapWorkload",
    "Udp6Nat64Workload",
    "UdpZipfWorkload",
    "UniformSampler",
    "WORKLOADS",
    "Workload",
    "WorkloadSpec",
    "ZipfSampler",
    "ipv4_template",
    "make_sampler",
    "make_workload",
    "parse_workload_spec",
    "vxlan_header",
    "workload_names",
    "zipf_weights",
]
