"""Shared fixtures for the paper-reproduction benchmarks.

Each ``test_*`` module regenerates one table or figure of the paper
(see DESIGN.md's experiment index). Compiled pipelines and traffic are
cached per session; benchmark timings cover the interesting computation
(simulation or compilation), and every module *prints* the rows it
reproduces so `pytest benchmarks/ --benchmark-only -s` doubles as the
results generator for EXPERIMENTS.md.
"""

import pytest

from repro.apps import EVALUATION_APPS, dnat, firewall, router, suricata, tunnel
from repro.core import CompileOptions, compile_program
from repro.ebpf.maps import MapSet
from repro.net.packet import FiveTuple, ipv4, mac, udp_packet
from repro.net.flows import TrafficGenerator, TrafficSpec

LINE_RATE_MPPS = 148.8

# The paper's tables are the paper's: §3.3's one-block-per-stage layout.
# Only the path-parallel comparison (test_path_parallel.py) compiles the
# default layout beside it.
PAPER_OPTIONS = CompileOptions(path_parallel=False)


@pytest.fixture(scope="session")
def pipelines():
    """Compiled eHDL pipelines for the five evaluation applications."""
    return {name: compile_program(mod.build(), PAPER_OPTIONS)
            for name, mod in EVALUATION_APPS.items()}


def setup_app_maps(name: str, maps: MapSet, flows):
    """Install the host-side state each application needs so that the
    generated traffic takes the interesting (stateful) path."""
    if name == "firewall":
        for flow in flows:
            firewall.allow_flow(maps, flow)
    elif name == "router":
        seen = set()
        for flow in flows:
            prefix = flow.dst_ip >> 8
            if prefix not in seen:
                seen.add(prefix)
                router.add_route(
                    maps, flow.dst_ip, mac("02:0a:0b:0c:0d:0e"),
                    mac("02:01:02:03:04:05"), 3,
                )
    elif name == "tunnel":
        seen = set()
        for flow in flows:
            if flow.dst_ip not in seen:
                seen.add(flow.dst_ip)
                tunnel.add_tunnel(
                    maps, flow.dst_ip, ipv4("100.0.0.1"), ipv4("100.0.0.2"),
                    mac("02:11:22:33:44:55"), mac("02:66:77:88:99:aa"),
                )
    elif name == "suricata":
        for flow in flows[::7]:  # bypass a subset of flows
            suricata.add_bypass(maps, flow)
    # dnat needs no pre-installed state: it builds bindings in the data plane


@pytest.fixture(scope="session")
def traffic():
    """The §5.1 workload: many concurrent flows of 64 B packets."""
    gen = TrafficGenerator(TrafficSpec(n_flows=2000, packet_size=64, seed=42))
    frames = list(gen.packets(4000))
    return gen, frames


def print_table(title: str, headers, rows) -> None:
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
              for i, h in enumerate(headers)]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
