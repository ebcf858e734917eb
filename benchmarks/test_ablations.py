"""Ablation benches for eHDL's design choices (beyond the paper's §5.4).

The paper motivates several mechanisms qualitatively; these benches
quantify each one on our implementation:

* **ILP scheduling + fusion** (§3.2/3.3) — pipeline depth (= latency and
  register cost) with and without them;
* **packet framing width** (§4.2) — 32/64/128-byte frames vs stage count
  and per-stage state;
* **bounds-check elision** (§4.4) — scheduled instruction savings;
* **atomic blocks vs flush** (§4.1.2) — measured line-rate throughput of
  the router's global counter implemented both ways.
"""

from dataclasses import replace

import pytest

from conftest import PAPER_OPTIONS, print_table
from repro.apps import EVALUATION_APPS, router, tunnel
from repro.core import compile_program
from repro.core.resources import estimate_resources
from repro.ebpf.maps import MapSet
from repro.hwsim import NicSystem
from repro.net.packet import ipv4, mac, udp_packet


@pytest.fixture(scope="module")
def ilp_ablation():
    rows = []
    for name, mod in EVALUATION_APPS.items():
        prog = mod.build()
        full = compile_program(prog, PAPER_OPTIONS)
        no_fusion = compile_program(
            prog, replace(PAPER_OPTIONS, enable_fusion=False))
        serial = compile_program(prog, replace(
            PAPER_OPTIONS, enable_ilp=False, enable_fusion=False))
        rows.append([name, full.n_stages, no_fusion.n_stages, serial.n_stages])
    print_table(
        "Ablation: pipeline depth vs scheduling features",
        ["app", "ILP+fusion", "ILP only", "serial"],
        rows,
    )
    return rows


@pytest.fixture(scope="module")
def framing_ablation():
    rows = []
    prog = tunnel.build()
    for frame in (32, 64, 128):
        pipe = compile_program(prog, replace(PAPER_OPTIONS, frame_size=frame))
        est = estimate_resources(pipe, include_shell=False)
        rows.append([frame, pipe.n_stages, pipe.max_state_bytes, est.ffs])
    print_table(
        "Ablation: frame size (tunnel)",
        ["frame B", "stages", "max state B", "FFs"],
        rows,
    )
    return rows


@pytest.fixture(scope="module")
def atomic_ablation():
    rows = []
    for use_atomic in (True, False):
        prog = router.build(use_atomic=use_atomic)
        pipe = compile_program(prog, PAPER_OPTIONS)
        maps = MapSet(prog.maps)
        router.add_route(maps, ipv4("192.168.1.1"), mac("02:00:00:00:01:01"),
                         mac("02:00:00:00:01:02"), 3)
        nic = NicSystem(pipe, maps=maps, keep_records=False)
        frames = [udp_packet(dst_ip="192.168.1.9", size=64)] * 2500
        report = nic.run_at_line_rate(frames)
        rows.append([
            "atomic block" if use_atomic else "lookup+store",
            f"{report.throughput_mpps:.1f}",
            report.flush_events,
        ])
    print_table(
        "Ablation: router global counter, atomic vs RMW (same flow key)",
        ["variant", "Mpps", "flushes"],
        rows,
    )
    return rows


def _check(ilp_rows, framing_rows, atomic_rows):
    for name, full, no_fusion, serial in ilp_rows:
        assert full <= no_fusion <= serial, name
        assert serial > 1.2 * full, name  # parallelism buys real depth
    frames = [r[0] for r in framing_rows]
    states = [r[2] for r in framing_rows]
    assert states == sorted(states)  # bigger frames carry more state
    by_variant = {r[0]: r for r in atomic_rows}
    atomic_mpps = float(by_variant["atomic block"][1])
    rmw_mpps = float(by_variant["lookup+store"][1])
    assert atomic_mpps > 1.5 * rmw_mpps  # §4.1.2's motivation, measured
    assert by_variant["atomic block"][2] == 0
    assert by_variant["lookup+store"][2] > 0


class TestAblations:
    def test_shapes(self, ilp_ablation, framing_ablation, atomic_ablation):
        _check(ilp_ablation, framing_ablation, atomic_ablation)

    def test_elision_saves_instructions(self):
        for name, mod in EVALUATION_APPS.items():
            prog = mod.build()
            with_elision = compile_program(prog, PAPER_OPTIONS)
            without = compile_program(
                prog, replace(PAPER_OPTIONS, elide_bounds_checks=False)
            )
            assert with_elision.n_instructions < without.n_instructions, name

    def test_bench_ablation_compiles(self, benchmark, ilp_ablation,
                                     framing_ablation, atomic_ablation):
        _check(ilp_ablation, framing_ablation, atomic_ablation)
        prog = tunnel.build()
        benchmark(
            lambda: compile_program(prog, replace(
                PAPER_OPTIONS, enable_ilp=False, enable_fusion=False,
            )).n_stages
        )
