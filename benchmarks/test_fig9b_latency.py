"""Figure 9b: per-packet forwarding latency (ns) of eHDL vs hXDP.

Paper result: both land near one microsecond for every application —
"the latency of eHDL and hXDP is in fact comparable since they both
leverage instruction-level parallelism in the same way" — with the
variation across applications explained by pipeline depth (Figure 9c).
"""

import pytest

from conftest import print_table, setup_app_maps
from repro.apps import EVALUATION_APPS
from repro.baselines import compile_for_hxdp
from repro.ebpf.maps import MapSet
from repro.hwsim import NicSystem
from repro.hwsim.shell import SHELL_LATENCY_NS


def _latency(name, pipelines, traffic):
    gen, frames = traffic
    pipeline = pipelines[name]
    maps = MapSet(pipeline.program.maps)
    setup_app_maps(name, maps, gen.flows)
    nic = NicSystem(pipeline, maps=maps)
    report = nic.run_at_line_rate(frames[:400])
    return nic.forwarding_latency_ns(report)


@pytest.fixture(scope="module")
def figure9b(pipelines, traffic):
    rows = {}
    for name, mod in EVALUATION_APPS.items():
        ehdl_ns = _latency(name, pipelines, traffic)
        hxdp = compile_for_hxdp(mod.build())
        rows[name] = {
            "ehdl_ns": ehdl_ns,
            "hxdp_ns": hxdp.forwarding_latency_ns(SHELL_LATENCY_NS),
            "stages": pipelines[name].n_stages,
        }
    print_table(
        "Figure 9b: forwarding latency (ns)",
        ["app", "eHDL", "hXDP", "stages"],
        [[name, f"{r['ehdl_ns']:.0f}", f"{r['hxdp_ns']:.0f}", r["stages"]]
         for name, r in rows.items()],
    )
    return rows


def _check(rows):
    for name, row in rows.items():
        # "about 1 microsecond" for every application, both systems
        assert 700 <= row["ehdl_ns"] <= 1600, f"{name}: {row['ehdl_ns']}"
        assert 700 <= row["hxdp_ns"] <= 1600, f"{name}: {row['hxdp_ns']}"
        assert 0.5 <= row["ehdl_ns"] / row["hxdp_ns"] <= 2.0, name
    # deeper pipelines have higher latency
    by_depth = sorted(rows.values(), key=lambda r: r["stages"])
    assert by_depth[0]["ehdl_ns"] <= by_depth[-1]["ehdl_ns"]


class TestFigure9b:
    def test_latency_near_one_microsecond(self, figure9b):
        _check(figure9b)

    def test_bench_latency_measurement(self, benchmark, figure9b,
                                       pipelines, traffic):
        _check(figure9b)
        benchmark(lambda: _latency("firewall", pipelines, traffic))
