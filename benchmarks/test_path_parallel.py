"""Path-parallel layout (beyond the paper): all 13 apps under both layouts.

§3.3 gives every basic block rows of its own and lays the blocks end to
end, so pipeline depth is the sum over blocks. The default layout lets
mutually exclusive blocks share stages, each op gated by its own block's
enable bit (``CompileOptions.path_parallel``; core/scheduler.py), so
depth follows the longest path. Per app and layout: stages, the LRU
serialization window ``[lo, hi]`` and its width W, cycles/packet and
mean latency at line rate on the app's workload, pipeline LUTs, and the
throughput at 250 MHz against the hXDP model's (Figure 9a's frame, for
all 13 apps).

Expected: no app gets deeper, slower or larger, and ct_firewall's
window — the one bad hardware number (ROADMAP F) — narrows from W = 21
to W = 4. leaky_bucket gains a window where it had none: its bucket
map's RAW hazard becomes a keyed window, a stall behind a packet of the
same flow in place of §4.1.3's flush, so it stops flushing.
Only a packet whose path can still reach a map inside a window waits
for it, so syn_cookie's SYN flood runs at line rate under both layouts.

Banked conntrack (beyond the paper): ct_firewall's window serialises per
bank of its LRU map on the path-parallel layout, so the banks sweep
records cycles/packet, LRU evictions and the map's BRAM36 for B = 1, 4,
16 and 64 banks on the same trace. Expected: cycles/packet falls with B
towards the floor the trace's same-bank runs set, and BRAM36 rises as
each bank rounds up to whole blocks.
"""

import dataclasses

import pytest

from conftest import PAPER_OPTIONS, print_table
from repro import apps
from repro.apps import ct_firewall
from repro.baselines import compile_for_hxdp
from repro.core import CompileOptions, compile_program
from repro.core.resources import estimate_resources
from repro.ebpf.maps import MapSet
from repro.hwsim import PipelineSimulator, SimOptions
from repro.workloads import make_workload, parse_workload_spec

PACKETS = 10_000
CLOCK_NS = 4.0  # 250 MHz
# Apps without a registered workload: the Zipfian UDP mix of the
# flush workload in bench/.
DEFAULT_WORKLOAD = "udp-zipf:flows=100000"
APPS = sorted(name for name in apps.__all__ if name.islower())
LAYOUTS = {"paper": PAPER_OPTIONS, "path-parallel": CompileOptions()}


def _frames(name):
    spec = parse_workload_spec(apps.APP_WORKLOADS.get(name, DEFAULT_WORKLOAD))
    return make_workload(
        dataclasses.replace(spec, packets=PACKETS, seed=1)).materialize()


def _measure(name, options, frames, program=None):
    module = getattr(apps, name)
    program = program or module.build()
    pipeline = compile_program(program, options)
    maps = MapSet(program.maps)
    setup = getattr(module, "default_setup", None)
    if setup is not None:
        setup(maps)
    report = PipelineSimulator(pipeline, maps=maps, options=SimOptions(
        keep_records=False, input_queue_capacity=PACKETS,
    )).run_packets(frames)
    windows = pipeline.serial_windows
    cycles = report.cycles / report.packets_out
    resources = estimate_resources(pipeline, include_shell=False)
    return {
        "stages": pipeline.n_stages,
        "window": " ".join(f"[{lo}, {hi}] W={hi - lo + 1}"
                           for lo, hi in windows) or "-",
        "W": max((hi - lo + 1 for lo, hi in windows), default=0),
        "cycles": cycles,
        "latency_ns": report.sum_total_cycles / report.packets_out * CLOCK_NS,
        "luts": resources.luts,
        "bram36": resources.bram36,
        "mpps": 1e3 / CLOCK_NS / cycles,
        "evictions": sum(getattr(maps[fd], "evictions", 0) for fd in maps),
        "flushes": report.flush_events,
    }


@pytest.fixture(scope="module")
def layouts():
    rows = {}
    for name in APPS:
        frames = _frames(name)
        rows[name] = {layout: _measure(name, options, frames)
                      for layout, options in LAYOUTS.items()}
        rows[name]["hxdp_mpps"] = compile_for_hxdp(
            getattr(apps, name).build()).throughput_mpps

    def pair(row, key, fmt="{}"):
        return (fmt.format(row["paper"][key]) + " -> "
                + fmt.format(row["path-parallel"][key]))

    print_table(
        "Path-parallel layout (beyond the paper): paper -> path-parallel",
        ["app", "stages", "window", "cycles/pkt", "latency ns", "LUTs",
         "Mpps", "x hXDP"],
        [[name, pair(r, "stages"), pair(r, "window"),
          pair(r, "cycles", "{:.4f}"), pair(r, "latency_ns", "{:.1f}"),
          pair(r, "luts"), pair(r, "mpps", "{:.1f}"),
          f"{r['paper']['mpps'] / r['hxdp_mpps']:.1f} -> "
          f"{r['path-parallel']['mpps'] / r['hxdp_mpps']:.1f}"]
         for name, r in rows.items()],
    )
    return rows


class TestPathParallel:
    def test_no_app_gets_worse(self, layouts):
        for name, row in layouts.items():
            paper, shared = row["paper"], row["path-parallel"]
            for key in ("stages", "cycles", "latency_ns", "luts", "flushes"):
                assert shared[key] <= paper[key], (name, key)
            # a window narrows; a keyed one replaces flushes instead
            assert shared["W"] <= paper["W"] or paper["flushes"], name
            assert shared["mpps"] >= paper["mpps"], name

    def test_leaky_bucket_stalls_instead_of_flushing(self, layouts):
        paper, shared = (layouts["leaky_bucket"][layout]
                         for layout in LAYOUTS)
        assert (paper["window"], paper["flushes"]) == ("-", 726)
        assert round(paper["cycles"], 4) == 2.3265
        assert (shared["window"], shared["flushes"]) == ("[8, 18] W=11", 0)
        assert round(shared["cycles"], 4) == 1.5213

    def test_branchy_apps_get_shallower(self, layouts):
        shallower = [name for name, row in layouts.items()
                     if row["path-parallel"]["stages"]
                     < row["paper"]["stages"]]
        assert shallower == APPS

    def test_ct_firewall_window_narrows(self, layouts):
        row = layouts["ct_firewall"]
        assert row["paper"]["W"] == 21
        assert row["path-parallel"]["W"] <= 4
        assert row["path-parallel"]["cycles"] <= 4.1
        # every flow-churn packet takes a conntrack arm, so holds the
        # window: path gating leaves it where the layout put it
        # (speculation and the shared atomic port put it at W=4)
        # (conntrack's banks then let holders of different banks share
        # it, on the path-parallel layout only: the paper layout's window
        # holds the stores that build the key)
        assert [round(row[layout]["cycles"], 4) for layout in LAYOUTS] \
            == [21.0017, 1.3767]

    def test_syn_flood_passes_through_the_window(self, layouts):
        # a SYN touches no map inside syn_cookie's window, so no SYN
        # waits for it, on either layout
        row = layouts["syn_cookie"]
        for layout in LAYOUTS:
            assert row[layout]["W"] >= 17
            assert row[layout]["cycles"] <= 1.05, layout


BANKS = (1, 4, 16, 64)


@pytest.fixture(scope="module")
def bank_sweep():
    """ct_firewall on its trace with conntrack split into B banks."""
    frames = _frames("ct_firewall")
    rows = {}
    for banks in BANKS:
        program = ct_firewall.build()
        (fd, spec), = program.maps.items()
        program.maps[fd] = dataclasses.replace(spec, banks=banks)
        rows[banks] = _measure("ct_firewall", CompileOptions(), frames,
                               program)
    print_table(
        "Banked conntrack (beyond the paper): ct_firewall, path-parallel",
        ["banks", "entries/bank", "window", "cycles/pkt", "latency ns",
         "Mpps", "evictions", "BRAM36", "LUTs"],
        [[banks, ct_firewall.CONNTRACK_MAP.max_entries // banks, r["window"],
          f"{r['cycles']:.4f}", f"{r['latency_ns']:.1f}", f"{r['mpps']:.1f}",
          r["evictions"], r["bram36"], r["luts"]]
         for banks, r in rows.items()],
    )
    return rows


class TestBanks:
    def test_more_banks_serialise_less(self, bank_sweep):
        cycles = [round(bank_sweep[banks]["cycles"], 4) for banks in BANKS]
        # one bank is the window of the map-wide LRU order: every
        # flow-churn packet pays W = 4
        assert cycles == [4.0015, 2.1144, 1.3767, 1.1389]
        assert cycles == sorted(cycles, reverse=True)
        # the schedule does not move; the bank compare is not costed
        assert len({(r["stages"], r["W"], r["luts"])
                    for r in bank_sweep.values()}) == 1

    def test_each_bank_rounds_up_to_whole_brams(self, bank_sweep):
        # conntrack's 25 BRAM36 at one bank; the pipeline's other
        # buffers add 4
        assert [bank_sweep[banks]["bram36"] for banks in BANKS] \
            == [29, 32, 36, 68]
        # the trace's new flows overflow the table at any bank count;
        # uneven banks move the evictions by a few
        assert [bank_sweep[banks]["evictions"] for banks in BANKS] \
            == [1534, 1532, 1536, 1538]
