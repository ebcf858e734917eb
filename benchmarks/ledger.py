"""The ledger of modelled figures: ``PYTHONPATH=src python
benchmarks/ledger.py`` writes LEDGER.json and EXPERIMENTS.md's ``ledger``
blocks. A row is an app under a layout, or ct_firewall at 1, 4 or 64
conntrack banks (it ships 16), at line rate on the app's workload (else
``udp-zipf:flows=100000``), 10 000 packets, seed 1, integer counters
only. tests/test_ledger.py recomputes every row."""

import dataclasses
import functools
import json
import re
from pathlib import Path

from repro import apps
from repro.baselines import compile_for_hxdp
from repro.core import CompileOptions, compile_program
from repro.core.resources import estimate_resources
from repro.ebpf.maps import MapSet
from repro.hwsim import PipelineSimulator, SimOptions
from repro.workloads import make_workload, parse_workload_spec

LEDGER = Path(__file__).with_name("LEDGER.json")
EXPERIMENTS = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
PACKETS = 10_000
CLOCK_NS = 4.0  # 250 MHz
APPS = sorted(name for name in apps.__all__ if name.islower())
LAYOUTS = {"paper": CompileOptions(path_parallel=False),
           "path-parallel": CompileOptions()}
BANKS = (1, 4, 64)


@functools.lru_cache(maxsize=1)  # rows() measures an app's layouts in a row
def trace(name):
    spec = parse_workload_spec(
        apps.APP_WORKLOADS.get(name, "udp-zipf:flows=100000"))
    return make_workload(
        dataclasses.replace(spec, packets=PACKETS, seed=1)).materialize()


def _window(name, plan):
    (lo, hi), key = plan.serial_window, plan.bank_key
    lane = "one lane" if key is None else "keyed" if key.keyed else "banked"
    return {"map": name, "lo": lo, "hi": hi, "W": hi - lo + 1,
            "lane": lane, "banks": key.banks if key else 1}


def measure(name, layout, banks=None):
    program = getattr(apps, name).build()
    if banks is not None:  # of the app's one map
        (fd, spec), = program.maps.items()
        program.maps[fd] = dataclasses.replace(spec, banks=banks)
    pipeline = compile_program(program, LAYOUTS[layout])
    maps = MapSet(program.maps)
    getattr(getattr(apps, name), "default_setup", lambda maps: None)(maps)
    report = PipelineSimulator(pipeline, maps=maps, options=SimOptions(
        keep_records=False, input_queue_capacity=PACKETS,
    )).run_packets(trace(name))
    resources = estimate_resources(pipeline, include_shell=False)
    plans = sorted(pipeline.map_hazards.items())
    return {
        "stages": pipeline.n_stages,
        "windows": [_window(program.maps[fd].name, plan)
                    for fd, plan in plans if plan.serial_window],
        "maps": {program.maps[fd].name: plan.consistency.kind
                 for fd, plan in plans},
        **{counter: getattr(report, counter) for counter in (
            "cycles", "packets_out", "sum_total_cycles", "flush_events",
            "squashed_packets", "stall_cycles")},
        "luts": resources.luts, "ffs": resources.ffs,
        "bram36": resources.bram36,
        "evictions": sum(getattr(maps[fd], "evictions", 0) for fd in maps),
        "hxdp_mpps": compile_for_hxdp(program).throughput_mpps,
    }


def rows():
    return {**{f"{name}/{layout}": measure(name, layout)
               for name in APPS for layout in LAYOUTS},
            **{f"ct_firewall/path-parallel/banks={banks}": measure(
                "ct_firewall", "path-parallel", banks) for banks in BANKS}}


def bank_sweep(ledger):
    """``banks -> row`` of ct_firewall on the path-parallel layout."""
    return {banks: ledger["ct_firewall/path-parallel" + (
        f"/banks={banks}" if banks in BANKS else "")]
        for banks in sorted({*BANKS, apps.ct_firewall.CONNTRACK_MAP.banks})}


def cycles(row):
    return row["cycles"] / row["packets_out"]


def latency_ns(row):
    return row["sum_total_cycles"] / row["packets_out"] * CLOCK_NS


def window(row, lane=False):
    return " ".join(f"[{w['lo']}, {w['hi']}] W={w['W']}"
                    + (" (keyed)" if lane and w["lane"] == "keyed" else "")
                    for w in row["windows"]) or "–"


def table(headers, body):
    return "\n".join([f"| {headers} |", "|---" * (headers.count("|") + 1)
                      + "|"] + [f"| {' | '.join(map(str, r))} |"
                                for r in body])


def path_parallel(ledger):
    def cells(row):  # whole nanoseconds print whole
        ns, mpps = latency_ns(row), 1e3 / CLOCK_NS / cycles(row)
        return [row["stages"], window(row, lane=True), f"{cycles(row):.4f}",
                f"{ns:.0f}" if ns.is_integer() else f"{ns:.1f}", row["luts"],
                f"{mpps:.1f}", f"{mpps / row['hxdp_mpps']:.1f}"]

    def both(name):
        pairs = zip(*(cells(ledger[f"{name}/{lay}"]) for lay in LAYOUTS))
        return [name] + [a if a == b == "–" else f"{a} → {b}" for a, b in pairs]
    return table("app | stages | window | cycles/pkt | latency ns | LUTs | "
                 "Mpps | ×hXDP", [both(name) for name in APPS])


def keyed(ledger):
    paper, shared = (ledger[f"leaky_bucket/{layout}"] for layout in LAYOUTS)
    return table(
        "layout, RAW handling | stages | flushes | squashed | cycles/pkt | "
        "latency ns",
        [[label, r["stages"], r["flush_events"], r["squashed_packets"],
          f"{cycles(r):.4f}", f"{latency_ns(r):.1f}"]
         for label, r in (("§3.3, flush", paper), (
             f"path-parallel, keyed window {window(shared)}", shared))])


def banks(ledger):
    return table(
        "banks | entries/bank | LRU window | cycles/pkt | latency ns | Mpps | "
        "evictions | BRAM36 | LUTs",
        [[banks, apps.ct_firewall.CONNTRACK_MAP.max_entries // banks, window(r),
          f"{cycles(r):.4f}", f"{latency_ns(r):.1f}",
          f"{1e3 / CLOCK_NS / cycles(r):.1f}", r["evictions"], r["bram36"],
          r["luts"]] for banks, r in bank_sweep(ledger).items()])


TABLES = {"path-parallel": path_parallel, "keyed": keyed, "banks": banks}


def experiments(ledger, text):
    """``text`` with each ``<!-- ledger:NAME -->`` block re-rendered."""
    text, blocks = re.subn(
        r"(<!-- ledger:(\S+) -->\n).*?(\n<!-- /ledger -->)",
        lambda m: m[1] + TABLES[m[2]](ledger) + m[3], text, flags=re.S)
    assert blocks == len(TABLES), f"{blocks} ledger blocks"
    return text


if __name__ == "__main__":
    ledger = rows()
    LEDGER.write_text(json.dumps(ledger, indent=1, ensure_ascii=False) + "\n")
    EXPERIMENTS.write_text(experiments(ledger, EXPERIMENTS.read_text()))
