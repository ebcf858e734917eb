"""Self-checks of the benchmark (not in tier-1 ``testpaths``):

    python -m pytest bench/test_bench.py -q

One short traced and one short untraced run of every workload back the
checks, so this takes a couple of minutes.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
# counters that read 0 on every workload when nothing is wrong
EXPECTED_ZERO = {"hwsim.queue_drops", "hwsim.stall_cycles",
                 "serve.quarantined_frames", "rtl.fallbacks", "failed_share"}


def run(workload, trace, cwd=BENCH.parent, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run(workload, trace)
            assert done.returncode == 0, done.stderr
            out[workload, trace] = json.loads(done.stdout.splitlines()[-1])
    return out


def test_spec_shape():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_printed_names_are_the_declared_names(results):
    declared = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    for (workload, trace), result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        printed = {n: e["unit"] for n, e in result["metrics"].items()}
        assert printed == declared[trace], workload


def test_no_operation_fails_and_end_to_end_is_never_zero(results):
    for (workload, trace), result in results.items():
        assert result["correct"] and result["failed"] == 0, workload
        assert result["attempted"] >= 1
        if trace == 0:
            assert all(e["value"] > 0 for e in result["metrics"].values())


def test_every_per_layer_metric_is_produced_somewhere(results):
    produced = {
        name for (_workload, trace), result in results.items() if trace
        for name, entry in result["metrics"].items() if entry["value"]
    }
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert declared - produced <= EXPECTED_ZERO


def test_layer_shares_sum_to_one(results):
    for workload in WORKLOADS:
        metrics = results[workload, 1]["metrics"]
        shares = sum(entry["value"] for name, entry in metrics.items()
                     if name.endswith("share") and name != "failed_share")
        assert abs(shares - 1.0) <= 0.1, (workload, shares)


def test_modelled_hardware_matches_the_repo_tables(results):
    cycles = {w: results[w, 0]["metrics"]["sim_cycles_per_packet"]["value"]
              for w in WORKLOADS}
    assert cycles["stream_maglev"] == pytest.approx(1.0, abs=0.01)
    assert cycles["window_ct_firewall"] == pytest.approx(21.0, abs=0.05)
    assert cycles["flush_leaky_bucket"] == pytest.approx(2.3, abs=0.3)


def test_span_self_times_are_non_negative(results):
    for workload in WORKLOADS:
        trace = json.loads(
            (BENCH / "out" / f"trace-{workload}.json").read_text())
        assert trace["traceEvents"]
        assert all(e["args"]["self_us"] >= 0 for e in trace["traceEvents"])


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("compile_all", 0, cwd=tmp_path,
               script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()
