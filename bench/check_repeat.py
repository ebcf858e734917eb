#!/usr/bin/env python3
"""Run the whole benchmark twice, back to back, and compare the sets.

    python3 bench/check_repeat.py [--seed N] [--seconds S]

Fails (exit 1) if any modelled-hardware value (``sim_*``/``hw_*``) or
the failed count differs at all between the two sets, or if a host-time
end-to-end metric differs by more than its bound in BENCHMARK.json.
Prints both sets side by side.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import harness


def one_set(args) -> dict:
    command = [sys.executable, str(harness.BENCH_DIR / "run.py"),
               "--seed", str(args.seed)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
    results = json.loads((harness.OUT_DIR / "results.json").read_text())
    return results["workloads"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = harness.load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    first, second = one_set(args), one_set(args)
    bad = 0
    print(f"{'workload':<20} {'metric':<24} {'first':>14} {'second':>14} "
          f"{'diff':>8}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        rows = [("failed", first[workload]["failed"],
                 second[workload]["failed"], 0.0)]
        rows += [
            (name, first[workload]["metrics"][name]["value"],
             second[workload]["metrics"][name]["value"],
             0.0 if name.startswith(("sim_", "hw_")) else bound)
            for name, bound in bounds.items()
        ]
        for name, a, b, allowed in rows:
            diff = abs(a - b) / abs(a) if a else float(a != b)
            ok = diff <= allowed
            bad += not ok
            print(f"{workload:<20} {name:<24} {a:>14.4f} {b:>14.4f} "
                  f"{diff:>7.2%}  "
                  + ("ok" if ok else
                     f"DIFFERS (allowed {allowed:.0%})"))
    print(f"\n{bad} metric(s) outside their bounds" if bad
          else "\nboth sets agree within the benchmark's bounds")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
