#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name with its unit.

    python3 bench/run.py [--seed N] [--seconds S] [--trace]
        every workload, each in a fresh interpreter; prints one table
        and writes bench/out/results.json
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload (the form BENCHMARK.json's ``command`` names); the
        last line of stdout is the result as one JSON object

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` repeats the
workload with bench-side spans around every layer call (and with
repro.telemetry switched on for every other repetition), reports the
per-layer metrics and writes bench/out/trace-<workload>.json. Names
starting ``sim_``/``hw_`` are modelled hardware and repeat exactly for
a given seed; everything else is host time. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys

import harness
from harness import median, now

SETUP_RUNS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child(args, workload, *extra) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, __file__, "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), *extra],
        stdout=subprocess.PIPE, text=True)


def measure_setup(args) -> list:
    """``setup_s``: wall time of a fresh interpreter that imports repro
    and sets the workload up against an empty compile cache — measured
    from outside, several times, because it happens once per process."""
    samples = []
    harness.calibrate()  # the loop's own first pass runs slow
    before = harness.calibrate()
    for _ in range(SETUP_RUNS):
        start = now()
        done = child(args, args.workload, "--setup-only")
        seconds = now() - start
        if done.returncode != 0:
            sys.exit(f"bench: set-up of {args.workload} failed")
        after = harness.calibrate()
        samples.append((seconds, harness.host_speed(before, after)))
        before = after
    return samples


def measure_reps(args, case):
    """The timed closed loop: repetitions until ``--seconds`` have
    passed, a cold compile of the workload's programs after each, and
    the host's speed around both (see ``harness.calibrate``)."""
    reps, rates, compiles = [], [], []

    def iteration():
        before = harness.calibrate()
        rep = case.rep()
        after = harness.calibrate()
        speed = harness.host_speed(before, after)
        compile_ms = getattr(rep, "compile_ms", None)
        if compile_ms is None:
            compile_ms = case.compile_once()
            speed_then = harness.host_speed(after, harness.calibrate())
        else:
            speed_then = speed
        reps.append(rep)
        rates.append((rep.ops / rep.seconds, 1 / speed))
        compiles.append((compile_ms, speed_then))

    harness.repeat_for(args.seconds, iteration)
    return reps, rates, compiles


def summarise(label, unit, samples) -> float:
    """Median of host-time samples, each scaled to the reference host's
    speed; the raw median is printed beside it."""
    scaled = [value * factor for value, factor in samples]
    raw = [value for value, _factor in samples]
    value = median(scaled)
    print(f"{label:<28} {value:>16.4f} {unit:<8} "
          f"(min {min(scaled):.4f}  max {max(scaled):.4f}  "
          f"R={len(scaled)}  as measured {median(raw):.4f})")
    return value


def end_to_end(args, case, setup_samples):
    """The untraced run: the timed loop, scaled to the reference host."""
    reps, rates, compiles = measure_reps(args, case)
    metrics = {
        "host_ops_per_s": summarise("host_ops_per_s", "op/s", rates),
        "compile_ms": summarise("compile_ms", "ms", compiles),
        "setup_s": summarise("setup_s", "s", setup_samples),
        "peak_rss_mb": harness.peak_rss_mb(),
        **case.sim_metrics(),
    }
    return reps, metrics


def per_layer(args, case):
    """The traced run: bench-side spans around every layer call, and
    repro.telemetry switched on for every other repetition."""
    from repro import telemetry

    tracer = harness.Tracer(case.name)
    registry = telemetry.Registry(enabled=True)
    plain, instrumented = [], []

    def iteration():
        with tracer.span(case.name + ".rep"):
            plain.append(case.rep(tracer.span))
        gc.collect()
        with telemetry.scoped(registry), \
                tracer.span(case.name + ".rep.telemetry"):
            instrumented.append(case.rep(tracer.span))
        gc.collect()
        with tracer.span(case.name + ".alone"):
            case.alone(tracer.span)

    harness.repeat_for(args.seconds, iteration)
    off = median([r.seconds for r in plain])
    on = median([r.seconds for r in instrumented])
    metrics = {
        **case.core_layers(),
        **case.model_counters(),
        **case.layers(tracer, plain),
        "telemetry.overhead_pct": (on - off) / off * 100.0,
        "bench.reps": len(plain),
    }
    tracer.write(harness.OUT_DIR / f"trace-{case.name}.json")
    return plain + instrumented, metrics


def run_workload(args, spec) -> int:
    harness.import_repro()
    import cases

    case = next((c for c in cases.CASES if c.name == args.workload), None)
    if case is None:
        sys.exit(f"bench: unknown workload {args.workload!r} (known: "
                 f"{', '.join(c.name for c in cases.CASES)})")
    with harness.scratch_dir() as scratch:
        if args.setup_only:
            case.setup(args.seed, scratch)
            return 0
        print(f"# {case.name} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} " + " ".join(
                  f"{k}={v}" for k, v in harness.fingerprint().items()))
        setup_samples = [] if args.trace else measure_setup(args)
        case.setup(args.seed, scratch)
        problems = case.gate()
        case.rep()  # warm-up, untimed
        if args.trace:
            reps, metrics = per_layer(args, case)
        else:
            reps, metrics = end_to_end(args, case, setup_samples)
    attempted = sum(r.ops for r in reps)
    # the gate speaks for every repetition: they all replay its inputs
    failed = attempted if problems else sum(r.failed for r in reps)
    for problem in problems[:10]:
        print(f"MISMATCH {problem}", file=sys.stderr)
    if args.trace:
        metrics["failed_share"] = failed / attempted
    declared = spec["per_layer" if args.trace else "end_to_end"]
    unknown = set(metrics) - {m["name"] for m in declared}
    assert not unknown, f"metrics not declared in BENCHMARK.json: {unknown}"
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {
            # a layer this workload bypasses reads 0
            m["name"]: {"value": metrics.get(m["name"], 0),
                        "unit": m["unit"]}
            for m in declared
        },
    }
    for name, entry in result["metrics"].items():
        print(f"{name:<28} {entry['value']:>16.4f} {entry['unit']}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args, spec) -> int:
    """Every workload, each in its own interpreter with its own cache."""
    harness.import_repro()
    results = {}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in range(args.trace + 1):
            done = child(args, workload, "--trace", str(trace))
            status = status or done.returncode
            lines = done.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(f"{workload}: no result (exit {done.returncode})")
                continue
            result = json.loads(lines[-1])
            merged = results.setdefault(
                workload, {"attempted": 0, "failed": 0, "metrics": {}})
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["metrics"].update(result["metrics"])
    for workload, result in results.items():
        print(f"\n== {workload}: {result['failed']} failed of "
              f"{result['attempted']} ==")
        for name, entry in result["metrics"].items():
            if entry["value"] or not args.trace:
                print(f"  {name:<32} {entry['value']:>16.4f} {entry['unit']}")
    harness.OUT_DIR.mkdir(exist_ok=True)
    (harness.OUT_DIR / "results.json").write_text(json.dumps({
        "seed": args.seed, "seconds": args.seconds,
        "host": harness.fingerprint(), "workloads": results}, indent=1))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = harness.load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload:
        return run_workload(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
