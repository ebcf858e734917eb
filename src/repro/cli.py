"""Command-line interface: the eHDL toolchain as a tool.

Mirrors the workflow in §5.5 — "eHDL starts from the eBPF bytecode …
and generates the firmware ready to be loaded":

.. code-block:: sh

    python -m repro compile  prog.ebpf -o prog.vhd   # bytecode -> VHDL
    python -m repro stats    prog.ebpf               # pipeline report
    python -m repro disasm   prog.bin                # raw bytecode -> text
    python -m repro simulate prog.ebpf --packets 2000 --flows 100

Input files are either verifier-syntax text (with ``.map`` directives for
the program's maps) or raw binary bytecode (8-byte slots, as the kernel
would receive it).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional

from . import telemetry
from .analysis import analyze_pipeline
from .analysis.flush_model import WINDOWED
from .core import (
    CompileOptions,
    compile_cached,
    compile_program,
    get_default_cache,
    hazard_summary,
)
from .core.resources import estimate_resources
from .core.vhdl import emit_vhdl
from .ebpf.asm import assemble_program
from .ebpf.disasm import disassemble
from .ebpf.isa import ISAError, Program
from .ebpf.maps import MapSet
from .ebpf.verifier import VerifierError
from .hwsim import NicSystem, publish_report
from .hwsim.engines import (
    engine_names,
    get_engine,
    pipeline_engine_names,
    run_differential,
    run_engine,
    run_three_way,
)
from .net.flows import TrafficGenerator, TrafficSpec
from .rtl.sim import RTL_ENGINES

_APP_SCHEME = "app:"


def _app_names() -> list:
    """Every registered app module name (anything with a ``build()``)."""
    from . import apps

    return sorted(
        n for n in apps.__all__
        if hasattr(getattr(apps, n, None), "build")
    )


def _load_app(name: str) -> Program:
    from . import apps

    module = getattr(apps, name, None)
    if module is None or not hasattr(module, "build"):
        known = ", ".join(_app_names())
        raise SystemExit(f"unknown app {name!r} (known apps: {known})")
    return module.build()


def _app_setup(path: str):
    """The ``default_setup(maps)`` hook of an ``app:<name>`` program, if
    the app module defines one (demo host state: backends, VNIs, the
    cookie secret), else ``None``."""
    if not path.startswith(_APP_SCHEME):
        return None
    from . import apps

    module = getattr(apps, path[len(_APP_SCHEME):], None)
    return getattr(module, "default_setup", None)


def _app_maps(path: str, program: Program) -> MapSet:
    """The program's maps, with its app's ``default_setup`` applied."""
    maps = MapSet(program.maps)
    setup = _app_setup(path)
    if setup is not None:
        setup(maps)
    return maps


def load_program(path: str) -> Program:
    """Load a program from verifier-syntax text, raw binary bytecode, or
    a built-in evaluation app via the ``app:<name>`` scheme."""
    if path.startswith(_APP_SCHEME):
        return _load_app(path[len(_APP_SCHEME):])
    try:
        data = pathlib.Path(path).read_bytes()
    except OSError as exc:
        hint = (f" (the built-in app is {_APP_SCHEME}{path})"
                if path in _app_names() else "")
        raise SystemExit(f"{path}: {exc.strerror or exc}{hint}") from None
    name = pathlib.Path(path).stem
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return Program.from_bytes(data, name=name)
    if any(ch in text for ch in ("=", "exit", "goto")):
        return assemble_program(text, name=name)
    return Program.from_bytes(data, name=name)


def _options_from_args(args: argparse.Namespace) -> CompileOptions:
    return CompileOptions(
        frame_size=args.frame_size,
        enable_ilp=not args.no_ilp,
        enable_fusion=not args.no_fusion,
        enable_pruning=not args.no_pruning,
        elide_bounds_checks=not args.keep_bounds_checks,
    )


def _add_compile_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("program", help="program file (.ebpf text or raw bytecode)")
    parser.add_argument("--frame-size", type=int, default=64,
                        help="packet frame size in bytes (default 64)")
    parser.add_argument("--no-ilp", action="store_true",
                        help="disable instruction-level parallelism")
    parser.add_argument("--no-fusion", action="store_true",
                        help="disable instruction fusion")
    parser.add_argument("--no-pruning", action="store_true",
                        help="disable state pruning (the §5.4 ablation)")
    parser.add_argument("--keep-bounds-checks", action="store_true",
                        help="do not elide verifier bounds checks")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent compile cache")


def _add_metrics_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", metavar="FILE",
        help="enable telemetry and write metrics to FILE "
             "(.prom/.txt: Prometheus text; otherwise JSON snapshot)")


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="enable telemetry and write a Chrome trace_event JSON "
             "(load in chrome://tracing or Perfetto); implies an "
             "uncached compile so pass spans are recorded")


def _add_traffic_flags(parser: argparse.ArgumentParser, packets: int = 2000,
                       flows: int = 100) -> None:
    # None: the command's own count (``packets``), or an explicit
    # --workload spec's; a given count truncates a spec as well
    parser.add_argument("--packets", type=int, default=None,
                        help=f"frames to generate (default {packets}, or "
                             "the --workload spec's own count)")
    parser.set_defaults(default_packets=packets)
    parser.add_argument("--flows", type=int, default=flows)
    parser.add_argument("--packet-size", type=int, default=64)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--distribution", choices=["uniform", "zipf"],
                        default="uniform")
    parser.add_argument(
        "--workload", metavar="SPEC",
        help="generate traffic from a repro.workloads spec "
             "(<kind>:k=v,..., e.g. tcp-handshake:packets=20000,"
             "flows=1000000); overrides the flat traffic flags, and "
             "--packets, when given, truncates it. 'auto' uses the "
             "app's registered workload (see `repro apps`)")


def _telemetry_setup(args: argparse.Namespace) -> bool:
    """Enable process-wide telemetry when an export flag asks for it."""
    wanted = bool(getattr(args, "metrics_out", None)
                  or getattr(args, "trace_out", None))
    if wanted:
        telemetry.enable()
    return wanted


def _export_telemetry(args: argparse.Namespace) -> None:
    reg = telemetry.get_registry()
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        fmt = telemetry.write_metrics(metrics_out, reg)
        print(f"wrote {fmt} metrics to {metrics_out}")
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        n_events = telemetry.write_trace(trace_out, reg)
        print(f"wrote {n_events} trace events to {trace_out}")


def _compile(args: argparse.Namespace, program: Program):
    """Compile through the persistent cache unless ``--no-cache``.

    ``--trace-out`` also forces a real compile: a cache hit skips every
    pass, so a traced run would record no spans.
    """
    options = _options_from_args(args)
    if getattr(args, "no_cache", False) or getattr(args, "trace_out", None):
        return compile_program(program, options)
    return compile_cached(program, options)


def cmd_compile(args: argparse.Namespace) -> int:
    collect = _telemetry_setup(args)
    program = load_program(args.program)
    pipeline = _compile(args, program)
    vhdl = emit_vhdl(pipeline)
    if args.output:
        target = pathlib.Path(args.output)
        if target.is_dir() or args.output.endswith(("/", "\\")):
            target.mkdir(parents=True, exist_ok=True)
            target = target / f"{program.name}.vhd"
        target.write_text(vhdl)
        print(f"wrote {len(vhdl.splitlines())} lines of VHDL to {target}")
    else:
        print(vhdl)
    if collect:
        _export_telemetry(args)
    return 0


def cmd_rtl_sim(args: argparse.Namespace) -> int:
    """Simulate the emitted VHDL itself (parse -> elaborate -> run)."""
    from .rtl import RtlRunner

    program = load_program(args.program)
    pipeline = _compile(args, program)
    engine = getattr(args, "engine", None) or "rtl"
    runner = RtlRunner(pipeline, maps=_app_maps(args.program, program),
                       engine=engine)
    frames = _gen_frames(args)
    report = runner.run_packets(frames)
    print(report.summary())
    cycles = sorted({rec.pipeline_cycles for rec in report.records})
    note = "" if runner.engine == engine else " (codegen fallback)"
    print(f"rtl[{runner.engine}{note}]: {runner.n_stages}-stage pipeline, "
          f"{runner.window_bytes}-byte window, "
          f"per-packet cycles {cycles}")
    nodes, procs, ports = runner.sim.evaluations()
    n = max(len(frames), 1)
    counted = (f", {ports / n:.1f} port requests" if ports is not None
               else " (every node each settle, every process each edge)")
    print(f"rtl[{runner.engine}] schedule: {nodes / n:.1f} node "
          f"evaluations, {procs / n:.1f} process evaluations{counted} "
          "per packet")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Three-way differential: VM vs pipeline simulator vs emitted RTL.

    Exits nonzero on any divergence in per-packet action, output bytes,
    or final map state.
    """
    collect = _telemetry_setup(args)
    program = load_program(args.program)
    pipeline = _compile(args, program)
    frames = _gen_frames(args)
    engine = getattr(args, "engine", None)
    rtl_engine = getattr(args, "rtl_engine", None) or "rtl"
    result = run_three_way(program, frames, pipeline=pipeline,
                           engine=engine, rtl_engine=rtl_engine,
                           setup=_app_setup(args.program))
    if collect:
        reg = telemetry.get_registry()
        if result.hw_report is not None:
            publish_report(result.hw_report, reg, app=program.name,
                           engine="hwsim")
        if result.rtl_report is not None:
            publish_report(result.rtl_report, reg, app=program.name,
                           engine="rtl")
        _export_telemetry(args)
    if result.ok:
        rec = result.rtl_report.records
        depth = rec[0].pipeline_cycles if rec else 0
        print(f"OK: {result.packets} packets agree across vm/hwsim/rtl "
              f"({pipeline.n_stages} stages, {depth} cycles/packet)")
        return 0
    print(f"FAIL: {len(result.mismatches)} mismatches over "
          f"{result.packets} packets", file=sys.stderr)
    for mismatch in result.mismatches[:20]:
        print(f"  {mismatch}", file=sys.stderr)
    debug_dir = getattr(args, "debug_dir", None)
    if debug_dir:
        from .rtl import dump_schedule_source

        written = dump_schedule_source(pipeline, debug_dir)
        if written:
            print(f"wrote compiled schedule source to {written}",
                  file=sys.stderr)
    return 1


def cmd_stats(args: argparse.Namespace) -> int:
    program = load_program(args.program)
    # Compile uncached inside a private registry so the per-pass span
    # timings are always available (a cache hit would skip the passes).
    with telemetry.scoped() as reg:
        pipeline = compile_program(program, _options_from_args(args))
    print(pipeline.summary())
    print()
    print(f"instructions: {len(program.instructions)} in, "
          f"{pipeline.n_instructions} scheduled "
          f"({pipeline.elided_bounds_checks} bounds checks elided, "
          f"{pipeline.dce_removed} dead removed, "
          f"{pipeline.speculated[0]} speculated above branches "
          f"({pipeline.speculated[1]} renamed), "
          f"{pipeline.loops_unrolled} loops unrolled)")
    print(f"ILP: max {pipeline.max_ilp}, avg {pipeline.avg_ilp:.2f}")
    print(f"max per-stage state: {pipeline.max_state_bytes} B")
    print(hazard_summary(pipeline))
    # The path `repro run` takes with nothing attached.
    from .hwsim import PipelineSimulator

    with telemetry.scoped(enabled=False):
        print(f"engine path: {PipelineSimulator(pipeline).engine_path()}")
    print(f"resources (Alveo U50, incl. Corundum): "
          f"{estimate_resources(pipeline).summary()}")
    analysis = analyze_pipeline(pipeline)
    print(f"flush analysis @50k Zipfian flows: {analysis.row()}")
    spans = [s for s in reg.spans if s.name.startswith("compile.")]
    if spans:
        print()
        print(f"{'compile pass':<24s}  {'ms':>8s}")
        for span in spans:
            print(f"{span.name[len('compile.'):]:<24s}  "
                  f"{span.dur_ns / 1e6:>8.3f}")
        total_ns = sum(s.dur_ns for s in spans)
        print(f"{'total':<24s}  {total_ns / 1e6:>8.3f}")
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    program = load_program(args.program)
    try:
        # the one command that reads bytecode without verifying it
        print(disassemble(program.instructions))
    except ISAError as exc:
        raise SystemExit(f"disasm: {exc}")
    return 0


def cmd_model(args: argparse.Namespace) -> int:
    program = load_program(args.program)
    pipeline = _compile(args, program)
    print(f"pipeline: {pipeline.n_stages} stages")
    print(hazard_summary(pipeline))
    print()
    print(f"{'flows':>10s}  {'P_f (zipf)':>10s}  {'T_p (Mpps)':>10s}")
    for n_flows in (1_000, 10_000, 50_000, 100_000, 1_000_000):
        analysis = analyze_pipeline(pipeline, n_flows=n_flows)
        if not analysis.applicable:
            why = (f"n/a ({WINDOWED})" if analysis.windowed
                   else "250 (no hazard)")
            print(f"{n_flows:>10,d}  {'n/a':>10s}  {why:>10s}")
            continue
        print(f"{n_flows:>10,d}  {analysis.p_flush:>10.4f}  "
              f"{analysis.throughput_mpps:>10.1f}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .hwsim import OccupancyTracer, PipelineSimulator, render_occupancy

    program = load_program(args.program)
    pipeline = _compile(args, program)
    sim = PipelineSimulator(pipeline, maps=_app_maps(args.program, program))
    tracer = OccupancyTracer(max_cycles=args.cycles)
    sim.observer = tracer
    sim.run_packets(_gen_frames(args))
    print(render_occupancy(tracer, last_cycle=args.cycles,
                           max_stages=args.stages))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    program = load_program(args.program)
    pipeline = _compile(args, program)
    nic = NicSystem(pipeline, maps=_app_maps(args.program, program))
    frames = _gen_frames(args)
    if args.rate_mpps:
        report = nic.run_at_rate(frames, args.rate_mpps)
    else:
        report = nic.run_at_line_rate(frames)
    print(report.summary())
    print(f"forwarding latency: {nic.forwarding_latency_ns(report):.0f} ns")
    return 0


def _packets(args: argparse.Namespace) -> int:
    """``--packets``, or the command's default count when not given."""
    return args.default_packets if args.packets is None else args.packets


def _auto_workload(args: argparse.Namespace) -> str:
    """Resolve ``--workload auto``: the app's registered workload
    (:data:`repro.apps.APP_WORKLOADS`), truncated to ``--packets``."""
    import dataclasses

    from . import apps
    from .workloads import parse_workload_spec

    program = getattr(args, "program", "") or ""
    name = program[len(_APP_SCHEME):] if program.startswith(_APP_SCHEME) else None
    spec_text = apps.APP_WORKLOADS.get(name) if name else None
    if spec_text is None:
        known = ", ".join(sorted(apps.APP_WORKLOADS))
        raise SystemExit(
            f"--workload auto needs an app:<name> program with a "
            f"registered workload (have: {known})"
        )
    spec = dataclasses.replace(
        parse_workload_spec(spec_text), packets=_packets(args)
    )
    return spec.describe()


def _gen_frames(args: argparse.Namespace) -> list:
    """The frames of a traffic command: its ``--workload`` (an explicit
    spec truncated to ``--packets`` when that is given), else the flat
    traffic flags."""
    workload = getattr(args, "workload", None)
    if workload == "auto":
        workload = _auto_workload(args)
    if workload:
        import dataclasses

        from .workloads import make_workload, parse_workload_spec

        try:
            spec = parse_workload_spec(workload)
            if args.packets is not None:
                spec = dataclasses.replace(spec, packets=args.packets)
            return make_workload(spec).materialize()
        except ValueError as exc:
            raise SystemExit(f"--workload: {exc}")
    gen = TrafficGenerator(TrafficSpec(
        n_flows=args.flows, packet_size=args.packet_size, seed=args.seed,
        distribution=args.distribution,
    ))
    return list(gen.packets(_packets(args)))


def _run_once(pipeline, program, frames, engine: str, setup=None):
    """One timed simulator pass; returns (report, wall_seconds,
    engine_path) — engine_path is the code path the numbers came from
    (``PipelineSimulator.engine_path``).

    ``engine`` is a pipeline backend from the registry ("interpreted"
    or "codegen").
    """
    import time

    from .hwsim import PipelineSimulator, SimOptions

    maps = MapSet(program.maps)
    if setup is not None:
        setup(maps)
    sim = PipelineSimulator(
        pipeline, maps=maps,
        options=SimOptions(engine=engine, keep_records=False))
    path = sim.engine_path()
    start = time.perf_counter()
    report = sim.run_packets(frames)
    elapsed = time.perf_counter() - start
    return report, elapsed, path


def cmd_run(args: argparse.Namespace) -> int:
    collect = _telemetry_setup(args)
    program = load_program(args.program)
    pipeline = _compile(args, program)
    frames = _gen_frames(args)
    setup = _app_setup(args.program)
    engine = args.engine
    spec = get_engine(engine)
    if spec.kind != "pipeline":
        # Reference/RTL engines: no record-free mode — run through the
        # uniform registry interface instead.
        import time

        start = time.perf_counter()
        result = run_engine(engine, program, frames, pipeline=pipeline,
                            setup=setup)
        elapsed = time.perf_counter() - start
        actions = [a for a in result.actions if a is not None]
        print(f"{engine}: {len(actions)}/{len(frames)} packets")
        print(f"engine: {engine}, wall {elapsed * 1e3:.1f} ms, "
              f"{len(frames) / elapsed:,.0f} packets/s")
        return 0
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    report, elapsed, path = _run_once(
        pipeline, program, frames, engine, setup=setup)
    if profiler is not None:
        profiler.disable()
    print(report.summary())
    print(f"engine: {engine}, wall {elapsed * 1e3:.1f} ms, "
          f"{len(frames) / elapsed:,.0f} packets/s")
    print(f"engine path: {path}")
    if collect:
        publish_report(report, telemetry.get_registry(), app=program.name,
                       engine="hwsim")
        _export_telemetry(args)
    if profiler is not None:
        import pstats

        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(20)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    collect = _telemetry_setup(args)
    program = load_program(args.program)
    pipeline = _compile(args, program)
    frames = _gen_frames(args)
    setup = _app_setup(args.program)
    # Every registered pipeline engine runs the identical workload: a
    # record-free timed pass each, then the parity gate — a recorded
    # pass of each, compared against the interpreted engine (the
    # reference, listed first). They model the same hardware, so they
    # must agree on everything: verdicts, bytes, map state and
    # per-packet cycles.
    engines = pipeline_engine_names()
    results = {}
    for engine in engines:
        results[engine] = _run_once(pipeline, program, frames, engine,
                                    setup=setup)
    parity = run_differential(program, frames, pipeline=pipeline,
                              setup=setup, engines=engines)
    print(f"{'engine':<14s}  {'wall ms':>9s}  {'packets/s':>12s}  "
          f"{'speedup':>8s}")
    slow_dt = results["interpreted"][1]
    for engine in engines:
        dt = results[engine][1]
        print(f"{engine:<14s}  {dt * 1e3:>9.1f}  "
              f"{len(frames) / dt:>12,.0f}  {slow_dt / dt:>7.2f}x")
    if not parity.ok:
        print(f"ERROR: pipeline engines diverged from {engines[0]}",
              file=sys.stderr)
        for mismatch in parity.mismatches[:20]:
            print(f"  {mismatch}", file=sys.stderr)
        return 1
    reference = parity.hw_report
    print(f"parity OK: {reference.cycles} cycles, "
          f"{sum(reference.action_counts.values())} packets on "
          f"{len(engines)} engines")
    if collect:
        publish_report(results["codegen"][0], telemetry.get_registry(),
                       app=program.name, engine="hwsim")
        _export_telemetry(args)
    return 0


def cmd_apps(args: argparse.Namespace) -> int:
    """List the registered applications (the ``app:<name>`` namespace)."""
    from . import apps

    print(f"{'app':<14s}  {'suite':<10s}  {'maps':<28s}  workload")
    for name in _app_names():
        module = getattr(apps, name)
        if name in apps.SECOND_GEN_APPS:
            suite = "2nd-gen"
        elif name in apps.EVALUATION_APPS:
            suite = "paper"
        else:
            suite = "extra"
        program = module.build()
        map_desc = ",".join(
            f"{spec.name}({spec.map_type})"
            for spec in program.maps.values()
        ) or "-"
        workload = apps.APP_WORKLOADS.get(name, "-")
        print(f"{name:<14s}  {suite:<10s}  {map_desc:<28s}  {workload}")
        if args.verbose:
            doc = (module.__doc__ or "").strip().splitlines()
            if doc:
                print(f"{'':14s}  {doc[0]}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    cache = get_default_cache()
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cached pipelines from {cache.directory}")
        return 0
    stats = cache.stats()
    print(f"cache dir: {cache.directory}")
    for key, value in stats.items():
        print(f"{key}: {value}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived serving daemon (see docs/serving.md)."""
    import json

    from .serve import (
        NicDaemon,
        ProgramSpec,
        ServeConfig,
        ServeServer,
        parse_feed_spec,
        segmented_replay,
        verify_replay,
    )

    collect = _telemetry_setup(args)
    programs = []
    for item in args.program:
        name, sep, spec = item.partition("=")
        if not sep:
            raise SystemExit(
                f"--program {item!r} is not NAME=PROGRAM "
                f"(e.g. fw=app:firewall)"
            )
        programs.append(ProgramSpec(name=name, program=load_program(spec),
                                    source=spec))
    by_name = {p.name: p for p in programs}
    for item in args.steer or ():
        name, sep, ethertype = item.partition("=")
        if not sep or name not in by_name:
            raise SystemExit(
                f"--steer {item!r} is not NAME=ETHERTYPE for a "
                f"--program name ({sorted(by_name)})"
            )
        by_name[name].ethertype = int(ethertype, 0)
    try:
        feed = parse_feed_spec(args.feed)
    except ValueError as exc:
        raise SystemExit(f"--feed: {exc}")
    config = ServeConfig(
        programs=programs,
        feed=feed,
        engine=args.engine,
        batch_size=args.batch_size,
        exit_when_drained=args.exit_when_drained,
    )
    daemon = NicDaemon(config)
    server = None
    if args.socket:
        server = ServeServer(daemon, args.socket).start()
        print(f"control plane on {args.socket}")
    print(f"serving {len(programs)} program(s) "
          f"[{', '.join(p.name for p in programs)}] "
          f"engine={args.engine} feed={config.feed.describe()}")
    try:
        report = daemon.run()
    finally:
        if server is not None:
            server.stop()
    exit_code = 0
    if args.verify_replay:
        offline = segmented_replay(config, report, daemon.program_table)
        divergences = verify_replay(report, offline)
        report["divergences"] = divergences
        if divergences:
            exit_code = 1
            print(f"REPLAY DIVERGED ({len(divergences)}):", file=sys.stderr)
            for line in divergences[:20]:
                print(f"  {line}", file=sys.stderr)
        else:
            print(f"replay verified: {report['frames']} frames, "
                  f"{report['batches']} batches, bit-identical")
    if args.report_out:
        pathlib.Path(args.report_out).write_text(
            json.dumps(report, indent=2, sort_keys=True)
        )
        print(f"wrote final report to {args.report_out}")
    print(f"served {report['frames']} frames in {report['batches']} "
          f"batches, epoch {report['epoch']}, "
          f"{len(report.get('quarantined', []))} quarantined")
    if collect:
        _export_telemetry(args)
    return exit_code


def _ctl_value(text: str):
    """Coerce a ctl KEY=VALUE: ints (any base), bools, ``hex:`` bytes."""
    if text.startswith("hex:"):
        return text[len("hex:"):]
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text, 0)
    except ValueError:
        return text


def cmd_ctl(args: argparse.Namespace) -> int:
    """One control-plane request against a serving daemon."""
    import json

    from .serve import CtlClient, CtlError

    params = {}
    for item in args.params:
        key, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"ctl parameter {item!r} is not KEY=VALUE")
        params[key] = _ctl_value(value)
    try:
        with CtlClient.wait_for(args.socket, timeout=args.timeout) as ctl:
            result = ctl.call(args.op, **params)
    except CtlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach daemon at {args.socket}: {exc}",
              file=sys.stderr)
        return 2
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="eHDL (reproduction): eBPF/XDP-to-hardware compiler",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="generate VHDL")
    _add_compile_flags(p_compile)
    p_compile.add_argument("-o", "--output", help="output .vhd path")
    _add_trace_flag(p_compile)
    p_compile.set_defaults(func=cmd_compile)

    p_stats = sub.add_parser("stats", help="pipeline/resource report")
    _add_compile_flags(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_disasm = sub.add_parser("disasm", help="disassemble bytecode")
    p_disasm.add_argument("program")
    p_disasm.set_defaults(func=cmd_disasm)

    p_sim = sub.add_parser("simulate", help="run traffic through the pipeline")
    _add_compile_flags(p_sim)
    _add_traffic_flags(p_sim)
    p_sim.add_argument("--rate-mpps", type=float, default=None,
                       help="offered rate (default: line rate)")
    p_sim.set_defaults(func=cmd_simulate)

    p_run = sub.add_parser(
        "run", help="run traffic through the simulator (timed)"
    )
    _add_compile_flags(p_run)
    _add_traffic_flags(p_run)
    p_run.add_argument("--engine", choices=engine_names(), default="codegen",
                       help="execution backend (default codegen): "
                            + ", ".join(engine_names()))
    p_run.add_argument("--profile", action="store_true",
                       help="profile the run and print the top-20 functions")
    _add_metrics_flag(p_run)
    _add_trace_flag(p_run)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser(
        "bench", help="compare the registered pipeline execution engines"
    )
    _add_compile_flags(p_bench)
    _add_traffic_flags(p_bench)
    _add_metrics_flag(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_rtl = sub.add_parser(
        "rtl-sim", help="simulate the emitted VHDL design itself"
    )
    _add_compile_flags(p_rtl)
    _add_traffic_flags(p_rtl, packets=64, flows=8)
    p_rtl.add_argument("--engine", choices=list(RTL_ENGINES),
                       default="rtl",
                       help="RTL simulation engine: compiled levelized "
                            "schedule (rtl) or delta-cycle interpreter "
                            "(rtl-interp)")
    p_rtl.set_defaults(func=cmd_rtl_sim)

    p_verify = sub.add_parser(
        "verify",
        help="three-way differential: VM vs pipeline simulator vs RTL",
    )
    _add_compile_flags(p_verify)
    _add_traffic_flags(p_verify, packets=64, flows=8)
    _add_metrics_flag(p_verify)
    p_verify.add_argument("--engine", choices=pipeline_engine_names(),
                          default="codegen",
                          help="pipeline-simulator backend for the hwsim "
                               "leg (default: codegen)")
    p_verify.add_argument("--rtl-engine", choices=list(RTL_ENGINES),
                          default="rtl", dest="rtl_engine",
                          help="RTL-leg simulation engine (default: "
                               "compiled schedule)")
    p_verify.add_argument("--debug-dir", default=None, dest="debug_dir",
                          help="on mismatch, dump the generated RTL "
                               "schedule source here for inspection")
    p_verify.set_defaults(func=cmd_verify)

    p_apps = sub.add_parser(
        "apps", help="list registered applications (app:<name>)")
    p_apps.add_argument("-v", "--verbose", action="store_true",
                        help="include each app's one-line description")
    p_apps.set_defaults(func=cmd_apps)

    p_cache = sub.add_parser("cache", help="inspect the compile cache")
    p_cache.add_argument("--clear", action="store_true",
                         help="delete all cached pipelines")
    p_cache.set_defaults(func=cmd_cache)

    p_model = sub.add_parser("model", help="analytical flush model (A.1)")
    _add_compile_flags(p_model)
    p_model.set_defaults(func=cmd_model)

    from .serve.protocol import OPS as serve_ops

    p_serve = sub.add_parser(
        "serve",
        help="long-lived NIC daemon: hot-swap + map control plane",
    )
    p_serve.add_argument("--program", "-p", action="append", required=True,
                         metavar="NAME=PROGRAM",
                         help="slot to serve (repeatable; the first is the "
                              "default route), e.g. fw=app:firewall")
    p_serve.add_argument("--steer", action="append", default=[],
                         metavar="NAME=ETHERTYPE",
                         help="steer an ethertype at a slot, "
                              "e.g. fw=0x0800 (repeatable)")
    p_serve.add_argument("--feed",
                         default="gen:packets=10000,flows=1000",
                         help="traffic feed: gen:/synth: spec or a .pcap "
                              "path (default %(default)s)")
    p_serve.add_argument("--socket", default=None, metavar="PATH",
                         help="unix socket path for the control plane "
                              "(repro ctl)")
    p_serve.add_argument("--engine", choices=pipeline_engine_names(),
                         default="codegen",
                         help="execution backend (default codegen)")
    p_serve.add_argument("--batch-size", type=int, default=256,
                         help="frames per drained batch (the control-plane "
                              "synchronization quantum)")
    p_serve.add_argument("--report-out", metavar="FILE",
                         help="write the final JSON report to FILE")
    p_serve.add_argument("--verify-replay", action="store_true",
                         help="after serving, re-run the journal offline "
                              "and fail on any divergence")
    p_serve.add_argument("--exit-when-drained",
                         action=argparse.BooleanOptionalAction,
                         default=False,
                         help="exit once the feed is exhausted instead of "
                              "waiting for a shutdown op")
    _add_metrics_flag(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_ctl = sub.add_parser(
        "ctl", help="send one control-plane op to a serving daemon"
    )
    p_ctl.add_argument("--socket", required=True, metavar="PATH")
    p_ctl.add_argument("--timeout", type=float, default=30.0,
                       help="seconds to wait for the daemon socket")
    p_ctl.add_argument("op", choices=sorted(serve_ops))
    p_ctl.add_argument("params", nargs="*", metavar="KEY=VALUE",
                       help="op parameters; ints parse any base, "
                            "true/false are bools, hex:<bytes> forces a "
                            "hex byte string")
    p_ctl.set_defaults(func=cmd_ctl)

    p_trace = sub.add_parser("trace", help="render the pipeline timeline")
    _add_compile_flags(p_trace)
    _add_traffic_flags(p_trace, packets=20, flows=4)
    p_trace.add_argument("--cycles", type=int, default=40)
    p_trace.add_argument("--stages", type=int, default=24)
    p_trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerifierError as exc:
        raise SystemExit(f"verifier: {exc}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
