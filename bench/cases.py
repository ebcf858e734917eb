"""The six benchmark workloads.

Every workload is a :class:`Case`: ``setup`` builds programs and inputs
from the seed, ``gate`` checks outputs against references (untimed),
``rep`` is one timed closed-loop repetition, and ``layers`` turns the
traced run's spans into per-layer metrics. Sizes are constants here; a
repetition is small enough that a run of ``--seconds`` holds many of
them, because the reported figure is their median.
"""

from __future__ import annotations

import dataclasses
import statistics
import threading
from types import SimpleNamespace

import repro.apps
from repro.apps import APP_WORKLOADS, firewall, router
from repro.core import CompileCache, cache_key, compile_cached, compile_program
from repro.core.resources import estimate_resources
from repro.core.vhdl import emit_vhdl
from repro.ebpf.maps import MapSet
from repro.ebpf.verifier import verify
from repro.ebpf.vm import Vm
from repro.hwsim import (
    ENGINES,
    MultiProgramNic,
    PipelineSimulator,
    SimOptions,
    compare_runs,
    ethertype_classifier,
    load_pipeline_module,
    run_engine,
)
from repro.net.flows import TrafficGenerator, TrafficSpec, flow_at
from repro.net.packet import ETH_P_IP, mac
from repro.rtl import RtlRunner, run_three_way
from repro.serve import (
    FeedSpec,
    Feeder,
    NicDaemon,
    ProgramSpec,
    ServeConfig,
    ServeError,
    segmented_replay,
    verify_replay,
)
from repro import telemetry
from repro.workloads import make_workload, parse_workload_spec

from harness import median, now, null_span

APPS = (
    "ct_firewall", "dnat", "firewall", "icmp_echo", "leaky_bucket", "maglev",
    "nat64", "router", "suricata", "syn_cookie", "toy_counter", "tunnel",
    "vxlan_term",
)
PASSES = (
    "unroll_loops", "verify", "elide_bounds_checks", "dead_code_elimination",
    "reverify", "labeling", "cfg", "ddg", "schedule", "assemble_stages",
    "framing", "hazards", "pruning", "codegen",
)
CLOCK_NS = 4.0  # one cycle of the modelled 250 MHz pipeline
# rtl/diff.py's convention: helper time frozen, so programs that read
# bpf_ktime_get_ns (leaky_bucket) compare cleanly against the VM.
FROZEN_CLOCK_MHZ = 1e9
VM_PREFIX = 2000
# Modelled-hardware figures (sim_*, hwsim.* counters) are always taken on
# the trace this seed generates, whatever --seed the timed and checked
# inputs come from: they then compare exactly across runs and commits.
MODEL_SEED = 1


def observables(report) -> tuple:
    """What two runs of one cycle model must agree on."""
    return (report.cycles, report.packets_out, report.packets_dropped_queue,
            report.flush_events, report.squashed_packets, report.stall_cycles,
            dict(report.action_counts))


def map_items(maps: MapSet) -> dict:
    return {fd: dict(maps[fd].items()) for fd in maps}


def default_setup_of(app: str):
    """The app module's host-state hook (``maps -> None``), if any."""
    return getattr(getattr(repro.apps, app), "default_setup", None)


class Case:
    name = ""
    apps = ()

    def setup(self, seed: int, scratch) -> None:
        """Everything before the first repetition (``setup_s``): program
        assembly, cold compile into the private cache, inputs, and one
        construction of whatever the repetitions construct."""
        self.seed = seed
        self.scratch = scratch
        self.programs = {
            app: getattr(repro.apps, app).build() for app in self.apps
        }
        self.pipelines = {
            app: compile_cached(program)
            for app, program in self.programs.items()
        }
        self.prepare()

    def prepare(self) -> None:
        raise NotImplementedError

    def gate(self) -> list:
        """Check outputs against references; returns problems found.
        Leaves ``self.sim_reports``: the modelled hardware's reports on
        the ``MODEL_SEED`` inputs."""
        raise NotImplementedError

    def rep(self, span=null_span) -> SimpleNamespace:
        """One repetition: ``seconds`` timed, ``ops`` attempted,
        ``failed`` of them wrong."""
        raise NotImplementedError

    def alone(self, span) -> None:
        """Traced run only: call the layers a repetition hides behind
        one library call, each on its own, on the same inputs."""

    def layers(self, tracer, reps) -> dict:
        raise NotImplementedError

    def compile_once(self) -> float:
        """Cold compile time (ms) of this workload's programs, cache
        bypassed (compile_all's repetitions time their own instead)."""
        start = now()
        for program in self.programs.values():
            compile_program(program)
        return (now() - start) * 1e3

    # -- modelled hardware, on the MODEL_SEED inputs (exact) ---------------------

    def sim_metrics(self) -> dict:
        reports = self.sim_reports
        packets = sum(r.packets_out for r in reports)
        return {
            "sim_cycles_per_packet": sum(r.cycles for r in reports) / packets,
            "sim_latency_ns":
                sum(r.sum_total_cycles for r in reports) / packets * CLOCK_NS,
            "hw_stages": sum(p.n_stages for p in self.pipelines.values()),
            "hw_luts": sum(
                estimate_resources(p, include_shell=False).luts
                for p in self.pipelines.values()),
        }

    def model_counters(self) -> dict:
        reports = self.sim_reports
        pipelines = self.pipelines.values()
        return {
            "hwsim.flush_events": sum(r.flush_events for r in reports),
            "hwsim.squashed_packets": sum(r.squashed_packets for r in reports),
            "hwsim.stall_cycles": sum(r.stall_cycles for r in reports),
            "hwsim.queue_drops":
                sum(r.packets_dropped_queue for r in reports),
            "hwsim.avg_pipeline_cycles":
                sum(r.sum_pipeline_cycles for r in reports)
                / sum(r.packets_out for r in reports),
            "hwsim.serial_windows":
                sum(len(p.serial_windows) for p in pipelines),
            "hwsim.stream_path": int(all(
                load_pipeline_module(p).get("_STREAM") is not None
                for p in pipelines)),
        }

    def core_layers(self) -> dict:
        """The compiler measured alone, once, on this workload's apps."""
        out = {f"core.pass.{name}_ms": 0.0 for name in PASSES}
        totals = dict.fromkeys((
            "ebpf.verify_ms", "core.vhdl_ms", "core.vhdl_lines",
            "core.codegen_source_lines", "core.cache_put_ms",
            "core.cache_hit_ms", "core.ffs_total", "core.bram36_total"), 0.0)
        cache = CompileCache(self.scratch / "core_layers")
        for app, program in self.programs.items():
            start = now()
            pipeline = compile_program(program)
            out[f"core.compile_ms.{app}"] = (now() - start) * 1e3
            # the compiler's own pass spans, harvested (none added)
            with telemetry.scoped() as registry:
                compile_program(program)
            for metric in registry.metrics():
                if metric.name == "ehdl_compile_pass_ns_total":
                    name = dict(metric.labels)["pass"]
                    out[f"core.pass.{name}_ms"] += metric.value / 1e6
            start = now()
            verify(program)
            totals["ebpf.verify_ms"] += (now() - start) * 1e3
            start = now()
            vhdl = emit_vhdl(pipeline)
            totals["core.vhdl_ms"] += (now() - start) * 1e3
            totals["core.vhdl_lines"] += vhdl.count("\n")
            totals["core.codegen_source_lines"] += \
                pipeline.codegen_source.count("\n")
            key = cache_key(program)
            start = now()
            cache.put(key, pipeline)
            totals["core.cache_put_ms"] += (now() - start) * 1e3
            start = now()
            # a fresh cache object has no in-process LRU: a disk hit
            hit = CompileCache(cache.directory).get(key)
            totals["core.cache_hit_ms"] += (now() - start) * 1e3
            assert hit is not None
            resources = estimate_resources(pipeline, include_shell=False)
            totals["core.ffs_total"] += resources.ffs
            totals["core.bram36_total"] += resources.bram36
        out.update(totals)
        return out


class RunCase(Case):
    """``repro run`` end to end: workload generation -> maps -> engine."""

    def __init__(self, name, app, spec, packets):
        self.name, self.app, self.apps = name, app, (app,)
        self.spec_text, self.packets = spec, packets

    def prepare(self):
        self.program = self.programs[self.app]
        self.pipeline = self.pipelines[self.app]
        self.host_setup = default_setup_of(self.app)
        self.spec = dataclasses.replace(
            parse_workload_spec(self.spec_text),
            packets=self.packets, seed=self.seed)
        self.expected = None
        self._sim("codegen", self._maps())

    def _maps(self) -> MapSet:
        maps = MapSet(self.program.maps)
        if self.host_setup is not None:
            self.host_setup(maps)
        return maps

    def _sim(self, engine, maps) -> PipelineSimulator:
        # queue sized to the trace: a windowed pipeline drains slower
        # than line-rate injection, and a drop would shrink the work
        return PipelineSimulator(self.pipeline, maps=maps, options=SimOptions(
            engine=engine, keep_records=False,
            input_queue_capacity=self.packets))

    def rep(self, span=null_span):
        start = now()
        with span("workloads.make_workload"):
            workload = make_workload(self.spec)
        with span("workloads.materialize"):
            frames = workload.materialize()
        with span("ebpf.map_setup"):
            maps = self._maps()
        with span("hwsim.sim_ctor"):
            sim = self._sim("codegen", maps)
        with span("hwsim.run_packets"):
            report = sim.run_packets(frames)
        seconds = now() - start
        failed = report.packets_dropped_queue
        if self.expected not in (None, observables(report)):
            failed = self.packets
        return SimpleNamespace(seconds=seconds, ops=self.packets,
                               failed=failed, report=report, maps=maps,
                               frames=frames)

    def _other_engine(self, engine, frames):
        maps = self._maps()
        sim = self._sim(engine, maps)
        start = now()
        report = sim.run_packets(frames)
        return report, maps, now() - start

    def gate(self):
        first = self.rep()
        self.frames = first.frames
        self.expected = observables(first.report)
        self.sim_reports = [first.report]
        if self.seed != MODEL_SEED:
            frames = make_workload(dataclasses.replace(
                self.spec, seed=MODEL_SEED)).materialize()
            self.sim_reports = [
                self._sim("codegen", self._maps()).run_packets(frames)]
        problems = []
        # (a) the cycle-model reference, over the full trace
        report, maps, self.interpreted_s = self._other_engine(
            "interpreted", first.frames)
        if observables(report) != self.expected:
            problems.append(
                f"codegen {self.expected} != interpreted {observables(report)}")
        if map_items(maps) != map_items(first.maps):
            problems.append("codegen and interpreted final maps differ")
        # (b) the semantic reference, per packet, on a prefix
        prefix = first.frames[:VM_PREFIX]
        start = now()
        vm = run_engine("vm", self.program, prefix, setup=self.host_setup)
        self.vm_s = now() - start
        codegen = run_engine(
            "codegen", self.program, prefix, pipeline=self.pipeline,
            setup=self.host_setup, sim_options=SimOptions(
                clock_mhz=FROZEN_CLOCK_MHZ, input_queue_capacity=len(prefix)))
        problems += compare_runs(vm, codegen)
        return problems

    def layers(self, tracer, reps):
        root = self.name + ".rep"
        spent = lambda name: median(tracer.per_root(name, root))
        total = spent(root)
        generate = spent("workloads.make_workload") + \
            spent("workloads.materialize")
        run = spent("hwsim.run_packets")
        out = {
            "workloads.build_ms": spent("workloads.make_workload") * 1e3,
            "workloads.frames_per_s":
                self.packets / spent("workloads.materialize"),
            "workloads.share": generate / total,
            "workloads.frame_bytes_mean":
                sum(map(len, self.frames)) / len(self.frames),
            "hwsim.engine_pps": self.packets / run,
            "hwsim.engine_share": run / total,
            "hwsim.sim_ctor_ms": spent("hwsim.sim_ctor") * 1e3,
            "hwsim.host_ns_per_sim_cycle": run * 1e9 / self.expected[0],
            "hwsim.interpreted_pps": self.packets / self.interpreted_s,
            "ebpf.vm_pps": min(VM_PREFIX, self.packets) / self.vm_s,
            "ebpf.map_setup_ms": spent("ebpf.map_setup") * 1e3,
        }
        if "fast" in ENGINES:  # ROADMAP item B retires this engine
            report, _maps, seconds = self._other_engine("fast", self.frames)
            assert observables(report) == self.expected, "fast engine parity"
            out["hwsim.fast_pps"] = self.packets / seconds
        return out


class ServeCase(Case):
    """The serving daemon under live control-plane load."""

    name = "serve_swap"
    apps = ("toy_counter", "firewall")
    FRAMES = 30_000
    FLOWS = 100_000
    BATCH = 1024
    SWAPS = 8       # blocking keep_maps swaps per repetition, one client
    ALLOWED = 256   # top-ranked flows the host allows (about half the frames)

    def prepare(self):
        self.feed = FeedSpec(source="synth", packets=self.FRAMES,
                             flows=self.FLOWS, distribution="zipf",
                             seed=self.seed)
        self.allowed = [flow_at(i) for i in range(self.ALLOWED)]
        self.expected = None
        self._daemon()

    def _daemon(self):
        config = ServeConfig(
            programs=[
                ProgramSpec("bg", self.programs["toy_counter"]),
                ProgramSpec("fw", self.programs["firewall"],
                            ethertype=ETH_P_IP),
            ],
            feed=self.feed, engine="codegen", batch_size=self.BATCH)
        daemon = NicDaemon(config)
        # host writes, data plane reads: connectivity state goes in
        # through the control plane before the first frame, so every
        # swap has a real flow table to carry over
        for flow in self.allowed:
            daemon.schedule(0, {
                "op": "map_update", "program": "fw", "map": "flows",
                "key": firewall.flow_key(flow).hex(), "value": "00" * 8})
        return config, daemon

    @staticmethod
    def _totals(report) -> dict:
        """Per slot, summed over incarnations: packets, cycles, actions.
        A keep_maps swap to the same program must not change these."""
        out = {}
        for name, program in report["programs"].items():
            actions = {}
            for inc in program["incarnations"]:
                for action, count in inc["actions"].items():
                    actions[action] = actions.get(action, 0) + count
            out[name] = (
                sum(inc["packets"] for inc in program["incarnations"]),
                sum(inc["cycles"] for inc in program["incarnations"]),
                actions)
        return out

    def rep(self, span=null_span):
        with span("serve.ctor"):
            config, daemon = self._daemon()
        swaps, errors = [], []

        def client():
            for _ in range(self.SWAPS):
                start = now()
                try:
                    with span("serve.swap"):
                        result = daemon.submit({
                            "op": "swap", "name": "fw",
                            "program": "app:firewall", "keep_maps": True})
                except ServeError as exc:
                    errors.append(f"swap failed: {exc}")
                    return
                swaps.append(((now() - start) * 1e3,
                              result["drained_frames"]))

        thread = threading.Thread(target=client, name="bench-ctl")
        thread.start()
        start = now()
        with span("serve.run"):
            report = daemon.run()
        seconds = now() - start
        thread.join()
        if report["frames"] != self.FRAMES or report["quarantined"]:
            errors.append(f"served {report['frames']} frames, "
                          f"quarantined {report['quarantined']}")
        if self.expected not in (
                None, (self._totals(report), report["maps"])):
            errors.append("totals or final maps differ from the bare NIC")
        return SimpleNamespace(
            seconds=seconds, ops=self.FRAMES,
            failed=self.FRAMES if errors else 0, errors=errors,
            swaps=swaps, report=report, config=config, daemon=daemon)

    def _bare(self, span=null_span, seed=None):
        """The same feed through a bare MultiProgramNic: no daemon, no
        swaps. The independent reference for the daemon's results, and
        (traced) the feeder and hwsim.multi layers each on their own."""
        feed = self.feed if seed is None else dataclasses.replace(
            self.feed, seed=seed)
        with span("serve.feeder.batches"):
            buffers = list(Feeder(feed).batches(self.BATCH))
        names = ("bg", "fw")
        pipelines = [self.pipelines[app] for app in self.apps]
        maps = [MapSet(p.program.maps) for p in pipelines]
        for flow in self.allowed:
            firewall.allow_flow(maps[1], flow)
        nic = MultiProgramNic(
            pipelines, ethertype_classifier({ETH_P_IP: 1}, 0), maps=maps,
            engine="codegen")
        with span("hwsim.multi.process_batch"):
            batches = [nic.process_batch(buffer) for buffer in buffers]
        totals = {name: [0, 0, {}] for name in names}
        reports = []
        for results in batches:
            for name, result in zip(names, results):
                if result.report is None:
                    continue
                reports.append(result.report)
                slot = totals[name]
                slot[0] += result.report.packets_in
                slot[1] += result.report.cycles
                for action, count in result.report.action_counts.items():
                    slot[2][action.name] = slot[2].get(action.name, 0) + count
        snapshot = {
            name: {m.name: {bytes(k).hex(): bytes(v).hex()
                            for k, v in m.items()}
                   for m in mapset.maps.values()}
            for name, mapset in zip(names, maps)
        }
        return {n: tuple(t) for n, t in totals.items()}, snapshot, reports

    def gate(self):
        first = self.rep()
        problems = list(first.errors)
        start = now()
        offline = segmented_replay(
            first.config, first.report, first.daemon.program_table)
        self.replay_s = now() - start
        problems += verify_replay(first.report, offline)
        totals, snapshot, self.sim_reports = self._bare()
        self.expected = (totals, snapshot)
        if self.seed != MODEL_SEED:
            self.sim_reports = self._bare(seed=MODEL_SEED)[2]
        if (self._totals(first.report), first.report["maps"]) != self.expected:
            problems.append(
                f"daemon totals {self._totals(first.report)} or final maps "
                f"differ from the bare NIC's {totals}")
        return problems

    def alone(self, span):
        self._bare(span)

    def layers(self, tracer, reps):
        rep_root, alone_root = self.name + ".rep", self.name + ".alone"
        run = median(tracer.per_root("serve.run", rep_root))
        feeder = median(tracer.per_root("serve.feeder.batches", alone_root))
        multi = median(
            tracer.per_root("hwsim.multi.process_batch", alone_root))
        loop = run - feeder - multi
        batches = -(-self.FRAMES // self.BATCH)
        swap_ms = [ms for rep in reps for ms, _drained in rep.swaps]
        drained = [d for rep in reps for _ms, d in rep.swaps]
        return {
            "serve.feeder_frames_per_s": self.FRAMES / feeder,
            "serve.feeder_share": feeder / run,
            "hwsim.multi_pps": self.FRAMES / multi,
            "hwsim.multi_share": multi / run,
            "serve.loop_self_ms_per_batch": loop * 1e3 / batches,
            "serve.loop_share": loop / run,
            "serve.ctor_ms":
                median(tracer.per_root("serve.ctor", rep_root)) * 1e3,
            "serve.swap_ms_p50": median(swap_ms),
            "serve.swap_ms_p75": statistics.quantiles(swap_ms, n=4)[2],
            "serve.swap_ms_max": max(swap_ms),
            "serve.swaps": len(swap_ms) / len(reps),
            "serve.drained_frames_per_swap": sum(drained) / len(drained),
            "serve.quarantined_frames": sum(
                program["quarantined_frames"] for rep in reps
                for program in rep.report["programs"].values()),
            "serve.replay_s": self.replay_s,
        }


class VerifyCase(Case):
    """``repro verify``: vm == codegen pipeline == compiled RTL."""

    name = "verify_rtl"
    apps = ("firewall", "router")
    PACKETS = 1500
    FLOWS = 16

    def prepare(self):
        gen = self._generator(self.seed)
        self.frames = list(gen.packets(self.PACKETS))
        flows = list(gen.flows)  # the population is the same for any seed

        def allow(maps):
            for flow in flows:
                firewall.allow_flow(maps, flow)

        def routes(maps):
            for dst_ip in sorted({flow.dst_ip for flow in flows}):
                router.add_route(maps, dst_ip, mac("02:0a:0b:0c:0d:0e"),
                                 mac("02:01:02:03:04:05"), 3)

        self.host_setup = {"firewall": allow, "router": routes}
        self.expected = None
        # runner construction (parse + elaborate + schedule) is set-up:
        # it leaves the rtlsched artifact in the private cache
        for app in self.apps:
            RtlRunner(self.pipelines[app], maps=self._maps(app))

    def _generator(self, seed) -> TrafficGenerator:
        return TrafficGenerator(TrafficSpec(
            n_flows=self.FLOWS, packet_size=64, seed=seed))

    def _maps(self, app) -> MapSet:
        maps = MapSet(self.programs[app].maps)
        self.host_setup[app](maps)
        return maps

    def _pipeline_leg(self, app, frames):
        """The hwsim leg of run_three_way on its own."""
        pipeline = self.pipelines[app]
        sim = PipelineSimulator(
            pipeline, maps=self._maps(app), options=SimOptions(
                clock_mhz=FROZEN_CLOCK_MHZ, engine="codegen"))
        return sim.run_packets(list(frames), gap=pipeline.n_stages + 2)

    def rep(self, span=null_span):
        start = now()
        results = []
        for app in self.apps:
            with span("rtl.diff.run_three_way"):
                results.append(run_three_way(
                    self.programs[app], self.frames,
                    pipeline=self.pipelines[app],
                    setup=self.host_setup[app], engine="codegen"))
        seconds = now() - start
        failed = sum(0 if r.ok else self.PACKETS for r in results)
        seen = [observables(r.hw_report) for r in results]
        if self.expected not in (None, seen):
            failed = self.PACKETS * len(self.apps)
        return SimpleNamespace(seconds=seconds,
                               ops=self.PACKETS * len(self.apps),
                               failed=failed, results=results, seen=seen)

    def gate(self):
        first = self.rep()
        self.expected = first.seen
        self.sim_reports = [r.hw_report for r in first.results]
        if self.seed != MODEL_SEED:
            frames = list(self._generator(MODEL_SEED).packets(self.PACKETS))
            self.sim_reports = [
                self._pipeline_leg(app, frames) for app in self.apps]
        return [f"{app}: {mismatch}"
                for app, result in zip(self.apps, first.results)
                for mismatch in result.mismatches[:5]]

    def alone(self, span):
        self.fallbacks = 0
        self.rtl_cycles = 0
        for app in self.apps:
            program, pipeline = self.programs[app], self.pipelines[app]
            gap = pipeline.n_stages + 2
            vm = Vm(program, maps=self._maps(app))
            with span("ebpf.vm.run"):
                for frame in self.frames:
                    vm.run(frame)
            with span("hwsim.run_packets"):
                self._pipeline_leg(app, self.frames)
            with span("rtl.load"):
                runner = RtlRunner(pipeline, maps=self._maps(app))
            # what ehdl_rtl_codegen_fallback_total counts
            self.fallbacks += runner.engine != "rtl"
            with span("rtl.run_packets"):
                self.rtl_cycles += runner.run_packets(
                    self.frames, gap=gap).cycles

    def layers(self, tracer, reps):
        rep_root, alone_root = self.name + ".rep", self.name + ".alone"
        whole = median(tracer.per_root("rtl.diff.run_three_way", rep_root))
        alone = lambda name: median(tracer.per_root(name, alone_root))
        packets = self.PACKETS * len(self.apps)
        rtl_run = alone("rtl.run_packets")
        return {
            "ebpf.vm_pps": packets / alone("ebpf.vm.run"),
            "ebpf.vm_share": alone("ebpf.vm.run") / whole,
            "hwsim.engine_pps": packets / alone("hwsim.run_packets"),
            "hwsim.engine_share": alone("hwsim.run_packets") / whole,
            "hwsim.host_ns_per_sim_cycle":
                alone("hwsim.run_packets") * 1e9
                / sum(seen[0] for seen in self.expected),
            "rtl.load_ms": alone("rtl.load") * 1e3,
            "rtl.pps": packets / rtl_run,
            "rtl.cycles_per_s": self.rtl_cycles / rtl_run,
            "rtl.share": (alone("rtl.load") + rtl_run) / whole,
            "rtl.fallbacks": self.fallbacks,
        }


class CompileCase(Case):
    """``repro compile`` over every app: the compiler and nothing else."""

    name = "compile_all"
    apps = APPS
    SMOKE_PACKETS = 256

    def prepare(self):
        self.cache = CompileCache(self.scratch / "compile_all")
        self.expected = None

    def rep(self, span=null_span):
        start = now()
        compile_s = 0.0
        seen = {}
        failed = 0
        for app, program in self.programs.items():
            began = now()
            with span("core.compile_program"):
                pipeline = compile_program(program)
            compile_s += now() - began
            with span("core.emit_vhdl"):
                vhdl = emit_vhdl(pipeline)
            key = cache_key(program)
            with span("core.cache.put"):
                self.cache.put(key, pipeline)
            with span("core.cache.get"):
                # fresh object, empty in-process LRU: a disk hit
                hit = CompileCache(self.cache.directory).get(key)
            seen[app] = (pipeline.n_stages, hash(vhdl),
                         hash(pipeline.codegen_source))
            if hit is None or hit.codegen_source != pipeline.codegen_source:
                failed += 1
            elif self.expected is not None and seen[app] != self.expected[app]:
                failed += 1
        return SimpleNamespace(seconds=now() - start, ops=len(self.apps),
                               failed=failed, compile_ms=compile_s * 1e3,
                               seen=seen)

    def _smoke_frames(self, app, seed):
        """A short trace of the app's registered workload (a plain UDP
        mix for the first-generation apps)."""
        spec = dataclasses.replace(
            parse_workload_spec(APP_WORKLOADS.get(app, "udp-zipf:flows=64")),
            packets=self.SMOKE_PACKETS, seed=seed)
        spec = dataclasses.replace(spec, flows=min(spec.flows, 4096))
        return make_workload(spec).materialize()

    def gate(self):
        """Each compiled pipeline against the VM — a reference that is
        not the compiler under test. One packet in flight, as in
        rtl/diff.py: back to back, a flush legitimately re-draws
        bpf_get_prandom_u32 (dnat) and the VM cannot follow. The
        modelled figures then come from a back-to-back run."""
        self.expected = self.rep().seen
        self.sim_reports = []
        problems = []
        for app, program in self.programs.items():
            pipeline = self.pipelines[app]
            host_setup = default_setup_of(app)
            options = SimOptions(clock_mhz=FROZEN_CLOCK_MHZ,
                                 input_queue_capacity=self.SMOKE_PACKETS)
            frames = self._smoke_frames(app, self.seed)
            vm = run_engine("vm", program, frames, setup=host_setup)
            codegen = run_engine(
                "codegen", program, frames, pipeline=pipeline,
                setup=host_setup, sim_options=options,
                gap=pipeline.n_stages + 2)
            problems += [f"{app}: {m}" for m in compare_runs(vm, codegen)[:5]]
            self.sim_reports.append(run_engine(
                "codegen", program, self._smoke_frames(app, MODEL_SEED),
                pipeline=pipeline, setup=host_setup,
                sim_options=options).report)
        return problems

    def layers(self, tracer, reps):
        root = self.name + ".rep"
        spent = lambda name: median(tracer.per_root(name, root))
        inside = sum(spent(name) for name in (
            "core.compile_program", "core.emit_vhdl", "core.cache.put",
            "core.cache.get"))
        return {"core.share": inside / spent(root)}


# why each one is here: BENCHMARK.json and bench/README.md
CASES = [
    RunCase("stream_maglev", "maglev", "udp-zipf:flows=1000000", 20_000),
    RunCase("window_ct_firewall", "ct_firewall",
            "flow-churn:flows=1000000,churn=0.05", 10_000),
    RunCase("flush_leaky_bucket", "leaky_bucket", "udp-zipf:flows=100000",
            10_000),
    ServeCase(),
    VerifyCase(),
    CompileCase(),
]
