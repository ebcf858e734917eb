"""Unified telemetry subsystem tests.

Covers the zero-dependency core (counters/gauges/histograms/spans), the
three exporters (Prometheus text, Chrome ``trace_event`` JSON, flat JSON
snapshot), the tiny Prometheus text-format grammar checker CI relies on,
per-engine instrumentation (pipeline simulator, VM, RTL, compiler
passes), the CLI ``--metrics-out``/``--trace-out`` flags, and the JSON
form of a ``SimReport`` the BENCH rows carry.
"""

import json

import pytest

from repro import telemetry
from repro.apps import (
    dnat,
    firewall,
    icmp_echo,
    leaky_bucket,
    router,
    suricata,
    toy_counter,
    tunnel,
)
from repro.cli import main
from repro.core import compile_program
from repro.ebpf.maps import MapSet
from repro.ebpf.vm import Vm
from repro.hwsim import (
    PipelineSimulator,
    SimOptions,
    publish_report,
)
from repro.net.flows import TrafficGenerator, TrafficSpec
from repro.runtime import XdpOffload
from repro.telemetry import (
    BUCKET_BOUNDS,
    N_BUCKETS,
    Registry,
    bucket_index,
    chrome_trace,
    json_snapshot,
    parse_prometheus_samples,
    prometheus_text,
    validate_prometheus_text,
)

ALL_APPS = {
    "firewall": firewall,
    "router": router,
    "tunnel": tunnel,
    "dnat": dnat,
    "suricata": suricata,
    "toy_counter": toy_counter,
    "leaky_bucket": leaky_bucket,
    "icmp_echo": icmp_echo,
}

TRACE_EVENT_FIELDS = ("name", "ph", "ts", "dur", "pid", "tid")


@pytest.fixture(autouse=True)
def _private_registry():
    """Swap in a private, disabled registry per test so CLI runs (which
    flip the process-wide enabled bit) cannot leak across tests."""
    with telemetry.scoped(enabled=False) as reg:
        yield reg


def _frames(n=40, flows=8, seed=3):
    gen = TrafficGenerator(TrafficSpec(n_flows=flows, packet_size=64,
                                       seed=seed))
    return list(gen.packets(n))


def _run_app(module, frames):
    program = module.build()
    pipeline = compile_program(program)
    sim = PipelineSimulator(
        pipeline, maps=MapSet(program.maps),
        options=SimOptions(keep_records=False),
    )
    return program, sim.run_packets(frames)


# -- core types ---------------------------------------------------------------


class TestCoreTypes:
    def test_registry_disabled_by_default(self):
        assert Registry().enabled is False
        assert telemetry.enabled() is False  # the scoped fixture default

    def test_counter_and_gauge(self):
        reg = Registry(enabled=True)
        c = reg.counter("c_total", "help", {"k": "v"})
        c.inc()
        c.inc(4)
        assert c.value == 5
        g = reg.gauge("g", "help", {})
        g.set(7)
        assert g.value == 7

    def test_label_sets_are_distinct_series(self):
        reg = Registry(enabled=True)
        reg.counter("c_total", "h", {"app": "a"}).inc(1)
        reg.counter("c_total", "h", {"app": "b"}).inc(2)
        samples = parse_prometheus_samples(prometheus_text(reg))
        series = samples["c_total"]
        assert series[(("app", "a"),)] == 1
        assert series[(("app", "b"),)] == 2

    def test_kind_conflict_rejected(self):
        reg = Registry(enabled=True)
        reg.counter("x", "h", {})
        with pytest.raises(ValueError):
            reg.gauge("x", "h", {})

    def test_bucket_index_log2_layout(self):
        assert bucket_index(0) == 0
        assert bucket_index(1) == 0
        assert bucket_index(2) == 1
        assert bucket_index(3) == 2
        assert bucket_index(2 ** 30) == 30
        assert bucket_index(2 ** 30 + 1) == 31  # overflow -> +Inf bucket
        assert len(BUCKET_BOUNDS) == N_BUCKETS - 1

    def test_histogram_observe(self):
        reg = Registry(enabled=True)
        h = reg.histogram("lat", "h", {})
        for v in (1, 2, 3, 1000):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 1006
        assert sum(h.buckets) == 4

    def test_span_records_duration(self):
        reg = Registry(enabled=True)
        with reg.span("compile.test", cat="compile", program="p"):
            pass
        (span,) = reg.spans
        assert span.name == "compile.test"
        assert span.dur_ns >= 0

    def test_disabled_registry_spans_are_noops(self):
        reg = Registry(enabled=False)
        with reg.span("x"):
            pass
        assert reg.spans == []


# -- exporters ----------------------------------------------------------------


class TestPrometheusExport:
    def test_output_passes_grammar_check(self):
        reg = Registry(enabled=True)
        reg.counter("a_total", "counts \"things\"", {"l": 'va"l\\ue\n'}).inc(3)
        reg.gauge("b", "a gauge", {}).set(2.5)
        h = reg.histogram("lat", "latency", {"app": "x"})
        for v in (1, 5, 9, 2 ** 40):
            h.observe(v)
        text = prometheus_text(reg)
        assert validate_prometheus_text(text) == []

    def test_histogram_exposition_is_cumulative(self):
        reg = Registry(enabled=True)
        h = reg.histogram("lat", "h", {})
        for v in (1, 1, 4, 2 ** 40):
            h.observe(v)
        samples = parse_prometheus_samples(prometheus_text(reg))
        buckets = samples["lat_bucket"]
        le_one = buckets[(("le", "1"),)]
        le_inf = buckets[(("le", "+Inf"),)]
        assert le_one == 2
        assert le_inf == 4
        assert samples["lat_count"][()] == 4
        assert samples["lat_sum"][()] == 1 + 1 + 4 + 2 ** 40

    def test_help_and_type_emitted_once_per_name(self):
        reg = Registry(enabled=True)
        reg.counter("c_total", "h", {"a": "1"}).inc()
        reg.counter("c_total", "h", {"a": "2"}).inc()
        text = prometheus_text(reg)
        assert text.count("# HELP c_total") == 1
        assert text.count("# TYPE c_total") == 1

    def test_validator_flags_malformed_input(self):
        bad = "9bad{} 1\n"
        assert validate_prometheus_text(bad)

    def test_validator_flags_duplicate_type(self):
        bad = ("# TYPE x counter\nx 1\n"
               "# TYPE x counter\nx 2\n")
        assert validate_prometheus_text(bad)

    def test_validator_flags_non_cumulative_histogram(self):
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="2"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 10\n"
            "h_count 5\n"
        )
        assert validate_prometheus_text(bad)

    def test_validator_requires_inf_bucket(self):
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 1\n'
            "h_sum 1\n"
            "h_count 1\n"
        )
        assert validate_prometheus_text(bad)

    def test_validator_accepts_empty_and_comment_only(self):
        assert validate_prometheus_text("") == []
        assert validate_prometheus_text("# just a comment\n") == []


class TestChromeTrace:
    def test_compile_spans_have_required_fields_all_apps(self):
        for name, module in ALL_APPS.items():
            with telemetry.scoped() as reg:
                compile_program(module.build())
                trace = chrome_trace(reg)
            events = trace["traceEvents"]
            assert events, f"{name}: no compile spans captured"
            for event in events:
                for fld in TRACE_EVENT_FIELDS:
                    assert fld in event, f"{name}: missing {fld!r}"
                assert event["ph"] == "X"
                assert event["dur"] >= 0
            names = {e["name"] for e in events}
            assert "compile.schedule" in names, name
            assert "compile.verify" in names, name

    def test_timestamps_are_microseconds(self):
        reg = Registry(enabled=True)
        with reg.span("s"):
            pass
        (span,) = reg.spans
        event = chrome_trace(reg)["traceEvents"][0]
        assert event["ts"] == pytest.approx(span.ts_ns / 1000.0)
        assert event["dur"] == pytest.approx(span.dur_ns / 1000.0)

    def test_trace_is_json_serializable(self):
        reg = Registry(enabled=True)
        with reg.span("s", detail="d"):
            pass
        parsed = json.loads(json.dumps(chrome_trace(reg)))
        assert parsed["traceEvents"][0]["name"] == "s"


class TestJsonSnapshot:
    def test_snapshot_round_trips_through_json(self):
        reg = Registry(enabled=True)
        reg.counter("c_total", "h", {"a": "b"}).inc(3)
        reg.histogram("lat", "h", {}).observe(5)
        snap = json.loads(json.dumps(json_snapshot(reg)))
        assert {"metrics", "spans"} <= set(snap)
        names = {m["name"] for m in snap["metrics"]}
        assert {"c_total", "lat"} <= names


# -- engine instrumentation ---------------------------------------------------


class TestSimInstrumentation:
    def test_metrics_none_when_disabled(self):
        _, report = _run_app(firewall, _frames(20))
        assert report.metrics is None

    def test_per_action_counters_match_report_all_apps(self):
        frames = _frames(30)
        for name, module in ALL_APPS.items():
            with telemetry.scoped() as reg:
                program, report = _run_app(module, frames)
                assert report.metrics is not None, name
                publish_report(report, reg, app=name)
                samples = parse_prometheus_samples(prometheus_text(reg))
            per_action = samples["ehdl_sim_packets_total"]
            total = 0
            for action, count in report.action_counts.items():
                key = (("action", action.name), ("app", name),
                       ("engine", "hwsim"))
                assert per_action[key] == count, name
                total += count
            assert total == report.packets_out, name
            assert samples["ehdl_sim_packets_in_total"][
                (("app", name), ("engine", "hwsim"))
            ] == report.packets_in

    def test_histogram_counts_every_packet(self):
        with telemetry.scoped() as reg:
            _, report = _run_app(toy_counter, _frames(25))
            # two batches' worth folded in: Histogram.merge_counts is an
            # exact bucket-wise sum
            publish_report(report, reg, app="toy")
            publish_report(report, reg, app="toy")
            samples = parse_prometheus_samples(prometheus_text(reg))
        metrics = report.metrics
        assert metrics.packet_cycle_count == report.packets_out
        assert sum(metrics.packet_cycle_buckets) == report.packets_out
        assert metrics.packet_cycle_sum == report.sum_pipeline_cycles
        series = (("app", "toy"), ("engine", "hwsim"))
        assert samples["ehdl_sim_packet_cycles_count"][series] \
            == 2 * report.packets_out
        assert samples["ehdl_sim_packet_cycles_sum"][series] \
            == 2 * report.sum_pipeline_cycles

    def test_occupancy_bounded_by_observed_cycles(self):
        with telemetry.scoped():
            _, report = _run_app(firewall, _frames(40))
        metrics = report.metrics
        assert metrics.observed_cycles == report.cycles
        for pct in metrics.occupancy_pct():
            assert 0.0 <= pct <= 100.0
        assert max(metrics.occupancy_pct()) > 0.0


class TestVmInstrumentation:
    def test_opcode_classes_and_helpers_counted(self):
        program = toy_counter.build()
        frames = [toy_counter.packet_for_key(1)] * 5
        with telemetry.scoped() as reg:
            vm = Vm(program, maps=MapSet(program.maps))
            for frame in frames:
                vm.run(frame)
            vm.publish_telemetry()
            samples = parse_prometheus_samples(prometheus_text(reg))
        insn = samples["ehdl_vm_instructions_total"]
        assert sum(insn.values()) > 0
        helpers = samples["ehdl_vm_helper_calls_total"]
        assert sum(helpers.values()) > 0

    def test_publish_resets_counts(self):
        program = toy_counter.build()
        with telemetry.scoped() as reg:
            vm = Vm(program, maps=MapSet(program.maps))
            vm.run(toy_counter.packet_for_key(1))
            vm.publish_telemetry()
            first = parse_prometheus_samples(prometheus_text(reg))
            vm.publish_telemetry()  # nothing new ran: must not double
            second = parse_prometheus_samples(prometheus_text(reg))
        assert first["ehdl_vm_instructions_total"] == \
            second["ehdl_vm_instructions_total"]

    def test_vm_counts_nothing_when_disabled(self):
        program = toy_counter.build()
        vm = Vm(program, maps=MapSet(program.maps))
        vm.run(toy_counter.packet_for_key(1))
        assert vm.opcode_class_counts == {}
        assert vm.helper_call_counts == {}


class TestRtlInstrumentation:
    def test_settles_and_primitive_ops_published(self):
        from repro.rtl import RtlRunner

        program = toy_counter.build()
        pipeline = compile_program(program)
        with telemetry.scoped() as reg:
            runner = RtlRunner(pipeline, maps=MapSet(program.maps))
            runner.run_packets([toy_counter.packet_for_key(1)] * 2)
            samples = parse_prometheus_samples(prometheus_text(reg))
        labels = (("engine", "rtl"), ("program", program.name))
        assert samples["ehdl_rtl_settles_total"][labels] > 0
        assert samples["ehdl_rtl_edges_total"][labels] > 0
        ops = samples["ehdl_rtl_primitive_ops_total"]
        assert sum(ops.values()) > 0

    def test_second_run_publishes_delta_not_cumulative(self):
        from repro.rtl import RtlRunner

        program = toy_counter.build()
        pipeline = compile_program(program)
        frames = [toy_counter.packet_for_key(1)] * 2
        with telemetry.scoped() as reg:
            runner = RtlRunner(pipeline, maps=MapSet(program.maps))
            runner.run_packets(frames)
            first = parse_prometheus_samples(prometheus_text(reg))
            runner.run_packets(frames)
            second = parse_prometheus_samples(prometheus_text(reg))
        labels = (("engine", "rtl"), ("program", program.name))
        # equal work per run: counter exactly doubles (not 1x + 3x)
        assert second["ehdl_rtl_settles_total"][labels] == \
            2 * first["ehdl_rtl_settles_total"][labels]


class TestCompilerSpans:
    def test_pass_counters_published(self):
        with telemetry.scoped() as reg:
            compile_program(firewall.build())
            samples = parse_prometheus_samples(prometheus_text(reg))
        runs = samples["ehdl_compile_pass_runs_total"]
        assert runs[(("pass", "schedule"),)] == 1
        ns = samples["ehdl_compile_pass_ns_total"]
        assert all(v >= 0 for v in ns.values())

    def test_no_spans_recorded_when_disabled(self):
        reg_before = telemetry.get_registry()
        compile_program(firewall.build())
        assert reg_before.spans == []


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def test_run_metrics_out_prometheus(self, tmp_path, capsys):
        out = tmp_path / "m.prom"
        rc = main(["run", "app:toy_counter", "--packets", "50",
                   "--flows", "4", "--metrics-out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert validate_prometheus_text(text) == []
        samples = parse_prometheus_samples(text)
        per_action = samples["ehdl_sim_packets_total"]
        assert sum(per_action.values()) == 50
        assert "wrote prometheus metrics" in capsys.readouterr().out

    def test_run_metrics_out_json(self, tmp_path):
        out = tmp_path / "m.json"
        rc = main(["run", "app:toy_counter", "--packets", "20",
                   "--flows", "4", "--metrics-out", str(out)])
        assert rc == 0
        snap = json.loads(out.read_text())
        assert {"metrics", "spans"} <= set(snap)

    def test_run_trace_out(self, tmp_path):
        out = tmp_path / "t.json"
        rc = main(["run", "app:toy_counter", "--packets", "10",
                   "--flows", "2", "--trace-out", str(out)])
        assert rc == 0
        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        assert events
        for event in events:
            for fld in TRACE_EVENT_FIELDS:
                assert fld in event

    def test_compile_trace_out(self, tmp_path):
        trace_path = tmp_path / "compile.json"
        vhd = tmp_path / "out.vhd"
        rc = main(["compile", "app:firewall", "-o", str(vhd),
                   "--trace-out", str(trace_path)])
        assert rc == 0
        names = {e["name"] for e in
                 json.loads(trace_path.read_text())["traceEvents"]}
        assert "compile.schedule" in names
        assert "compile.vhdl_emit" in names

    def test_verify_metrics_out(self, tmp_path):
        out = tmp_path / "v.prom"
        rc = main(["verify", "app:toy_counter", "--packets", "4",
                   "--flows", "2", "--metrics-out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert validate_prometheus_text(text) == []
        samples = parse_prometheus_samples(text)
        assert "ehdl_vm_instructions_total" in samples
        assert "ehdl_rtl_settles_total" in samples
        # both hardware legs publish per-action counts
        engines = {dict(k).get("engine")
                   for k in samples["ehdl_sim_packets_total"]}
        assert engines == {"hwsim", "rtl"}

    def test_stats_prints_pass_table(self, capsys):
        rc = main(["stats", "app:firewall"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "compile pass" in out
        assert "schedule" in out

    def test_app_scheme_unknown_app(self):
        with pytest.raises(SystemExit, match="unknown app"):
            main(["stats", "app:nonexistent"])

    def test_no_flags_no_telemetry_files(self, tmp_path, capsys):
        rc = main(["run", "app:toy_counter", "--packets", "10",
                   "--flows", "2"])
        assert rc == 0
        assert "wrote" not in capsys.readouterr().out


# -- runtime facade -----------------------------------------------------------


class TestRuntimeTelemetry:
    def test_latency_ns_without_run_raises(self):
        nic = XdpOffload(toy_counter.build())
        with pytest.raises(RuntimeError, match="no report available"):
            nic.latency_ns()

    def test_latency_ns_after_process(self):
        nic = XdpOffload(toy_counter.build())
        nic.process([toy_counter.packet_for_key(1)] * 4)
        assert nic.latency_ns() > 0.0

    def test_latency_ns_after_streaming_run(self):
        nic = XdpOffload(toy_counter.build())
        nic.process_stream(iter([toy_counter.packet_for_key(1)] * 6))
        assert nic.latency_ns() > 0.0

    def test_telemetry_snapshot_carries_action_counts(self):
        nic = XdpOffload(toy_counter.build())
        report = nic.process([toy_counter.packet_for_key(1)] * 8)
        snap = nic.telemetry()
        per_action = [m["value"] for m in snap["metrics"]
                      if m["name"] == "ehdl_sim_packets_total"]
        assert per_action
        assert sum(per_action) == report.packets_out
