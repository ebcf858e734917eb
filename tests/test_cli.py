"""Command-line interface tests."""

import pathlib
import re

import pytest

from repro.cli import load_program, main
from repro.ebpf.asm import AsmError, assemble_program

EXAMPLE = (
    pathlib.Path(__file__).parent.parent
    / "examples" / "programs" / "port_filter.ebpf"
)

SIMPLE = """
.map counters array key=4 value=8 entries=1

    r0 = 2
    exit
"""


@pytest.fixture()
def prog_file(tmp_path):
    path = tmp_path / "simple.ebpf"
    path.write_text(SIMPLE)
    return str(path)


class TestLoadProgram:
    def test_text_with_map_directive(self, prog_file):
        program = load_program(prog_file)
        assert len(program.instructions) == 2
        assert program.maps[1].name == "counters"

    def test_binary_roundtrip(self, tmp_path):
        program = assemble_program("r0 = 2\nexit")
        path = tmp_path / "prog.bin"
        path.write_bytes(program.encode())
        again = load_program(str(path))
        assert again.instructions == program.instructions

    def test_example_file_loads(self):
        program = load_program(str(EXAMPLE))
        assert len(program.maps) == 1


class TestMapDirectives:
    def test_directive_and_maps_arg_conflict(self):
        from repro.ebpf.isa import MapSpec

        with pytest.raises(AsmError, match="not both"):
            assemble_program(
                SIMPLE, maps={"x": MapSpec("x", "array", 4, 8, 1)}
            )

    def test_bad_directive_rejected(self):
        with pytest.raises(AsmError, match="directive"):
            assemble_program(".map broken\nr0 = 2\nexit")

    def test_duplicate_map_rejected(self):
        source = (
            ".map a array key=4 value=8 entries=1\n"
            ".map a array key=4 value=8 entries=1\n"
            "r0 = 2\nexit"
        )
        with pytest.raises(AsmError, match="duplicate"):
            assemble_program(source)


class TestCommands:
    def test_stats(self, capsys, prog_file):
        assert main(["stats", prog_file]) == 0
        out = capsys.readouterr().out
        assert "stage" in out and "resources" in out

    def test_stats_counts_speculated_ops(self, capsys):
        assert main(["stats", "app:ct_firewall"]) == 0
        out = capsys.readouterr().out
        # both conntrack arms' setup moves above the lookup's branch: the
        # insert's initial value and the refresh's increment renamed into
        # r7 and r9, the rest (call arguments, the inbound increment) as
        # they are
        assert ("instructions: 65 in, 60 scheduled (1 bounds checks "
                "elided, 3 dead removed, 10 speculated above branches "
                "(2 renamed), 0 loops unrolled)\n") in out

    def test_stats_names_the_bank_split(self, capsys):
        # conntrack's 16 banks split its window: a holder waits only for
        # a holder of the bank its stack key hashes to
        assert main(["stats", "app:ct_firewall"]) == 0
        assert "window [12, 15] W=4 banked x16 on conntrack by " \
            "stack[-16:16] (opens: " in capsys.readouterr().out
        # one op per stage puts the outbound arm's key stores inside the
        # window: it stays at one bank, and says which store did it
        assert main(["stats", "app:ct_firewall", "--no-ilp"]) == 0
        assert "W=33 one bank: key stack[-16:16] is written at or past " \
            "stage 20 (b6 *(u32 *)(r10 - 16) = r8 @" \
            in capsys.readouterr().out

    def test_stats_names_the_keyed_window_and_a_kept_flush(self, capsys):
        # buckets' flushes become a same-key stall at the window ...
        assert main(["stats", "app:leaky_bucket"]) == 0
        assert "window [8, 18] W=11 keyed on buckets by stack[-8:8] " \
            "(opens: b1 call 1 @8; " in capsys.readouterr().out
        # ... nat's stay, and the line says which rule kept them
        assert main(["stats", "app:dnat"]) == 0
        assert "flush block L=12 K=22  flush kept: map ports is accessed " \
            "inside the window (b4 call 1 @13)\n" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["stats", "run", "compile"])
    def test_a_bare_app_name_names_the_app(self, command, tmp_path,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "leaky_bucket"])
        assert str(exc.value) == ("leaky_bucket: No such file or directory "
                                  "(the built-in app is app:leaky_bucket)")
        with pytest.raises(SystemExit) as exc:
            main([command, "no_such_program.ebpf"])
        assert str(exc.value) \
            == "no_such_program.ebpf: No such file or directory"

    def test_disasm(self, capsys, prog_file):
        assert main(["disasm", prog_file]) == 0
        assert "exit" in capsys.readouterr().out

    def test_compile_to_file(self, capsys, tmp_path, prog_file):
        out_path = tmp_path / "out.vhd"
        assert main(["compile", prog_file, "-o", str(out_path)]) == 0
        assert "entity" in out_path.read_text()

    def test_compile_to_directory(self, capsys, tmp_path, prog_file):
        out_dir = tmp_path / "build"
        out_dir.mkdir()
        assert main(["compile", prog_file, "-o", str(out_dir)]) == 0
        assert (out_dir / "simple.vhd").exists()
        assert "entity" in (out_dir / "simple.vhd").read_text()

    def test_compile_to_new_directory_with_slash(self, tmp_path, prog_file):
        out_dir = tmp_path / "gen"
        assert main(["compile", prog_file, "-o", str(out_dir) + "/"]) == 0
        assert (out_dir / "simple.vhd").exists()

    def test_compile_to_stdout(self, capsys, prog_file):
        assert main(["compile", prog_file]) == 0
        assert "architecture" in capsys.readouterr().out

    def test_simulate(self, capsys, prog_file):
        assert main(["simulate", prog_file, "--packets", "50",
                     "--flows", "5"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "latency" in out

    def test_simulate_rate_limited(self, capsys, prog_file):
        assert main(["simulate", prog_file, "--packets", "50",
                     "--rate-mpps", "10"]) == 0
        assert "throughput" in capsys.readouterr().out

    def test_ablation_flags(self, capsys, prog_file):
        assert main(["stats", prog_file, "--no-pruning", "--no-ilp",
                     "--keep-bounds-checks"]) == 0

    def test_example_program_end_to_end(self, capsys):
        assert main(["simulate", str(EXAMPLE), "--packets", "100"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestModelAndTrace:
    def test_model_no_hazard(self, capsys, prog_file):
        assert main(["model", prog_file]) == 0
        assert "no hazard" in capsys.readouterr().out

    def test_model_window_only_hazard(self, capsys):
        # leaky_bucket's flush blocks all sit in its keyed window
        assert main(["model", "app:leaky_bucket"]) == 0
        out = capsys.readouterr().out
        assert "n/a (window, no live flush block)" in out
        assert "no hazard" not in out

    def test_model_with_hazard(self, capsys, tmp_path):
        path = tmp_path / "rmw.ebpf"
        path.write_text(
            """
.map m array key=4 value=8 entries=1

    r2 = 0
    *(u32 *)(r10 - 4) = r2
    r1 = map[m]
    r2 = r10
    r2 += -4
    call 1
    if r0 == 0 goto out
    r2 = *(u64 *)(r0 + 0)
    r2 += 1
    *(u64 *)(r0 + 0) = r2
out:
    r0 = 2
    exit
"""
        )
        assert main(["model", str(path)]) == 0
        out = capsys.readouterr().out
        assert "flush block" in out and "P_f" in out

    def test_trace(self, capsys, prog_file):
        assert main(["trace", prog_file, "--packets", "5",
                     "--cycles", "12"]) == 0
        out = capsys.readouterr().out
        assert "cycle" in out and "p0" in out

    def test_trace_takes_the_shared_traffic_path(self, capsys, monkeypatch):
        # simulate's traffic flags and the app's default_setup: without
        # its route, every router frame would take the FIB-miss path
        from repro.apps import router

        install, tables = router.default_setup, []
        monkeypatch.setattr(router, "default_setup",
                            lambda maps: (install(maps), tables.append(maps)))
        assert main(["trace", "app:router", "--packets", "8", "--seed", "3",
                     "--distribution", "zipf", "--cycles", "4"]) == 0
        [maps] = tables
        assert router.routed_count(maps) == 8


# a counter read again after it was stored: the second read postdates
# the store's elastic-buffer snapshot, so restarts from it are possible
READ_AFTER_STORE = """
.map m array key=4 value=8 entries=1

    r2 = 0
    *(u32 *)(r10 - 4) = r2
    r1 = map[m]
    r2 = r10
    r2 += -4
    call 1
    if r0 == 0 goto out
    r2 = *(u64 *)(r0 + 0)
    r2 += 1
    *(u64 *)(r0 + 0) = r2
    r3 = *(u64 *)(r0 + 0)
    if r3 != 0 goto out
    r0 = 1
    exit
out:
    r0 = 2
    exit
"""


class TestRunAndBench:
    def test_run_default_engine_is_codegen(self, capsys, prog_file):
        assert main(["run", prog_file, "--packets", "60", "--flows", "4"]) == 0
        out = capsys.readouterr().out
        assert "engine: codegen" in out and "packets/s" in out
        assert "engine path: " in out

    def test_run_says_when_the_cycle_loop_visits_every_stage(
            self, capsys, tmp_path):
        path = tmp_path / "read_after_store.ebpf"
        path.write_text(READ_AFTER_STORE)
        assert main(["run", str(path), "--packets", "40", "--flows", "2"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"engine path: cycle-loop \(flush plan on map 1 "
                         r"\(stages \d+-\d+\) not covered by a window\)\n",
                         out), out

    def test_run_interpreted(self, capsys, prog_file):
        assert main(["run", prog_file, "--packets", "40",
                     "--engine", "interpreted"]) == 0
        assert "engine: interpreted" in capsys.readouterr().out

    def test_run_profile_prints_top_functions(self, capsys, prog_file):
        assert main(["run", prog_file, "--packets", "30", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out and "ncalls" in out

    def test_bench_reports_speedup_and_parity(self, capsys, prog_file):
        assert main(["bench", prog_file, "--packets", "80",
                     "--flows", "4"]) == 0
        out = capsys.readouterr().out
        assert "codegen" in out and "interpreted" in out
        assert "speedup" in out and "parity OK" in out


class TestRtlCommands:
    def test_rtl_sim(self, capsys, prog_file):
        assert main(["rtl-sim", prog_file, "--packets", "6",
                     "--flows", "2"]) == 0
        out = capsys.readouterr().out
        # the banner names the engine that actually ran — the compiled
        # schedule, with no silent interpreter fallback
        assert "rtl[rtl]:" in out and "per-packet cycles" in out
        # what the schedule did: it evaluates only what changed, and
        # counts the settles its gated ports were live
        assert ("rtl[rtl] schedule: 16.8 node evaluations, 6.2 process "
                "evaluations, 0.0 port requests per packet\n") in out

    def test_rtl_sim_interp_engine(self, capsys, prog_file):
        assert main(["rtl-sim", prog_file, "--packets", "6",
                     "--flows", "2", "--engine", "rtl-interp"]) == 0
        out = capsys.readouterr().out
        assert "rtl[rtl-interp]:" in out
        assert ("rtl[rtl-interp] schedule: 99.7 node evaluations, 11.5 "
                "process evaluations (every node each settle, every "
                "process each edge) per packet\n") in out

    def test_verify_ok(self, capsys, prog_file):
        assert main(["verify", prog_file, "--packets", "6",
                     "--flows", "2"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "vm/hwsim/rtl" in out

    def test_verify_example_program(self, capsys):
        assert main(["verify", str(EXAMPLE), "--packets", "8",
                     "--flows", "3"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_fails_on_divergence(self, capsys, tmp_path, monkeypatch):
        # sabotage the RTL leg: feed the harness a corrupted design
        path = tmp_path / "tx.ebpf"
        path.write_text("r0 = 3\nexit\n")
        from repro.core.vhdl import emit_vhdl as real_emit

        def corrupted(pipeline, *a, **kw):
            text = real_emit(pipeline, *a, **kw)
            return text.replace('x"0000000000000003"',
                                'x"0000000000000002"')

        monkeypatch.setattr("repro.rtl.sim.emit_vhdl", corrupted)
        assert main(["verify", str(path), "--packets", "4"]) == 1
        err = capsys.readouterr().err
        assert "FAIL" in err and "rtl" in err


class TestCacheCommand:
    def test_compile_populates_cache(self, capsys, prog_file):
        assert main(["compile", prog_file]) == 0
        capsys.readouterr()
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "disk_entries: 1" in out

    def test_no_cache_flag_bypasses(self, capsys, prog_file):
        assert main(["compile", prog_file, "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["cache"]) == 0
        assert "disk_entries: 0" in capsys.readouterr().out

    def test_cache_hit_skips_recompile(self, capsys, prog_file, monkeypatch):
        assert main(["stats", prog_file]) == 0
        capsys.readouterr()
        from repro.core import compiler as compiler_mod

        def boom(*args, **kwargs):
            raise AssertionError("recompiled despite warm cache")

        monkeypatch.setattr(compiler_mod, "compile_program", boom)
        assert main(["stats", prog_file]) == 0
        assert "stage" in capsys.readouterr().out

    def test_cache_clear(self, capsys, prog_file):
        assert main(["compile", prog_file]) == 0
        capsys.readouterr()
        assert main(["cache", "--clear"]) == 0
        assert "removed 1" in capsys.readouterr().out


class TestAppsAndWorkloads:
    def test_apps_lists_both_suites(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for name in ("firewall", "router", "tunnel", "dnat", "suricata"):
            assert name in out
        for name in ("ct_firewall", "maglev", "syn_cookie", "nat64",
                     "vxlan_term"):
            assert name in out
            assert "2nd-gen" in out
        assert "conntrack(lru_hash)" in out
        assert "flow-churn:" in out

    def test_apps_verbose_shows_docstrings(self, capsys):
        assert main(["apps", "-v"]) == 0
        out = capsys.readouterr().out
        assert "Maglev" in out

    def test_unknown_app_error_enumerates_names(self):
        with pytest.raises(SystemExit) as err:
            main(["stats", "app:nosuch"])
        message = str(err.value)
        for name in ("ct_firewall", "maglev", "nat64", "syn_cookie",
                     "vxlan_term", "firewall", "toy_counter"):
            assert name in message

    def test_run_with_workload(self, capsys):
        assert main(["run", "app:ct_firewall", "--workload",
                     "flow-churn:packets=40,flows=50,churn=0.2"]) == 0
        out = capsys.readouterr().out
        assert "40 packets" in out or "packets: 40" in out or "40" in out

    def test_simulate_with_workload(self, capsys, prog_file):
        assert main(["simulate", prog_file, "--workload",
                     "udp-zipf:packets=30,flows=10"]) == 0
        capsys.readouterr()

    def test_bad_workload_kind_enumerates(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "app:maglev", "--workload", "bogus:packets=5"])
        assert "tcp-handshake" in str(err.value)

    def test_bad_workload_option_rejected(self, prog_file):
        with pytest.raises(SystemExit) as err:
            main(["run", prog_file, "--workload", "udp-zipf:dist=pareto"])
        assert "distribution" in str(err.value)

    def test_out_of_range_option_names_option_and_range(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "app:maglev", "--workload", "udp-zipf:size=70000"])
        assert str(err.value) == (
            "--workload: option size=70000 is out of range "
            "(expected 1..65499)")
        with pytest.raises(SystemExit) as err:
            main(["serve", "--program", "bg=app:toy_counter",
                  "--feed", "synth:size=70000"])
        assert str(err.value) == (
            "--feed: option size=70000 is out of range (expected 1..65499)")

    def test_verify_app_with_workload(self, capsys):
        assert main(["verify", "app:vxlan_term", "--workload",
                     "tunnel-encap:packets=25,flows=40,vnis=4"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    @pytest.mark.parametrize("flags, packets", [
        ([], 25), (["--packets", "7"], 7)], ids=["spec_count", "truncated"])
    def test_packets_truncates_an_explicit_workload(self, capsys, flags,
                                                    packets):
        # without --packets the spec's own count; with it, that many
        assert main(["verify", "app:vxlan_term", "--workload",
                     "tunnel-encap:packets=25,flows=40,vnis=4",
                     *flags]) == 0
        assert f"OK: {packets} packets agree" in capsys.readouterr().out

    def test_workload_auto_uses_registered_spec(self, capsys):
        assert main(["verify", "app:nat64", "--workload", "auto",
                     "--packets", "12"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_workload_auto_needs_registered_app(self, prog_file):
        with pytest.raises(SystemExit) as err:
            main(["run", prog_file, "--workload", "auto"])
        assert "registered workload" in str(err.value)
