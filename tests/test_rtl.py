"""Tests of the RTL verification subsystem (:mod:`repro.rtl`).

Covers the three layers — parser, elaborator, simulator — on small
hand-written designs, then the three-way differential harness (VM vs
pipeline simulator vs simulated VHDL) around the app sweep
(``tests/test_matrix.py``): the runner itself, compiler-option corners,
randomized verifier-valid map programs, the two RTL engines against
each other and full bench traces.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.apps import firewall, router, toy_counter
from random import Random

from repro.core.compiler import CompileOptions, compile_program
from repro.core.vhdl import emit_vhdl
from repro.ebpf.asm import assemble_program
from repro.ebpf.maps import MapSet
from repro.ebpf.verifier import verify
from repro.hwsim.engines import compare_runs, engine_run
from repro.net.packet import FiveTuple, ipv4, udp_packet
from repro.rtl import (
    RTL_ENGINES,
    RtlElabError,
    RtlParseError,
    RtlRunner,
    RtlSimulator,
    elaborate,
    parse_vhdl,
    run_three_way,
)
from repro.rtl.primitives import PacketShadow
from repro.rtl.sim import find_top
from repro.runtime import XdpOffload
from tests.cases import CASES, SHORT, rt_setup, udp
from tests.test_matrix import check_cell
from tests.test_property_maps import LAYOUTS, map_programs, packet_batches

HEADER = """\
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
"""


def _design(body: str):
    return parse_vhdl(HEADER + body)


# ---------------------------------------------------------------------------
# parser


class TestParser:
    def test_parses_entity_and_architecture(self):
        design = _design("""
entity tiny is
  port (
    a : in  std_logic_vector(7 downto 0);
    y : out std_logic_vector(7 downto 0)
  );
end entity tiny;

architecture rtl of tiny is
begin
  y <= a;
end architecture rtl;
""")
        assert "tiny" in design.entities
        ent = design.entities["tiny"]
        assert [p.name for p in ent.ports] == ["a", "y"]

    def test_identifiers_are_case_insensitive(self):
        design = _design("""
entity Tiny is
  port (Y : out std_logic);
end entity Tiny;
architecture rtl of TINY is
begin
  y <= '1';
end architecture rtl;
""")
        assert "tiny" in design.entities

    def test_parse_error_carries_line_number(self):
        with pytest.raises(RtlParseError) as exc:
            parse_vhdl("entity broken is\n  port (")
        assert "line" in str(exc.value)

    def test_rejects_unknown_statement(self):
        with pytest.raises(RtlParseError):
            _design("""
entity t is
  port (y : out std_logic);
end entity t;
architecture rtl of t is
begin
  assert false report "no";
end architecture rtl;
""")

    def test_every_app_parses(self):
        text = emit_vhdl(compile_program(toy_counter.build()))
        design = parse_vhdl(text)
        assert find_top(text) == "ehdl_toy_counter"
        assert find_top(text) in design.entities


# ---------------------------------------------------------------------------
# elaborator: structural defect detection


class TestElaborator:
    def test_undeclared_signal_is_an_error(self):
        design = _design("""
entity t is
  port (y : out std_logic_vector(7 downto 0));
end entity t;
architecture rtl of t is
begin
  y <= nosuch;
end architecture rtl;
""")
        with pytest.raises(RtlElabError, match="nosuch"):
            elaborate(design, "t")

    def test_width_mismatch_is_an_error(self):
        design = _design("""
entity t is
  port (
    a : in  std_logic_vector(7 downto 0);
    y : out std_logic_vector(7 downto 0)
  );
end entity t;
architecture rtl of t is
begin
  y <= a & a;
end architecture rtl;
""")
        with pytest.raises(RtlElabError, match="width"):
            elaborate(design, "t")

    def test_combinational_cycle_is_an_error(self):
        design = _design("""
entity t is
  port (y : out std_logic_vector(7 downto 0));
end entity t;
architecture rtl of t is
  signal p : std_logic_vector(7 downto 0);
  signal q : std_logic_vector(7 downto 0);
begin
  p <= q;
  q <= p;
  y <= p;
end architecture rtl;
""")
        with pytest.raises(RtlElabError, match="cycle"):
            elaborate(design, "t")

    def test_out_of_range_slice_is_an_error(self):
        design = _design("""
entity t is
  port (
    a : in  std_logic_vector(7 downto 0);
    y : out std_logic_vector(7 downto 0)
  );
end entity t;
architecture rtl of t is
begin
  y <= a(15 downto 8);
end architecture rtl;
""")
        with pytest.raises(RtlElabError):
            elaborate(design, "t")

    def test_missing_top_entity_is_an_error(self):
        design = _design("""
entity t is
  port (y : out std_logic);
end entity t;
architecture rtl of t is
begin
  y <= '0';
end architecture rtl;
""")
        with pytest.raises(RtlElabError):
            elaborate(design, "nothere")


# ---------------------------------------------------------------------------
# simulator: two-phase semantics on tiny designs


class TestSimulator:
    def test_combinational_passthrough(self):
        design = _design("""
entity comb is
  port (
    a : in  std_logic_vector(7 downto 0);
    y : out std_logic_vector(7 downto 0)
  );
end entity comb;
architecture rtl of comb is
  signal t : std_logic_vector(7 downto 0);
begin
  t <= a;
  y <= t;
end architecture rtl;
""")
        sim = RtlSimulator(elaborate(design, "comb"))
        sim.drive("a", 0x5A)
        sim.settle()
        assert sim.read("y") == 0x5A

    def test_register_updates_only_on_edge(self):
        design = _design("""
entity reg8 is
  port (
    clk : in  std_logic;
    d   : in  std_logic_vector(7 downto 0);
    q   : out std_logic_vector(7 downto 0)
  );
end entity reg8;
architecture rtl of reg8 is
begin
  process(clk)
  begin
    if rising_edge(clk) then
      q <= d;
    end if;
  end process;
end architecture rtl;
""")
        sim = RtlSimulator(elaborate(design, "reg8"))
        sim.drive("d", 0xAB)
        sim.settle()
        assert sim.read("q") == 0  # not clocked yet
        sim.edge()
        assert sim.read("q") == 0xAB
        sim.drive("d", 0xCD)
        sim.settle()
        assert sim.read("q") == 0xAB  # holds until the next edge
        sim.edge()
        assert sim.read("q") == 0xCD

    def test_signal_semantics_swap(self):
        # both processes read the pre-edge values: a true register swap
        design = _design("""
entity swap is
  port (
    clk  : in  std_logic;
    seed : in  std_logic;
    da   : in  std_logic_vector(3 downto 0);
    db   : in  std_logic_vector(3 downto 0);
    pa   : out std_logic_vector(3 downto 0);
    pb   : out std_logic_vector(3 downto 0)
  );
end entity swap;
architecture rtl of swap is
  signal ra : std_logic_vector(3 downto 0);
  signal rb : std_logic_vector(3 downto 0);
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if seed = '1' then
        ra <= da;
        rb <= db;
      else
        ra <= rb;
        rb <= ra;
      end if;
    end if;
  end process;
  pa <= ra;
  pb <= rb;
end architecture rtl;
""")
        sim = RtlSimulator(elaborate(design, "swap"))
        sim.drive("seed", 1)
        sim.drive("da", 1)
        sim.drive("db", 2)
        sim.settle()
        sim.edge()
        sim.drive("seed", 0)
        sim.settle()
        assert (sim.read("pa"), sim.read("pb")) == (1, 2)
        sim.edge()
        sim.settle()
        assert (sim.read("pa"), sim.read("pb")) == (2, 1)

    def test_signal_semantics_swap_across_processes(self):
        # the same swap split over two processes, each reading the
        # other's register: no commit order can fuse them, so the
        # compiled schedule refuses the design (tests/test_rtl_codegen.py)
        # and only the interpreter's two-phase edge runs it
        sim = RtlSimulator(elaborate(_design(SWAP_PROCESSES), "swap2"))
        sim.drive("seed", 1)
        sim.drive("da", 1)
        sim.drive("db", 2)
        sim.settle()
        sim.edge()
        sim.drive("seed", 0)
        sim.settle()
        assert (sim.read("pa"), sim.read("pb")) == (1, 2)
        sim.edge()
        sim.settle()
        assert (sim.read("pa"), sim.read("pb")) == (2, 1)


SWAP_PROCESSES = """
entity swap2 is
  port (
    clk  : in  std_logic;
    seed : in  std_logic;
    da   : in  std_logic_vector(3 downto 0);
    db   : in  std_logic_vector(3 downto 0);
    pa   : out std_logic_vector(3 downto 0);
    pb   : out std_logic_vector(3 downto 0)
  );
end entity swap2;
architecture rtl of swap2 is
  signal ra : std_logic_vector(3 downto 0);
  signal rb : std_logic_vector(3 downto 0);
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if seed = '1' then
        ra <= da;
      else
        ra <= rb;
      end if;
    end if;
  end process;
  process(clk)
  begin
    if rising_edge(clk) then
      if seed = '1' then
        rb <= db;
      else
        rb <= ra;
      end if;
    end if;
  end process;
  pa <= ra;
  pb <= rb;
end architecture rtl;
"""


# ---------------------------------------------------------------------------
# three-way differential: evaluation apps

class TestThreeWayApps:
    """vm == hwsim == rtl on every app is ``tests/test_matrix.py``'s
    three-way cells; the tests after the first run the evaluation apps'
    cells and pin the runner around them."""

    @pytest.mark.parametrize("name", [
        "dnat", "firewall", "icmp_echo", "leaky_bucket", "router",
        "router_rmw", "suricata", "toy_counter", "tunnel"])
    def test_app_agrees_across_all_legs(self, name):
        check_cell(name, "path_parallel", "three-way-rtl")

    def test_rtl_latency_matches_pipeline_depth(self):
        program = toy_counter.build()
        pipeline = compile_program(program)
        runner = RtlRunner(pipeline)
        report = runner.run_packets([toy_counter.packet_for_key(1)] * 3)
        assert [r.pipeline_cycles for r in report.records] \
            == [pipeline.n_stages] * 3

    @pytest.mark.parametrize("engine", RTL_ENGINES)
    def test_output_on_an_inject_cycle(self, engine):
        # at gap == n_stages each output lands on the next frame's
        # inject cycle: the one case where the runner, not sim.frame,
        # drops s_axis_tvalid after the edge
        pipeline = compile_program(toy_counter.build())
        frames = [toy_counter.packet_for_key(k) for k in (1, 2, 1, 0)]
        spaced = RtlRunner(pipeline, engine=engine)
        tight = RtlRunner(pipeline, engine=engine)
        rep_s = spaced.run_packets(frames)
        rep_t = tight.run_packets(frames, gap=pipeline.n_stages)
        assert [(r.action, r.data) for r in rep_t.records] \
            == [(r.action, r.data) for r in rep_s.records]
        assert [r.exit_cycle for r in rep_t.records] \
            == [(i + 1) * pipeline.n_stages for i in range(len(frames))]
        assert tight.maps.snapshot() == spaced.maps.snapshot()

    def test_corrupted_rtl_is_detected(self):
        program = toy_counter.build()
        pipeline = compile_program(program)
        text = emit_vhdl(pipeline)
        # r0 = 3 (XDP_TX) becomes r0 = 2 (XDP_PASS): the RTL leg now
        # disagrees on the verdict and the harness must say so.
        assert 'x"0000000000000003"' in text
        bad = text.replace('x"0000000000000003"', 'x"0000000000000002"')
        result = run_three_way(program, [toy_counter.packet_for_key(1)],
                               pipeline=pipeline, vhdl_text=bad)
        assert not result.ok
        assert any(m.what.startswith("rtl") for m in result.mismatches)
        with pytest.raises(AssertionError):
            result.raise_on_mismatch()

    def test_offload_verify_rtl_leaves_live_maps_alone(self):
        nic = XdpOffload(toy_counter.build())
        result = nic.verify_rtl([toy_counter.packet_for_key(1)] * 3)
        result.raise_on_mismatch()
        # the differential ran on fresh map sets, not the NIC's
        assert nic.map("stats").read_u64(1) == 0


# ---------------------------------------------------------------------------
# three-way differential: compiler-option corners

CORNER_OPTIONS = {
    "frame32": CompileOptions(frame_size=32),
    "no_pruning": CompileOptions(enable_pruning=False),
    "no_fusion": CompileOptions(enable_fusion=False),
}


class TestThreeWayOptionCorners:
    @pytest.mark.parametrize("app", ["toy_counter", "firewall", "suricata"])
    @pytest.mark.parametrize("corner", sorted(CORNER_OPTIONS))
    def test_option_corner(self, app, corner):
        build, setup, frames, _flushes = CASES[app]
        result = run_three_way(build(), frames[:SHORT], setup=setup,
                               compile_options=CORNER_OPTIONS[corner])
        result.raise_on_mismatch()


# ---------------------------------------------------------------------------
# three-way differential: randomized verifier-valid programs


class TestThreeWayRandomPrograms:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog_ops=map_programs(), frames=packet_batches())
    def test_random_map_programs_agree(self, prog_ops, frames):
        program, _ops = prog_ops
        verify(program)
        # single packet in flight on both hardware legs: even mixed
        # atomic/RMW patterns must match the VM exactly, in either layout
        for options in LAYOUTS:
            run_three_way(program, frames[:4],
                          compile_options=options).raise_on_mismatch()

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog_ops=map_programs(), frames=packet_batches())
    def test_random_programs_compiled_matches_interp(self, prog_ops, frames):
        # The hypothesis corpus through the engine-pair differential:
        # both RTL engines simulate the same elaborated netlist, so
        # every observable — including the cycle structure — must match.
        # (Programs outside the schedulable subset fall back to the
        # interpreter, where the comparison is trivially exact.)
        program, _ops = prog_ops
        verify(program)
        _assert_rtl_engines_agree(compile_program(program), None, frames[:4])


# ---------------------------------------------------------------------------
# engine-pair differential: compiled schedule vs delta-cycle interpreter


def _rtl_engine_run(pipeline, setup, frames, engine):
    maps = MapSet(pipeline.program.maps)
    if setup is not None:
        setup(maps)
    runner = RtlRunner(pipeline, maps=maps, engine=engine)
    report = runner.run_packets(frames)
    return runner, report


def _assert_rtl_engines_agree(pipeline, setup, frames):
    """Run ``frames`` on both RTL engines and hold them to the oracle
    (:func:`compare_runs`: one model, so verdicts, bytes, per-packet
    cycles, the run's counters, map entry order and raw storage), then
    to what an ``EngineRun`` does not carry: settles and edges (one of
    each per cycle on either engine) and the primitive op mix."""
    interp, rep_i = _rtl_engine_run(pipeline, setup, frames, "rtl-interp")
    compiled, rep_c = _rtl_engine_run(pipeline, setup, frames, "rtl")
    assert compare_runs(
        engine_run("rtl-interp", rep_i, interp.maps, len(frames)),
        engine_run("rtl", rep_c, compiled.maps, len(frames))) == []
    assert interp.sim.settle_count == compiled.sim.settle_count \
        == rep_c.cycles
    assert interp.sim.edge_count == compiled.sim.edge_count == rep_c.cycles
    assert interp.context.op_counts == compiled.context.op_counts
    return compiled


WIDE_STORES = """
.map w array key=4 value=16 entries=2

    r2 = 1
    *(u32 *)(r10 - 4) = r2
    r1 = map[w]
    r2 = r10
    r2 += -4
    call 1
    if r0 == 0 goto out
    r3 = *(u64 *)(r0 + 0)
    r4 = 0xf1e2d3c4b5a69788 ll
    r3 += r4
    *(u64 *)(r0 + 0) = r3
    *(u32 *)(r0 + 8) = r3
    *(u16 *)(r0 + 12) = r3
    *(u8 *)(r0 + 14) = r3
out:
    r0 = 2
    exit
"""


class TestCompiledEnginePair:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_compiled_matches_interp(self, name):
        build, setup, frames, _flushes = CASES[name]
        pipeline = compile_program(build())
        compiled = _assert_rtl_engines_agree(pipeline, setup,
                                             frames[:SHORT])
        # every evaluation app must be inside the schedulable subset —
        # a silent interpreter fallback would void the bench numbers
        assert compiled.engine == "rtl"

    def test_wide_map_stores(self):
        # The generated STORE port masks the write data to the access
        # width: app counters stay small, so store values whose every
        # byte is set, at each width, on both engines and the VM
        program = assemble_program(WIDE_STORES, name="wide_stores")
        frames = [udp_packet(dst_ip="10.0.0.1", size=64)] * 3
        pipeline = compile_program(program)
        compiled = _assert_rtl_engines_agree(pipeline, None, frames)
        assert compiled.engine == "rtl"
        assert compiled.context.op_counts["store"] == 3 * 4
        run_three_way(program, frames,
                      pipeline=pipeline).raise_on_mismatch()

    def test_compiled_matches_interp_on_random_traffic(self):
        # Same deterministic seed on both engines, mixed verdicts.
        rng = Random(0x5EED)
        tuples = [FiveTuple(ipv4(f"10.0.{i % 4}.{10 + i}"),
                            ipv4("192.168.9.9"), 17, 5000 + i, 53)
                  for i in range(16)]
        allowed = tuples[::2]

        def setup(maps):
            for ft in allowed:
                firewall.allow_flow(maps, ft)

        frames = [udp(rng.choice(tuples)) for _ in range(120)]
        pipeline = compile_program(firewall.build())
        compiled = _assert_rtl_engines_agree(pipeline, setup, frames)
        assert compiled.engine == "rtl"


# ---------------------------------------------------------------------------
# three-way differential: full bench traces on the compiled engine

FULL_TRACE_PACKETS = 4000


def _firewall_trace():
    rng = Random(0x5EED)
    tuples = [FiveTuple(ipv4(f"10.0.{i % 4}.{10 + i}"),
                        ipv4("192.168.9.9"), 17, 5000 + i, 53)
              for i in range(16)]
    allowed = tuples[::2]

    def setup(maps):
        for ft in allowed:
            firewall.allow_flow(maps, ft)

    frames = [udp(rng.choice(tuples)) for _ in range(FULL_TRACE_PACKETS)]
    return firewall.build, setup, frames


def _router_trace():
    rng = Random(0x5EED)
    dsts = ["192.168.7.200", "192.168.7.4", "8.8.8.8"]
    frames = [udp_packet(dst_ip=rng.choice(dsts), size=64,
                         ttl=rng.choice([1, 9, 64]))
              for _ in range(FULL_TRACE_PACKETS)]
    return router.build, rt_setup, frames


class TestThreeWayFullTraces:
    """vm == hwsim == rtl on full 4000-packet traces.

    Only feasible because the compiled RTL engine simulates these
    traces in well under a second; the delta-cycle interpreter needed
    ~40s per trace, which is why the differential used to stop at
    16-packet smoke runs.
    """

    @pytest.mark.parametrize("trace", ["firewall", "router"])
    def test_full_trace_agrees_across_all_legs(self, trace):
        build, setup, frames = \
            _firewall_trace() if trace == "firewall" else _router_trace()
        result = run_three_way(build(), frames, setup=setup,
                               rtl_engine="rtl")
        result.raise_on_mismatch()
        assert result.packets == FULL_TRACE_PACKETS
        # both verdict classes must occur or the trace proves little
        actions = {rec.action for rec in result.rtl_report.records}
        assert len(actions) >= 2


# ---------------------------------------------------------------------------
# engine pair, every net: the compiled schedule against the interpreter
# phase by phase

EVERY_NET_PACKETS = 60


def _every_net_case(name):
    if name == "firewall":
        return _firewall_trace()
    _build, setup, frames = _router_trace()
    if name == "router_rmw":
        return (lambda: router.build(use_atomic=False)), setup, frames
    return router.build, setup, frames


def _step_every_net(build, setup, frames):
    """Step both RTL engines through the runner's protocol (inject, drop
    ``s_axis_tvalid``, ``n_stages + 2`` cycles a packet) one phase at a
    time — each drive, settle and edge — and fail at the first phase
    after which any net differs. Returns the settles and edges
    compared."""
    pipeline = compile_program(build())
    runners = []
    for engine in RTL_ENGINES:
        maps = MapSet(pipeline.program.maps)
        setup(maps)
        runners.append(RtlRunner(pipeline, maps=maps, engine=engine))
    compiled, interp = runners
    assert (compiled.engine, interp.engine) == RTL_ENGINES
    names = compiled.model.net_names
    clocked = 0

    def step(phase, *args):
        for runner in runners:
            getattr(runner.sim, phase)(*args)
        ours, theirs = compiled.sim.values, interp.sim.values
        if ours != theirs:
            nets = [names[n] for n, (x, y) in enumerate(zip(ours, theirs))
                    if x != y]
            pytest.fail(f"after {clocked} settles and edges, {phase}"
                        f"{args}: {', '.join(nets[:8])} differ")

    step("drive", "rst", 0)
    step("drive", "m_axis_tready", 1)
    wmax = compiled.window_bytes
    for frame in frames:
        for runner in runners:
            shadow = PacketShadow(frame)
            shadow.tail = bytearray(frame[wmax:])
            runner.context.packet = shadow
        window = int.from_bytes(frame[:wmax].ljust(wmax, b"\x00"), "little")
        for port, value in (("s_axis_tvalid", 1), ("s_axis_tlast", 1),
                            ("s_axis_tdata", window),
                            ("s_axis_tlen", len(frame) & 0xFFFF)):
            step("drive", port, value)
        for cycle in range(pipeline.n_stages + 2):
            if cycle == 1:
                step("drive", "s_axis_tvalid", 0)
            step("settle")
            step("edge")
            clocked += 2
    assert compiled.context.op_counts == interp.context.op_counts
    assert compiled.maps.snapshot() == interp.maps.snapshot()
    return clocked


class TestEveryNet:
    """docs/rtl.md §4: ``rtl`` and ``rtl-interp`` agree bit for bit on
    every net after every phase, not only on what the runner samples."""

    @pytest.mark.parametrize("name, clocked", [
        ("firewall", 2400), ("router", 3480), ("router_rmw", 3600)])
    def test_every_net_every_phase(self, name, clocked):
        build, setup, frames = _every_net_case(name)
        assert _step_every_net(build, setup,
                               frames[:EVERY_NET_PACKETS]) == clocked


class TestScheduleCounts:
    """What the compiled schedule evaluates on the full traces. These
    are counts, stated exactly: a schedule change that moves one
    restates it here (and says why in CHANGES.md)."""

    @staticmethod
    def _evaluations(trace):
        build, setup, frames = trace()
        pipeline = compile_program(build())
        maps = MapSet(pipeline.program.maps)
        setup(maps)
        runner = RtlRunner(pipeline, maps=maps)
        runner.run_packets(frames)
        assert runner.engine == "rtl"
        return runner.sim.evaluations()

    def test_router_process_evaluations(self):
        # Six stage registers read m1_ch0's response only while their
        # stage is valid: the guard rule wakes them for its changes only
        # then (75.04 process evaluations a packet before it)
        nodes, procs, ports = self._evaluations(_router_trace)
        assert (nodes, procs, ports) == (185071, 224026, 17203)
        assert procs / FULL_TRACE_PACKETS <= 60

    def test_firewall_process_evaluations(self):
        # 155963 before the guard rule
        assert self._evaluations(_firewall_trace) == (119422, 152017, 8000)
