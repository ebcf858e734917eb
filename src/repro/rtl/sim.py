"""Cycle-accurate simulation of the emitted VHDL design.

:class:`RtlSimulator` is the generic engine: drive top-level inputs,
``settle()`` the combinational fabric (one pass over the topologically
ordered nodes), sample outputs, ``edge()`` the registers. On top of it
:class:`RtlRunner` speaks the NIC-shell AXI-stream protocol of the
emitted top entity, pushing real frames through ``s_axis_*`` and
collecting verdicts from ``m_axis_*`` into the same
:class:`~repro.hwsim.stats.SimReport` shape the pipeline simulator
produces — so reports from both back ends compare field by field.

Verification runs one packet in flight (``gap >= n_stages``): that is
the regime where the hardware pipeline is sequentially consistent with
the instruction-level VM, which is exactly the property the three-way
differential (:func:`repro.hwsim.engines.run_three_way`) checks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.cache import get_default_cache
from ..core.pipeline import Pipeline
from ..core.vhdl import TOP_MARKER, emit_vhdl
from ..ebpf.maps import MapSet
from ..ebpf.xdp import XdpAction
from .codegen import load_rtl_module
from .elab import Elaborated, elaborate
from .errors import RtlCodegenError, RtlSimError
from .ast import DesignFile
from .parser import parse_vhdl
from .primitives import PacketShadow, RtlContext, primitive_factory

from ..hwsim.stats import PacketRecord, SimReport
from ..telemetry import get_registry

#: RTL engine names accepted by :class:`RtlRunner`.
RTL_ENGINES = ("rtl", "rtl-interp")


class RtlSimulator:
    """Two-phase simulator over an elaborated design.

    The stepping contract both RTL engines implement: ``drive`` /
    ``settle`` / ``read`` / ``edge`` for one phase at a time, and on top
    of them ``run(limit)`` (whole cycles until ``m_axis_tvalid`` rises)
    and ``frame(span, data, tlen)`` (inject one s_axis beat, then run
    the window). Here they are written in Python over the four phases;
    :class:`CompiledRtlSimulator` binds the generated ones.
    """

    def __init__(self, model: Elaborated) -> None:
        self.model = model
        self.values: List[int] = [0] * len(model.net_widths)
        # Activity counters for the RTL telemetry: combinational settle
        # passes and clock edges since construction.
        self.settle_count = 0
        self.edge_count = 0

    def _port(self, name: str):
        ref = self.model.top_scope.get(name)
        if ref is None:
            raise RtlSimError(f"top has no port or signal {name!r}")
        return ref

    def drive(self, name: str, value: int) -> None:
        self._port(name).set(self.values, value)

    def read(self, name: str) -> int:
        return self._port(name).get(self.values)

    def settle(self) -> None:
        """One combinational evaluation pass (topological order)."""
        self.settle_count += 1
        values = self.values
        for node in self.model.nodes:
            node.fn(values)

    def edge(self) -> None:
        """One rising clock edge: every process reads pre-edge values,
        writes land after all processes ran (signal semantics)."""
        self.edge_count += 1
        values = self.values
        pending: Dict[int, int] = {}
        for proc in self.model.procs:
            proc.fn(values, pending)
        for net, value in pending.items():
            values[net] = value

    def evaluations(self) -> Tuple[int, int, Optional[int]]:
        """Node evaluations, process evaluations and port requests since
        construction. The interpreter evaluates every node each settle
        and every process each edge, and does not count its ports."""
        return (len(self.model.nodes) * self.settle_count,
                len(self.model.procs) * self.edge_count, None)

    def run(self, limit: int) -> Tuple[int, int]:
        """Step up to ``limit`` cycles: settle, then stop if
        ``m_axis_tvalid`` is high (the cycle's edge left to the
        caller), else clock the edge. Returns (whole cycles run, 1 if
        stopped on an output else 0)."""
        tvalid = self._port("m_axis_tvalid")
        for done in range(limit):
            self.settle()
            if tvalid.get(self.values):
                return done, 1
            self.edge()
        return limit, 0

    def frame(self, span: int, data: int, tlen: int) -> Tuple[int, int]:
        """Inject one s_axis beat and run a ``span``-cycle window:
        tvalid is held for the inject cycle only. Returns like
        :meth:`run`, counting from the inject cycle."""
        self.drive("s_axis_tvalid", 1)
        self.drive("s_axis_tlast", 1)
        self.drive("s_axis_tdata", data)
        self.drive("s_axis_tlen", tlen)
        if self.run(1)[1]:
            return 0, 1
        self.drive("s_axis_tvalid", 0)
        done, hit = self.run(span - 1)
        return done + 1, hit


class CompiledRtlSimulator(RtlSimulator):
    """Event-driven simulator over a generated evaluation schedule
    (:mod:`repro.rtl.codegen`).

    Same stepping contract as :class:`RtlSimulator` and bit-identical
    values every phase, but only *dirty* nodes are evaluated: writes are
    change-detected and mark their readers, and clocked processes only
    re-run when an input net actually moved — one read only under a
    guard, only while the guard is high. Gated primitives stay live
    while requested (side effects are not idempotent), counted per block
    in ``prim_active``. Their common requests are generated code; the
    rest call the primitive models of :mod:`repro.rtl.primitives`. Both
    read this simulator's maps and context through ``_PRIMS``: the
    models first, then what the module's ``_BIND`` asks for
    (:func:`_port_binding`).
    """

    def __init__(self, model: Elaborated, namespace: dict) -> None:
        super().__init__(model)
        self._settle_fn = namespace["_settle"]
        self._edge_fn = namespace["_edge"]
        self._mark_fn = namespace["_mark"]
        self._run_fn = namespace["_run"]
        self._frame_fn = namespace["_frame"]
        n_nodes, n_procs = len(model.nodes), len(model.procs)
        # Power-on: everything is dirty once, mirroring the
        # interpreter's first full sweep.
        self._NQ = bytearray(b"\x01" * n_nodes)
        self._PEND = list(range(n_procs))
        self._PQ = bytearray(b"\x01" * n_procs)
        self._PRIMS = [model.nodes[i].fn
                       for i in namespace["_PRIM_NODE_IDS"]]
        self._PRIMS += [_port_binding(model.nodes[i].prim[0], what)
                        for what, i in namespace["_BIND"]]
        self.prim_labels = list(namespace["_PRIM_LABELS"])
        self.prim_active = [0] * len(self._PRIMS)
        # Evaluation counters (the interpreter's equivalents would be
        # n_nodes per settle / n_procs per edge).
        self.comb_evals = 0
        self.proc_evals = 0

    def drive(self, name: str, value: int) -> None:
        ref = self._port(name)
        values = self.values
        before = values[ref.net]
        ref.set(values, value)
        if values[ref.net] != before:
            self._mark_fn(ref.net, self._NQ, self._PEND, self._PQ)

    def settle(self) -> None:
        self.settle_count += 1
        self.comb_evals += self._settle_fn(
            self.values, self._NQ, self._PEND, self._PQ,
            self._PRIMS, self.prim_active)

    def edge(self) -> None:
        self.edge_count += 1
        self.proc_evals += self._edge_fn(
            self.values, self._NQ, self._PEND, self._PQ)

    def evaluations(self) -> Tuple[int, int, Optional[int]]:
        return self.comb_evals, self.proc_evals, sum(self.prim_active)

    def _count(self, done: int, hit: int, nc: int,
               pr: int) -> Tuple[int, int]:
        self.settle_count += done + hit
        self.edge_count += done
        self.comb_evals += nc
        self.proc_evals += pr
        return done, hit

    def run(self, limit: int) -> Tuple[int, int]:
        return self._count(*self._run_fn(
            self.values, self._NQ, self._PEND, self._PQ,
            self._PRIMS, self.prim_active, limit))

    def frame(self, span: int, data: int, tlen: int) -> Tuple[int, int]:
        return self._count(*self._frame_fn(
            self.values, self._NQ, self._PEND, self._PQ,
            self._PRIMS, self.prim_active, span, data, tlen))


def _port_binding(block, what: str):
    """What a generated port reads per simulator (``codegen._BIND``):
    the run's ``op_counts`` or context, or the map ``block`` drives —
    as a ``Map``, its ``storage`` or its ``_find`` core. The generated
    code folds the map's key and value sizes from the design, so a
    ``MapSet`` without the design's map for that fd is outside the
    schedulable subset (the runner falls back to the interpreter)."""
    context = block.context
    if what == "counts":
        return context.op_counts
    if what == "context":
        return context
    bpf_map = context.maps.maps.get(block.fd)
    if bpf_map is None or (bpf_map.key_size, bpf_map.value_size) \
            != (block.key_bytes, block.value_bytes):
        raise RtlCodegenError(
            f"{block.name}: the MapSet holds no map of the design's "
            f"geometry for fd {block.fd}; not schedulable")
    if what == "storage":
        return bpf_map.storage
    return bpf_map._find if what == "find" else bpf_map


def find_top(text: str) -> Optional[str]:
    """The top entity name recorded in the emitted header comment."""
    for line in text.splitlines():
        if line.startswith(TOP_MARKER):
            return line[len(TOP_MARKER):].strip()
        if line and not line.startswith("--"):
            break
    return None


@lru_cache(maxsize=4)
def _parsed(text: str) -> DesignFile:
    # elaborate() only reads the tree, and a differential loads one
    # design once per RTL engine: the last few designs parse once.
    return parse_vhdl(text)


def elaborate_text(text: str, context: RtlContext) -> Elaborated:
    """Parse emitted VHDL and elaborate the top entity its header names,
    binding the behavioural blocks to primitives over ``context``."""
    top = find_top(text)
    if top is None:
        raise RtlSimError("no '-- top:' marker in the design text")
    return elaborate(_parsed(text), top, primitive_factory, context)


def load_design(text: str, context: Optional[RtlContext] = None
                ) -> RtlSimulator:
    """Parse + elaborate emitted VHDL into a ready simulator."""
    if context is None:
        context = RtlContext(MapSet({}))
    return RtlSimulator(elaborate_text(text, context))


def dump_schedule_source(pipeline: Pipeline, directory) -> Optional[str]:
    """Regenerate the compiled schedule source for ``pipeline`` and drop
    it under ``directory`` for post-mortem inspection (the CI verify
    step uploads the directory as an artifact on failure). Returns the
    written path, or ``None`` when the design falls outside the
    schedulable subset."""
    from .codegen import generate_rtl_source, write_debug_source

    model = elaborate_text(emit_vhdl(pipeline),
                           RtlContext(MapSet(pipeline.program.maps)))
    try:
        source = generate_rtl_source(model, pipeline.name)
    except RtlCodegenError:
        return None
    return str(write_debug_source(source, directory, pipeline.name))


class RtlRunner:
    """Drives the emitted top entity with frames, one per ``gap``
    cycles, and reports per-packet verdicts."""

    def __init__(
        self,
        pipeline: Pipeline,
        maps: Optional[MapSet] = None,
        time_ns: int = 0,
        text: Optional[str] = None,
        engine: str = "rtl",
    ) -> None:
        if engine not in RTL_ENGINES:
            raise RtlSimError(
                f"unknown RTL engine {engine!r} (choose from "
                f"{', '.join(RTL_ENGINES)})")
        self.pipeline = pipeline
        self.maps = maps if maps is not None else MapSet(pipeline.program.maps)
        self.text = text if text is not None else emit_vhdl(pipeline)
        self.context = RtlContext(self.maps, time_ns=time_ns)
        self.model = elaborate_text(self.text, self.context)
        self.engine = engine
        if engine == "rtl":
            try:
                namespace = load_rtl_module(
                    self.model, self.text, pipeline.name,
                    cache=get_default_cache())
                self.sim: RtlSimulator = CompiledRtlSimulator(
                    self.model, namespace)
            except RtlCodegenError:
                # Outside the schedulable subset: fall back to the
                # interpreter (and say so in the telemetry).
                self.engine = "rtl-interp"
                self.sim = RtlSimulator(self.model)
                reg = get_registry()
                if reg.enabled:
                    reg.counter(
                        "ehdl_rtl_codegen_fallback_total",
                        "Designs outside the compiled-schedule subset "
                        "that fell back to the interpreter",
                        {"program": pipeline.name},
                    ).inc()
        else:
            self.sim = RtlSimulator(self.model)
        self.n_stages = pipeline.n_stages
        port = self.model.top_entity.port("s_axis_tdata")
        self.window_bytes = port.width // 8
        # (net, low, mask) of the m_axis sample ports
        self._out_hot = tuple(
            (r.net, r.low, r.mask) for r in (
                self.sim._port("m_axis_tlen"),
                self.sim._port("m_axis_tdata"),
                self.sim._port("m_axis_tverdict")))
        # Telemetry high-water marks (deltas published per run_packets).
        self._published_settles = 0
        self._published_edges = 0
        self._published_ops: Dict[str, int] = {}
        self._published_comb = 0
        self._published_procs = 0
        self._published_active: List[int] = []

    def run_packets(self, frames: Iterable[bytes],
                    gap: Optional[int] = None) -> SimReport:
        """Push ``frames`` through the design, one injection every
        ``gap`` cycles (default ``n_stages + 2``: single packet in
        flight, the sequentially-consistent regime).

        One window per frame: ``sim.frame`` injects and runs until
        ``m_axis_tvalid`` rises (settle done, edge pending) or the
        window ends, so Python only touches injections and outputs."""
        frames = [bytes(f) for f in frames]
        if gap is None:
            gap = self.n_stages + 2
        if gap < self.n_stages:
            raise RtlSimError(
                f"gap {gap} would overlap packets (pipeline depth "
                f"{self.n_stages}); the RTL runner models one packet in "
                "flight"
            )
        sim = self.sim
        report = SimReport(clock_mhz=1_000_000.0, n_stages=self.n_stages)
        report.packets_in = len(frames)
        sim.drive("rst", 0)
        sim.drive("m_axis_tready", 1)
        wmax = self.window_bytes
        ctx = self.context
        shadows: List[PacketShadow] = []
        out_index = 0
        base = 0
        last = len(frames) - 1
        for idx, frame in enumerate(frames):
            shadow = PacketShadow(frame)
            shadow.tail = bytearray(frame[wmax:])
            shadows.append(shadow)
            ctx.packet = shadow
            window = frame[:wmax].ljust(wmax, b"\x00")
            span = gap if idx < last else self.n_stages + 1
            consumed, hit = sim.frame(
                span, int.from_bytes(window, "little"), len(frame) & 0xFFFF)
            while hit:
                out_index = self._take_output(
                    base + consumed, gap, shadows, out_index, report)
                sim.edge()  # finish the output cycle
                consumed += 1
                if consumed == 1:
                    # output rose on the inject cycle itself, before
                    # the frame's tvalid drop
                    sim.drive("s_axis_tvalid", 0)
                done, hit = sim.run(span - consumed)
                consumed += done
            base += span
        report.cycles = base
        if out_index != len(frames):
            raise RtlSimError(
                f"{len(frames) - out_index} packet(s) never reached "
                "m_axis"
            )
        self._publish_telemetry()
        return report

    def _take_output(self, cycle: int, gap: int,
                     shadows: List[PacketShadow], out_index: int,
                     report: SimReport) -> int:
        """Sample ``m_axis_*`` (post-settle, pre-edge) into a record."""
        wmax = self.window_bytes
        if out_index >= len(shadows):
            raise RtlSimError(f"cycle {cycle}: spurious m_axis output")
        shadow = shadows[out_index]
        (ln, ll, lm), (dn, dl, dm), (vn, vl, vm) = self._out_hot
        values = self.sim.values
        plen = (values[ln] >> ll) & lm
        raw = ((values[dn] >> dl) & dm).to_bytes(wmax, "little")
        data = raw[:min(plen, wmax)] + bytes(shadow.tail)
        action = XdpAction.of((values[vn] >> vl) & vm)
        inject = out_index * gap
        report.record(PacketRecord(
            pid=out_index, action=action, data=data,
            arrival_cycle=inject, inject_cycle=inject, exit_cycle=cycle,
            egress=(shadow.redirect_ifindex
                    if action is XdpAction.REDIRECT else None),
        ))
        return out_index + 1

    def _publish_telemetry(self) -> None:
        """Report settle/edge activity and primitive op counts into the
        process-wide registry (no-op when telemetry is off). Counters are
        cumulative per simulator, so publish the delta since last time."""
        reg = get_registry()
        if not reg.enabled:
            return
        labels = {"program": self.pipeline.name, "engine": self.engine}
        sim = self.sim
        reg.counter(
            "ehdl_rtl_settles_total",
            "Combinational settle passes of the RTL simulator", labels,
        ).inc(sim.settle_count - self._published_settles)
        reg.counter(
            "ehdl_rtl_edges_total",
            "Clock edges stepped by the RTL simulator", labels,
        ).inc(sim.edge_count - self._published_edges)
        self._published_settles = sim.settle_count
        self._published_edges = sim.edge_count
        if isinstance(sim, CompiledRtlSimulator):
            reg.counter(
                "ehdl_rtl_comb_evals_total",
                "Combinational nodes actually evaluated by the compiled "
                "schedule (the interpreter would evaluate "
                "nodes x settles)", labels,
            ).inc(sim.comb_evals - self._published_comb)
            reg.counter(
                "ehdl_rtl_proc_evals_total",
                "Clocked processes actually evaluated by the compiled "
                "schedule", labels,
            ).inc(sim.proc_evals - self._published_procs)
            self._published_comb = sim.comb_evals
            self._published_procs = sim.proc_evals
            if not self._published_active:
                self._published_active = [0] * len(sim.prim_active)
            for i, label in enumerate(sim.prim_labels):
                delta = sim.prim_active[i] - self._published_active[i]
                if delta:
                    reg.counter(
                        "ehdl_rtl_prim_active_total",
                        "Settles in which a gated primitive block was "
                        "live (request held)",
                        {**labels, "prim": label},
                    ).inc(delta)
                    self._published_active[i] = sim.prim_active[i]
        for kind, count in sorted(self.context.op_counts.items()):
            already = self._published_ops.get(kind, 0)
            reg.counter(
                "ehdl_rtl_primitive_ops_total",
                "Requests served by map/helper primitive blocks, by kind",
                {**labels, "op": kind},
            ).inc(count - already)
            self._published_ops[kind] = count
