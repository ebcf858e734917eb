"""Execution-backend registry: every way this repo can execute an XDP
program, behind one interface.

Without it the choice of executor is scattered — simulator options,
ad-hoc ``Vm`` legs in the differential harnesses, a separate RTL
runner — and each new consumer (CLI, benches, differential tests)
re-invents enumeration. The registry makes the set explicit:

=========== ========== ============================================
name        kind       executor
=========== ========== ============================================
vm          reference  sequential interpreter (:class:`repro.ebpf.vm.Vm`)
interpreted pipeline   cycle-level simulator, per-op decode
codegen     pipeline   simulator + generated/compile()d source
rtl         rtl        compiled levelized schedule over the emitted VHDL
rtl-interp  rtl        delta-cycle interpreter over the same netlist
=========== ========== ============================================

One rule says what two engines must agree on: *two engines of one
kind simulate one model*. The two ``pipeline`` engines (``interpreted``
is the reference, ``codegen`` the default) run the same cycle-level
model, and the two ``rtl`` engines (``rtl-interp`` is the slow,
obviously-correct baseline for the compiled schedule) the same
elaborated netlist. Such a pair must agree on everything — XDP actions,
packet bytes, egress ports, map state down to its entry order and raw
storage AND the model's own account of the run (per-packet cycles,
restarts, the run's counters). Engines of different kinds share only
the end-to-end observables (actions, bytes, egress ports, maps with
their LRU recency): the VM has no pipeline, and the RTL runner models
one packet in flight where the pipeline engines may hold many.

This module is also the repo's one differential oracle — the
correctness claim for the whole compiler (every pass: elision, fusion,
ILP scheduling, predication, framing, pruning, hazard handling) and
for the emitted VHDL is that all engines agree. :func:`run_engine` is
the only place a leg is run for comparison (fresh maps, the same host
``setup``, normalized :class:`EngineRun` out, by :func:`engine_run`)
and :func:`compare_runs` the only place observables are compared
(:class:`Mismatch` records, by the rule above).
:func:`run_differential` composes them — N legs, each compared against
the first under the program's consistency verdict — and
:func:`run_three_way` is that composition over ``(vm, <pipeline
engine>, <rtl engine>)`` on the emitted VHDL. ``repro verify``,
``repro bench``'s parity line, ``XdpOffload.verify_rtl`` and the
differential tests all go through here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

from ..core.compiler import CompileOptions, compile_program
from ..core.pipeline import Pipeline
from ..ebpf.isa import Program
from ..ebpf.maps import MapSet
from ..ebpf.vm import Vm
from ..ebpf.xdp import XdpAction
from .sim import PipelineSimulator, SimOptions
from .stats import SimReport


@dataclass(frozen=True)
class EngineSpec:
    """One registered execution backend."""

    name: str
    kind: str  # "reference" | "pipeline" | "rtl"
    description: str


ENGINES: Dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        EngineSpec(
            "vm", "reference",
            "sequential reference interpreter (ebpf.vm.Vm)",
        ),
        EngineSpec(
            "interpreted", "pipeline",
            "cycle-level pipeline simulator with per-op decode",
        ),
        EngineSpec(
            "codegen", "pipeline",
            "pipeline simulator running generated, compile()d source",
        ),
        EngineSpec(
            "rtl", "rtl",
            "compiled levelized-schedule simulation of the emitted VHDL",
        ),
        EngineSpec(
            "rtl-interp", "rtl",
            "delta-cycle netlist interpreter (compiled-schedule baseline)",
        ),
    )
}


def engine_names() -> List[str]:
    return list(ENGINES)


def pipeline_engine_names() -> List[str]:
    return [name for name, spec in ENGINES.items() if spec.kind == "pipeline"]


def get_engine(name: str) -> EngineSpec:
    spec = ENGINES.get(name)
    if spec is None:
        known = ", ".join(sorted(ENGINES))
        raise ValueError(f"unknown engine {name!r} (known: {known})")
    return spec


# A SimOptions.clock_mhz that freezes the per-cycle helper clock:
# cycle-to-nanosecond conversion rounds to zero for every realistic
# cycle count, so bpf_ktime_get_ns reads the same value on the
# cycle-counting engines as on the VM and the RTL runner (which has no
# cycle clock at all). Without it a time-reading program — the leaky
# bucket policer — legitimately diverges from the VM.
FROZEN_CLOCK_MHZ = 1e9


@dataclass
class EngineRun:
    """Normalized observables of one engine over one packet sequence:
    what a packet leaves the NIC with (action, bytes, egress port), the
    maps it leaves behind, and — for a pipeline or RTL engine — the
    model's own account of the run."""

    engine: str
    # Per input packet, in input order; None when the executor produced
    # no verdict for that packet (e.g. dropped before injection).
    actions: List[Optional[XdpAction]]
    frames: List[Optional[bytes]]
    # fd -> semantic (key -> value) content after the run, in the map's
    # own order: an LRU map's is its recency order, oldest first.
    map_items: Dict[int, Dict[bytes, bytes]]
    # fd -> map name: mismatch reports and exemptions go by name.
    map_names: Dict[int, str] = field(default_factory=dict)
    # The interface a REDIRECT leaves by, per packet; None otherwise.
    egress: List[Optional[int]] = field(default_factory=list)
    # fds of the LRU maps, whose entry order is an observable.
    lru_fds: FrozenSet[int] = frozenset()
    # Pipeline and RTL engines only: (arrival, inject, exit) cycle and
    # the flush restarts per packet, the whole-run counters (mismatch
    # name -> value) and each map's raw storage.
    packet_cycles: List[Optional[Tuple[int, int, int]]] = field(
        default_factory=list)
    restarts: List[Optional[int]] = field(default_factory=list)
    counters: Dict[str, object] = field(default_factory=dict)
    storage: Dict[int, bytes] = field(default_factory=dict)
    report: Optional[SimReport] = None

    @property
    def total_cycles(self) -> Optional[int]:
        return self.counters.get("total cycles")


# What two runs of one model must also agree on, run-wide:
# mismatch name -> how to read it off a SimReport. The sums and the
# action histogram are kept apart from the records by every engine, so
# a record-free run (keep_records=False) compares through them.
_COUNTERS: Tuple[Tuple[str, Callable[[SimReport], object]], ...] = (
    ("total cycles", lambda r: r.cycles),
    ("flush events", lambda r: r.flush_events),
    ("squashed packets", lambda r: r.squashed_packets),
    ("stall cycles", lambda r: r.stall_cycles),
    ("queue drops", lambda r: r.packets_dropped_queue),
    ("action counts", lambda r: dict(r.action_counts)),
    ("cycle sums", lambda r: (r.sum_total_cycles, r.sum_pipeline_cycles,
                              r.sum_restarts)),
)


def _map_fields(maps: MapSet, storage: bool) -> Dict[str, object]:
    # Contents by key: a hash map's slot choice is layout, equally
    # order-dependent in the hardware, so engines that replay packets
    # differently may place the same content at different slots. Its
    # dict order rides along for the two runs of one model, which must
    # agree on layout too (the raw storage).
    return dict(
        map_items={fd: dict(maps[fd].items()) for fd in maps},
        map_names={fd: maps[fd].name for fd in maps},
        lru_fds=frozenset(fd for fd in maps if maps[fd].spec.serialised),
        storage=maps.snapshot() if storage else {},
    )


def engine_run(name: str, report: SimReport, maps: MapSet,
               packets: int) -> EngineRun:
    """The :class:`EngineRun` of a finished run of the pipeline or RTL
    engine ``name`` over ``packets`` frames: ``report``'s records matched
    to the frames by pid (a record-free report leaves every verdict
    ``None`` and compares through its counters), ``maps`` as the run
    left them. :func:`run_engine` builds each leg with it; a test that
    picks the code path itself (an observer, telemetry, the queue's
    capacity, a generator of frames) runs the simulator and builds its
    ``EngineRun`` here."""
    by_pid = {rec.pid: rec for rec in report.records}
    recs = [by_pid.get(i) for i in range(packets)]
    return EngineRun(
        engine=name,
        actions=[r and r.action for r in recs],
        frames=[r and bytes(r.data) for r in recs],
        egress=[r and r.egress for r in recs],
        packet_cycles=[r and (r.arrival_cycle, r.inject_cycle, r.exit_cycle)
                       for r in recs],
        restarts=[r and r.restarts for r in recs],
        counters={what: read(report) for what, read in _COUNTERS},
        report=report,
        **_map_fields(maps, True),
    )


def run_engine(
    name: str,
    program: Program,
    frames: Sequence[bytes],
    *,
    pipeline: Optional[Pipeline] = None,
    compile_options: Optional[CompileOptions] = None,
    sim_options: Optional[SimOptions] = None,
    gap: int = 1,
    time_ns: int = 0,
    setup: Optional[Callable[[MapSet], None]] = None,
    vhdl_text: Optional[str] = None,
) -> EngineRun:
    """Execute ``frames`` on one registered engine with fresh maps.

    ``setup(maps)`` — if given — installs host state (routes, ACL
    entries) before execution, identically for every engine. ``gap`` is
    the injection spacing for pipeline engines (1 = back-to-back at line
    rate, the most hazard-prone schedule); the RTL engine widens it to
    its single-packet-in-flight minimum (``n_stages + 2``).
    ``vhdl_text`` hands the RTL engines an already-emitted (possibly
    hand-edited) design; by default the pipeline is re-emitted.
    """
    spec = get_engine(name)
    frames = [bytes(f) for f in frames]

    maps = MapSet(program.maps)
    if setup is not None:
        setup(maps)

    if spec.kind == "reference":
        vm = Vm(program, maps=maps, time_ns=time_ns)
        results = [vm.run(f) for f in frames]
        # Flush the opcode/helper counters (no-op with telemetry off).
        vm.publish_telemetry()
        return EngineRun(
            engine=name,
            actions=[r.action for r in results],
            frames=[r.packet for r in results],
            egress=[r.redirect_ifindex if r.action is XdpAction.REDIRECT
                    else None for r in results],
            **_map_fields(maps, False),
        )

    if pipeline is None:
        pipeline = compile_program(program, compile_options)

    if spec.kind == "rtl":
        from ..rtl.sim import RtlRunner

        runner = RtlRunner(pipeline, maps=maps, time_ns=time_ns,
                           text=vhdl_text, engine=name)
        report = runner.run_packets(
            frames, gap=max(gap, pipeline.n_stages + 2)
        )
    else:
        options = sim_options if sim_options is not None else SimOptions()
        options = replace(options, engine=name, keep_records=True)
        sim = PipelineSimulator(
            pipeline, maps=maps, options=options, time_ns=time_ns
        )
        report = sim.run_packets(frames, gap=gap)
    return engine_run(name, report, maps, len(frames))


@dataclass
class Mismatch:
    """One divergence of a leg from the reference run."""

    index: int  # packet index, or -1 for a whole-run observable
    what: str
    ref_value: object
    leg_value: object
    pair: str = ""  # "<reference engine> vs <leg engine>"

    def __str__(self) -> str:
        pair = f"{self.pair}: " if self.pair else ""
        where = f"packet {self.index}: " if self.index >= 0 else ""
        return (f"{pair}{where}{self.what} "
                f"{self.ref_value!r} != {self.leg_value!r}")


def exempt_observables(pipeline: Pipeline, ref: str, leg: str,
                       gap: int) -> Tuple[str, ...]:
    """What a run of ``leg`` may differ on from a run of ``ref`` at
    injection spacing ``gap``: the program's consistency verdict's
    ``exempt`` (``Pipeline.consistency``, from ``core.hazards``) when one
    leg is sequential and the other a pipeline engine with packets in
    flight together (``gap < n_stages``), else nothing. Two pipeline
    engines are one cycle model, spaced packets run one at a time, and
    the RTL runner always spaces them."""
    kinds = {ENGINES[ref].kind, ENGINES[leg].kind}
    if kinds != {"reference", "pipeline"} or gap >= pipeline.n_stages:
        return ()
    return pipeline.consistency.exempt


def compare_runs(ref: EngineRun, leg: EngineRun) -> List[Mismatch]:
    """Every observable on which ``leg`` diverges from ``ref``.

    Every pair compares what each packet leaves the NIC with — its
    ``"action"``, its ``"packet bytes"`` (length included) and, for a
    REDIRECT, its ``"egress port"`` — and the maps, as ``"map <name>"``:
    contents by key, plus an LRU map's recency order. Two engines of one
    kind simulate one model, so they also compare each packet's
    ``"packet cycles"`` (arrival, inject, exit) and ``"restarts"``, the
    run's counters (``"total cycles"``, ``"flush events"``, ``"squashed
    packets"``, ``"stall cycles"``, ``"queue drops"``, ``"action
    counts"``, ``"cycle sums"``), every map's entry order and its raw
    storage (``"map <name> storage"``). Runs over different packet
    counts do not compare at all.
    """
    pair = f"{ref.engine} vs {leg.engine}"
    if len(ref.actions) != len(leg.actions):
        return [Mismatch(-1, "packet count", len(ref.actions),
                         len(leg.actions), pair)]
    exact = ENGINES[ref.engine].kind == ENGINES[leg.engine].kind
    mismatches: List[Mismatch] = []
    for i, (ra, la) in enumerate(zip(ref.actions, leg.actions)):
        if ra != la:
            mismatches.append(Mismatch(i, "action", ra, la, pair))
        if ra is None or la is None:
            continue  # a packet without a verdict has no output: said once
        rf, lf = ref.frames[i], leg.frames[i]
        if rf != lf:
            mismatches.append(
                Mismatch(i, "packet bytes", rf.hex(), lf.hex(), pair))
        # a port belongs to a REDIRECT: another verdict is said once
        if ra == la and ref.egress[i] != leg.egress[i]:
            mismatches.append(Mismatch(i, "egress port", ref.egress[i],
                                       leg.egress[i], pair))
    for fd, rm in ref.map_items.items():
        lm = leg.map_items[fd]
        what = f"map {ref.map_names[fd]}"
        if rm != lm:
            differing = [k for k in sorted(set(rm) | set(lm))
                         if rm.get(k) != lm.get(k)][:4]
            mismatches.append(Mismatch(
                -1, what,
                {k.hex(): rm[k].hex() if k in rm else None for k in differing},
                {k.hex(): lm[k].hex() if k in lm else None for k in differing},
                pair,
            ))
        elif (exact or fd in ref.lru_fds) and list(rm) != list(lm):
            at = next(i for i, (rk, lk) in enumerate(zip(rm, lm)) if rk != lk)
            where = f"order from {at}"
            mismatches.append(Mismatch(
                -1, what, {where: [k.hex() for k in list(rm)[at:at + 4]]},
                {where: [k.hex() for k in list(lm)[at:at + 4]]}, pair))
    if not exact:
        return mismatches
    for fd, raw in ref.storage.items():
        other = leg.storage[fd]
        if raw != other:
            at = next((i for i, (x, y) in enumerate(zip(raw, other))
                       if x != y), min(len(raw), len(other)))
            mismatches.append(Mismatch(
                -1, f"map {ref.map_names[fd]} storage",
                {f"bytes from {at}": raw[at:at + 8].hex()},
                {f"bytes from {at}": other[at:at + 8].hex()}, pair))
    for what, value in ref.counters.items():
        if value != leg.counters[what]:
            mismatches.append(
                Mismatch(-1, what, value, leg.counters[what], pair))
    for what, rs, ls in (("packet cycles", ref.packet_cycles,
                          leg.packet_cycles),
                         ("restarts", ref.restarts, leg.restarts)):
        mismatches += [Mismatch(i, what, r, l, pair)
                       for i, (r, l) in enumerate(zip(rs, ls)) if r != l]
    return mismatches


@dataclass
class DiffResult:
    """Outcome of a differential run: every leg against the first."""

    packets: int
    mismatches: List[Mismatch] = field(default_factory=list)
    # engine name -> its run, in the order the legs ran
    runs: Dict[str, EngineRun] = field(default_factory=dict)
    # "<reference> vs <leg>" -> the observables the program's consistency
    # relation exempted from that comparison (:func:`exempt_observables`)
    not_compared: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def _report(self, kind: str) -> Optional[SimReport]:
        for run in self.runs.values():
            if ENGINES[run.engine].kind == kind:
                return run.report
        return None

    @property
    def hw_report(self) -> Optional[SimReport]:
        """Report of the (first) pipeline-simulator leg."""
        return self._report("pipeline")

    @property
    def rtl_report(self) -> Optional[SimReport]:
        """Report of the (first) RTL leg."""
        return self._report("rtl")

    def raise_on_mismatch(self) -> None:
        if self.mismatches:
            preview = "\n".join(str(m) for m in self.mismatches[:10])
            raise AssertionError(
                f"{len(self.mismatches)} mismatches in differential "
                f"run:\n{preview}"
            )


def run_differential(
    program: Program,
    frames: Sequence[bytes],
    compile_options: Optional[CompileOptions] = None,
    sim_options: Optional[SimOptions] = None,
    pipeline: Optional[Pipeline] = None,
    gap: int = 1,
    time_ns: int = 0,
    setup: Optional[Callable[[MapSet], None]] = None,
    engine: Optional[str] = None,
    engines: Optional[Sequence[str]] = None,
    vhdl_text: Optional[str] = None,
) -> DiffResult:
    """Run ``frames`` on every engine in ``engines`` — one compiled
    pipeline, fresh identically-seeded maps per leg (:func:`run_engine`)
    — and compare each leg against the first (:func:`compare_runs`).

    The default is the reference VM against one pipeline engine:
    ``engine`` ("interpreted" or "codegen"), else ``sim_options.engine``.
    A pipeline leg with packets in flight together is held to the
    program's consistency relation against the sequential VM: the
    mismatches on what a relaxed program exempts are dropped, and
    ``not_compared`` says so per pair (:func:`exempt_observables`).
    With more than one leg
    under test each mismatch's ``what`` is prefixed with its leg's
    engine name. The remaining parameters are :func:`run_engine`'s.
    """
    if pipeline is None:
        pipeline = compile_program(program, compile_options)
    if engines is None:
        engines = ("vm", engine or (sim_options or SimOptions).engine)
    runs = {
        name: run_engine(
            name, program, frames, pipeline=pipeline,
            sim_options=sim_options, gap=gap, time_ns=time_ns, setup=setup,
            vhdl_text=vhdl_text,
        )
        for name in engines
    }
    reference, *legs = runs.values()
    result = DiffResult(packets=len(frames), runs=runs)
    for leg in legs:
        exempt = exempt_observables(pipeline, reference.engine, leg.engine,
                                    gap)
        if exempt:
            result.not_compared[f"{reference.engine} vs {leg.engine}"] = exempt
        found = [m for m in compare_runs(reference, leg)
                 if m.what not in exempt]
        if len(legs) > 1:
            found = [replace(m, what=f"{leg.engine} {m.what}") for m in found]
        result.mismatches += found
    return result


def run_three_way(
    program: Program,
    frames: Sequence[bytes],
    compile_options: Optional[CompileOptions] = None,
    pipeline: Optional[Pipeline] = None,
    time_ns: int = 0,
    setup: Optional[Callable[[MapSet], None]] = None,
    vhdl_text: Optional[str] = None,
    engine: Optional[str] = None,
    rtl_engine: str = "rtl",
) -> DiffResult:
    """The VM, the pipeline simulator (``engine``) and the RTL
    simulation (``rtl_engine``: "rtl" or "rtl-interp") of the emitted
    VHDL — or of ``vhdl_text`` — must agree on every observable.

    A bug anywhere in ``emit_vhdl`` (a wrong slice, a missing carry, an
    unconnected port) surfaces as an elaboration error or a mismatch
    whose ``what`` starts with the RTL engine's name. All legs run with
    frozen helper time and the same seeded PRNG, and packets are spaced
    ``n_stages + 2`` cycles apart on both hardware legs: with one packet
    in flight the pipeline is sequentially consistent with the VM, which
    is the regime the RTL model verifies.
    """
    if pipeline is None:
        pipeline = compile_program(program, compile_options)
    return run_differential(
        program, frames, pipeline=pipeline,
        sim_options=SimOptions(clock_mhz=FROZEN_CLOCK_MHZ),
        gap=pipeline.n_stages + 2, time_ns=time_ns, setup=setup,
        vhdl_text=vhdl_text,
        engines=("vm", engine or SimOptions.engine, rtl_engine),
    )
