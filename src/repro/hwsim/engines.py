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

The two ``pipeline`` engines (``interpreted`` is the reference,
``codegen`` the default) are different executions of the *same*
cycle-level model and must agree on everything — XDP actions, packet
bytes, map state AND cycle counts (``cycle_exact``). The ``vm`` and
``rtl*`` engines share the end-to-end observables (actions, bytes,
maps) but not the cycle structure: the VM has no pipeline, and the RTL
runner models one packet in flight. The two ``rtl`` engines simulate
the *same elaborated netlist* and must agree bit-for-bit on every net
each cycle; ``rtl-interp`` is kept as the slow, obviously-correct
baseline for differential testing of the compiled schedule.

:func:`run_engine` executes any engine over a packet sequence and
returns a normalized :class:`EngineRun`; :func:`compare_runs` diffs two
of them, honouring ``cycle_exact``. The differential harnesses, the
``--engine`` CLI flag and the perf bench all enumerate engines through
this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    # Whether two runs of cycle_exact engines must agree on per-packet
    # inject/exit cycles and total cycle count.
    cycle_exact: bool


ENGINES: Dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        EngineSpec(
            "vm", "reference",
            "sequential reference interpreter (ebpf.vm.Vm)", False,
        ),
        EngineSpec(
            "interpreted", "pipeline",
            "cycle-level pipeline simulator with per-op decode", True,
        ),
        EngineSpec(
            "codegen", "pipeline",
            "pipeline simulator running generated, compile()d source", True,
        ),
        EngineSpec(
            "rtl", "rtl",
            "compiled levelized-schedule simulation of the emitted VHDL",
            False,
        ),
        EngineSpec(
            "rtl-interp", "rtl",
            "delta-cycle netlist interpreter (compiled-schedule baseline)",
            False,
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


@dataclass
class EngineRun:
    """Normalized observables of one engine over one packet sequence."""

    engine: str
    # Per input packet, in input order; None when the executor produced
    # no verdict for that packet (e.g. dropped before injection).
    actions: List[Optional[XdpAction]]
    frames: List[Optional[bytes]]
    # fd -> semantic (key -> value) content after the run.
    map_items: Dict[int, Dict[bytes, bytes]]
    # fd -> map name (for readable mismatch reports).
    map_names: Dict[int, str] = field(default_factory=dict)
    # (inject_cycle, exit_cycle) per packet for cycle_exact engines.
    packet_cycles: List[Optional[Tuple[int, int]]] = field(default_factory=list)
    total_cycles: Optional[int] = None
    report: Optional[SimReport] = None


def _snapshot_maps(maps: MapSet) -> Dict[int, Dict[bytes, bytes]]:
    # Semantic comparison: hash maps may place identical content at
    # different slots when replay perturbs insertion order.
    return {fd: dict(maps[fd].items()) for fd in maps}


def _map_names(maps: MapSet) -> Dict[int, str]:
    names = {}
    for fd in maps:
        name = getattr(maps[fd], "name", None)
        if name:
            names[fd] = name
    return names


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
) -> EngineRun:
    """Execute ``frames`` on one registered engine with fresh maps.

    ``setup(maps)`` — if given — installs host state (routes, ACL
    entries) before execution, identically for every engine. ``gap`` is
    the injection spacing for pipeline engines; the RTL engine widens it
    to its single-packet-in-flight minimum (``n_stages + 2``).
    """
    spec = get_engine(name)
    frames = [bytes(f) for f in frames]

    maps = MapSet(program.maps)
    if setup is not None:
        setup(maps)

    if spec.kind == "reference":
        vm = Vm(program, maps=maps, time_ns=time_ns)
        results = [vm.run(f) for f in frames]
        return EngineRun(
            engine=name,
            actions=[r.action for r in results],
            frames=[r.packet for r in results],
            map_items=_snapshot_maps(maps),
            map_names=_map_names(maps),
        )

    if pipeline is None:
        pipeline = compile_program(program, compile_options)

    if spec.kind == "rtl":
        from ..rtl.sim import RtlRunner

        runner = RtlRunner(pipeline, maps=maps, time_ns=time_ns,
                           engine=name)
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

    by_pid = {rec.pid: rec for rec in report.records}
    actions: List[Optional[XdpAction]] = []
    out_frames: List[Optional[bytes]] = []
    cycles: List[Optional[Tuple[int, int]]] = []
    for i in range(len(frames)):
        rec = by_pid.get(i)
        if rec is None:
            actions.append(None)
            out_frames.append(None)
            cycles.append(None)
        else:
            actions.append(rec.action)
            out_frames.append(bytes(rec.data))
            cycles.append((rec.inject_cycle, rec.exit_cycle))
    return EngineRun(
        engine=name,
        actions=actions,
        frames=out_frames,
        map_items=_snapshot_maps(maps),
        map_names=_map_names(maps),
        packet_cycles=cycles if spec.cycle_exact else [],
        total_cycles=report.cycles if spec.cycle_exact else None,
        report=report,
    )


def compare_runs(
    a: EngineRun,
    b: EngineRun,
    ignore_fds: Sequence[int] = (),
) -> List[str]:
    """Diff two engine runs; returns human-readable mismatch strings.

    Actions, packet bytes and (semantic) map contents always compare;
    cycle structure compares only between two ``cycle_exact`` engines.
    """
    mismatches: List[str] = []
    pair = f"{a.engine} vs {b.engine}"
    for i, (aa, ba) in enumerate(zip(a.actions, b.actions)):
        if aa != ba:
            mismatches.append(f"{pair}: packet {i}: action {aa!r} != {ba!r}")
    for i, (af, bf) in enumerate(zip(a.frames, b.frames)):
        if af != bf:
            ah = af.hex() if af is not None else None
            bh = bf.hex() if bf is not None else None
            mismatches.append(f"{pair}: packet {i}: bytes {ah} != {bh}")
    ignored = set(ignore_fds)
    for fd in sorted(set(a.map_items) | set(b.map_items)):
        if fd in ignored:
            continue
        am = a.map_items.get(fd, {})
        bm = b.map_items.get(fd, {})
        if am != bm:
            label = a.map_names.get(fd) or b.map_names.get(fd) or f"fd {fd}"
            diff_keys = [
                k.hex() for k in sorted(set(am) | set(bm))
                if am.get(k) != bm.get(k)
            ]
            mismatches.append(
                f"{pair}: map {label}: differing keys {diff_keys[:4]}"
            )
    cycle_exact = (
        ENGINES[a.engine].cycle_exact and ENGINES[b.engine].cycle_exact
    )
    if cycle_exact:
        if a.total_cycles != b.total_cycles:
            mismatches.append(
                f"{pair}: total cycles {a.total_cycles} != {b.total_cycles}"
            )
        for i, (ac, bc) in enumerate(zip(a.packet_cycles, b.packet_cycles)):
            if ac != bc:
                mismatches.append(
                    f"{pair}: packet {i}: inject/exit cycles {ac} != {bc}"
                )
    return mismatches
