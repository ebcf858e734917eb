"""Three-way differential harness: VM vs pipeline simulator vs RTL.

The hwsim differential (:mod:`repro.hwsim.diff`) established VM ==
pipeline-simulator equivalence. This module closes the remaining gap to
the actual artifact: the *emitted VHDL*, parsed, elaborated and
simulated by :mod:`repro.rtl.sim`, must agree with both software legs on
every observable — per-packet XDP action, output bytes, and final map
contents. A bug anywhere in ``emit_vhdl`` (a wrong slice, a missing
carry, an unconnected port) surfaces as either an elaboration error or a
reported :class:`~repro.hwsim.diff.Mismatch`.

All three legs run with frozen helper time and the same deterministic
PRNG seed, so time- and randomness-dependent programs (e.g. the leaky
bucket policer) diff cleanly. Packets are spaced ``n_stages + 2`` cycles
apart on both hardware legs: with one packet in flight the pipeline is
sequentially consistent with the VM, which is the regime the RTL model
verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..core.compiler import CompileOptions, compile_program
from ..core.pipeline import Pipeline
from ..ebpf.isa import Program
from ..ebpf.maps import MapSet
from ..ebpf.vm import Vm
from ..hwsim.diff import Mismatch
from ..hwsim.sim import PipelineSimulator, SimOptions
from ..hwsim.stats import SimReport
from .sim import RtlRunner

# Effectively freezes the per-cycle helper clock: cycle-to-nanosecond
# conversion rounds to zero for every realistic cycle count, so
# bpf_ktime_get_ns returns the same value on all legs.
_FROZEN_CLOCK_MHZ = 1e9


@dataclass
class ThreeWayResult:
    """Outcome of one three-way differential run."""

    packets: int
    mismatches: List[Mismatch] = field(default_factory=list)
    hw_report: Optional[SimReport] = None
    rtl_report: Optional[SimReport] = None

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def raise_on_mismatch(self) -> None:
        if self.mismatches:
            preview = "\n".join(str(m) for m in self.mismatches[:10])
            raise AssertionError(
                f"{len(self.mismatches)} mismatches in three-way "
                f"differential run:\n{preview}"
            )


def _leg_maps(program: Program, setup) -> MapSet:
    maps = MapSet(program.maps)
    if setup is not None:
        setup(maps)
    return maps


def run_three_way(
    program: Program,
    frames: Sequence[bytes],
    compile_options: Optional[CompileOptions] = None,
    pipeline: Optional[Pipeline] = None,
    time_ns: int = 0,
    setup=None,
    ignore_maps: Sequence[str] = (),
    vhdl_text: Optional[str] = None,
    engine: Optional[str] = None,
    rtl_engine: str = "rtl",
) -> ThreeWayResult:
    """Run ``frames`` through the VM, the pipeline simulator, and the
    RTL simulation of the emitted VHDL; compare everything observable.

    ``setup(maps)`` — if given — seeds each leg's fresh map set with the
    same host-installed state. ``vhdl_text`` lets callers diff an
    already-emitted (possibly hand-edited) design; by default the
    pipeline is re-emitted. ``engine`` selects the pipeline-simulator
    execution backend for the hwsim leg ("interpreted" or "codegen",
    the default; see :mod:`repro.hwsim.engines`); ``rtl_engine`` selects
    the RTL leg's simulation engine ("rtl" for the compiled levelized
    schedule, "rtl-interp" for the delta-cycle interpreter).
    """
    if pipeline is None:
        pipeline = compile_program(program, compile_options)
    frames = [bytes(f) for f in frames]
    gap = pipeline.n_stages + 2

    vm_maps = _leg_maps(program, setup)
    vm = Vm(program, maps=vm_maps, time_ns=time_ns)
    vm_results = [vm.run(f) for f in frames]
    # Flush the VM leg's opcode/helper counters (no-op when telemetry
    # was off during the runs above).
    vm.publish_telemetry()

    hw_maps = _leg_maps(program, setup)
    hw_sim = PipelineSimulator(
        pipeline, maps=hw_maps,
        options=SimOptions(clock_mhz=_FROZEN_CLOCK_MHZ,
                           engine=engine or SimOptions.engine),
        time_ns=time_ns,
    )
    hw_report = hw_sim.run_packets(list(frames), gap=gap)

    rtl_maps = _leg_maps(program, setup)
    rtl = RtlRunner(pipeline, maps=rtl_maps, time_ns=time_ns,
                    text=vhdl_text, engine=rtl_engine)
    rtl_report = rtl.run_packets(frames, gap=gap)

    result = ThreeWayResult(packets=len(frames), hw_report=hw_report,
                            rtl_report=rtl_report)
    hw_by_pid = {rec.pid: rec for rec in hw_report.records}
    rtl_by_pid = {rec.pid: rec for rec in rtl_report.records}
    for i, vm_res in enumerate(vm_results):
        for leg, by_pid in (("hw", hw_by_pid), ("rtl", rtl_by_pid)):
            rec = by_pid.get(i)
            if rec is None:
                result.mismatches.append(Mismatch(
                    i, f"missing from {leg}", vm_res.action, None
                ))
                continue
            if rec.action != vm_res.action:
                result.mismatches.append(Mismatch(
                    i, f"{leg} action", vm_res.action, rec.action
                ))
            if bytes(rec.data) != vm_res.packet:
                result.mismatches.append(Mismatch(
                    i, f"{leg} packet bytes", vm_res.packet.hex(),
                    bytes(rec.data).hex()
                ))
    ignored_fds = {vm_maps.fd_of(name) for name in ignore_maps}
    for fd in vm_maps:
        if fd in ignored_fds:
            continue
        vm_items = dict(vm_maps[fd].items())
        for leg, leg_maps in (("hw", hw_maps), ("rtl", rtl_maps)):
            leg_items = dict(leg_maps[fd].items())
            if vm_items != leg_items:
                diff_keys = [
                    k.hex() for k in set(vm_items) | set(leg_items)
                    if vm_items.get(k) != leg_items.get(k)
                ]
                result.mismatches.append(Mismatch(
                    -1,
                    f"{leg} map fd {fd} final state "
                    f"(keys {diff_keys[:4]})",
                    {k.hex(): v.hex()
                     for k, v in sorted(vm_items.items())},
                    {k.hex(): v.hex()
                     for k, v in sorted(leg_items.items())},
                ))
    return result
