"""Differential testing of compiled pipelines against the reference VM.

For the same packet sequence and initial map state, the eHDL pipeline
(simulated by :mod:`repro.hwsim.sim`) must produce exactly the per-packet
XDP actions, output packet bytes, and final map contents that sequential
execution on :class:`repro.ebpf.vm.Vm` produces. This is the correctness
claim for the entire compiler — every pass (elision, fusion, ILP
scheduling, predication, framing, pruning, hazard handling) is covered by
this equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ebpf.isa import Program
from ..ebpf.maps import MapSet
from ..ebpf.vm import Vm
from ..ebpf.xdp import XdpAction
from ..core.compiler import CompileOptions, compile_program
from ..core.pipeline import Pipeline
from .sim import PipelineSimulator, SimOptions
from .stats import SimReport


@dataclass
class Mismatch:
    """One divergence between VM and pipeline execution."""

    index: int  # packet index, or -1 for map-state mismatches
    what: str
    vm_value: object
    hw_value: object

    def __str__(self) -> str:
        return (
            f"packet {self.index}: {self.what}: vm={self.vm_value!r} "
            f"hw={self.hw_value!r}"
        )


@dataclass
class DiffResult:
    """Outcome of a differential run."""

    packets: int
    mismatches: List[Mismatch] = field(default_factory=list)
    hw_report: Optional[SimReport] = None

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def raise_on_mismatch(self) -> None:
        if self.mismatches:
            preview = "\n".join(str(m) for m in self.mismatches[:10])
            raise AssertionError(
                f"{len(self.mismatches)} mismatches in differential run:\n{preview}"
            )


def run_differential(
    program: Program,
    frames: Sequence[bytes],
    compile_options: Optional[CompileOptions] = None,
    sim_options: Optional[SimOptions] = None,
    pipeline: Optional[Pipeline] = None,
    gap: int = 1,
    time_ns: int = 0,
    setup=None,
    ignore_maps: Sequence[str] = (),
    engine: Optional[str] = None,
) -> DiffResult:
    """Run ``frames`` through both the VM and the compiled pipeline.

    ``gap`` is the injection spacing in cycles (1 = back-to-back at line
    rate, the most hazard-prone schedule). ``setup(maps)`` — if given — is
    applied to both sides' fresh map sets before execution (host-installed
    state such as routes or ACL entries). ``engine`` picks the pipeline
    execution backend ("interpreted" or "codegen", the default; see
    :mod:`repro.hwsim.engines`) without touching the other sim options.
    """
    if pipeline is None:
        pipeline = compile_program(program, compile_options)
    if engine is not None:
        from dataclasses import replace

        sim_options = replace(sim_options or SimOptions(), engine=engine)

    vm_maps = MapSet(program.maps)
    if setup is not None:
        setup(vm_maps)
    vm = Vm(program, maps=vm_maps, time_ns=time_ns)
    vm_results = [vm.run(f) for f in frames]

    hw_maps = MapSet(program.maps)
    if setup is not None:
        setup(hw_maps)
    sim = PipelineSimulator(pipeline, maps=hw_maps,
                            options=sim_options, time_ns=time_ns)
    report = sim.run_packets(list(frames), gap=gap)

    result = DiffResult(packets=len(frames), hw_report=report)
    by_pid = {rec.pid: rec for rec in report.records}
    for i, vm_res in enumerate(vm_results):
        rec = by_pid.get(i)
        if rec is None:
            result.mismatches.append(Mismatch(i, "missing from pipeline", vm_res.action, None))
            continue
        if rec.action != vm_res.action:
            result.mismatches.append(Mismatch(i, "action", vm_res.action, rec.action))
        if bytes(rec.data) != vm_res.packet:
            result.mismatches.append(
                Mismatch(i, "packet bytes", vm_res.packet.hex(), bytes(rec.data).hex())
            )
    ignored_fds = {vm_maps.fd_of(name) for name in ignore_maps}
    for fd in vm_maps:
        if fd in ignored_fds:
            # e.g. a speculative allocation counter: under pipelining the
            # hardware legitimately burns allocations that sequential
            # execution would not (Appendix A.2 anomaly).
            continue
        # Semantic comparison: the (key -> value) content. Hash maps may
        # place identical content at different slots when flush-replay
        # perturbs insertion order — a layout detail, not a divergence
        # (slot choice is equally order-dependent in the hardware).
        vm_items = dict(vm_maps[fd].items())
        hw_items = dict(hw_maps[fd].items())
        if vm_items != hw_items:
            diff_keys = [
                k.hex() for k in set(vm_items) | set(hw_items)
                if vm_items.get(k) != hw_items.get(k)
            ]
            result.mismatches.append(
                Mismatch(-1, f"map fd {fd} final state (keys {diff_keys[:4]})",
                         {k.hex(): v.hex() for k, v in sorted(vm_items.items())},
                         {k.hex(): v.hex() for k, v in sorted(hw_items.items())})
            )
    return result
