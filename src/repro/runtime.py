"""High-level runtime facade: load a program, get a NIC.

:class:`XdpOffload` bundles the whole workflow of §6 — "accelerating
Suricata took us about 1h … eHDL could readily generate the hardware
design … giving us an FPGA NIC-accelerated appliance. Here, it is worthy
of notice that even the interface with the host system stays unchanged"
— into one object:

>>> from repro.runtime import XdpOffload
>>> from repro.apps import toy_counter
>>> nic = XdpOffload(toy_counter.build())
>>> report = nic.process([toy_counter.packet_for_key(1)] * 100)
>>> nic.map("stats").read_u64(1)
100

The host keeps talking to the loaded maps through the standard eBPF map
interface (:class:`HostMap`), while packets flow through the simulated
hardware pipeline at line rate.
"""

from __future__ import annotations

import pathlib
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

from .core.compiler import CompileOptions, compile_program
from .core.pipeline import Pipeline
from .core.resources import ResourceEstimate, estimate_resources
from .ebpf.asm import assemble_program
from .ebpf.isa import Program
from .ebpf.maps import Map, MapSet
from .hwsim.shell import NicSystem
from .hwsim.stats import SimReport

ProgramLike = Union[Program, str, pathlib.Path]


class HostMap:
    """Userspace view of one loaded map (the ``bpftool map`` experience).

    Keys and values may be raw ``bytes`` of the exact declared size, or
    plain integers (encoded little-endian at the declared width, like the
    common u32-key/u64-value counter maps).
    """

    def __init__(self, bpf_map: Map) -> None:
        self._map = bpf_map

    @property
    def name(self) -> str:
        return self._map.name

    @property
    def key_size(self) -> int:
        return self._map.key_size

    @property
    def value_size(self) -> int:
        return self._map.value_size

    def _key(self, key: Union[int, bytes]) -> bytes:
        if isinstance(key, int):
            return key.to_bytes(self._map.key_size, "little")
        return key

    def _value(self, value: Union[int, bytes]) -> bytes:
        if isinstance(value, int):
            return value.to_bytes(self._map.value_size, "little")
        return value

    def lookup(self, key: Union[int, bytes]) -> Optional[bytes]:
        return self._map.lookup(self._key(key))

    def read_u64(self, key: Union[int, bytes]) -> int:
        """Read a value as a little-endian integer (0 for missing keys)."""
        value = self.lookup(key)
        return int.from_bytes(value, "little") if value else 0

    def update(self, key: Union[int, bytes], value: Union[int, bytes]) -> None:
        self._map.update(self._key(key), self._value(value))

    def delete(self, key: Union[int, bytes]) -> bool:
        return self._map.delete(self._key(key))

    def __getitem__(self, key: Union[int, bytes]) -> bytes:
        value = self.lookup(key)
        if value is None:
            raise KeyError(key)
        return value

    def __setitem__(self, key: Union[int, bytes], value: Union[int, bytes]) -> None:
        self.update(key, value)

    def __contains__(self, key: Union[int, bytes]) -> bool:
        return self.lookup(key) is not None

    def items(self):
        return self._map.items()

    def __len__(self) -> int:
        return self._map.entry_count()


class XdpOffload:
    """A program loaded onto the simulated eHDL NIC.

    ``program`` may be a :class:`Program`, assembler source text (with
    ``.map`` directives), or a path to an ``.ebpf`` file.
    """

    def __init__(
        self,
        program: ProgramLike,
        options: Optional[CompileOptions] = None,
        engine: Optional[str] = None,
    ) -> None:
        self.program = self._resolve(program)
        self.pipeline: Pipeline = compile_program(self.program, options)
        self.maps = MapSet(self.program.maps)
        self._nic = NicSystem(self.pipeline, maps=self.maps,
                              keep_records=True, engine=engine)
        self._last_report: Optional[SimReport] = None

    @staticmethod
    def _resolve(program: ProgramLike) -> Program:
        if isinstance(program, Program):
            return program
        if isinstance(program, pathlib.Path):
            from .cli import load_program

            return load_program(str(program))
        if isinstance(program, str) and "\n" not in program:
            path = pathlib.Path(program)
            if path.exists():
                from .cli import load_program

                return load_program(str(path))
        return assemble_program(str(program))

    # -- host map interface -----------------------------------------------------

    def map(self, name: str) -> HostMap:
        """The userspace handle for a loaded map."""
        return HostMap(self.maps.by_name(name))

    def map_names(self):
        return [m.name for m in self.maps.maps.values()]

    # -- traffic ------------------------------------------------------------------

    def process(
        self,
        frames: Iterable[bytes],
        rate_mpps: Optional[float] = None,
    ) -> SimReport:
        """Push frames through the NIC (line rate unless ``rate_mpps``)."""
        if rate_mpps is None:
            report = self._nic.run_at_line_rate(frames)
        else:
            report = self._nic.run_at_rate(frames, rate_mpps)
        self._last_report = report
        return report

    def process_one(self, frame: bytes):
        """Convenience: one frame in, its (action, bytes) out."""
        report = self.process([frame])
        record = report.records[0]
        return record.action, record.data

    def process_stream(
        self,
        frames: Iterable[bytes],
        gap: int = 1,
        batch_size: int = 256,
        on_batch: Optional[Callable[["XdpOffload", int], None]] = None,
    ) -> SimReport:
        """Stream an arbitrarily long frame iterable through the NIC in
        bounded memory. Without ``on_batch`` this is
        :meth:`PipelineSimulator.run_packets` on the whole iterable
        (``batch_size`` is not used).

        **Host-map synchronization point.** :class:`HostMap` writes made
        *while* a stream runs are only well-defined at **drained batch
        boundaries**. Pass ``on_batch``: the stream is cut into
        ``batch_size``-frame batches, each batch runs to full pipeline
        drain, then ``on_batch(offload, batch_index)`` is called with no
        frame in flight. A write made inside the hook is observed by
        **every** frame of the next batch and by **none** of the batch
        just drained — identically under every execution engine. Without
        the hook the engines legitimately disagree on when a concurrent
        write lands: the codegen engine's straight-line stream path runs
        each packet to completion (a write between generator yields hits
        exactly at a packet boundary) while the cycle-level engines keep
        ``n_stages`` packets in flight that observe it at whatever stage
        they happen to occupy.

        No engine holds a map across runs, so the hook may even replace
        whole ``Map`` objects. Each drain costs ``n_stages`` extra cycles
        per batch relative to one continuous run; the returned report is
        the serial concatenation of the per-batch runs
        (:meth:`SimReport.merge_serial`), with per-packet records
        re-based onto one monotonic timeline.
        """
        if on_batch is None:
            report = self._nic.sim.run_packets(frames, gap)
            self._last_report = report
            return report
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        from itertools import islice

        sim = self._nic.sim
        total: Optional[SimReport] = None
        it = iter(frames)
        index = 0
        while True:
            batch = list(islice(it, batch_size))
            if not batch:
                break
            report = sim.run_packets(batch, gap=gap)
            if total is None:
                total = report
            else:
                total.merge_serial(report)
            on_batch(self, index)
            index += 1
        if total is None:
            total = SimReport(clock_mhz=self._nic.sim.options.clock_mhz,
                              n_stages=self.pipeline.n_stages)
        self._last_report = total
        return total

    # -- reports --------------------------------------------------------------------

    def latency_ns(self, report: Optional[SimReport] = None) -> float:
        if report is None:
            report = self._last_report
        if report is None:
            raise RuntimeError(
                "latency_ns: no report available — run process(), "
                "process_stream() or process_one() first, or pass a "
                "SimReport explicitly"
            )
        return self._nic.forwarding_latency_ns(report)

    def telemetry(self, registry=None) -> dict:
        """Snapshot of this offload's NIC-style counters.

        Publishes the last run's report (and the live pipeline metrics,
        when a telemetry-enabled run collected them) into ``registry`` —
        a fresh private one by default — and returns its snapshot dict.
        Use ``repro.telemetry.prometheus_text``/``chrome_trace`` on the
        registry for the exposition formats.
        """
        from .hwsim.stats import publish_report
        from .telemetry import Registry

        if registry is None:
            registry = Registry(enabled=True)
        if self._last_report is not None:
            publish_report(
                self._last_report, registry,
                app=self.program.name, engine="hwsim",
            )
        return registry.snapshot()

    def resources(self, include_shell: bool = True) -> ResourceEstimate:
        return estimate_resources(self.pipeline, include_shell=include_shell)

    def vhdl(self) -> str:
        from .core.vhdl import emit_vhdl

        return emit_vhdl(self.pipeline)

    def verify_rtl(self, frames: Sequence[bytes], setup=None,
                   rtl_engine: str = "rtl"):
        """Three-way differential over ``frames``: the reference VM, the
        pipeline simulator, and an RTL simulation of :meth:`vhdl`'s
        output must agree on every action, output byte, and final map
        entry. Returns a :class:`repro.hwsim.engines.DiffResult`; call
        ``raise_on_mismatch()`` to assert. Runs on fresh map sets (the
        loaded NIC's live state is not disturbed); ``setup(maps)`` seeds
        each leg the same way. ``rtl_engine`` picks the RTL leg's
        simulator: the compiled levelized schedule (``"rtl"``, default)
        or the delta-cycle interpreter (``"rtl-interp"``)."""
        from .rtl import run_three_way

        return run_three_way(
            self.program, list(frames), pipeline=self.pipeline,
            setup=setup, rtl_engine=rtl_engine,
        )

    def summary(self) -> str:
        est = self.resources()
        lines = [
            f"program {self.program.name!r}: "
            f"{len(self.program.instructions)} instructions, "
            f"{len(self.program.maps)} map(s)",
            f"pipeline: {self.pipeline.n_stages} stages, "
            f"max ILP {self.pipeline.max_ilp}, "
            f"max state {self.pipeline.max_state_bytes} B",
            f"resources: {est.summary()}",
        ]
        if self._last_report is not None:
            lines.append(
                f"last run: {self._last_report.packets_out} packets, "
                f"{self._last_report.throughput_mpps:.1f} Mpps, "
                f"{self.latency_ns():.0f} ns latency"
            )
        return "\n".join(lines)
