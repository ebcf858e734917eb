"""Cycle-level simulator for eHDL-generated pipelines.

Simulates the compiled :class:`~repro.core.pipeline.Pipeline` one clock
cycle at a time, with one packet per stage (the paper's "as many parallel
program executions (and packets) as the number of stages"), including all
of the consistency machinery of §4.1:

* **predication** — every packet traverses every stage; ops execute only
  when their basic block is enabled for that packet (§3.5);
* **WAR write buffers** — stores to map values at stages before the map's
  last read stage are held per-packet and committed on entry to the map's
  commit stage; in-pipeline reads see older packets' pending writes via
  forwarding (the delay-register chain of Figure 6);
* **Flush Evaluation Blocks** — commits of map updates/stores compare
  against the recorded reads of younger in-flight packets and squash them
  on a match (Figure 7), restarting them from the input queue or, with
  multiple maps, from the elastic buffer after their last committed side
  effect (Appendix A.2);
* **atomic blocks** — ``lock`` instructions execute read-modify-write in
  place at the map port, in packet order, with no hazard machinery.

The simulator is differentially tested against :class:`repro.ebpf.vm.Vm`:
same packets in, same actions/bytes/map state out — that equivalence is
the correctness claim for the whole compiler.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain, count
from operator import itemgetter
from typing import (Callable, Deque, Dict, FrozenSet, Iterable, List,
                    Optional, Sequence, Set, Tuple)

from ..ebpf import isa
from ..ebpf.helpers import (
    BPF_MAP_UPDATE_ELEM, BPF_REDIRECT_MAP, MAP_PTR_BASE, PRANDOM_SEED,
    channel_step, finish_call, helper_impl, helper_spec, map_ptr,
    prandom_step,
)
from ..ebpf.isa import MASK32, MASK64, Instruction, to_signed32
from ..ebpf.maps import HashMap, MapSet
from ..ebpf.vm import alu_step, atomic_step, cmp_step
from ..ebpf.xdp import AddressSpace, XdpAction, XdpContext
from ..core.cfg import BasicBlock
from ..core.labeling import Region
from ..core.pipeline import (RELOAD_OVERHEAD, BankKey, Forwarding, PipeOp,
                             Pipeline, Stage, StageKind)
from ..telemetry import get_registry
from .stats import PacketRecord, SimMetrics, SimReport


@dataclass
class SimOptions:
    """Simulation knobs."""

    clock_mhz: float = 250.0
    input_queue_capacity: int = 4096
    max_cycles: int = 50_000_000
    keep_records: bool = True
    # Execution backend (see repro.hwsim.engines): "codegen" runs the
    # pipeline's generated source; "interpreted" decodes every op per
    # packet per cycle and is the differential reference. Bit-identical
    # results either way.
    engine: str = "codegen"


class SimError(RuntimeError):
    """Raised on simulator-internal inconsistencies."""


class _Snapshot:
    """Elastic-buffer restart point (positional, slotted: it is built on
    every map side effect, so construction cost is hot-path cost)."""

    __slots__ = (
        "stage", "regs", "stack", "packet", "head_adjust", "tail_adjust",
        "redirect_ifindex", "enabled", "done", "action", "addr_reads",
        "value_reads", "pending_writes",
    )

    def __init__(
        self,
        stage: int,  # packet state as of *after* executing this stage
        regs: List[int],
        stack: bytes,
        packet: bytes,
        head_adjust: int,
        tail_adjust: int,
        redirect_ifindex: Optional[int],
        enabled: Set[int],
        done: bool,
        action: Optional[XdpAction],
        addr_reads: Dict[int, List[Tuple[bytes, Optional[int]]]],
        value_reads: Dict[int, Set[int]],
        pending_writes: List[Tuple[int, int, bytes]],
    ) -> None:
        self.stage = stage
        self.regs = regs
        self.stack = stack
        self.packet = packet
        self.head_adjust = head_adjust
        self.tail_adjust = tail_adjust
        self.redirect_ifindex = redirect_ifindex
        self.enabled = enabled
        self.done = done
        self.action = action
        self.addr_reads = addr_reads
        self.value_reads = value_reads
        self.pending_writes = pending_writes


class _InFlight:
    """One packet's execution state inside the pipeline."""

    __slots__ = (
        "pid", "ctx", "regs", "stack", "enabled", "done", "action",
        "position", "arrival_cycle", "inject_cycle", "restarts",
        "addr_reads", "value_reads", "pending_writes", "snapshots",
        "original_frame", "index",
    )

    def __init__(
        self, pid: int, frame: bytes, arrival_cycle: int, index: int = 0
    ) -> None:
        self.pid = pid
        # Position in the arrival stream: pid plus the frames the input
        # queue dropped ahead of this one. Error locations name it.
        self.index = index
        self.original_frame = frame
        self.arrival_cycle = arrival_cycle
        self.inject_cycle = -1
        self.restarts = 0
        self.reset()

    def reset(self) -> None:
        self.ctx = XdpContext(bytearray(self.original_frame))
        self.regs = [0] * isa.NUM_REGS
        self.regs[isa.R1] = AddressSpace.CTX_BASE
        self.regs[isa.R10] = AddressSpace.stack_top()
        self.stack = bytearray(AddressSpace.STACK_SIZE)
        self.enabled: Set[int] = set()
        self.done = False
        self.action: Optional[XdpAction] = None
        self.position = 0
        # map-consistency tracking
        self.addr_reads: Dict[int, List[Tuple[bytes, Optional[int]]]] = {}
        self.value_reads: Dict[int, Set[int]] = {}
        self.pending_writes: List[Tuple[int, int, bytes]] = []
        self.snapshots: List[_Snapshot] = []

    # -- snapshot / restore (elastic buffers, Appendix A.2) -------------------

    def take_snapshot(self, stage: int) -> None:
        ctx = self.ctx
        self.snapshots.append(_Snapshot(
            stage,
            list(self.regs),
            bytes(self.stack),
            bytes(ctx.packet),
            ctx.head_adjust,
            ctx.tail_adjust,
            ctx.redirect_ifindex,
            set(self.enabled),
            self.done,
            self.action,
            {fd: list(v) for fd, v in self.addr_reads.items()},
            {fd: set(v) for fd, v in self.value_reads.items()},
            list(self.pending_writes),
        ))

    def restore_snapshot(self, snap: "_Snapshot") -> int:
        """Restore to a side-effect snapshot; returns its stage. Later
        snapshots are discarded (they are in the squashed future)."""
        self.snapshots = [sn for sn in self.snapshots if sn.stage <= snap.stage]
        self.regs = list(snap.regs)
        self.stack = bytearray(snap.stack)
        self.ctx = XdpContext(bytearray(snap.packet))
        self.ctx.head_adjust = snap.head_adjust
        self.ctx.tail_adjust = snap.tail_adjust
        self.ctx.redirect_ifindex = snap.redirect_ifindex
        self.enabled = set(snap.enabled)
        self.done = snap.done
        self.action = snap.action
        self.addr_reads = {fd: list(v) for fd, v in snap.addr_reads.items()}
        self.value_reads = {fd: set(v) for fd, v in snap.value_reads.items()}
        self.pending_writes = list(snap.pending_writes)
        return snap.stage


def _generic_observe(metrics, slots, barrier_queues) -> None:
    """Per-cycle telemetry increments (either engine)."""
    metrics.observed_cycles += 1
    busy = metrics.stage_busy_cycles
    for pos in range(1, len(slots)):
        if slots[pos] is not None:
            busy[pos - 1] += 1
    if barrier_queues:
        waits = 0
        for queue in barrier_queues.values():
            waits += len(queue)
        metrics.barrier_wait_cycles += waits


def _interpreted_stage(stage: Stage) -> Optional[Callable]:
    """``stage`` as a callable of the generated stage-function signature
    (``None`` when it holds no ops): the interpreted engine's table
    entry, decoding every op per packet per cycle. Returns True if a
    flush fired."""
    if stage.kind is not StageKind.OPS:
        return None
    ops, number = stage.ops, stage.number

    def stage_fn(sim, pkt, slots, barrier_queues, input_queue, report) -> bool:
        flushed = False
        for op in ops:
            if pkt.done:
                break
            if op.block_id not in pkt.enabled:
                # Disabled op: still the terminator of a block we never
                # entered — nothing to do.
                continue
            side_effect = sim._execute_op(pkt, op)
            if side_effect:
                # Every map side effect is an A.2 restart point. For a
                # WAR-buffered store the snapshot carries the *pending*
                # write: a restart resumes with it still queued, so it
                # commits exactly once (and re-committing the same
                # bytes after an already-performed commit is idempotent
                # — packet order guarantees no younger write can have
                # intervened on that slot).
                pkt.take_snapshot(number)
                if sim._flush_check(pkt, side_effect, slots, barrier_queues,
                                    input_queue, report):
                    flushed = True
        return flushed

    return stage_fn


def _interpreted_entry(entry_ops: Sequence[PipeOp]) -> Optional[Callable]:
    """The entry ops as a callable of the generated ``_ENTRY`` signature."""
    if not entry_ops:
        return None

    def entry_fn(sim, pkt) -> None:
        for op in entry_ops:
            sim._execute_op(pkt, op)

    return entry_fn


class PipelineSimulator:
    """Executes packets through a compiled pipeline, cycle by cycle."""

    def __init__(
        self,
        pipeline: Pipeline,
        maps: Optional[MapSet] = None,
        options: Optional[SimOptions] = None,
        time_ns: int = 0,
    ) -> None:
        self.pipeline = pipeline
        self.maps = maps if maps is not None else MapSet(pipeline.program.maps)
        self.options = options or SimOptions()
        self.time_ns = time_ns
        # Host-side map operations applied at cycle boundaries while the
        # data plane runs (§6: the userspace eBPF map interface stays live;
        # host accesses use the map block's dedicated host port). Each
        # entry is (cycle, callable(maps)).
        self.host_ops: List[Tuple[int, Callable[[MapSet], None]]] = []
        # Optional per-cycle observer: called as
        # observer(cycle, slots, barrier_queues, input_queue, report)
        # after each cycle's advance phase (see hwsim.trace).
        self.observer: Optional[Callable] = None
        self.trace_events: List[Tuple[int, ...]] = []
        self._prandom_state = PRANDOM_SEED
        # Telemetry counters of the most recent run (None until a run
        # made with the registry enabled collects them).
        self.metrics: Optional[SimMetrics] = None

        program = pipeline.program
        self._blocks: List[BasicBlock] = pipeline.cfg.blocks
        self._block_of_insn = pipeline.cfg.block_of_insn
        n = len(program.instructions)
        self._terminator_block: Dict[int, BasicBlock] = {
            b.terminator_index: b for b in self._blocks
        }
        # Per-map hazard configuration. Pending (WAR-buffered) writes
        # commit on entry to their map's commit stage, so a squashed
        # packet never has to unwind a committed store.
        self._has_flush: Dict[int, bool] = {
            fd: plan.squashes for fd, plan in pipeline.map_hazards.items()}
        self._commit_stages = pipeline.commit_stages
        # Scan bounds for the hazard checks, from the ops themselves (an
        # unlabeled access counts as a map access): a packet shallower
        # than the first possible map read has recorded no read, one
        # shallower than the first possible map store buffers no write.
        self._first_read = self._first_write = pipeline.n_stages + 1
        for stage in reversed(pipeline.stages):
            for op in stage.ops or ():
                if (op.label is not None
                        and op.label.region is not Region.MAP_VALUE):
                    continue
                insn = op.insn
                if insn.opclass == isa.BPF_LDX or (
                        insn.is_call
                        and (op.call is None or op.call.is_map_read)):
                    self._first_read = stage.number
                elif insn.opclass in (isa.BPF_ST, isa.BPF_STX):
                    self._first_write = stage.number
        # Serialization windows (core.hazards): inclusive 1-based [lo, hi]
        # stage ranges with their holder blocks and lane keys. Each admits
        # at most one packet per lane (bank or key) that has enabled a
        # holder at a time, so a lane's accesses happen strictly in packet
        # order on every engine; other packets pass through (see
        # _admits). Empty for most pipelines.
        self._serial_windows = self._interlocks()
        # Execution backend: one table, filled once. _enter dispatches
        # _stage_fns[pos] (stage number pos + 1), the cycle loop _entry_fn,
        # without knowing who built them: "interpreted" re-decodes ops per
        # packet per cycle; "codegen" exec()s the pipeline's generated
        # source module, whose stage bodies run in the same loop and
        # which adds, where proven equivalent, _STREAM.
        engine = self.options.engine
        if engine not in ("interpreted", "codegen"):
            raise SimError(
                f"unknown simulator engine {engine!r} "
                "(expected interpreted or codegen)"
            )
        self.engine = engine
        self._stream_fn: Optional[Callable] = None
        self._stream_shape: Optional[str] = None
        if engine == "codegen":
            from .codegen import load_pipeline_module

            module = load_pipeline_module(pipeline)
            self._stage_fns: Sequence[Optional[Callable]] = module["_STAGE_FNS"]
            self._entry_fn: Optional[Callable] = module["_ENTRY"]
            self._stream_fn = module.get("_STREAM")
            self._stream_shape = module.get("_STREAM_SHAPE")
        else:
            self._stage_fns = [_interpreted_stage(s) for s in pipeline.stages]
            self._entry_fn = _interpreted_entry(pipeline.entry_ops)

    def schedule_host_op(self, cycle: int, op: "Callable[[MapSet], None]") -> None:
        """Apply ``op(maps)`` at the start of ``cycle`` during :meth:`run`."""
        self.host_ops.append((cycle, op))
        self.host_ops.sort(key=lambda pair: pair[0])

    # -- deterministic randomness (helper interface parity with Vm) -----------

    def next_prandom(self) -> int:
        self._prandom_state = prandom_step(self._prandom_state)
        return self._prandom_state

    # -- public API --------------------------------------------------------------

    def run(self, arrivals: Iterable[Tuple[int, bytes]]) -> SimReport:
        """Simulate a stream of (arrival_cycle, frame) pairs until every
        packet has exited. Arrival cycles must be non-decreasing.

        A :class:`SimError` names where in the arrival stream it struck
        (0-based): ``(at frame N)`` when one frame is to blame — a stage
        body dispatched from this loop raised on it — else ``(frames
        LO..HI in flight)``, what the pipeline held when the cycle
        budget ran out or a host op or observer raised (an empty
        pipeline names the next frame due into it)."""
        options = self.options
        n_stages = self.pipeline.n_stages
        # Telemetry: resolved once per run; when off, the whole per-cycle
        # cost is a single `is not None` check below.
        metrics = (SimMetrics.create(n_stages)
                   if get_registry().enabled else None)
        report = self._new_report(metrics)
        slots: List[Optional[_InFlight]] = [None] * (n_stages + 1)  # 1-based
        self._slots = slots  # forwarding registry for _map_read_bytes
        input_queue: Deque[_InFlight] = deque()
        barrier_queues: Dict[int, Deque[_InFlight]] = {}
        arrival_iter = iter(arrivals)
        pending_arrival: Optional[Tuple[int, bytes]] = next(arrival_iter, None)
        next_pid = 0
        cycle = 0
        reload_stall = 0
        time_base_ns = self.time_ns
        cycle_ns = 1000.0 / options.clock_mhz

        host_ops = list(self.host_ops)
        entry_fn = self._entry_fn
        # Per-cycle telemetry with the line-rate common case batched: at
        # line rate every stage slot holds a packet, so the per-stage
        # busy scan degenerates to "add 1 to every stage" — one C-level
        # ``slots.count(None)`` (index 0 is the 1-based pad, always
        # ``None``). Those cycles are tallied in full_cycles and folded
        # into the metrics once per run, below; only partially-occupied
        # cycles (fill, drain, gaps, barrier activity) pay the per-slot
        # observer. Final counts are identical either way.
        full_cycles = 0
        # Loop-invariant lookups, hoisted off the per-cycle path.
        entry_block_id = self.pipeline.cfg.entry.block_id
        entry_checks = self.pipeline.entry_checks
        capacity = options.input_queue_capacity
        max_cycles = options.max_cycles
        keep_records = options.keep_records
        shift_range = range(n_stages - 1, 0, -1)
        observer = self.observer
        # Interlock windows: every way into a stage asks _admits.
        windows = self._serial_windows = self._interlocks()
        injected = frozenset((entry_block_id,))
        admits = self._admits
        enter = self._enter
        # The packet whose stage body is executing, for the error
        # location: set at each entry below, cleared once per cycle.
        running: Optional[_InFlight] = None
        try:
            while True:
                # 0. host-side map accesses land through the dedicated host port
                while host_ops and host_ops[0][0] <= cycle:
                    _cycle, op = host_ops.pop(0)
                    op(self.maps)

                # 1. accept arrivals whose time has come
                while pending_arrival is not None and pending_arrival[0] <= cycle:
                    if len(input_queue) >= capacity:
                        report.packets_dropped_queue += 1
                    else:
                        pkt = _InFlight(
                            next_pid, pending_arrival[1], cycle,
                            next_pid + report.packets_dropped_queue)
                        next_pid += 1
                        input_queue.append(pkt)
                        report.packets_in += 1
                    pending_arrival = next(arrival_iter, None)

                if (
                    pending_arrival is None
                    and not input_queue
                    and slots.count(None) == n_stages + 1
                    and not any(barrier_queues.values())
                ):
                    break
                if cycle >= max_cycles:
                    raise SimError(f"simulation exceeded {max_cycles} cycles")

                # 2. advance phase. Barrier queues stall everything at or below
                # their stage so restarted (older) packets keep their order.
                stall_below = -1
                if barrier_queues:
                    for stage_no, queue in barrier_queues.items():
                        if queue:
                            stall_below = max(stall_below, stage_no)
                    if stall_below >= 0:
                        report.stall_cycles += 1

                # deepest first: exit, then shift
                out = slots[n_stages]
                if out is not None:
                    self._finalize(out)
                    verdict = out.action if out.action is not None else XdpAction.PASS
                    if keep_records:
                        report.record(
                            PacketRecord(
                                pid=out.pid,
                                action=verdict,
                                data=bytes(out.ctx.packet),
                                arrival_cycle=out.arrival_cycle,
                                inject_cycle=out.inject_cycle,
                                exit_cycle=cycle,
                                restarts=out.restarts,
                                egress=(out.ctx.redirect_ifindex
                                        if verdict is XdpAction.REDIRECT
                                        else None),
                            )
                        )
                    else:
                        # Record-free accounting: no PacketRecord allocation,
                        # same aggregates (see SimReport.tally).
                        report.tally(
                            verdict,
                            out.arrival_cycle,
                            out.inject_cycle,
                            cycle,
                            out.restarts,
                        )
                    slots[n_stages] = None
                for pos in shift_range:
                    pkt = slots[pos]
                    if pkt is None:
                        continue
                    if pos <= stall_below:
                        continue  # held by a draining elastic buffer
                    npos = pos + 1
                    if slots[npos] is not None:
                        continue  # backed up behind an interlocked packet
                    # Deepest-first iteration: a same-cycle hi -> hi+1
                    # exit has already vacated a window by the time the
                    # packet at lo-1 asks to enter it.
                    if windows and not admits(pkt.enabled, pkt.stack,
                                              npos, pos):
                        continue
                    slots[pos] = None
                    running = pkt
                    if enter(pkt, npos, barrier_queues, input_queue, report):
                        reload_stall = max(reload_stall, RELOAD_OVERHEAD)

                # 3. release one packet from the deepest non-empty barrier queue
                released = False
                if reload_stall > 0:
                    reload_stall -= 1
                elif stall_below >= 0:
                    queue = barrier_queues[stall_below]
                    if (queue and slots[stall_below + 1] is None
                            and (not windows or admits(
                                queue[0].enabled, queue[0].stack,
                                stall_below + 1, 0))):
                        pkt = running = queue.popleft()
                        if enter(pkt, stall_below + 1, barrier_queues,
                                 input_queue, report):
                            reload_stall = max(reload_stall, RELOAD_OVERHEAD)
                        released = True

                # 4. inject from the input queue into stage 1
                if (
                    not released
                    and reload_stall == 0
                    and stall_below < 1
                    and input_queue
                    and slots[1] is None
                    and (not windows or admits(
                        injected, input_queue[0].stack, 1, 0))
                ):
                    pkt = running = input_queue.popleft()
                    # Queued packets are always in reset state: fresh arrivals
                    # from _InFlight.__init__, flush-requeued ones from
                    # _flush_check — so no reset here, and no pending write
                    # for _enter to commit.
                    if pkt.inject_cycle < 0:
                        pkt.inject_cycle = cycle
                    pkt.enabled = {entry_block_id}
                    # The hardware's input-length comparators stand in for the
                    # elided entry-side bounds checks.
                    for min_len, action in entry_checks:
                        if len(pkt.ctx.packet) < min_len:
                            pkt.done = True
                            pkt.action = XdpAction.of(action)
                            break
                    if entry_fn is not None and not pkt.done:
                        entry_fn(self, pkt)
                    if enter(pkt, 1, barrier_queues, input_queue, report):
                        reload_stall = max(reload_stall, RELOAD_OVERHEAD)
                running = None

                if metrics is not None:
                    if not barrier_queues and slots.count(None) == 1:
                        full_cycles += 1
                    else:
                        _generic_observe(metrics, slots, barrier_queues)

                if observer is not None:
                    observer(cycle, slots, barrier_queues, input_queue, report)

                cycle += 1
                # Wall-clock time advances with the pipeline clock so that
                # time-dependent helpers (bpf_ktime_get_ns) behave like
                # hardware timestamping.
                self.time_ns = time_base_ns + int(cycle * cycle_ns)
        except SimError as exc:
            if running is not None:
                held = [running.index]
            else:
                held = [p.index for p in chain(slots, *barrier_queues.values())
                        if p is not None]
            if not held:
                # Nothing in the pipeline: the next frame due into it, the
                # queue's head or the arrival still pending (this loop ends
                # before it can fail with neither).
                held = [input_queue[0].index if input_queue
                        else next_pid + report.packets_dropped_queue]
            lo, hi = min(held), max(held)
            where = f"at frame {lo}" if lo == hi else f"frames {lo}..{hi} in flight"
            raise SimError(f"{exc} ({where})") from exc

        if full_cycles:
            metrics.observed_cycles += full_cycles
            busy = metrics.stage_busy_cycles
            for i in range(len(busy)):
                busy[i] += full_cycles
        report.cycles = cycle
        return report

    def run_packets(self, frames: Iterable[bytes], gap: int = 1) -> SimReport:
        """Inject ``frames`` ``gap`` cycles apart (1 = line rate): the
        one frame-level way in.

        ``frames`` is any iterable — a list, a generator — pulled lazily
        on both paths (the cycle loop reads one frame ahead, ``_STREAM``
        none), so with ``keep_records=False`` arbitrarily long traces
        stream in bounded memory. Takes the codegen engine's
        straight-line path when nothing blocks it (see
        :meth:`stream_blocker`; cycle accounting and report are
        bit-identical to the cycle loop's), else :meth:`run`. Either
        way a :class:`SimError` names the offending frame as ``run``
        documents — on the stream path always exactly, ``(at frame N)``.
        """
        # _stream_fn first: naming a pipeline-level obstacle rescans the
        # ops, and an ineligible pipeline comes through here every batch.
        if self._stream_fn is None or self.stream_blocker(gap) is not None:
            return self.run((i * gap, f) for i, f in enumerate(frames))
        options = self.options
        report = self._new_report(None)
        # No packets are ever in flight together on this path; the map
        # channel's store-forwarding scan must see an empty pipeline.
        self._slots = ()
        # C-level tally of the frames pulled: zip draws a frame, then a
        # count, and _STREAM finishes each frame before pulling the next,
        # so a failure is on the last one read.
        read = count()
        try:
            self._stream_fn(self, map(itemgetter(0), zip(frames, read)), gap,
                            report, options.keep_records)
        except SimError as exc:
            raise SimError(f"{exc} (at frame {next(read) - 1})") from exc
        # The cycle loop leaves the wall clock at the last cycle boundary.
        self.time_ns += int(report.cycles * (1000.0 / options.clock_mhz))
        return report

    def stream_blocker(self, gap: int = 1) -> Optional[str]:
        """Why ``run_packets`` would run the cycle loop on this
        simulator as it stands — one line — or ``None`` when it takes
        the codegen engine's straight-line ``_STREAM`` path.
        Either the generated module could not prove the path equivalent
        (see ``codegen.stream_blocker``), or something cycle-bound is
        attached to the run: telemetry (the metrics are per-cycle by
        construction), a per-cycle observer or tracer, scheduled host
        map ops; or ``self.maps`` is not the ``MapSet`` the program's
        map specs build, which ``_STREAM`` is specialised to."""
        if self.engine != "codegen":
            return f"engine {self.engine!r} has no stream path"
        if self._stream_fn is None:
            from .codegen import stream_blocker

            return stream_blocker(self.pipeline)
        options = self.options
        if get_registry().enabled:
            return "telemetry is on"
        if self.observer is not None:
            return "a per-cycle observer is attached"
        if self.host_ops:
            return "host map ops are scheduled"
        if gap < 1 or options.input_queue_capacity < 1:
            return "gap or input queue capacity below 1"
        # _STREAM binds each map once per run and has the program's
        # MapSpecs folded into it, so this run's maps must be the maps
        # those specs build. Asked per run, not per simulator: a caller
        # may replace Map objects between runs.
        fd = self.maps.mismatch(self.pipeline.program.maps)
        if fd is not None:
            return (f"map {fd} is not the "
                    f"{self.pipeline.program.maps[fd].map_type} map the "
                    "pipeline was compiled against")
        return None

    def engine_path(self, gap: int = 1) -> str:
        """``stream (<stream shape>)`` or ``cycle-loop (<reason>)``: the
        code path a run of this simulator takes, for attributing its
        numbers. The shape is the emitter's own account of what it
        specialised: how many of the stream body's map lookups are
        folded to the map's kind and geometry and how many ``sim._*``
        fallbacks spill the register locals."""
        reason = self.stream_blocker(gap)
        if reason is None:
            return f"stream ({self._stream_shape})"
        return f"cycle-loop ({reason})"

    def _new_report(self, metrics: Optional[SimMetrics]) -> SimReport:
        """An empty report for a run collecting ``metrics`` (None: off),
        which also become this simulator's :attr:`metrics`."""
        options = self.options
        report = SimReport(
            clock_mhz=options.clock_mhz,
            n_stages=self.pipeline.n_stages,
            keep_records=options.keep_records,
        )
        self.metrics = report.metrics = metrics
        return report

    # -- the cycle loop's rules --------------------------------------------------

    def _interlocks(self) -> Tuple[
            Tuple[int, int, FrozenSet[int], Optional[BankKey],
                  Optional[Forwarding]], ...]:
        """The pipeline's ``held_windows`` over this simulator's maps: a
        window splits by lane only over the kind of map its key was
        planned for — a plain hash map for a keyed window, one of its
        bank count for a banked one — and has one lane over any other (a
        caller's own ``MapSet``), where packets of two lanes need not
        commute, and holders wait out the whole window."""
        maps = self.maps.maps

        def planned(bank: BankKey) -> bool:
            held = maps.get(bank.map_fd)
            if bank.keyed:
                return type(held) is HashMap
            return getattr(held, "banks", 1) == bank.banks

        return tuple(
            (lo, hi, holders, bank, forward)
            if bank is None or planned(bank) else (lo, hi, holders, None,
                                                   None)
            for lo, hi, holders, bank, forward
            in self.pipeline.held_windows)

    def _admits(self, enabled: Set[int], stack: bytearray, stage: int,
                from_stage: int) -> bool:
        """Whether a packet that has enabled ``enabled`` and holds
        ``stack`` may enter ``stage`` from ``from_stage`` (0: from a
        barrier queue or the input queue) — the window interlock, stated
        once. It may not when ``stage`` lies in a window ``[lo, hi]``
        that ``from_stage`` lies outside, the packet holds the window
        (has enabled one of its holder blocks) and a packet of its lane
        in ``slots[lo..hi]`` holds it too: in hardware the window's
        occupancy comparison masked by an OR of the enable bits and by
        a compare of the bank bits on a banked map, of the key (a flush
        block's comparator) in a keyed window. A window without a key
        has one lane; one with a key reads the lane from the stack
        (``BankKey.of``), which no store changes from ``lo`` on. A
        window that forwards lets a packet in beside a holder of its
        lane at stage ``lo + release`` or deeper, ``release`` evaluated
        over the holder's flags (``Forwarding.released``; an undecided
        test holds): this loop runs the deeper packet's stage first, so
        its write lands before the access of the entering packet that
        must see it. A holder is ``done`` before its decision only where
        an entry comparator drops it before stage 1, or a map call finds
        no map in the map set: every other mid-body drop is an access
        the verifier bounds. Movement within a window is free."""
        slots = self._slots
        for lo, hi, holders, bank, forward in self._serial_windows:
            if (lo <= stage <= hi and not lo <= from_stage <= hi
                    and not holders.isdisjoint(enabled)):
                mine = bank.of(stack) if bank is not None else 0
                for other in slots[lo:hi + 1]:
                    if (other is not None
                            and not holders.isdisjoint(other.enabled)
                            and (bank is None
                                 or bank.of(other.stack) == mine)
                            and (forward is None or other.position < lo
                                 + forward.released(other.enabled,
                                                    other.done))):
                        return False
        return True

    def _enter(
        self,
        pkt: _InFlight,
        stage: int,
        barrier_queues: Dict[int, Deque[_InFlight]],
        input_queue: Deque[_InFlight],
        report: SimReport,
    ) -> bool:
        """Place ``pkt`` in ``stage`` and run the stage on it: the one way
        into a stage for the shift, a barrier release and the injection.
        Returns True if a flush fired."""
        slots = self._slots
        slots[stage] = pkt
        pkt.position = stage
        # Commit WAR-buffered writes on *entry* to the commit stage: all
        # older packets are already past it, and committing before this
        # stage's own reads keeps the commit snapshot free of them — so a
        # later flush resumes by re-executing this stage's (possibly
        # stale) reads instead of replaying the committed write.
        if pkt.pending_writes:
            self._commit_pending(pkt, stage)
        stage_fn = self._stage_fns[stage - 1]
        return stage_fn is not None and stage_fn(
            self, pkt, slots, barrier_queues, input_queue, report)

    # -- write commit ----------------------------------------------------------

    def _commit_pending(self, pkt: _InFlight, stage_number: int) -> None:
        """Commit WAR-buffered writes whose protection window has passed."""
        if not pkt.pending_writes:
            return
        remaining = []
        for write in pkt.pending_writes:
            fd, offset, data = write
            if stage_number >= self._commit_stages[fd]:
                storage = self.maps[fd].storage
                storage[offset : offset + len(data)] = data
            else:
                remaining.append(write)
        pkt.pending_writes = remaining
        # No snapshot here: the commit is covered by the pending-creation
        # snapshot (re-commit is idempotent), and a commit-time snapshot
        # would capture reads made between the write and the commit stage,
        # poisoning the restart point.

    # -- flush machinery --------------------------------------------------------

    def _flush_check(
        self,
        writer: _InFlight,
        side_effect: Tuple,
        slots: List[Optional[_InFlight]],
        barrier_queues: Dict[int, Deque[_InFlight]],
        input_queue: Deque[_InFlight],
        report: SimReport,
    ) -> bool:
        """After ``writer`` committed a map side effect, squash younger
        in-flight packets whose recorded reads it invalidates."""
        kind, fd = side_effect[0], side_effect[1]
        if kind == "atomic":
            return False
        if not self._has_flush.get(fd, False):
            return False
        # Younger packets behind the writer live either in pipeline slots
        # (none shallower than the first map read holds a read) or in
        # elastic-buffer queues (restored after an earlier flush); BOTH
        # can hold stale reads and must be checked.
        store = kind == "store"  # side_effect[2]: slot
        oldest_victim_pid: Optional[int] = None
        for other in chain(slots[self._first_read:writer.position],
                           *barrier_queues.values()):
            if other is None or other.pid <= writer.pid:
                continue
            if store:
                # _reads_match's store case, inlined: this loop runs for
                # every in-flight packet on every map store.
                reads = other.value_reads.get(fd)
                if reads is None or side_effect[2] not in reads:
                    continue
            elif not self._reads_match(other.addr_reads, other.value_reads,
                                       side_effect):
                continue
            if oldest_victim_pid is None or other.pid < oldest_victim_pid:
                oldest_victim_pid = other.pid
        if oldest_victim_pid is None:
            return False
        # The paper flushes the whole pipeline prefix, not just matching
        # packets: every packet younger than the oldest victim restarts.
        squashed: List[_InFlight] = []
        for pos in range(writer.position - 1, 0, -1):
            other = slots[pos]
            if other is not None and other.pid >= oldest_victim_pid:
                slots[pos] = None
                squashed.append(other)
        for queue in barrier_queues.values():
            keep = [p for p in queue if p.pid < oldest_victim_pid]
            for p in queue:
                if p.pid >= oldest_victim_pid:
                    squashed.append(p)
            queue.clear()
            queue.extend(keep)
        report.flush_events += 1
        report.squashed_packets += len(squashed)
        # Restart each squashed packet from its elastic buffer (if it has
        # committed side effects) or from the input queue, under two rules:
        #
        # 1. A snapshot is only usable when the invalidated read happened
        #    *after* it — if the stale read is baked into the snapshot,
        #    the packet restarts further back (ultimately from scratch,
        #    re-executing side effects: the Appendix A.2 anomaly, which
        #    the paper's hardware exhibits identically).
        # 2. Restart depths are NON-INCREASING in age order: a younger
        #    packet never resumes ahead of an older one, or it could
        #    overtake it and break the packet-order invariant the whole
        #    hazard scheme rests on.
        requeue_front: List[_InFlight] = []
        depth_limit: Optional[int] = None  # stage of the previous (older) restart
        for pkt in sorted(squashed, key=lambda p: p.pid):
            pkt.restarts += 1
            chosen: Optional[_Snapshot] = None
            for snap in reversed(pkt.snapshots):
                if depth_limit is not None and snap.stage > depth_limit:
                    continue
                if self._reads_match(snap.addr_reads, snap.value_reads,
                                     side_effect):
                    continue  # poisoned: stale read baked in
                chosen = snap
                break
            if chosen is not None:
                restart_stage = pkt.restore_snapshot(chosen)
                depth_limit = restart_stage
                queue = barrier_queues.setdefault(restart_stage, deque())
                queue.append(pkt)
            else:
                pkt.reset()
                depth_limit = 0
                requeue_front.append(pkt)
        for pkt in reversed(requeue_front):
            input_queue.appendleft(pkt)
        return True

    @staticmethod
    def _reads_match(
        addr_reads: Dict[int, List[Tuple[bytes, Optional[int]]]],
        value_reads: Dict[int, Set[int]],
        side_effect: Tuple,
    ) -> bool:
        kind, fd = side_effect[0], side_effect[1]
        if kind == "update" or kind == "delete":
            key, slot = side_effect[2], side_effect[3]
            for read_key, read_slot in addr_reads.get(fd, ()):  # lookup results
                if read_key == key or (slot is not None and read_slot == slot):
                    return True
            if slot is not None and slot in value_reads.get(fd, set()):
                return True
            return False
        if kind == "store":
            # A value store never changes the key->slot mapping, so it can
            # only invalidate packets that read the VALUE; a packet that
            # merely resolved an address (lookup) reads the fresh value
            # whenever it eventually loads.
            slot = side_effect[2]
            return slot in value_reads.get(fd, set())
        return False

    # -- op execution -------------------------------------------------------------

    def _execute_op(self, pkt: _InFlight, op: PipeOp) -> Optional[Tuple]:
        """Execute one instruction on a packet's state.

        Returns a side-effect descriptor tuple when the op committed a map
        write that must be flush-checked, else None.
        """
        insn = op.insn
        cls = insn.opclass
        regs = pkt.regs
        side_effect: Optional[Tuple] = None

        if cls in (isa.BPF_ALU64, isa.BPF_ALU):
            alu_step(insn, regs)
        elif cls == isa.BPF_LDX:
            addr = (regs[insn.src] + insn.off) & MASK64
            value = self._mem_load(pkt, addr, insn.size_bytes)
            if value is None:
                return None  # packet dropped on out-of-bounds access
            regs[insn.dst] = value
        elif cls == isa.BPF_LD:
            if insn.src == isa.BPF_PSEUDO_MAP_FD:
                fd = (insn.imm64 or insn.imm) & MASK32
                regs[insn.dst] = map_ptr(fd)
            else:
                regs[insn.dst] = (
                    insn.imm64 if insn.imm64 is not None else insn.imm
                ) & MASK64
        elif cls in (isa.BPF_ST, isa.BPF_STX):
            addr = (regs[insn.dst] + insn.off) & MASK64
            if insn.is_atomic:
                side_effect = self._atomic(pkt, insn, addr)
            else:
                if cls == isa.BPF_STX:
                    value = regs[insn.src]
                else:
                    value = to_signed32(insn.imm) & MASK64
                side_effect = self._mem_store(
                    pkt, addr, insn.size_bytes, value, op
                )
        elif cls in (isa.BPF_JMP, isa.BPF_JMP32):
            if insn.is_exit:
                self._finish(pkt)
            elif insn.is_call:
                side_effect = self._call(pkt, insn.imm)
            elif insn.is_cond_jump or insn.is_uncond_jump:
                pass  # handled by the terminator logic below
        else:
            raise SimError(f"unknown instruction class {cls:#x}")

        # Terminator handling: enable successor blocks.
        block = self._terminator_block.get(op.insn_index)
        if block is not None and not pkt.done:
            self._apply_terminator(pkt, block, insn)
        return side_effect

    def _apply_terminator(
        self, pkt: _InFlight, block: BasicBlock, insn: Instruction
    ) -> None:
        if insn.is_exit:
            return
        if insn.is_cond_jump:
            taken = cmp_step(insn, pkt.regs)
            for succ, kind in block.succs:
                if (kind == "taken") == taken:
                    pkt.enabled.add(succ)
        else:
            for succ, _kind in block.succs:
                pkt.enabled.add(succ)

    def _finish(self, pkt: _InFlight) -> None:
        pkt.done = True
        pkt.action = XdpAction.of(pkt.regs[isa.R0])

    def _drop(self, pkt: _InFlight) -> None:
        """Implicit hardware drop on out-of-bounds packet access (the
        bounds checks elided by the compiler are enforced here)."""
        pkt.done = True
        pkt.action = XdpAction.DROP

    def _finalize(self, pkt: _InFlight) -> None:
        """Packet leaves the pipeline: flush remaining pending writes."""
        for fd, offset, data in pkt.pending_writes:
            storage = self.maps[fd].storage
            storage[offset : offset + len(data)] = data
        pkt.pending_writes = []
        if not pkt.done:
            # Program never reached an exit on this path — treat as ABORTED
            # like the kernel treats a fault.
            pkt.action = XdpAction.ABORTED

    # -- memory --------------------------------------------------------------------

    def _mem_load(self, pkt: _InFlight, addr: int, size: int) -> Optional[int]:
        buf, off, fd = AddressSpace.locate(
            addr, size, pkt.stack, pkt.ctx, self.maps)
        if buf is None:
            self._drop(pkt)
            return None
        if fd is None:
            return int.from_bytes(buf[off : off + size], "little")
        data = self._map_read_bytes(pkt, fd, off, size)
        pkt.value_reads.setdefault(fd, set()).add(
            self.maps[fd].slot_of_addr(off))
        return int.from_bytes(data, "little")

    def _map_read_bytes(
        self, pkt: _InFlight, fd: int, offset: int, size: int
    ) -> bytes:
        """Committed map bytes overlaid with pending writes from packets
        older than (or equal to) the reader — the forwarding path of the
        WAR buffer chain."""
        storage = self.maps[fd].storage
        overlays: List[Tuple[int, int, int, bytes]] = []
        # No packet shallower than the first map store buffers a write.
        for other in self._slots[self._first_write:]:
            if (other is None or not other.pending_writes
                    or other.pid > pkt.pid):
                continue
            for seq, (w_fd, w_off, w_data) in enumerate(other.pending_writes):
                if w_fd != fd:
                    continue
                overlays.append((other.pid, seq, w_off, w_data))
        if not overlays:
            return bytes(storage[offset : offset + size])
        data = bytearray(storage[offset : offset + size])
        overlays.sort()
        for _pid, _seq, w_off, w_data in overlays:
            lo = max(w_off, offset)
            hi = min(w_off + len(w_data), offset + size)
            if lo < hi:
                data[lo - offset : hi - offset] = w_data[lo - w_off : hi - w_off]
        return bytes(data)

    def _mem_store(
        self,
        pkt: _InFlight,
        addr: int,
        size: int,
        value: int,
        op: PipeOp,
    ) -> Optional[Tuple]:
        buf, offset, fd = AddressSpace.locate(
            addr, size, pkt.stack, pkt.ctx, self.maps, writing=True)
        if buf is None:
            self._drop(pkt)
            return None
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        if fd is None:
            buf[offset : offset + size] = data
            return None
        slot = self.maps[fd].slot_of_addr(offset)
        if pkt.position < self._commit_stages[fd]:
            # Buffer the write (Figure 6) until the map's commit stage
            # (Pipeline.commit_stages). The buffering does NOT defer the
            # RAW check: younger packets that already read this slot
            # hold stale data now, so the write flush-checks at creation
            # like any other.
            pkt.pending_writes.append((fd, offset, data))
            return ("store", fd, slot)
        buf[offset : offset + size] = data
        return ("store", fd, slot)

    def _atomic(self, pkt: _InFlight, insn: Instruction, addr: int) -> Optional[Tuple]:
        size = insn.size_bytes
        buf, offset, fd = AddressSpace.locate(
            addr, size, pkt.stack, pkt.ctx, self.maps, writing=True)
        if buf is None:
            self._drop(pkt)
            return None
        # Program order within the packet must hold: if this packet has its
        # own WAR-buffered stores overlapping the slot, materialise them
        # before the read-modify-write (otherwise their later commit would
        # clobber the atomic's result).
        if fd is not None and pkt.pending_writes:
            remaining = []
            for write in pkt.pending_writes:
                w_fd, w_off, w_data = write
                overlaps = (
                    w_fd == fd
                    and w_off < offset + size
                    and offset < w_off + len(w_data)
                )
                if overlaps:
                    buf[w_off : w_off + len(w_data)] = w_data
                else:
                    remaining.append(write)
            pkt.pending_writes = remaining

        # One decode, one span: read it, step it, write it back.
        old = int.from_bytes(buf[offset : offset + size], "little")
        new = atomic_step(insn.imm, old, pkt.regs[insn.src],
                          pkt.regs[isa.R0], (1 << (8 * size)) - 1)
        if insn.imm == isa.ATOMIC_CMPXCHG:
            pkt.regs[isa.R0] = old
        elif insn.imm & isa.BPF_FETCH:  # xchg carries the fetch bit
            pkt.regs[insn.src] = old
        buf[offset : offset + size] = new.to_bytes(size, "little")
        if fd is not None:
            # Atomics execute in-place at the map port with no flush check
            # (the global-state path of §4.1.2), but they ARE committed
            # side effects: the packet must snapshot so a later flush does
            # not replay them (Appendix A.2).
            return ("atomic", fd)
        return None

    # -- helper calls ------------------------------------------------------------------

    def _call(self, pkt: _InFlight, helper_id: int) -> Optional[Tuple]:
        regs = pkt.regs
        if helper_spec(helper_id).map_channel:
            side_effect = self._map_channel_call(pkt, helper_id)
            finish_call(regs, regs[isa.R0])  # left as is on a drop
            return side_effect
        # Reuse the VM's helper implementations via a per-packet
        # execution context that quacks like a Vm.
        finish_call(regs, helper_impl(helper_id)(
            _HelperContext(self, pkt), *regs[1:6]))
        return None

    def _map_channel_call(self, pkt: _InFlight, helper_id: int) -> Optional[Tuple]:
        """One eHDLmap channel request (§4.1): the operands read with
        ``_read_plain`` — a refusal, or an fd the ``MapSet`` lacks, drops
        the packet — then ``helpers.channel_step``. A lookup or
        ``redirect_map`` records its read for the flush checks; an
        update or delete that took effect returns its side-effect
        descriptor."""
        regs = pkt.regs
        fd = regs[isa.R1] - MAP_PTR_BASE
        if fd not in self.maps:
            self._drop(pkt)
            return None
        bpf_map = self.maps[fd]
        value = None
        if helper_id == BPF_REDIRECT_MAP:
            key = (regs[isa.R2] & MASK32).to_bytes(4, "little")
            arg = regs[isa.R3]
        else:
            key = self._read_plain(pkt, regs[isa.R2], bpf_map.key_size)
            if key is None:
                return None
            if helper_id == BPF_MAP_UPDATE_ELEM:
                value = self._read_plain(pkt, regs[isa.R3], bpf_map.value_size)
                if value is None:
                    return None
            arg = regs[isa.R4]
        r0, slot, ifindex = channel_step(
            helper_id, fd, bpf_map, key, value, arg)
        regs[isa.R0] = r0
        if not helper_spec(helper_id).map_write:
            pkt.addr_reads.setdefault(fd, []).append((key, slot))
            if ifindex is not None:
                pkt.ctx.redirect_ifindex = ifindex
            return None
        if r0:
            return None
        return ("update" if helper_id == BPF_MAP_UPDATE_ELEM else "delete",
                fd, key, slot)

    def _read_plain(self, pkt: _InFlight, addr: int, size: int) -> Optional[bytes]:
        """Read bytes from stack/packet for helper arguments."""
        buf, off, _fd = AddressSpace.locate(
            addr, size, pkt.stack, pkt.ctx, self.maps)
        # Its own stack or frame only (a refusal is neither): map bytes
        # would need store forwarding and a recorded read.
        if buf is not pkt.stack and buf is not pkt.ctx.packet:
            self._drop(pkt)
            return None
        return bytes(buf[off : off + size])


class _HelperContext:
    """Duck-typed Vm facade for non-map helper implementations."""

    def __init__(self, sim: PipelineSimulator, pkt: _InFlight) -> None:
        self._sim = sim
        self._pkt = pkt
        self.maps = sim.maps
        self.ctx = pkt.ctx
        self.time_ns = sim.time_ns
        self.trace_events = sim.trace_events

    def next_prandom(self) -> int:
        return self._sim.next_prandom()

    def read_bytes(self, addr: int, size: int) -> bytes:
        """The ``size`` bytes at ``addr``. A helper argument that leaves
        its buffer, or names none, is a :class:`SimError` (the VM and the
        RTL raise theirs)."""
        pkt = self._pkt
        buf, off, why = AddressSpace.locate(
            addr, size, pkt.stack, pkt.ctx, self._sim.maps)
        if buf is None:  # refused: ``off`` names the region
            raise SimError(f"helper read {why}: {addr:#x}+{size}")
        return bytes(buf[off : off + size])
