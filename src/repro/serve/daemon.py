"""The serving daemon: a long-lived NIC with an online control plane.

:class:`NicDaemon` owns a :class:`~repro.hwsim.multi.MultiProgramNic`
and runs its data plane batch by batch while accepting control-plane
operations from other threads. The contract that makes the whole thing
reproducible:

**Every mutating operation applies at a drained batch boundary.**
Program swaps, loads, unloads and host map writes are queued, and take
effect only between batches, when no frame is in flight in any pipeline
(:meth:`MultiProgramNic.process_batch` drains fully). Each application
is journaled with the batch count at which it landed, so an offline
re-run of the same deterministic feed that re-applies the journal at the
same boundaries (:func:`repro.serve.replay.segmented_replay`) reproduces
the online run bit for bit — per-program action counts and final map
state included.

Contrast with :meth:`repro.hwsim.shell.NicSystem.reflash`, which models
the paper's §6 full-FPGA reprogramming (350 ms out of service): here a
swap costs one batch drain (microseconds of simulated NIC time) because
the other slots keep forwarding throughout — the partial-reconfiguration
deployment the paper names as future work, as a control-plane model.

**Swap state machine** (see docs/serving.md)::

    requested --compile worker--> ready --next drained boundary--> active
        |                                        |
        +---- compile error -> failed (slot keeps old program)
    active slot raising SimError mid-batch ----> quarantined (skipped,
                                                 counted, never fatal)

Failure isolation: a pipeline whose simulator raises
:class:`~repro.hwsim.sim.SimError` is quarantined — its simulator is
retired, subsequent frames steered at it are counted as quarantined and
dropped, every other slot keeps serving. Quarantined programs are
excluded from the bit-identity guarantee (the failing batch died
mid-flight; its partial effects are unrecoverable by construction).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from ..core.cache import compile_cached, warm_cache
from ..core.pipeline import Pipeline
from ..ebpf.isa import Program
from ..ebpf.maps import MapError, MapSet
from ..hwsim.multi import MultiProgramNic, ethertype_classifier
from ..telemetry import get_registry
from .feeder import FeedSpec, Feeder
from .protocol import OPS, PROTOCOL_VERSION


class ServeError(Exception):
    """A control-plane operation failed (reported, never fatal)."""


@dataclass
class ProgramSpec:
    """One program to serve: a slot name, the program, optional steering."""

    name: str
    program: Program
    ethertype: Optional[int] = None  # frames of this ethertype -> this slot
    source: Optional[str] = None     # how it was named on the CLI, if at all


@dataclass
class ServeConfig:
    """Everything a daemon needs to start serving."""

    programs: List[ProgramSpec]
    feed: FeedSpec
    engine: Optional[str] = "codegen"
    batch_size: int = 256
    compile_options: Any = None
    exit_when_drained: bool = True


@dataclass
class Incarnation:
    """Stats of one program occupying a slot between two swaps."""

    program: str       # program name
    program_ref: str   # key into NicDaemon.program_table (for replay)
    from_batch: int
    packets: int = 0
    cycles: int = 0
    actions: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "program": self.program,
            "program_ref": self.program_ref,
            "from_batch": self.from_batch,
            "packets": self.packets,
            "cycles": self.cycles,
            "actions": dict(sorted(self.actions.items())),
        }


@dataclass
class SlotState:
    """Daemon-side view of one NIC slot (name is stable across swaps)."""

    name: str
    index: int
    current: Incarnation
    history: List[Incarnation] = field(default_factory=list)
    state: str = "active"  # "active" | "quarantined"
    swaps: int = 0
    quarantined_frames: int = 0

    def incarnations(self) -> List[Dict[str, Any]]:
        return [i.as_dict() for i in self.history] + [self.current.as_dict()]


class _Pending:
    """A queued boundary operation."""

    __slots__ = (
        "params", "ready", "done", "result", "error", "at_batch",
        "requested_at", "frames_at_request", "pipeline", "program",
        "program_ref", "compile_error",
    )

    def __init__(self, params: Dict[str, Any], at_batch: Optional[int],
                 frames_at_request: int) -> None:
        self.params = params
        self.ready = threading.Event()
        self.done = threading.Event()
        self.result: Any = None
        self.error: Optional[str] = None
        self.at_batch = at_batch
        self.requested_at = time.perf_counter()
        self.frames_at_request = frames_at_request
        self.pipeline: Optional[Pipeline] = None
        self.program: Optional[Program] = None
        self.program_ref: Optional[str] = None
        self.compile_error: Optional[str] = None


def carry_maps(old: MapSet, program: Program) -> MapSet:
    """A fresh :class:`MapSet` for ``program`` seeded from ``old``.

    Entries are copied map-by-map wherever the new program declares a
    map with the same name, kind (map type), key/value sizes and bank
    count (the pinned-maps hot-swap: flow tables survive a program
    upgrade). Kind and shape mismatches and capacity overflows silently
    keep the fresh (empty) map — the swap must not fail halfway, and
    carrying, say, a hash map's entries into a same-named LRU map, or
    one bank's recency order into another bank count's, would fabricate
    a recency order that never existed. For LRU maps the copy replays
    entries bank by bank, oldest-first within each
    (``LruHashMap.items``), so the carried map reproduces the exact
    eviction order of every bank of the old one.
    """
    fresh = MapSet(program.maps)
    old_by_name = {m.name: m for m in old.maps.values()}
    for new_map in fresh.maps.values():
        src = old_by_name.get(new_map.name)
        if (src is None
                or src.spec.map_type != new_map.spec.map_type
                or src.key_size != new_map.key_size
                or src.value_size != new_map.value_size
                or src.banks != new_map.banks):
            continue
        try:
            for key, value in src.items():
                new_map.update(bytes(key), bytes(value))
        except MapError:
            new_map.clear()
    return fresh


def _as_key_bytes(value: Union[int, str], size: int) -> bytes:
    """Wire key/value (int or hex string) to exact-width bytes."""
    if isinstance(value, int):
        return value.to_bytes(size, "little")
    data = bytes.fromhex(value)
    if len(data) != size:
        raise ServeError(
            f"expected {size} bytes, got {len(data)} ({value!r})"
        )
    return data


class NicDaemon:
    """The long-lived serving core (transport-agnostic; see server.py).

    Thread model: one thread runs :meth:`run` (the data plane); any
    number of control threads call :meth:`handle`/:meth:`submit`. Read
    ops execute immediately (advisory snapshots); boundary ops queue and
    apply FIFO at the next drained batch boundary, blocking until their
    background compile (swaps/loads) finishes so the application order —
    and therefore the journal — is deterministic.
    """

    def __init__(
        self,
        config: ServeConfig,
        resolve_program: Optional[Callable[[str], Program]] = None,
        registry=None,
    ) -> None:
        if not config.programs:
            raise ServeError("serve needs at least one program")
        names = [spec.name for spec in config.programs]
        if len(set(names)) != len(names):
            raise ServeError(f"duplicate program names: {names}")
        self.config = config
        self._resolve_program = resolve_program
        self.registry = registry if registry is not None else get_registry()
        self._lock = threading.RLock()
        self._wake = threading.Event()
        self._pending: List[_Pending] = []
        self._journal: List[Dict[str, Any]] = []
        self.program_table: Dict[str, Program] = {}
        self._next_ref = 0
        self._swap_latencies_us: List[float] = []
        self.epoch = 0
        self.batches = 0
        self.frames = 0
        self._running = False
        self._drained = False
        self._shutdown = False

        pipelines = warm_cache(
            [spec.program for spec in config.programs],
            options=config.compile_options,
        )
        self.nic = MultiProgramNic(
            pipelines,
            classifier=lambda frame: 0,  # replaced by _rebuild_classifier
            engine=config.engine,
        )
        self._slots: List[SlotState] = []
        self._retired: List[SlotState] = []
        self._steer: Dict[int, int] = {}
        for index, spec in enumerate(config.programs):
            ref = self._register_program(spec.program)
            self._slots.append(SlotState(
                name=spec.name, index=index,
                current=Incarnation(spec.program.name, ref, from_batch=0),
            ))
            if spec.ethertype is not None:
                self._steer[spec.ethertype] = index
        self._rebuild_classifier()

    # -- small helpers -----------------------------------------------------------

    def _register_program(self, program: Program) -> str:
        ref = f"p{self._next_ref}"
        self._next_ref += 1
        self.program_table[ref] = program
        return ref

    def _rebuild_classifier(self) -> None:
        self.nic.classifier = ethertype_classifier(dict(self._steer), 0)

    def _slot(self, name: str) -> SlotState:
        for slot in self._slots:
            if slot.name == name:
                return slot
        raise ServeError(
            f"no program {name!r} "
            f"(serving: {[s.name for s in self._slots]})"
        )

    def _counter(self, name: str, help: str, **labels):
        return self.registry.counter(name, help, labels or None)

    def _resolve(self, program: Union[str, Program]) -> Program:
        if isinstance(program, Program):
            return program
        if self._resolve_program is None:
            from ..cli import load_program

            resolver = load_program
        else:
            resolver = self._resolve_program
        try:
            return resolver(program)
        except SystemExit as exc:  # load_program's unknown-app path
            raise ServeError(str(exc)) from exc
        except Exception as exc:
            raise ServeError(f"cannot load {program!r}: {exc}") from exc

    # -- control-plane entry points ----------------------------------------------

    def handle(self, request: Dict[str, Any]) -> Any:
        """Execute one control-plane request dict; returns its result.

        Raises :class:`ServeError` on failure. ``request`` is the wire
        message minus the envelope (``op`` plus op parameters).
        """
        op = request.get("op")
        if op not in OPS:
            raise ServeError(f"unknown op {op!r}")
        self._counter("ehdl_serve_ops_total",
                      "control-plane operations received", op=op).inc()
        if OPS[op] == "read":
            with self._lock:
                return self._execute_read(op, request)
        return self.submit(request, wait=True)

    def submit(self, params: Dict[str, Any], wait: bool = True,
               at_batch: Optional[int] = None) -> Any:
        """Queue a boundary op; optionally block until it applies."""
        op = params.get("op")
        internal = isinstance(op, str) and op.startswith("_")
        if not internal and (op not in OPS or OPS[op] != "boundary"):
            raise ServeError(f"{op!r} is not a boundary op")
        with self._lock:
            if self._shutdown:
                raise ServeError("daemon is shutting down")
            pending = _Pending(dict(params), at_batch, self.frames)
            self._pending.append(pending)
        if op in ("swap", "load"):
            self._start_compile(pending)
        else:
            pending.ready.set()
        self._wake.set()
        if not wait:
            return pending
        pending.done.wait()
        if pending.error is not None:
            raise ServeError(pending.error)
        return pending.result

    def schedule(self, batch_index: int, params: Dict[str, Any]) -> _Pending:
        """Pre-schedule an op to apply once ``batch_index`` batches have
        completed (the deterministic soak-harness entry point).

        Compilation (for swap/load) starts immediately in the
        background; the serve loop blocks at the target boundary until
        it is ready, so the op lands at *exactly* that boundary no
        matter how slow the compile is.
        """
        return self.submit(params, wait=False, at_batch=batch_index)

    def _start_compile(self, pending: _Pending) -> None:
        def work() -> None:
            try:
                program = self._resolve(pending.params["program"])
                pending.pipeline = compile_cached(
                    program, self.config.compile_options
                )
                pending.program = program
            except ServeError as exc:
                pending.compile_error = str(exc)
            except KeyError:
                pending.compile_error = "missing 'program' parameter"
            except Exception as exc:
                pending.compile_error = f"compile failed: {exc}"
            finally:
                pending.ready.set()

        thread = threading.Thread(
            target=work, name="ehdl-serve-compile", daemon=True
        )
        thread.start()

    # -- read ops ----------------------------------------------------------------

    def _execute_read(self, op: str, request: Dict[str, Any]) -> Any:
        if op == "ping":
            return {"pong": True, "protocol": PROTOCOL_VERSION,
                    "epoch": self.epoch, "batches": self.batches}
        if op == "status":
            return {
                "protocol": PROTOCOL_VERSION,
                "engine": self.config.engine,
                "batch_size": self.config.batch_size,
                "feed": self.config.feed.describe(),
                "epoch": self.epoch,
                "batches": self.batches,
                "frames": self.frames,
                "running": self._running,
                "drained": self._drained,
                "pending_ops": len(self._pending),
                "programs": [
                    {"name": s.name, "index": s.index,
                     "program": s.current.program, "state": s.state,
                     "packets": s.current.packets, "swaps": s.swaps}
                    for s in self._slots
                ],
                "steering": {
                    f"0x{ethertype:04x}": self._slots[index].name
                    for ethertype, index in sorted(self._steer.items())
                },
            }
        if op == "stats":
            return {
                "batches": self.batches,
                "frames": self.frames,
                "epoch": self.epoch,
                "programs": [
                    {"name": s.name, "index": s.index, "state": s.state,
                     "swaps": s.swaps,
                     "quarantined_frames": s.quarantined_frames,
                     "incarnations": s.incarnations()}
                    for s in self._slots
                ],
            }
        if op == "metrics":
            return self.registry.snapshot()
        if op == "journal":
            return {"entries": list(self._journal)}
        if op == "map_lookup":
            host = self._host_map(request)
            key = _as_key_bytes(request["key"], host.key_size)
            value = host.lookup(key)
            return {
                "key": key.hex(),
                "value": value.hex() if value is not None else None,
            }
        if op == "map_items":
            host = self._host_map(request)
            offset = int(request.get("offset", 0))
            limit = int(request.get("limit", 256))
            items = sorted(
                (bytes(k).hex(), bytes(v).hex()) for k, v in host.items()
            )
            return {
                "total": len(items),
                "offset": offset,
                "items": [list(kv) for kv in items[offset:offset + limit]],
            }
        raise ServeError(f"unhandled read op {op!r}")

    def _host_map(self, request: Dict[str, Any]):
        from ..runtime import HostMap

        slot = self._slot(request["program"])
        try:
            return HostMap(self.nic.maps[slot.index].by_name(request["map"]))
        except MapError as exc:
            raise ServeError(str(exc)) from exc

    # -- the data plane ----------------------------------------------------------

    def _run_batch(self, buffer) -> None:
        with self._lock:
            skip = [s.index for s in self._slots if s.state == "quarantined"]
        results = self.nic.process_batch(buffer, isolate=True, skip=skip)
        with self._lock:
            self.batches += 1
            self.frames += len(buffer)
            self._counter("ehdl_serve_batches_total",
                          "drained data-plane batches").inc()
            self._counter("ehdl_serve_frames_total",
                          "frames offered to the serving NIC").inc(len(buffer))
            for index, result in enumerate(results):
                slot = self._slots[index]
                if result.skipped:
                    slot.quarantined_frames += result.packets
                    if result.packets:
                        self._counter(
                            "ehdl_serve_quarantined_frames_total",
                            "frames dropped at quarantined slots",
                            program=slot.name,
                        ).inc(result.packets)
                    continue
                if result.error is not None:
                    slot.state = "quarantined"
                    slot.quarantined_frames += result.packets
                    self._counter(
                        "ehdl_serve_quarantined_total",
                        "pipelines quarantined after a SimError",
                        program=slot.name,
                    ).inc()
                    self._counter(
                        "ehdl_serve_quarantined_frames_total",
                        "frames dropped at quarantined slots",
                        program=slot.name,
                    ).inc(result.packets)
                    self._journal.append({
                        "batch": self.batches,
                        "event": "quarantine",
                        "name": slot.name,
                        "error": str(result.error),
                    })
                    continue
                if result.report is not None:
                    slot.current.packets += result.report.packets_in
                    slot.current.cycles += result.report.cycles
                    for action, count in result.report.action_counts.items():
                        key = getattr(action, "name", str(action))
                        slot.current.actions[key] = (
                            slot.current.actions.get(key, 0) + count
                        )

    def run(self) -> Dict[str, Any]:
        """Serve the configured feed to completion; returns the final report.

        Blocks; run it on the daemon's main thread (server.py serves the
        control socket from its own threads). With
        ``exit_when_drained=False`` the daemon keeps applying control
        ops after the feed ends, until a ``shutdown`` op arrives.
        """
        with self._lock:
            if self._running:
                raise ServeError("daemon is already running")
            self._running = True
        try:
            feeder = Feeder(self.config.feed)
            # boundary 0: ops submitted/scheduled before any traffic
            # (e.g. seeding map state) land before the first frame
            self.apply_pending()
            for buffer in feeder.batches(self.config.batch_size):
                self._run_batch(buffer)
                self.apply_pending()
                if self._shutdown:
                    break
            self._drained = True
            while not self._shutdown and not self.config.exit_when_drained:
                self._wake.wait(timeout=0.05)
                self._wake.clear()
                self.apply_pending(include_scheduled=True)
            self.apply_pending(include_scheduled=True)
        finally:
            with self._lock:
                self._running = False
                self._shutdown = True
                leftovers = list(self._pending)
                self._pending.clear()
            for pending in leftovers:
                pending.error = "daemon exited before the op applied"
                pending.done.set()
        return self.final_report()

    # -- boundary application ----------------------------------------------------

    def apply_pending(self, include_scheduled: bool = False) -> int:
        """Apply every due queued op at the current drained boundary.

        An op is due if it is unscheduled, or scheduled for a batch
        count we have reached. ``include_scheduled`` forces scheduled
        ops due or not (the end-of-feed flush). Returns how many
        applied. Also the test-harness hook for driving a daemon
        without :meth:`run`.
        """
        applied = 0
        while True:
            with self._lock:
                chosen = None
                for pending in self._pending:
                    due = (
                        pending.at_batch is None
                        or pending.at_batch <= self.batches
                        or (include_scheduled and self._drained)
                    )
                    if due:
                        chosen = pending
                        break
                if chosen is not None:
                    self._pending.remove(chosen)
            if chosen is None:
                return applied
            chosen.ready.wait()  # block for in-flight compiles: FIFO order
            try:
                chosen.result = self._apply(chosen)
            except ServeError as exc:
                chosen.error = str(exc)
            except Exception as exc:  # never let one op kill the loop
                chosen.error = f"{type(exc).__name__}: {exc}"
            chosen.done.set()
            applied += 1

    def _apply(self, pending: _Pending) -> Any:
        params = pending.params
        op = params["op"]
        with self._lock:
            if op == "shutdown":
                self._shutdown = True
                self._journal.append({"batch": self.batches, "op": "shutdown"})
                return {"stopping": True, "batches": self.batches}
            if op == "map_update":
                host = self._host_map(params)
                key = _as_key_bytes(params["key"], host.key_size)
                value = _as_key_bytes(params["value"], host.value_size)
                try:
                    host.update(key, value)
                except MapError as exc:
                    raise ServeError(str(exc)) from exc
                self._journal.append({
                    "batch": self.batches, "op": "map_update",
                    "name": params["program"], "map": params["map"],
                    "key": key.hex(), "value": value.hex(),
                })
                return {"batch": self.batches, "key": key.hex()}
            if op == "map_delete":
                host = self._host_map(params)
                key = _as_key_bytes(params["key"], host.key_size)
                try:
                    deleted = host.delete(key)
                except MapError as exc:
                    raise ServeError(str(exc)) from exc
                self._journal.append({
                    "batch": self.batches, "op": "map_delete",
                    "name": params["program"], "map": params["map"],
                    "key": key.hex(),
                })
                return {"batch": self.batches, "deleted": deleted}
            if op == "swap":
                return self._apply_swap(pending)
            if op == "load":
                return self._apply_load(pending)
            if op == "unload":
                return self._apply_unload(params)
            if op == "_quarantine":
                # internal (replay only): reproduce an online quarantine
                # mark at the journaled boundary, no journal re-entry
                slot = self._slot(params["name"])
                slot.state = "quarantined"
                return {"batch": self.batches, "name": slot.name}
        raise ServeError(f"unhandled boundary op {op!r}")

    def _apply_swap(self, pending: _Pending) -> Any:
        if pending.compile_error is not None:
            raise ServeError(pending.compile_error)
        assert pending.pipeline is not None and pending.program is not None
        params = pending.params
        slot = self._slot(params["name"])
        if slot.state == "quarantined":
            # a swap is exactly how an operator revives a quarantined slot
            slot.state = "active"
        keep_maps = bool(params.get("keep_maps", False))
        mapset = (
            carry_maps(self.nic.maps[slot.index], pending.program)
            if keep_maps else None
        )
        self.nic.replace_at(slot.index, pending.pipeline, mapset)
        ref = self._register_program(pending.program)
        pending.program_ref = ref
        slot.history.append(slot.current)
        slot.current = Incarnation(
            pending.program.name, ref, from_batch=self.batches
        )
        slot.swaps += 1
        self.epoch += 1
        latency_us = (time.perf_counter() - pending.requested_at) * 1e6
        drained = self.frames - pending.frames_at_request
        self._swap_latencies_us.append(latency_us)
        self._counter("ehdl_serve_swaps_total",
                      "program hot-swaps applied",
                      program=slot.name).inc()
        self._counter(
            "ehdl_serve_drained_frames",
            "frames served between swap request and activation",
        ).inc(drained)
        self.registry.histogram(
            "ehdl_serve_swap_latency_us",
            "swap latency, request to activation (includes compile)",
        ).observe(latency_us)
        self._journal.append({
            "batch": self.batches, "op": "swap", "name": slot.name,
            "program_ref": ref, "program": pending.program.name,
            "keep_maps": keep_maps,
        })
        return {
            "batch": self.batches, "epoch": self.epoch,
            "program": pending.program.name,
            "latency_us": latency_us, "drained_frames": drained,
        }

    def _apply_load(self, pending: _Pending) -> Any:
        if pending.compile_error is not None:
            raise ServeError(pending.compile_error)
        assert pending.pipeline is not None and pending.program is not None
        params = pending.params
        name = params.get("name") or pending.program.name
        if any(s.name == name for s in self._slots):
            raise ServeError(f"program {name!r} is already loaded")
        index = self.nic.add(pending.pipeline)
        ref = self._register_program(pending.program)
        pending.program_ref = ref
        self._slots.append(SlotState(
            name=name, index=index,
            current=Incarnation(pending.program.name, ref,
                                from_batch=self.batches),
        ))
        ethertype = params.get("ethertype")
        if ethertype is not None:
            self._steer[int(ethertype)] = index
            self._rebuild_classifier()
        self.epoch += 1
        self._journal.append({
            "batch": self.batches, "op": "load", "name": name,
            "program_ref": ref, "program": pending.program.name,
            "ethertype": ethertype,
        })
        return {"batch": self.batches, "epoch": self.epoch,
                "index": index, "name": name}

    def _apply_unload(self, params: Dict[str, Any]) -> Any:
        slot = self._slot(params["name"])
        removed = slot.index
        self.nic.remove_at(removed)  # raises for slot 0 / last slot
        self._slots.remove(slot)
        self._retired.append(slot)
        for other in self._slots:
            if other.index > removed:
                other.index -= 1
        self._steer = {
            ethertype: (index - 1 if index > removed else index)
            for ethertype, index in self._steer.items()
            if index != removed
        }
        self._rebuild_classifier()  # overrides the nic's remap wrapper
        self.epoch += 1
        self._journal.append({
            "batch": self.batches, "op": "unload", "name": slot.name,
        })
        return {"batch": self.batches, "epoch": self.epoch,
                "name": slot.name}

    # -- reporting ---------------------------------------------------------------

    def map_snapshot(self) -> Dict[str, Dict[str, Dict[str, str]]]:
        """Hex dump of every live slot's maps (sorted, comparison-ready)."""
        with self._lock:
            out: Dict[str, Dict[str, Dict[str, str]]] = {}
            for slot in self._slots:
                mapset = self.nic.maps[slot.index]
                out[slot.name] = {
                    m.name: {
                        bytes(k).hex(): bytes(v).hex()
                        for k, v in sorted(m.items())
                    }
                    for m in mapset.maps.values()
                }
            return out

    def final_report(self) -> Dict[str, Any]:
        """The end-of-run report the replay verifier consumes."""
        with self._lock:
            return {
                "protocol": PROTOCOL_VERSION,
                "engine": self.config.engine,
                "batch_size": self.config.batch_size,
                "feed": self.config.feed.describe(),
                "epoch": self.epoch,
                "batches": self.batches,
                "frames": self.frames,
                "programs": {
                    s.name: {
                        "state": s.state,
                        "swaps": s.swaps,
                        "quarantined_frames": s.quarantined_frames,
                        "incarnations": s.incarnations(),
                    }
                    for s in self._slots
                },
                "retired": {
                    s.name: {"incarnations": s.incarnations()}
                    for s in self._retired
                },
                "quarantined": [
                    s.name for s in self._slots if s.state == "quarantined"
                ],
                "journal": list(self._journal),
                "maps": self.map_snapshot(),
                "swap_latencies_us": list(self._swap_latencies_us),
            }
