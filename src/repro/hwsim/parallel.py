"""Multi-queue parallel simulation: RSS flow sharding across workers.

The paper scales a generated pipeline past one queue's throughput by
replicating it across NIC RX queues, with RSS hashing steering flows so
per-flow state stays queue-local (the same replication trick hXDP uses
for its 100 Gbps comparisons). This module models that deployment in the
simulator: N worker *processes*, each running one pipeline replica over
its own shard of the trace and its own shard of the eBPF map state, with
the shards produced by the Toeplitz hash of :mod:`repro.net.flows`.

Because RSS keeps every packet of a flow on one queue, a program whose
cross-packet state is keyed by the flow (firewall ACL counters, per-flow
rate limiters, NAT bindings touched by one direction) computes exactly
the single-queue result on every packet; the per-worker map shards are
then reconciled into the parent :class:`~repro.ebpf.maps.MapSet` by a
merge protocol:

* ``"sum"`` (default for array / percpu_array maps) — counters: the
  merged value is baseline + the sum of per-worker deltas, exact for
  commutative increments;
* ``"union"`` (default for hash / lru_hash maps) — flow-keyed state:
  per-worker changes against the baseline are unioned; two workers
  changing the same key to *different* values is a conflict;
* ``"last"`` — config-style state where the highest-numbered writer
  wins.

Any conflict (same key, different values; delete vs. update; deletion
under ``"sum"``) is resolved deterministically last-writer-wins and
reported in :attr:`ParallelReport.conflicts` — a non-empty conflict list
is the signal that the program is **not flow-partitionable** under the
chosen sharding (e.g. symmetric traffic through an asymmetric hash, or
global non-commutative state) and that single-queue results may differ.

Latency/restart/cycle aggregates merge exactly
(:func:`repro.hwsim.stats.merge_reports`); wall-clock cycles are the max
over replicas, as in the replicated hardware.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import traceback
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.pipeline import Pipeline
from ..ebpf.maps import MapSet
from ..net.flows import RSS_KEY, rss_shard
from ..net.packet import FrameBuffer
from .sim import PipelineSimulator, SimError, SimOptions
from .stats import SimReport, merge_reports

POLICY_SUM = "sum"
POLICY_UNION = "union"
POLICY_LAST = "last"
_POLICIES = (POLICY_SUM, POLICY_UNION, POLICY_LAST)

_JOIN_TIMEOUT = 10.0
_POLL_INTERVAL = 0.25


class ParallelSimError(SimError):
    """A worker replica failed; carries enough context to find the frame.

    ``worker`` is the replica index, ``frame_index`` the position in the
    *original* (unsharded) trace of the last frame the worker had read
    (-1 if it failed before consuming any), and ``worker_traceback`` the
    remote traceback text.
    """

    def __init__(
        self,
        message: str,
        worker: int = -1,
        frame_index: int = -1,
        worker_traceback: str = "",
    ) -> None:
        super().__init__(message)
        self.worker = worker
        self.frame_index = frame_index
        self.worker_traceback = worker_traceback


@dataclass
class MergeConflict:
    """One map key that two workers changed incompatibly."""

    map_name: str
    fd: int
    key: bytes
    policy: str
    # worker index -> value it left behind (None = it deleted the key)
    values: Dict[int, Optional[bytes]]
    # what the merged map holds after last-writer resolution
    resolution: Optional[bytes]

    def __str__(self) -> str:
        versions = ", ".join(
            f"w{w}={'<deleted>' if v is None else v.hex()}"
            for w, v in sorted(self.values.items())
        )
        return (
            f"map {self.map_name!r} key {self.key.hex()} ({self.policy}): "
            f"{versions}"
        )


@dataclass
class ParallelReport:
    """Outcome of one sharded multi-worker run."""

    workers: int
    report: SimReport  # exact merge of the per-worker aggregates
    worker_reports: List[SimReport]
    shard_sizes: List[int]
    # original trace index of each shard-local frame: shard_indices[w][p]
    # is the unsharded position of worker w's packet pid p
    shard_indices: List[List[int]]
    conflicts: List[MergeConflict] = field(default_factory=list)

    @property
    def flow_partitionable(self) -> bool:
        """True when no map merge conflict was observed."""
        return not self.conflicts


# -- map shard serialisation and merge ----------------------------------------


def _dump_map_items(maps: MapSet) -> Dict[int, Dict[bytes, bytes]]:
    return {fd: dict(maps[fd].items()) for fd in maps}


def _load_map_items(maps: MapSet, items: Dict[int, Dict[bytes, bytes]]) -> None:
    for fd, entries in items.items():
        bpf_map = maps[fd]
        zero = bytes(bpf_map.value_size)
        for key, value in entries.items():
            if value == zero and bpf_map.lookup(key) == zero:
                continue  # already the default state (bulk of array slots)
            bpf_map.update(key, value)


def default_merge_policies(maps: MapSet) -> Dict[int, str]:
    """Per-fd policy defaults by map type: counters sum, flow state unions."""
    policies = {}
    for fd in maps:
        map_type = maps[fd].spec.map_type
        policies[fd] = (
            POLICY_UNION if map_type in ("hash", "lru_hash") else POLICY_SUM
        )
    return policies


def merge_map_shards(
    maps: MapSet,
    baseline: Dict[int, Dict[bytes, bytes]],
    worker_items: Sequence[Dict[int, Dict[bytes, bytes]]],
    policies: Dict[int, str],
) -> List[MergeConflict]:
    """Reconcile per-worker map shards into ``maps`` (mutated in place).

    ``baseline`` is the pre-run state every worker started from; a
    worker's *change set* is its final items diffed against it (including
    deletions). Returns the conflicts, already resolved last-writer-wins
    in the merged state.
    """
    conflicts: List[MergeConflict] = []
    for fd in maps:
        bpf_map = maps[fd]
        policy = policies[fd]
        base = baseline.get(fd, {})
        # key -> {worker: value-or-None}
        changes: Dict[bytes, Dict[int, Optional[bytes]]] = {}
        for w, items in enumerate(worker_items):
            shard = items.get(fd, {})
            for key, value in shard.items():
                if base.get(key) != value:
                    changes.setdefault(key, {})[w] = value
            for key in base:
                if key not in shard:
                    changes.setdefault(key, {})[w] = None
        value_size = bpf_map.value_size
        mask = (1 << (8 * value_size)) - 1
        for key, per_worker in sorted(changes.items()):
            versions = set(per_worker.values())
            resolution: Optional[bytes]
            conflict = False
            if len(versions) == 1 and policy != POLICY_SUM:
                # every changer agrees (the single-changer common case)
                resolution = next(iter(versions))
            elif policy == POLICY_SUM:
                if None in versions:
                    conflict = True  # a deletion cannot be summed
                    resolution = per_worker[max(per_worker)]
                else:
                    base_int = int.from_bytes(
                        base.get(key, b""), "little"
                    )
                    total = base_int
                    for value in per_worker.values():
                        total += int.from_bytes(value, "little") - base_int
                    resolution = (total & mask).to_bytes(value_size, "little")
            elif policy == POLICY_LAST:
                resolution = per_worker[max(per_worker)]
            else:  # union with disagreeing writers
                conflict = True
                resolution = per_worker[max(per_worker)]
            if conflict:
                conflicts.append(
                    MergeConflict(
                        map_name=bpf_map.name,
                        fd=fd,
                        key=key,
                        policy=policy,
                        values=dict(per_worker),
                        resolution=resolution,
                    )
                )
            if resolution is None:
                bpf_map.delete(key)
            else:
                bpf_map.update(key, resolution)
    return conflicts


# -- worker process -----------------------------------------------------------


def _worker_main(
    result_queue,
    index: int,
    pipeline: Pipeline,
    options: SimOptions,
    time_ns: int,
    map_init: Dict[int, Dict[bytes, bytes]],
    shard: FrameBuffer,
    gap: int,
    batch_size: int,
) -> None:
    """One replica: own process, own map shard, own slice of the trace."""
    progress = {"read": -1}
    try:
        maps = MapSet(pipeline.program.maps)
        _load_map_items(maps, map_init)
        sim = PipelineSimulator(
            pipeline, maps=maps, options=options, time_ns=time_ns
        )

        def counted() -> Iterable[bytes]:
            for i, frame in enumerate(shard):
                progress["read"] = i
                yield frame

        report = sim.run_stream(counted(), gap=gap, batch_size=batch_size)
        result_queue.put(("ok", index, report, _dump_map_items(maps)))
    except BaseException as exc:  # surfaced in the parent, never swallowed
        result_queue.put(
            (
                "err",
                index,
                progress["read"],
                f"{type(exc).__name__}: {exc}",
                traceback.format_exc(),
            )
        )


def _mp_context():
    """Fork where the platform has it (cheap, inherits warm state);
    spawn otherwise — everything shipped to workers pickles either way."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


# -- the engine ---------------------------------------------------------------


class ParallelPipelineSimulator:
    """N replicated pipelines over RSS-sharded traffic.

    Drop-in sibling of :class:`~repro.hwsim.sim.PipelineSimulator` for
    streamed traces: construct with a compiled pipeline (and optionally
    the host-populated ``maps``), then :meth:`run_stream`. The parent's
    ``maps`` end up holding the merged post-run state, so host-side map
    reads (``maps.by_name(...)``) work exactly as after a single-queue
    run — modulo the documented merge semantics.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        maps: Optional[MapSet] = None,
        options: Optional[SimOptions] = None,
        workers: Optional[int] = None,
        rss_key: bytes = RSS_KEY,
        symmetric: bool = False,
        merge_policies: Optional[Dict[str, str]] = None,
        time_ns: int = 0,
    ) -> None:
        self.pipeline = pipeline
        self.maps = maps if maps is not None else MapSet(pipeline.program.maps)
        self.options = options or SimOptions()
        self.workers = workers if workers is not None else self.options.workers
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.rss_key = rss_key
        self.symmetric = symmetric
        self.time_ns = time_ns
        self._policies = default_merge_policies(self.maps)
        for name, policy in (merge_policies or {}).items():
            if policy not in _POLICIES:
                raise ValueError(
                    f"unknown merge policy {policy!r} (want one of {_POLICIES})"
                )
            self._policies[self.maps.fd_of(name)] = policy

    # -- public API -----------------------------------------------------------

    def run_packets(self, frames: Sequence[bytes], gap: int = 1) -> ParallelReport:
        """Convenience: like :meth:`run_stream` over a materialised list."""
        return self.run_stream(frames, gap=gap)

    def run_stream(
        self,
        frames: Iterable[bytes],
        gap: int = 1,
        batch_size: int = 256,
    ) -> ParallelReport:
        """Shard ``frames`` RSS-style and run one replica per worker.

        Per-flow packet order is preserved (a flow's packets share a
        shard, in trace order); worker replicas run concurrently as
        separate processes and their reports and map shards are merged
        on completion.
        """
        if self.workers == 1:
            sim = PipelineSimulator(
                self.pipeline, maps=self.maps, options=self.options,
                time_ns=self.time_ns,
            )
            report = sim.run_stream(frames, gap=gap, batch_size=batch_size)
            n_frames = report.packets_in + report.packets_dropped_queue
            return ParallelReport(
                workers=1,
                report=report,
                worker_reports=[report],
                shard_sizes=[n_frames],
                shard_indices=[list(range(n_frames))],
            )

        shards = [FrameBuffer() for _ in range(self.workers)]
        indices: List[List[int]] = [[] for _ in range(self.workers)]
        for i, frame in enumerate(frames):
            shard = rss_shard(frame, self.workers, self.rss_key,
                              symmetric=self.symmetric)
            shards[shard].append(bytes(frame))
            indices[shard].append(i)

        baseline = _dump_map_items(self.maps)
        worker_reports, worker_items = self._run_workers(
            shards, indices, baseline, gap, batch_size
        )
        conflicts = merge_map_shards(
            self.maps, baseline, worker_items, self._policies
        )
        return ParallelReport(
            workers=self.workers,
            report=merge_reports(worker_reports),
            worker_reports=worker_reports,
            shard_sizes=[len(s) for s in shards],
            shard_indices=indices,
            conflicts=conflicts,
        )

    # -- process management ---------------------------------------------------

    def _run_workers(
        self,
        shards: Sequence[FrameBuffer],
        indices: Sequence[Sequence[int]],
        baseline: Dict[int, Dict[bytes, bytes]],
        gap: int,
        batch_size: int,
    ) -> Tuple[List[SimReport], List[Dict[int, Dict[bytes, bytes]]]]:
        if self.options.engine == "codegen":
            # Generate once in the parent: the source text pickles with
            # the pipeline, so workers exec() it instead of re-emitting.
            from .codegen import ensure_source

            ensure_source(self.pipeline)
        ctx = _mp_context()
        result_queue = ctx.Queue()
        procs: Dict[int, mp.process.BaseProcess] = {}
        reports: Dict[int, SimReport] = {}
        items: Dict[int, Dict[int, Dict[bytes, bytes]]] = {}
        # Empty shards produce an empty report without paying for a
        # process (common when flows < workers).
        for w, shard in enumerate(shards):
            if len(shard) == 0:
                reports[w] = SimReport(
                    clock_mhz=self.options.clock_mhz,
                    n_stages=self.pipeline.n_stages,
                    keep_records=self.options.keep_records,
                )
                items[w] = dict(baseline)
        try:
            for w, shard in enumerate(shards):
                if w in reports:
                    continue
                proc = ctx.Process(
                    target=_worker_main,
                    args=(result_queue, w, self.pipeline, self.options,
                          self.time_ns, baseline, shard, gap, batch_size),
                    daemon=True,
                )
                proc.start()
                procs[w] = proc
            while len(reports) + len(items) < 2 * len(shards):
                try:
                    msg = result_queue.get(timeout=_POLL_INTERVAL)
                except queue_mod.Empty:
                    self._check_for_crashes(procs, reports)
                    continue
                if msg[0] == "ok":
                    _tag, w, report, map_items = msg
                    reports[w] = report
                    items[w] = map_items
                else:
                    _tag, w, local_index, message, remote_tb = msg
                    frame_index = (
                        indices[w][local_index] if 0 <= local_index < len(indices[w])
                        else -1
                    )
                    raise ParallelSimError(
                        f"worker {w} failed at frame index {frame_index} "
                        f"(shard-local {local_index}, prefetch may run up to "
                        f"{batch_size} frames ahead): {message}\n"
                        f"--- worker traceback ---\n{remote_tb}",
                        worker=w,
                        frame_index=frame_index,
                        worker_traceback=remote_tb,
                    )
        except BaseException:
            # KeyboardInterrupt or a worker failure: tear the pool down
            # cleanly so no orphan replica keeps burning CPU.
            for proc in procs.values():
                if proc.is_alive():
                    proc.terminate()
            for proc in procs.values():
                proc.join(timeout=_JOIN_TIMEOUT)
            raise
        finally:
            result_queue.close()
        for proc in procs.values():
            proc.join(timeout=_JOIN_TIMEOUT)
        return (
            [reports[w] for w in range(len(shards))],
            [items[w] for w in range(len(shards))],
        )

    @staticmethod
    def _check_for_crashes(procs, reports) -> None:
        for w, proc in procs.items():
            if w not in reports and not proc.is_alive() and proc.exitcode != 0:
                raise ParallelSimError(
                    f"worker {w} died with exit code {proc.exitcode} "
                    "before reporting a result",
                    worker=w,
                )
