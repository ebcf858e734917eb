"""Multi-program NIC deployments.

§2.4 notes that "in real deployments, it is also possible that multiple
XDP programs are loaded at the same time (e.g., to handle different types
of protocols/traffic)" — which is why per-stage state minimisation
matters: the pipelines share one FPGA.

:class:`MultiProgramNic` models that deployment: several eHDL pipelines
behind one Corundum shell, with a classifier (a small hardware dispatch
stage, e.g. by ethertype or port) steering each arriving frame to one
pipeline. Pipelines are independent hardware (own maps, own stages), so
aggregate resources are the sum of the pipelines plus a single shell, and
each pipeline sustains its own line rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..core.pipeline import Pipeline
from ..core.resources import (
    CORUNDUM_SHELL,
    DeviceSpec,
    ALVEO_U50,
    ResourceEstimate,
    estimate_resources,
)
from ..ebpf.maps import MapSet
from .sim import PipelineSimulator, SimError, SimOptions
from .stats import SimReport

# a small steering stage in front of the pipelines
_DISPATCH_LUTS = 650
_DISPATCH_FFS = 900

Classifier = Callable[[bytes], int]


def ethertype_classifier(mapping: Dict[int, int], default: int = 0) -> Classifier:
    """Steer by the Ethernet type field (wire big-endian)."""

    def classify(frame: bytes) -> int:
        if len(frame) < 14:
            return default
        ethertype = int.from_bytes(frame[12:14], "big")
        return mapping.get(ethertype, default)

    return classify


@dataclass
class SlotResult:
    """Per-pipeline outcome of a multi-program run."""

    name: str
    packets: int
    report: Optional[SimReport]
    # Batch-serving extensions (see process_batch): a quarantine-eligible
    # failure instead of a report, or a deliberately skipped slot.
    error: Optional[SimError] = None
    skipped: bool = False


class MultiProgramNic:
    """Several compiled pipelines behind one NIC shell."""

    def __init__(
        self,
        pipelines: Sequence[Pipeline],
        classifier: Classifier,
        maps: Optional[Sequence[MapSet]] = None,
        engine: Optional[str] = None,
    ) -> None:
        if not pipelines:
            raise ValueError("need at least one pipeline")
        self.pipelines = list(pipelines)
        self.classifier = classifier
        if maps is None:
            maps = [MapSet(p.program.maps) for p in self.pipelines]
        if len(maps) != len(self.pipelines):
            raise ValueError("one MapSet per pipeline required")
        self.maps = list(maps)
        # Execution backend for the persistent serving simulators (see
        # process_batch); None means the SimOptions default.
        self.engine = engine or SimOptions.engine
        self._sims: List[Optional[PipelineSimulator]] = [None] * len(self.pipelines)

    # -- slot management (the serving control plane, §2.4 + §6) -------------------

    @property
    def names(self) -> List[str]:
        return [p.name for p in self.pipelines]

    def index_of(self, name: str) -> int:
        """Slot index of the pipeline called ``name`` (must be unique)."""
        matches = [i for i, p in enumerate(self.pipelines) if p.name == name]
        if not matches:
            raise KeyError(
                f"no pipeline named {name!r} (loaded: {self.names})"
            )
        if len(matches) > 1:
            raise ValueError(
                f"pipeline name {name!r} is ambiguous "
                f"(slots {matches}); use the *_at index methods"
            )
        return matches[0]

    def add(self, pipeline: Pipeline, mapset: Optional[MapSet] = None) -> int:
        """Append a pipeline as a new slot; returns its index.

        The classifier is NOT touched — until the caller updates it, no
        frame is steered at the new slot (load-then-steer, the order a
        hot-load must use so the new program never sees traffic before
        it is ready).
        """
        self.pipelines.append(pipeline)
        self.maps.append(
            mapset if mapset is not None else MapSet(pipeline.program.maps)
        )
        self._sims.append(None)
        return len(self.pipelines) - 1

    def replace_at(
        self,
        index: int,
        pipeline: Pipeline,
        mapset: Optional[MapSet] = None,
    ) -> int:
        """Atomically swap the pipeline in slot ``index``.

        Deterministic classifier semantics: the slot keeps its index and
        the classifier table is untouched, so every steering decision
        that reached the old pipeline reaches the new one — nothing
        else moves. Map state is NOT carried over unless the caller
        passes a ``mapset`` (e.g. the old ``self.maps[index]`` for the
        pinned-maps deployment). The slot's persistent simulator is
        retired; the next batch builds a fresh one against the new
        pipeline.
        """
        if not 0 <= index < len(self.pipelines):
            raise IndexError(f"no slot {index}")
        self.pipelines[index] = pipeline
        self.maps[index] = (
            mapset if mapset is not None else MapSet(pipeline.program.maps)
        )
        self._sims[index] = None
        return index

    def replace(
        self,
        name: str,
        pipeline: Pipeline,
        mapset: Optional[MapSet] = None,
    ) -> int:
        """:meth:`replace_at` addressed by the outgoing pipeline's name."""
        return self.replace_at(self.index_of(name), pipeline, mapset)

    def remove_at(self, index: int) -> int:
        """Retire slot ``index``; returns the removed index.

        Deterministic classifier semantics: the existing classifier is
        wrapped with exactly one remap — frames it steers at the removed
        slot fall back to slot 0 (the default pipeline), indices above
        the removed slot shift down by one, everything else is
        unchanged. Removing slot 0 itself is refused (it is the default
        route); so is removing the last slot.
        """
        if not 0 <= index < len(self.pipelines):
            raise IndexError(f"no slot {index}")
        if index == 0:
            raise ValueError("cannot remove slot 0 (the default pipeline)")
        if len(self.pipelines) == 1:
            raise ValueError("cannot remove the last pipeline")
        del self.pipelines[index]
        del self.maps[index]
        del self._sims[index]
        inner = self.classifier
        removed = index

        def remap(frame: bytes) -> int:
            i = inner(frame)
            if i == removed:
                return 0
            return i - 1 if i > removed else i

        self.classifier = remap
        return index

    def remove(self, name: str) -> int:
        """:meth:`remove_at` addressed by pipeline name."""
        return self.remove_at(self.index_of(name))

    # -- execution ---------------------------------------------------------------

    def _sim_for(self, index: int) -> PipelineSimulator:
        """The slot's persistent serving simulator (built on first use)."""
        sim = self._sims[index]
        if sim is None:
            sim = PipelineSimulator(
                self.pipelines[index], maps=self.maps[index],
                options=SimOptions(keep_records=False, engine=self.engine),
            )
            self._sims[index] = sim
        return sim

    def process_batch(
        self,
        frames: Iterable[bytes],
        isolate: bool = False,
        skip: Sequence[int] = (),
    ) -> List[SlotResult]:
        """Steer one batch to its pipelines and run each at line rate.

        The pipelines are physically parallel, so each receives its own
        back-to-back stream (the shell's dispatch stage adds no stalls).
        The per-slot simulators persist across batches: map state, the
        wall clock and the loaded generated module carry over, so a
        long-lived serving loop pays one classify pass plus one run per
        non-empty slot per batch. Every slot drains fully before this returns —
        the batch boundary is a full synchronization point with no
        frame in flight, which is what makes control-plane changes
        applied *between* batches deterministic and replayable.

        ``isolate=True`` turns a slot's :class:`SimError` into a
        ``SlotResult.error`` (its simulator is retired — the failed
        run's in-flight state is unrecoverable) instead of aborting the
        whole batch; slot indices in ``skip`` have their frames counted
        but not executed (``SlotResult.skipped``), the quarantine
        behaviour of the serving daemon. Either way the error names the
        pipeline, the slot and — from ``run_packets`` — the offending
        frame, counted among the frames this batch steered at that slot.
        """
        n = len(self.pipelines)
        skip_set = set(skip)
        buckets: List[List[bytes]] = [[] for _ in range(n)]
        for frame in frames:
            index = self.classifier(frame)
            if not 0 <= index < n:
                raise ValueError(f"classifier returned bad pipeline index {index}")
            buckets[index].append(frame)
        results: List[SlotResult] = []
        for index, bucket in enumerate(buckets):
            name = self.pipelines[index].name
            if index in skip_set:
                results.append(SlotResult(name, len(bucket), None, skipped=True))
                continue
            if not bucket:
                results.append(SlotResult(name, 0, None))
                continue
            sim = self._sim_for(index)
            try:
                report = sim.run_packets(bucket)
            except SimError as exc:
                err = SimError(f"pipeline {name!r} (slot {index}): {exc}")
                if not isolate:
                    raise err from exc
                self._sims[index] = None
                results.append(SlotResult(name, len(bucket), None, error=err))
                continue
            results.append(SlotResult(name, len(bucket), report))
        return results

    # -- resources -----------------------------------------------------------------

    def resources(self, device: DeviceSpec = ALVEO_U50) -> ResourceEstimate:
        """Sum of all pipelines + one shared shell + the dispatch stage."""
        total = ResourceEstimate(_DISPATCH_LUTS, _DISPATCH_FFS, 0, device)
        for pipeline in self.pipelines:
            total = total + estimate_resources(
                pipeline, include_shell=False, device=device
            )
        return total + CORUNDUM_SHELL

    def fits(self, device: DeviceSpec = ALVEO_U50) -> bool:
        est = self.resources(device)
        return est.max_pct <= 100.0
