"""Zero-dependency metrics and tracing core.

The observability substrate every engine in the reproduction reports
into: NIC-style counters for the data plane (ethtool's per-queue view),
pass spans for the compiler (the HLS-toolchain timing telemetry that
makes a scheduling regression findable), and log2 histograms for
latency-shaped distributions — all behind one process-wide
:class:`Registry`.

Design constraints, in order:

1. **Off by default, ~free when off.** Every instrumentation site guards
   on a single bool (``registry.enabled`` or a value hoisted from it);
   the hot loops of :mod:`repro.hwsim.sim` and :mod:`repro.ebpf.vm` pay
   one predictable branch per cycle/instruction when disabled.
2. **Exactly mergeable.** Counts aggregated elsewhere — the
   simulator's per-run ``SimMetrics``, summed across the serving
   loop's batches by :meth:`repro.hwsim.stats.SimReport.merge_serial`
   — fold in with :meth:`Counter.inc` and :meth:`Histogram.merge_counts`
   and equal one registry that saw every observation (counter sum,
   bucket-wise histogram sum).
3. **Zero dependencies.** Exposition formats (Prometheus text, Chrome
   ``trace_event`` JSON) live in :mod:`repro.telemetry.export` and use
   only the standard library.

Histograms use *fixed* log2 buckets (upper bounds ``1, 2, 4, …, 2^30``
plus ``+Inf``) so any two histograms of the same metric are bucket-wise
summable without bound negotiation.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

# Fixed log2 bucket layout shared by every histogram: 31 finite upper
# bounds (2^0 .. 2^30) and one +Inf overflow bucket.
N_FINITE_BUCKETS = 31
N_BUCKETS = N_FINITE_BUCKETS + 1
BUCKET_BOUNDS: Tuple[int, ...] = tuple(1 << i for i in range(N_FINITE_BUCKETS))


def bucket_index(value: float) -> int:
    """The fixed log2 bucket a value falls in (last bucket = +Inf)."""
    iv = int(value)
    if iv <= 1:
        return 0
    idx = (iv - 1).bit_length()
    return idx if idx < N_FINITE_BUCKETS else N_FINITE_BUCKETS


LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count (packets, cycles, pass runs)."""

    kind = "counter"
    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str = "", labels: LabelItems = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Gauge:
    """Point-in-time value (stage count, queue depth, bytes of state)."""

    kind = "gauge"
    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str = "", labels: LabelItems = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Histogram:
    """Distribution with the fixed log2 bucket layout.

    ``buckets[i]`` counts observations with ``value <= BUCKET_BOUNDS[i]``
    (non-cumulative storage; exporters cumulate); the last bucket is the
    +Inf overflow.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "labels", "buckets", "sum", "count")

    def __init__(self, name: str, help: str = "", labels: LabelItems = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.buckets = [0] * N_BUCKETS
        self.sum = 0
        self.count = 0

    def observe(self, value: float) -> None:
        self.buckets[bucket_index(value)] += 1
        self.sum += value
        self.count += 1

    def merge_counts(self, buckets: List[int], total: float, count: int) -> None:
        """Fold pre-aggregated bucket counts in (exact bucket-wise sum)."""
        if len(buckets) != N_BUCKETS:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge {len(buckets)} "
                f"buckets into the fixed {N_BUCKETS}-bucket layout"
            )
        for i, n in enumerate(buckets):
            self.buckets[i] += n
        self.sum += total
        self.count += count


class Span:
    """One traced duration with monotonic timestamps (perf_counter_ns)."""

    __slots__ = ("name", "cat", "ts_ns", "dur_ns", "pid", "tid", "args")

    def __init__(self, name: str, cat: str = "", ts_ns: int = 0,
                 dur_ns: int = 0, pid: int = 0, tid: int = 0,
                 args: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.cat = cat
        self.ts_ns = ts_ns
        self.dur_ns = dur_ns
        self.pid = pid
        self.tid = tid
        self.args = args or {}


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()
    name = ""
    dur_ns = 0
    args: Dict[str, object] = {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    """Context manager that records a Span into the registry on exit."""

    __slots__ = ("_registry", "_span", "_start")

    def __init__(self, registry: "Registry", name: str, cat: str,
                 args: Dict[str, object]) -> None:
        self._registry = registry
        self._span = Span(
            name, cat=cat, pid=os.getpid(), tid=threading.get_ident(),
            args=args,
        )
        self._start = 0

    @property
    def name(self) -> str:
        return self._span.name

    @property
    def dur_ns(self) -> int:
        return self._span.dur_ns

    @property
    def args(self) -> Dict[str, object]:
        return self._span.args

    def __enter__(self) -> "_LiveSpan":
        self._start = time.perf_counter_ns()
        self._span.ts_ns = self._start
        return self

    def __exit__(self, *exc) -> bool:
        self._span.dur_ns = time.perf_counter_ns() - self._start
        self._registry.spans.append(self._span)
        return False


class Registry:
    """Process-wide home of every metric and span.

    Metrics are identified by ``(name, sorted label items)``; the first
    registration fixes the type, and re-registering with a different
    type raises. ``enabled`` is the single switch the instrumented code
    checks — a disabled registry still hands out metrics (tests use
    private enabled registries via :func:`repro.telemetry.scoped`).
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}
        self._kinds: Dict[str, str] = {}
        self._lock = threading.Lock()

    # -- metric factories ---------------------------------------------------

    def _get(self, cls, name: str, help: str,
             labels: Optional[Dict[str, str]]):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is not None:
            if metric.kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, cannot re-register as {cls.kind}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is not None:
                if metric.kind != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{metric.kind}, cannot re-register as {cls.kind}"
                    )
                return metric
            kind = self._kinds.get(name)
            if kind is not None and kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {kind}, "
                    f"cannot re-register as {cls.kind}"
                )
            self._kinds[name] = cls.kind
            metric = cls(name, help, key[1])
            self._metrics[key] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Optional[Dict[str, str]] = None) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Optional[Dict[str, str]] = None) -> Histogram:
        return self._get(Histogram, name, help, labels)

    # -- tracing ------------------------------------------------------------

    def span(self, name: str, cat: str = "", **args):
        """Trace a duration: ``with registry.span("compile.cfg"): ...``.

        Returns a shared no-op context manager when disabled, so the
        instrumentation site needs no guard of its own.
        """
        if not self.enabled:
            return _NOOP_SPAN
        return _LiveSpan(self, name, cat, args)

    # -- introspection ------------------------------------------------------

    def metrics(self) -> Iterator[object]:
        """All registered metrics, grouped by name (registration order
        within a name)."""
        by_name: Dict[str, List[object]] = {}
        for (name, _labels), metric in self._metrics.items():
            by_name.setdefault(name, []).append(metric)
        for name in by_name:
            yield from by_name[name]

    def snapshot(self) -> Dict[str, object]:
        """Flat JSON-able view of every metric and span."""
        out: List[Dict[str, object]] = []
        for metric in self.metrics():
            entry: Dict[str, object] = {
                "name": metric.name,
                "type": metric.kind,
                "labels": dict(metric.labels),
                "help": metric.help,
            }
            if metric.kind == "histogram":
                entry["buckets"] = list(metric.buckets)
                entry["sum"] = metric.sum
                entry["count"] = metric.count
            else:
                entry["value"] = metric.value
            out.append(entry)
        spans = [
            {
                "name": s.name, "cat": s.cat, "ts_ns": s.ts_ns,
                "dur_ns": s.dur_ns, "pid": s.pid, "tid": s.tid,
                "args": dict(s.args),
            }
            for s in self.spans
        ]
        return {"metrics": out, "spans": spans}

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()
            self.spans.clear()
