"""Unified telemetry: NIC-style counters, pass tracing, and exporters.

One process-wide :class:`Registry` (off by default, ~free when off)
collects counters/gauges/histograms and compiler-pass spans from every
engine in the reproduction; :mod:`repro.telemetry.export` renders it as
Prometheus text, Chrome ``trace_event`` JSON, or a flat JSON snapshot.

Typical use::

    from repro import telemetry

    telemetry.enable()
    offload.process(frames)
    print(telemetry.prometheus_text(telemetry.get_registry()))

Tests (and any caller needing isolation) swap in a private registry::

    with telemetry.scoped() as reg:
        ...  # instrumented code reports into ``reg``
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .metrics import (
    BUCKET_BOUNDS,
    N_BUCKETS,
    N_FINITE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Registry,
    Span,
    bucket_index,
)
from .export import (
    chrome_trace,
    json_snapshot,
    parse_prometheus_samples,
    prometheus_text,
    validate_prometheus_text,
    write_metrics,
    write_trace,
)

__all__ = [
    "BUCKET_BOUNDS",
    "N_BUCKETS",
    "N_FINITE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "Span",
    "bucket_index",
    "chrome_trace",
    "json_snapshot",
    "parse_prometheus_samples",
    "prometheus_text",
    "validate_prometheus_text",
    "write_metrics",
    "write_trace",
    "get_registry",
    "enable",
    "disable",
    "enabled",
    "scoped",
]

_REGISTRY = Registry(enabled=False)


def get_registry() -> Registry:
    """The process-wide registry every instrumentation site reports to."""
    return _REGISTRY


def enable() -> Registry:
    """Turn collection on process-wide; returns the registry."""
    _REGISTRY.enabled = True
    return _REGISTRY


def disable() -> Registry:
    _REGISTRY.enabled = False
    return _REGISTRY


def enabled() -> bool:
    return _REGISTRY.enabled


@contextmanager
def scoped(registry: Optional[Registry] = None,
           enabled: bool = True) -> Iterator[Registry]:
    """Temporarily replace the process-wide registry.

    Restores the previous registry (and its enabled flag) on exit, so
    tests can collect into a private enabled registry without leaking
    metrics into — or inheriting state from — the global one.
    """
    global _REGISTRY
    prev = _REGISTRY
    reg = registry if registry is not None else Registry(enabled=enabled)
    _REGISTRY = reg
    try:
        yield reg
    finally:
        _REGISTRY = prev
