"""The :class:`WorkloadSpec` API shared by run/bench/serve.

A workload is a named, seeded, restartable traffic generator: the same
spec always yields the same frame sequence, which is what lets the
serving daemon's offline replay, the bench harness and the differential
tests all agree on the traffic under test. Specs parse from the CLI
syntax::

    <kind>:key=value,key=value,...
    tcp-handshake:packets=20000,flows=1000000,seed=3
    tunnel-encap:packets=5000,flows=200000,vnis=8

Generator-specific knobs (``churn``, ``vnis``, ``data_packets``...) ride
in :attr:`WorkloadSpec.params` and are range-checked by the generator
that reads them when it is built. Every out-of-range value — here or
there — is a ``ValueError`` naming the option and its accepted range,
raised before any frame exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

_INT_FIELDS = {"packets", "flows", "size", "seed"}
_ALIASES = {"dist": "distribution", "size": "packet_size",
            "exponent": "zipf_exponent"}

#: Largest ``size``: ``tunnel-encap`` carries the frame behind 36 bytes
#: of outer IPv4/UDP/VXLAN header, all under one 16-bit IPv4 total length.
MAX_PACKET_SIZE = 0xFFFF - 36
#: Largest ``exponent``: ``i ** 10`` is finite for any 64-bit ``i``.
MAX_ZIPF_EXPONENT = 10.0


def check_range(option: str, value, lo, hi=None) -> None:
    """Raise ``ValueError`` unless ``lo <= value <= hi`` (``hi=None``:
    any finite value from ``lo`` up); phrased so that ``nan`` fails."""
    if hi is None:
        ok, accepted = lo <= value and math.isfinite(value), f">= {lo}"
    else:
        ok, accepted = lo <= value <= hi, f"{lo}..{hi}"
    if not ok:
        raise ValueError(
            f"option {option}={value} is out of range (expected {accepted})")


def check_traffic(spec) -> None:
    """Range-check the traffic fields :class:`WorkloadSpec` and the
    serving ``FeedSpec`` have in common."""
    if spec.distribution not in ("uniform", "zipf"):
        raise ValueError(f"unknown distribution {spec.distribution!r} "
                         f"(expected uniform or zipf)")
    check_range("packets", spec.packets, 1)
    check_range("flows", spec.flows, 1)
    check_range("size", spec.packet_size, 1, MAX_PACKET_SIZE)
    check_range("exponent", spec.zipf_exponent, 0.0, MAX_ZIPF_EXPONENT)


@dataclass(frozen=True)
class WorkloadSpec:
    """Parsed description of one workload (see module docstring)."""

    kind: str = "udp-zipf"
    packets: int = 10_000
    flows: int = 1_000
    distribution: str = "zipf"     # "uniform" | "zipf"
    zipf_exponent: float = 1.0
    packet_size: int = 64
    seed: int = 1
    # Generator-specific options, kept sorted so equal specs hash equal.
    params: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        check_traffic(self)

    def param(self, key: str, default: str = "") -> str:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def _number(self, key: str, default, parse, lo, hi):
        value = self.param(key)
        number = parse(value) if value else default
        if lo is not None:
            check_range(key, number, lo, hi)
        return number

    def param_int(self, key: str, default: int, lo: Optional[int] = None,
                  hi: Optional[int] = None) -> int:
        """An integer param, range-checked when ``lo`` is given."""
        return self._number(key, default, lambda v: int(v, 0), lo, hi)

    def param_float(self, key: str, default: float,
                    lo: Optional[float] = None,
                    hi: Optional[float] = None) -> float:
        """A float param, range-checked when ``lo`` is given."""
        return self._number(key, default, float, lo, hi)

    def describe(self) -> str:
        extras = "".join(f",{k}={v}" for k, v in self.params)
        return (
            f"{self.kind}:packets={self.packets},flows={self.flows},"
            f"dist={self.distribution},size={self.packet_size},"
            f"seed={self.seed}"
            + (f",exponent={self.zipf_exponent}"
               if self.distribution == "zipf" else "")
            + extras
        )


def parse_workload_spec(text: str) -> WorkloadSpec:
    """Parse a ``--workload`` argument (``<kind>:k=v,...``)."""
    text = text.strip()
    kind, _, rest = text.partition(":")
    if not kind:
        raise ValueError(f"workload spec {text!r} has no kind")
    spec = WorkloadSpec(kind=kind)
    params: Dict[str, str] = {}
    for item in rest.split(",") if rest else []:
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"workload option {item!r} is not key=value")
        fname = _ALIASES.get(key, key)
        if fname in WorkloadSpec.__dataclass_fields__ and fname not in (
            "kind", "params"
        ):
            if key in _INT_FIELDS or fname == "packets":
                spec = replace(spec, **{fname: int(value, 0)})
            elif fname == "zipf_exponent":
                spec = replace(spec, **{fname: float(value)})
            else:
                spec = replace(spec, **{fname: value})
        else:
            params[key] = value
    if params:
        spec = replace(spec, params=tuple(sorted(params.items())))
    return spec
