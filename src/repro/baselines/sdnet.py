"""Xilinx SDNet P4 baseline: a PISA-style match-action pipeline.

SDNet compiles P4 onto a generic PISA architecture: a programmable
parser, a sequence of match-action tables with a *fixed action
vocabulary*, and a deparser. That architecture is what limits it
(§2.1): tables are written only from the control plane, so "there is no
obvious way to define the dynamic port selection within the data plane"
— the DNAT cannot be expressed (§5). It is also what makes it expensive:
the generic parser and lookup engines are instantiated whether or not a
program needs them, which is why SDNet designs need 2-4x the resources of
eHDL's tailored pipelines (Figure 10).

This module provides:

* a small but functional PISA pipeline: :class:`P4Program` (parser +
  tables + counters), a compiler with the SDNet feature checks, and a
  packet-level interpreter so the ported programs actually run;
* P4 ports of the evaluation applications (:func:`p4_firewall` ...),
  including :func:`p4_dnat`, which the compiler rejects exactly as SDNet
  did in the paper;
* the resource model for Figure 10.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ebpf.xdp import XdpAction
from ..core.resources import ALVEO_U50, CORUNDUM_SHELL, ResourceEstimate

LINE_RATE_MPPS = 148.8  # 100 Gbps of 64 B frames

# -- program description -------------------------------------------------------


@dataclass(frozen=True)
class P4Field:
    """A parsed header field: byte offset and width within the packet."""

    name: str
    offset: int
    size: int


@dataclass
class P4Parser:
    """The parse graph, reduced to the fields it extracts."""

    fields: List[P4Field]

    @property
    def depth_bytes(self) -> int:
        return max((f.offset + f.size for f in self.fields), default=0)

    def field(self, name: str) -> P4Field:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(name)


class ActionKind(enum.Enum):
    """The fixed PISA action vocabulary.

    Note what is *not* here: no table insert, no allocation, no
    unbounded computation — the architectural limits of §2.1.
    """

    PASS = "pass"
    DROP = "drop"
    FORWARD = "forward"  # params: port
    SET_FIELDS = "set_fields"  # params: {field_name: bytes} from the entry
    DEC_TTL = "dec_ttl"  # decrement TTL + incremental checksum
    PUSH_OUTER_IPV4 = "push_outer_ipv4"  # IPv4-in-IPv4 encap from entry data
    COUNT = "count"  # params: counter name, index


@dataclass
class P4Action:
    kind: ActionKind
    params: Dict[str, object] = field(default_factory=dict)


@dataclass
class P4Table:
    """An exact-match table. Entries come from the control plane ONLY."""

    name: str
    key_fields: List[str]
    size: int
    default_actions: List[P4Action] = field(default_factory=list)
    entries: Dict[bytes, List[P4Action]] = field(default_factory=dict)

    def add_entry(self, key: bytes, actions: List[P4Action]) -> None:
        if len(self.entries) >= self.size:
            raise ValueError(f"table {self.name} full")
        self.entries[key] = actions


@dataclass
class P4Counter:
    name: str
    size: int
    values: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.values:
            self.values = [0] * self.size


@dataclass
class P4Program:
    """A P4 program as SDNet sees it."""

    name: str
    parser: P4Parser
    tables: List[P4Table]
    counters: List[P4Counter] = field(default_factory=list)
    # Feature flags that a P4 port of an eBPF program may need but PISA
    # cannot provide; the compiler rejects programs that set them.
    needs_dataplane_table_write: bool = False
    needs_dataplane_allocation: bool = False

    def counter(self, name: str) -> P4Counter:
        for c in self.counters:
            if c.name == name:
                return c
        raise KeyError(name)

    def table(self, name: str) -> P4Table:
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(name)


class SdnetUnsupportedError(ValueError):
    """Raised when a P4 program needs features SDNet's PISA target lacks."""


# -- compiler + interpreter -------------------------------------------------------


class SdnetPipeline:
    """A compiled PISA pipeline: behavioural model + resource report."""

    def __init__(self, program: P4Program) -> None:
        self.program = program

    # behavioural model ------------------------------------------------------

    def process(self, frame: bytes) -> Tuple[XdpAction, bytes, Optional[int]]:
        """Run one packet through parser + tables; returns
        (verdict, packet bytes, forward port)."""
        program = self.program
        packet = bytearray(frame)
        verdict = XdpAction.PASS
        port: Optional[int] = None
        if len(packet) < program.parser.depth_bytes:
            return XdpAction.DROP, bytes(packet), None
        for table in program.tables:
            key = b"".join(
                bytes(packet[f.offset : f.offset + f.size])
                for f in (program.parser.field(n) for n in table.key_fields)
            )
            actions = table.entries.get(key, table.default_actions)
            for action in actions:
                verdict, port = self._apply(action, packet, verdict, port)
                if verdict is XdpAction.DROP:
                    return verdict, bytes(packet), None
        return verdict, bytes(packet), port

    def _apply(
        self,
        action: P4Action,
        packet: bytearray,
        verdict: XdpAction,
        port: Optional[int],
    ) -> Tuple[XdpAction, Optional[int]]:
        kind = action.kind
        if kind is ActionKind.PASS:
            return XdpAction.PASS, port
        if kind is ActionKind.DROP:
            return XdpAction.DROP, None
        if kind is ActionKind.FORWARD:
            return XdpAction.REDIRECT, int(action.params["port"])
        if kind is ActionKind.SET_FIELDS:
            for name, data in action.params.items():
                f = self.program.parser.field(name)
                packet[f.offset : f.offset + f.size] = data
            return verdict, port
        if kind is ActionKind.DEC_TTL:
            ttl_field = self.program.parser.field("ipv4.ttl")
            packet[ttl_field.offset] -= 1
            csum_field = self.program.parser.field("ipv4.checksum")
            csum = int.from_bytes(
                packet[csum_field.offset : csum_field.offset + 2], "big"
            )
            csum += 0x0100
            csum = (csum & 0xFFFF) + (csum >> 16)
            csum = (csum & 0xFFFF) + (csum >> 16)
            packet[csum_field.offset : csum_field.offset + 2] = csum.to_bytes(2, "big")
            return verdict, port
        if kind is ActionKind.PUSH_OUTER_IPV4:
            header = bytes(action.params["outer_eth_ipv4"])
            inner_len = len(packet) - 14
            packet[:14] = b""  # outer header template replaces inner eth
            packet[:0] = header
            total = 20 + 14 + inner_len - 14 + 20  # recompute below precisely
            total = len(packet) - 14
            packet[16:18] = total.to_bytes(2, "big")
            # zero then recompute the outer header checksum
            packet[24:26] = b"\x00\x00"
            csum = 0
            for i in range(14, 34, 2):
                csum += int.from_bytes(packet[i : i + 2], "big")
            csum = (csum & 0xFFFF) + (csum >> 16)
            csum = (csum & 0xFFFF) + (csum >> 16)
            packet[24:26] = ((~csum) & 0xFFFF).to_bytes(2, "big")
            return XdpAction.TX, port
        if kind is ActionKind.COUNT:
            counter = self.program.counter(str(action.params["counter"]))
            index = int(action.params.get("index", 0))
            if index < counter.size:
                counter.values[index] += 1
            return verdict, port
        raise SdnetUnsupportedError(f"unknown action {kind}")

    # resource model -----------------------------------------------------------

    def resources(self, include_shell: bool = True) -> ResourceEstimate:
        """Generic-architecture costs: a programmable parser sized to the
        parse depth, full-featured match-action engines per table, and a
        deparser — instantiated regardless of how much the program uses."""
        program = self.program
        luts = 32_000.0  # programmable parser + deparser engines
        ffs = 40_000.0
        bram = 52.0
        luts += program.parser.depth_bytes * 420
        ffs += program.parser.depth_bytes * 520
        for table in program.tables:
            key_bytes = sum(
                program.parser.field(n).size for n in table.key_fields
            )
            luts += 21_000 + key_bytes * 850  # generic match engine + key mux
            ffs += 26_000 + key_bytes * 760
            entry_bytes = key_bytes + 16  # action data
            bram += max(4, -(-table.size * entry_bytes * 2 // 4608))
        for counter in program.counters:
            luts += 1_200
            bram += max(1, -(-counter.size * 8 // 4608))
        total = ResourceEstimate(int(luts), int(ffs), int(round(bram)), ALVEO_U50)
        if include_shell:
            total = total + CORUNDUM_SHELL
        return total

    @property
    def throughput_mpps(self) -> float:
        return LINE_RATE_MPPS


class SdnetCompiler:
    """The SDNet front-end: feature checks, then pipeline construction."""

    def compile(self, program: P4Program) -> SdnetPipeline:
        if program.needs_dataplane_table_write:
            raise SdnetUnsupportedError(
                f"{program.name}: PISA tables are control-plane-written; "
                "data-plane table updates cannot be expressed"
            )
        if program.needs_dataplane_allocation:
            raise SdnetUnsupportedError(
                f"{program.name}: no way to define dynamic port selection "
                "within the data plane"
            )
        for table in program.tables:
            for f in table.key_fields:
                program.parser.field(f)  # must be parsed
        return SdnetPipeline(program)


# -- P4 ports of the evaluation applications ----------------------------------------

_ETH_IPV4_UDP_FIELDS = [
    P4Field("eth.dst", 0, 6),
    P4Field("eth.src", 6, 6),
    P4Field("eth.type", 12, 2),
    P4Field("ipv4.ttl", 22, 1),
    P4Field("ipv4.proto", 23, 1),
    P4Field("ipv4.checksum", 24, 2),
    P4Field("ipv4.src", 26, 4),
    P4Field("ipv4.dst", 30, 4),
    P4Field("l4.sport", 34, 2),
    P4Field("l4.dport", 36, 2),
]


def p4_firewall() -> P4Program:
    parser = P4Parser(list(_ETH_IPV4_UDP_FIELDS))
    flows = P4Table(
        "flows",
        key_fields=["ipv4.src", "ipv4.dst", "l4.sport", "l4.dport"],
        size=8192,
        default_actions=[P4Action(ActionKind.DROP)],
    )
    return P4Program("firewall", parser, [flows],
                     counters=[P4Counter("flow_hits", 8192)])


def p4_router() -> P4Program:
    parser = P4Parser(list(_ETH_IPV4_UDP_FIELDS))
    routes = P4Table(
        "routes",
        key_fields=["ipv4.dst"],
        size=4096,
        default_actions=[P4Action(ActionKind.PASS)],
    )
    return P4Program("router", parser, [routes],
                     counters=[P4Counter("routed", 1)])


def p4_tunnel() -> P4Program:
    parser = P4Parser(list(_ETH_IPV4_UDP_FIELDS))
    tunnels = P4Table(
        "tunnels",
        key_fields=["ipv4.dst"],
        size=1024,
        default_actions=[P4Action(ActionKind.PASS)],
    )
    return P4Program("tunnel", parser, [tunnels],
                     counters=[P4Counter("encapsulated", 1)])


def p4_suricata() -> P4Program:
    parser = P4Parser(list(_ETH_IPV4_UDP_FIELDS))
    acl = P4Table(
        "acl",
        key_fields=["ipv4.src", "ipv4.dst", "l4.sport", "l4.dport", "ipv4.proto"],
        size=8192,
        default_actions=[P4Action(ActionKind.PASS),
                         P4Action(ActionKind.COUNT, {"counter": "stats", "index": 0})],
    )
    return P4Program("suricata", parser, [acl],
                     counters=[P4Counter("stats", 4)])


def p4_dnat() -> P4Program:
    """The DNAT port — needs data-plane inserts + allocation, so
    :meth:`SdnetCompiler.compile` rejects it (the §5 result)."""
    parser = P4Parser(list(_ETH_IPV4_UDP_FIELDS))
    nat = P4Table(
        "nat",
        key_fields=["ipv4.src", "ipv4.dst", "l4.sport", "l4.dport"],
        size=4096,
        default_actions=[P4Action(ActionKind.PASS)],
    )
    return P4Program(
        "dnat", parser, [nat],
        needs_dataplane_table_write=True,
        needs_dataplane_allocation=True,
    )


P4_PORTS: Dict[str, Callable[[], P4Program]] = {
    "firewall": p4_firewall,
    "router": p4_router,
    "tunnel": p4_tunnel,
    "dnat": p4_dnat,
    "suricata": p4_suricata,
}
