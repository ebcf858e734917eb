"""The stage-to-block interfaces are the bundle tables of ``core/vhdl.py``.

Each map channel, atomic port and helper port is declared once, as
``MAP_CHANNEL``, ``ATOMIC_PORT`` and ``HELPER_PORT`` (directions seen from
the block). These tests hold every generated use of a bundle to its table
on all apps under both schedule layouts: the stage entities' ports and
helper wiring, the top's signals and port maps, the map and helper
entities, and the read/write sets the RTL primitives bind.
"""

import re

import pytest

from repro import apps
from repro.core.compiler import CompileOptions, compile_program
from repro.core.vhdl import (
    ATOMIC_PORT,
    CH_OP_LOOKUP,
    HELPER_PORT,
    MAP_CHANNEL,
    emit_vhdl,
)
from repro.ebpf.isa import MapSpec
from repro.ebpf.maps import MapSet
from repro.ebpf.xdp import AddressSpace, XdpContext
from repro.rtl import parse_vhdl
from repro.rtl.elab import Ref
from repro.rtl.primitives import HelperBlock, MapBlock, RtlContext
from repro.rtl.sim import elaborate_text, find_top

APPS = sorted(name for name in apps.__all__ if name.islower())
LAYOUTS = {"default": CompileOptions(),
           "s3.3": CompileOptions(path_parallel=False)}
FLIP = {"in": "out", "out": "in"}


def _rows(bundle, flip=False):
    """(field, direction) of each row, the stage side when ``flip``."""
    return [(f, FLIP[d] if flip else d) for f, d, *_ in bundle]


def _groups(names, pattern):
    """``{prefix: [suffix, ...]}`` of the names matching ``pattern``
    (``prefix`` and ``suffix`` groups), in declaration order."""
    out = {}
    for name in names:
        m = re.fullmatch(pattern, name)
        if m:
            out.setdefault(m["prefix"], []).append(m["suffix"])
    return out


def _fixed_widths(bundle):
    return {f: w for f, _d, w, *_ in bundle if isinstance(w, int)}


def _check_ports(ports, prefix_re, bundle, flip):
    """Every ``prefix_re`` port group declares exactly the bundle's
    fields, in table order, with its directions and fixed widths."""
    decls = {p.name: p for p in ports}
    groups = _groups(decls, rf"(?P<prefix>{prefix_re})_(?P<suffix>\w+)")
    for prefix, suffixes in groups.items():
        got = [(s, decls[f"{prefix}_{s}"].direction) for s in suffixes]
        assert got == _rows(bundle, flip), prefix
        for field, width in _fixed_widths(bundle).items():
            assert decls[f"{prefix}_{field}"].width == width, (prefix, field)
    return groups


@pytest.fixture(scope="module", params=[(a, lay) for a in APPS
                                        for lay in sorted(LAYOUTS)],
                ids=lambda p: f"{p[0]}-{p[1]}")
def design(request):
    name, layout = request.param
    program = getattr(apps, name).build()
    text = emit_vhdl(compile_program(program, LAYOUTS[layout]))
    model = elaborate_text(text, RtlContext(MapSet(program.maps)))
    return parse_vhdl(text), model, find_top(text)


def _kind(design_file, entity):
    generics = {g.name for g in design_file.entities[entity].generics}
    return ("map" if "g_fd" in generics
            else "helper" if "g_helper_id" in generics else None)


class TestGeneratedInterfaces:
    def test_stage_ports_and_helper_wiring(self, design):
        design_file, _model, _top = design
        for name, entity in design_file.entities.items():
            if "_stage_" not in name:
                continue
            _check_ports(entity.ports, r"mp\d+", MAP_CHANNEL, flip=True)
            _check_ports(entity.ports, "ap", ATOMIC_PORT, flip=True)
            arch = design_file.architectures[name]
            signals = _groups([s.name for s in arch.signals],
                              r"(?P<prefix>h\d+)_(?P<suffix>\w+)")
            for inst in arch.statements:
                if not (hasattr(inst, "port_map")
                        and inst.label in signals):
                    continue
                helper = design_file.entities[inst.entity]
                formals = [f for f, _a in inst.port_map]
                assert formals == [p.name for p in helper.ports]
                assert sorted(signals[inst.label]) == sorted(formals[1:])

    def test_map_and_helper_entities(self, design):
        design_file, _model, _top = design
        fields = {f for f, *_ in HELPER_PORT}
        for name, entity in design_file.entities.items():
            kind = _kind(design_file, name)
            if kind == "map":
                channels = _check_ports(entity.ports, r"ch\d+", MAP_CHANNEL,
                                        flip=False)
                assert sorted(channels) == [f"ch{c}"
                                            for c in range(len(channels))]
                _check_ports(entity.ports, "at", ATOMIC_PORT, flip=False)
            elif kind == "helper":
                assert entity.ports[0].name == "clk"
                got = [(p.name, p.direction) for p in entity.ports[1:]]
                assert {f for f, _d in got} <= fields
                # the rows present, in table order, with their directions
                assert got == [row for row in _rows(HELPER_PORT)
                               if row[0] in {f for f, _d in got}]
                for field, width in _fixed_widths(HELPER_PORT).items():
                    if entity.port(field) is not None:
                        assert entity.port(field).width == width

    def test_top_signals_and_port_maps(self, design):
        design_file, _model, top = design
        arch = design_file.architectures[top]
        signals = [s.name for s in arch.signals]
        requests = [f for f, d in _rows(MAP_CHANNEL) if d == "in"]
        for suffixes in _groups(
                signals, r"(?P<prefix>s\d+_mp\d+)_(?P<suffix>\w+)").values():
            assert suffixes == requests
        for suffixes in _groups(
                signals, r"(?P<prefix>m\d+_ch\d+)_(?P<suffix>\w+)").values():
            assert suffixes == [f for f, _d in _rows(MAP_CHANNEL)]
        for suffixes in _groups(
                signals, r"(?P<prefix>s\d+_ap)_(?P<suffix>\w+)").values():
            assert suffixes == [f for f, d in _rows(ATOMIC_PORT) if d == "in"]
        for suffixes in _groups(
                signals, r"(?P<prefix>m\d+_at)_(?P<suffix>\w+)").values():
            assert suffixes == [f for f, _d in _rows(ATOMIC_PORT)]
        for inst in arch.statements:
            if not hasattr(inst, "port_map"):
                continue
            formals = [f for f, _a in inst.port_map]
            for pattern, bundle in ((r"(?P<prefix>mp\d+|ch\d+)", MAP_CHANNEL),
                                    (r"(?P<prefix>ap|at)", ATOMIC_PORT)):
                for suffixes in _groups(
                        formals, pattern + r"_(?P<suffix>\w+)").values():
                    assert suffixes == [f for f, *_ in bundle]

    def test_primitive_read_write_sets(self, design):
        design_file, model, _top = design
        checked = 0
        for prim in model.primitives:
            if not isinstance(prim, (MapBlock, HelperBlock)):
                continue
            entity = design_file.entities[prim.name]
            by_dir = {d: [p.name for p in entity.ports if p.direction == d]
                      for d in ("in", "out")}
            for node in prim.nodes():
                if node.label.endswith(".tie"):
                    continue
                if isinstance(prim, MapBlock):
                    unit = node.label.rsplit(".", 1)[1]
                    prefix = "at_" if unit == "atomic" else f"{unit}_"
                else:
                    prefix = ""
                ports = {d: {prim.ports[n].net for n in names
                             if n.startswith(prefix) and n != "clk"}
                         for d, names in by_dir.items()}
                assert node.reads == ports["in"], node.label
                assert node.writes == ports["out"], node.label
                checked += 1
        assert checked or not any(
            _kind(design_file, n) for n in design_file.entities)


class TestChannelUnpackOrder:
    def test_table_order_is_the_order_channel_unpacks(self):
        # One net per field, each holding a distinct value: a lookup only
        # hits when _channel reads req, op and key from the fields the
        # table names, and its answer lands on rdata / oob.
        spec = MapSpec(name="m", map_type="array", key_size=4,
                       value_size=8, max_entries=4)
        maps = MapSet({1: spec})
        maps[1].update((2).to_bytes(4, "little"), (7).to_bytes(8, "little"))
        widths = {"key": 32, "value": 64}
        ports = {f"ch0_{f}": Ref(net, 0, widths.get(w, w))
                 for net, (f, _d, w) in enumerate(MAP_CHANNEL)}
        block = MapBlock("m_map_1", {"g_fd": 1, "g_key_bytes": 4,
                                     "g_value_bytes": 8}, ports,
                         RtlContext(maps))
        drive = {"req": 1, "op": CH_OP_LOOKUP, "addr": 0, "key": 2,
                 "wdata": 0, "rdata": 0, "oob": 1}
        values = [drive[f] for f, *_ in MAP_CHANNEL]
        block._channel(0, values)
        result = dict(zip((f for f, *_ in MAP_CHANNEL), values))
        assert result["oob"] == 0
        buf, off, fd = AddressSpace.locate(result["rdata"], 8, b"",
                                           XdpContext(bytearray()), maps)
        assert fd == 1 and buf[off:off + 8] == (7).to_bytes(8, "little")
