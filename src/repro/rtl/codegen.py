"""Compile an elaborated netlist into a static evaluation schedule.

The interpreting simulator re-walks every combinational node each
``settle()`` and every process each ``edge()`` through trees of nested
closures — correct, but ~100x too slow to push real traffic through the
RTL leg. This module turns the same :class:`~repro.rtl.elab.Elaborated`
model into one generated Python module (mirroring
:mod:`repro.hwsim.codegen`) that evaluates *only what changed*:

* The elaborator already levelizes the netlist (longest-path ranks, one
  canonical topological order shared with the interpreter), so the node
  index doubles as the schedule priority. A dirty bytearray ``NQ``
  indexed by node replaces the full settle sweep: each write is
  change-detected and, only when the value actually moved, marks the
  reader nodes and processes downstream, always ahead of the scan.
* A process that reads a net only under a positive guard ``g = '1'``
  is marked by that net's changes only while ``g`` is high
  (``_Builder.proc_guard`` states the rule and why it is sound): a
  stage register that reads a shared map channel's response only while
  its stage is valid no longer re-runs for every other stage's request.
* Every expression is re-compiled to straight-line Python source with
  constants folded (masks, slice offsets, ``rising_edge`` → ``True``),
  replacing per-AST-node closure calls with single bytecode operations.
* Effectful primitives (map channels, atomics, helpers) cannot be
  skipped while requested — their side effects are not idempotent — so
  they stay *live*: while the gate reads 1 the node re-queues itself
  for the next settle, and per-primitive activity counters
  (``ehdl_rtl_prim_active_total``) record exactly how often each block
  really ran. Quiescent cycles cost one empty ``NQ`` scan. A port's
  common requests are generated code in its node's body (a load, store
  or atomic in the map's window, a lookup, an update, a delete, a
  ``redirect_map``, ``bpf_redirect``); the rest — out-of-range
  addresses, unknown ops, other helpers — call the primitive model
  (``PRIMS[i]``, :mod:`repro.rtl.primitives`), which stays the
  reference. What a port reads per run (the map's storage and lookup
  core, the op counters, the packet shadow) is bound per simulator
  from ``_BIND``, never named in the module text, since one module
  serves every runner of its design.
* Each clocked process compiles to one fused evaluate+commit function
  ``_f<i>``. An edge runs the pending ones in a static *commit order*
  (process j before process k whenever j reads a net k writes), so every
  process still reads pre-edge values, as in the interpreter's
  two-phase (read-then-commit) edge. Commits are change-detected and
  mark readers.
* ``_settle``, ``_edge``, ``_run`` (cycles until ``m_axis_tvalid``
  rises) and ``_frame`` (one s_axis inject, then ``_run``) are the
  generated half of the stepping contract :mod:`repro.rtl.sim` states.

The generated source is cached in-process by netlist digest and
persisted as a side artifact through :class:`repro.core.cache
.CompileCache`, stamped with :data:`RTL_CODEGEN_VERSION`.

Elaboration is the one validator: a malformed design (an undeclared
name, an unknown function, a width or kind mismatch) is an
:class:`~repro.rtl.errors.RtlElabError` before this module sees it.
:class:`~repro.rtl.errors.RtlCodegenError` means only "not
schedulable", and callers fall back to the interpreter
(``rtl-interp``). The generator refuses:

* a net written by two processes, or by a process *and* a concurrent
  assignment;
* a node reading its own output;
* a commit order with a cycle (two processes swapping registers): the
  rule is *ordered or refused*, there is no second edge scheme;
* a top without the AXI-stream ports ``_run`` and ``_frame`` use;
* a model without levelization ranks, or a hand-built node or process
  that keeps no source tree to compile.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .ast import (
    Bin,
    Call,
    ConcAssign,
    IfStmt,
    Index,
    Lit,
    NameRef,
    OthersZero,
    SeqAssign,
    SliceRef,
    Un,
    WhenElse,
)
from ..core.vhdl import (
    ATOMIC_PORT, CH_OP_LOAD, CH_OP_LOOKUP, CH_OP_STORE, CH_OP_UPDATE,
    MAP_CHANNEL,
)
from ..ebpf.helpers import HELPER_IDS_BY_NAME, channel_step
from ..ebpf.vm import VmError, atomic_step
from ..ebpf.xdp import AddressSpace, XdpAction
from .elab import CombNode, Elaborated, Ref, _sign
from .errors import RtlCodegenError
from .primitives import _CH_OP_HELPER, _CH_OP_NAMES

#: Bump whenever the generated schedule source changes shape; the stamp
#: is folded into the digest so stale disk artifacts never load.
RTL_CODEGEN_VERSION = 7

#: In-process cache: digest -> executed module namespace.
_MODULE_CACHE: Dict[str, dict] = {}

_BARE_V = re.compile(r"V\[\d+\]")


def _bswap16(v: int) -> int:
    return int.from_bytes((v & 0xFFFF).to_bytes(2, "little"), "big")


def _bswap32(v: int) -> int:
    return int.from_bytes((v & 0xFFFFFFFF).to_bytes(4, "little"), "big")


def _bswap64(v: int) -> int:
    return int.from_bytes(
        (v & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"), "big")


#: The runtime helpers, one definition each: a generated module imports
#: the ones it calls.
_HELPERS = {
    "_sign": _sign,
    "_bswap16": _bswap16,
    "_bswap32": _bswap32,
    "_bswap64": _bswap64,
    "_CH_OP_HELPER": _CH_OP_HELPER,
    "_CH_OP_NAMES": _CH_OP_NAMES,
    "atomic_step": atomic_step,
    "channel_step": channel_step,
    "VmError": VmError,
}

_REDIRECT_HELPER = HELPER_IDS_BY_NAME["bpf_redirect"]
_REDIRECT = int(XdpAction.REDIRECT)


def _indent(lines: List[str], ind: str) -> List[str]:
    return [ind + line for line in lines]


def _hx(value: int) -> str:
    return hex(value) if value > 9 else str(value)


def _as_cond(src: str) -> str:
    """Unwrap ``(1 if X else 0)`` when used directly as a condition."""
    if src.startswith("(1 if ") and src.endswith(" else 0)"):
        return src[len("(1 if "):-len(" else 0)")]
    return src


_TRAIL_MASK = re.compile(r"^\((.*) & (0x[0-9a-f]+|\d+)\)$")


def _top_masked(src: str) -> Optional[int]:
    """If ``src`` is ``(X & M)`` with ``M`` masking the *whole*
    expression, return ``M``; else None. Nested widening chains
    (``resize``/``unsigned`` stacks) produce ``((X & m) & M)`` with
    ``m ⊆ M``, where the outer mask is a no-op on multi-word ints —
    this is the proof the emitter needs to drop it."""
    m = _TRAIL_MASK.match(src)
    if not m:
        return None
    inner = m.group(1)
    depth = 0
    i, n = 0, len(inner)
    while i < n:
        c = inner[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                return None
        elif depth == 0:
            # anything binding looser than "&" (or unparenthesised
            # comparisons) means the trailing mask is not top-level
            if c in "|^=!,":
                return None
            if c in "<>":
                if i + 1 < n and inner[i + 1] == c:
                    i += 2  # shift operator
                    continue
                return None
            if c == " " and (inner.startswith(" if ", i)
                             or inner.startswith(" else ", i)
                             or inner.startswith(" and ", i)
                             or inner.startswith(" or ", i)
                             or inner.startswith(" not ", i)):
                return None
        i += 1
    if depth:
        return None
    return int(m.group(2), 0)


def _masked(src: str, mask: int) -> str:
    """Apply ``& mask``, skipping it when ``src`` provably fits."""
    got = _top_masked(src)
    if got is not None and got & mask == got:
        return src
    return f"(({src}) & {_hx(mask)})"


# -- expression → source (mirrors elab._Compiler) ----------------------------

#: compiled expression source: (fragment, bit width, kind)
_S = Tuple[str, int, str]

_CMP_PYOPS = {"=": "==", "/=": "!=", "<": "<", "<=": "<=",
              ">": ">", ">=": ">="}


class _SrcCompiler:
    """Re-compiles an expression tree that elaboration has already
    validated into Python source. Elaboration is the one validator (it
    rejects undeclared names, unknown functions and operators, width and
    kind mismatches); this class only repeats its width/kind bookkeeping,
    so the generated arithmetic is bit-identical to the interpreting
    closures."""

    def __init__(self, net_widths: Sequence[int],
                 scope: Dict[str, Ref]) -> None:
        self.net_widths = net_widths
        self.scope = scope
        self.reads: Set[int] = set()
        # The positive guards in force where the next read compiles
        # (outermost first), and per net read the guards every one of
        # its reads sat under (see _Builder.proc_guard).
        self.guards: Tuple[Ref, ...] = ()
        self.guarded: Dict[int, List[Ref]] = {}

    def note(self, net: int) -> None:
        """Record a read of ``net`` under the guards now in force."""
        self.reads.add(net)
        held = self.guarded.get(net)
        if held is None:
            self.guarded[net] = list(self.guards)
        elif held:
            self.guarded[net] = [g for g in held if g in self.guards]

    def ref_of(self, target) -> Ref:
        base = self.scope[target.name]
        if isinstance(target, NameRef):
            return base
        if isinstance(target, Index):
            return base.sub(target.index, 1)
        return base.sub(target.lo, target.hi - target.lo + 1)

    def read_src(self, ref: Ref) -> str:
        self.note(ref.net)
        if ref.low == 0 and ref.width == self.net_widths[ref.net]:
            return f"V[{ref.net}]"
        if ref.low == 0:
            return f"(V[{ref.net}] & {_hx(ref.mask)})"
        return f"(V[{ref.net}] >> {ref.low} & {_hx(ref.mask)})"

    def compile(self, expr, expect_width: Optional[int] = None) -> _S:
        if isinstance(expr, Lit):
            return _hx(expr.value) if expr.value >= 0 \
                else str(expr.value), expr.width, expr.kind
        if isinstance(expr, OthersZero):
            return "0", expect_width, "u"
        if isinstance(expr, (NameRef, Index, SliceRef)):
            ref = self.ref_of(expr)
            return self.read_src(ref), ref.width, "u"
        if isinstance(expr, Call):
            return self.compile_call(expr, expect_width)
        if isinstance(expr, Un):
            return self.compile_un(expr)
        if isinstance(expr, Bin):
            return self.compile_bin(expr)
        return self.compile_when(expr, expect_width)

    def compile_call(self, expr: Call,
                     expect_width: Optional[int]) -> _S:
        fn = expr.fn
        if fn == "rising_edge":
            # processes run exactly at the clock edge
            return "1", 0, "b"
        if fn in ("unsigned", "std_logic_vector"):
            s, w, _k = self.compile(expr.args[0], expect_width)
            return s, w, "u"
        if fn == "signed":
            s, w, _k = self.compile(expr.args[0], expect_width)
            return s, w, "s"
        if fn == "resize":
            s, w, k = self.compile(expr.args[0])
            nw = expr.args[1].value
            mask = (1 << nw) - 1
            if k == "s":
                return f"(_sign({s}, {w}) & {_hx(mask)})", nw, "s"
            return _masked(s, mask), nw, "u"
        if fn in ("to_unsigned", "to_signed"):
            s, _w, _k = self.compile(expr.args[0])
            nw = expr.args[1].value
            mask = (1 << nw) - 1
            kind = "u" if fn == "to_unsigned" else "s"
            return _masked(s, mask), nw, kind
        if fn == "to_integer":
            s, w, k = self.compile(expr.args[0])
            if k == "s":
                return f"_sign({s}, {w})", 0, "i"
            return s, 0, "i"
        if fn in ("shift_left", "shift_right"):
            s, w, k = self.compile(expr.args[0])
            amt, _aw, _ak = self.compile(expr.args[1])
            mask = (1 << w) - 1
            if fn == "shift_left":
                return f"(({s} << {amt}) & {_hx(mask)})", w, k
            if k == "s":
                return f"((_sign({s}, {w}) >> {amt}) & {_hx(mask)})", w, k
            return f"({s} >> {amt})", w, k
        if fn in ("ehdl_bswap16", "ehdl_bswap32", "ehdl_bswap64"):
            bits = int(fn[len("ehdl_bswap"):])
            s, _w, _k = self.compile(expr.args[0])
            # width 64 mirrors the interpreter
            return f"_bswap{bits}({s})", 64, "u"
        # ehdl_udiv / ehdl_urem
        sa, wa, _ka = self.compile(expr.args[0])
        sb, _wb, _kb = self.compile(expr.args[1])
        if fn == "ehdl_udiv":
            return f"(({sa} // {sb}) if {sb} else 0)", wa, "u"
        return f"(({sa} % {sb}) if {sb} else {sa})", wa, "u"

    def compile_un(self, expr: Un) -> _S:
        # ``not`` is the one unary elaboration accepts
        s, w, k = self.compile(expr.operand)
        if k == "b":
            return f"(0 if {_as_cond(s)} else 1)", 0, "b"
        mask = (1 << w) - 1
        return f"(~{s} & {_hx(mask)})", w, k

    def compile_cond(self, cond) -> Tuple[_S, List[Ref]]:
        """Compile an ``if`` / ``elsif`` condition, and return with it
        the positive guards it establishes: each conjunct of its
        top-level ``and`` chain of the form ``g = '1'``, ``g`` a 1-bit
        ref. A later conjunct compiles under the guards of the earlier
        ones: where any of them is low, the condition is false whatever
        the later conjunct reads."""
        if isinstance(cond, Bin) and cond.op == "and":
            left, ga = self.compile_cond(cond.left)
            outer = self.guards
            self.guards = outer + tuple(ga)
            right, gb = self.compile_cond(cond.right)
            self.guards = outer
            return self._logic("and", left, right), ga + gb
        src = self.compile(cond)
        if (isinstance(cond, Bin) and cond.op == "="
                and isinstance(cond.left, (NameRef, Index, SliceRef))
                and isinstance(cond.right, Lit)
                and (cond.right.value, cond.right.width) == (1, 1)):
            ref = self.ref_of(cond.left)
            if ref.width == 1:
                return src, [ref]
        return src, []

    def compile_bin(self, expr: Bin) -> _S:
        op = expr.op
        a = self.compile(expr.left)
        b = self.compile(expr.right)
        if op in ("and", "or", "xor"):
            return self._logic(op, a, b)
        sa, wa, ka = a
        sb, wb, kb = b
        if op in _CMP_PYOPS:
            signed = ka == "s" or kb == "s"

            def interp(s, w, k):
                if signed and k != "i":
                    return f"_sign({s}, {w})"
                return s

            ia, ib = interp(sa, wa, ka), interp(sb, wb, kb)
            return f"(1 if {ia} {_CMP_PYOPS[op]} {ib} else 0)", 0, "b"
        if op == "&":
            return f"(({sa} << {wb}) | {sb})", wa + wb, "u"
        if op in ("+", "-"):
            if ka == "i":
                width, kind = wb, kb
            elif kb == "i":
                width, kind = wa, ka
            else:
                width = wa
                kind = "s" if (ka == "s" or kb == "s") else "u"
            mask = (1 << width) - 1
            ia = f"_sign({sa}, {wa})" if kind == "s" and ka == "s" else sa
            ib = f"_sign({sb}, {wb})" if kind == "s" and kb == "s" else sb
            return f"(({ia} {op} {ib}) & {_hx(mask)})", width, kind
        # "*", the last operator elaboration accepts
        width = wa + wb
        mask = (1 << width) - 1
        return f"(({sa} * {sb}) & {_hx(mask)})", width, "u"

    @staticmethod
    def _logic(op: str, a: _S, b: _S) -> _S:
        (sa, wa, ka), (sb, _wb, kb) = a, b
        if ka == "b" and kb == "b":
            ca, cb = _as_cond(sa), _as_cond(sb)
            if op == "and":
                return f"(1 if ({ca}) and ({cb}) else 0)", 0, "b"
            if op == "or":
                return f"(1 if ({ca}) or ({cb}) else 0)", 0, "b"
            return f"(1 if {sa} != {sb} else 0)", 0, "b"
        pyop = {"and": "&", "or": "|", "xor": "^"}[op]
        return f"({sa} {pyop} {sb})", wa, ka

    def compile_when(self, expr: WhenElse,
                     expect_width: Optional[int]) -> _S:
        arms = []
        width, kind = expect_width, "u"
        for value, cond in expr.arms:
            sv, wv, kv = self.compile(value, expect_width)
            sc, _wc, _kc = self.compile(cond)
            arms.append((sv, sc))
            if not isinstance(value, OthersZero):
                width, kind = wv, kv
        so, wo, _ko = self.compile(expr.otherwise, width)
        if width is None:
            width = wo
        src = so
        for sv, sc in reversed(arms):
            if sc == "1":
                # this arm always wins over everything after it
                src = sv
            elif sc == "0":
                continue
            else:
                src = f"({sv} if {_as_cond(sc)} else {src})"
        return src, width, kind


# -- module generation --------------------------------------------------------


class _Builder:
    """Assembles the generated schedule module for one netlist."""

    def __init__(self, model: Elaborated, name: str) -> None:
        self.model = model
        self.name = name
        if len(model.nodes) != len(model.node_ranks):
            raise RtlCodegenError(
                "model has no levelization ranks (elaborate() it with "
                "the current elaborator)")
        self.kinds: List[str] = []
        for node in model.nodes:
            if node.gate is not None:
                self.kinds.append("prim")
            elif node.ports is not None:
                self.kinds.append("fifo")
            elif node.stmt is not None:
                self.kinds.append("conc")
            elif node.idle:
                self.kinds.append("tie")
            else:
                raise RtlCodegenError(
                    f"node {node.label!r} retains no metadata for "
                    "scheduling (hand-built CombNode?)")
        # Per-node sensitivity (⊆ node.reads): what actually feeds the
        # outputs. Populated while compiling bodies.
        self.node_reads: List[Set[int]] = [set() for _ in model.nodes]
        self.proc_reads: List[Set[int]] = []
        self.proc_guarded: List[Dict[int, List[Ref]]] = []
        self.proc_writes: List[List[int]] = []
        self.proc_lines: List[List[str]] = []
        self.readers_nodes: Dict[int, List[int]] = {}
        self.readers_procs: Dict[int, List[int]] = {}
        self._tmp = 0
        # per-simulator bindings of the generated ports (see bound)
        self.n_prims = self.kinds.count("prim")
        self.binds: List[Tuple[str, int]] = []
        self.bind_ix: Dict[Tuple[str, Optional[int]], int] = {}

    # -- helpers -------------------------------------------------------------

    def _fresh(self, stem: str) -> str:
        self._tmp += 1
        return f"_{stem}{self._tmp}"

    def test_src(self, ref: Ref) -> str:
        """Unparenthesised read of ``ref`` for an ``if`` test."""
        if ref.low == 0 and ref.width == self.model.net_widths[ref.net]:
            return f"V[{ref.net}]"
        if ref.low == 0:
            return f"V[{ref.net}] & {_hx(ref.mask)}"
        return f"V[{ref.net}] >> {ref.low} & {_hx(ref.mask)}"

    def proc_guard(self, p: int, net: int) -> Optional[Ref]:
        """The guard under which a change of ``net`` wakes process
        ``p``, or None where every change must.

        That is the outermost ``g`` that every read of ``net`` in ``p``
        sits under (``_SrcCompiler.compile_cond``: the ``then`` arm of
        an ``if`` or ``elsif`` whose condition's top-level conjunction
        holds ``g = '1'``, or a later conjunct of that condition), and
        whose own net ``p`` reads unguarded. It is sound because every
        change of ``g``'s net marks ``p``. So between two evaluations
        of ``p`` either ``g`` stayed high, and every change of ``net``
        was marked, or ``g`` stayed low, and ``p``'s next value does
        not depend on ``net``: the guarded arms and conjuncts are all
        that read it. Drive-time marks (``_mark``) stay unguarded."""
        guarded = self.proc_guarded[p]
        for g in guarded.get(net, ()):
            if not guarded[g.net]:
                return g
        return None

    def mark_lines(self, net: int, ind: str) -> List[str]:
        # Node marks are bare byte stores: NQ *is* the queue (the settle
        # scan visits set bytes in ascending index order), and marks are
        # idempotent, so no dedup guard is needed.
        out = []
        for j in self.readers_nodes.get(net, ()):
            out.append(f"{ind}NQ[{j}] = 1")
        for p in self.readers_procs.get(net, ()):
            g = self.proc_guard(p, net)
            out.append(f"{ind}if not PQ[{p}]:" if g is None
                       else f"{ind}if not PQ[{p}] and {self.test_src(g)}:")
            out.append(f"{ind}    PQ[{p}] = 1")
            out.append(f"{ind}    PEND.append({p})")
        return out

    def write_lines(self, ref: Ref, src: str, width: int, kind: str,
                    ind: str) -> List[str]:
        """Change-detected write of ``src`` into ``ref``, marking the
        readers of the net when the value moved."""
        n = ref.net
        nw = self.model.net_widths[n]
        marks = self.mark_lines(n, ind + "    ")
        full = ref.low == 0 and ref.width == nw
        if full:
            if kind in ("u", "s") and width == ref.width \
                    and _BARE_V.fullmatch(src):
                val = src  # stored values are invariantly masked
            elif src == "0":
                val = "0"
            else:
                got = _top_masked(src)
                if got is not None and got & ref.mask == got:
                    val = src
                else:
                    val = f"({src}) & {_hx(ref.mask)}"
            if not marks:
                return [f"{ind}V[{n}] = {val}"]
            if val == "0":
                return [f"{ind}if V[{n}]:",
                        f"{ind}    V[{n}] = 0"] + marks
            v = self._fresh("v")
            return ([f"{ind}{v} = {val}",
                     f"{ind}if V[{n}] != {v}:",
                     f"{ind}    V[{n}] = {v}"] + marks)
        keep = ((1 << nw) - 1) ^ (ref.mask << ref.low)
        shifted = _masked(src, ref.mask)
        if ref.low:
            shifted = f"({shifted} << {ref.low})"
        rmw = f"& {_hx(keep)}" if src == "0" \
            else f"& {_hx(keep)} | {shifted}"
        if not marks:
            return [f"{ind}V[{n}] = V[{n}] {rmw}"]
        o, v = self._fresh("o"), self._fresh("v")
        return ([f"{ind}{o} = V[{n}]",
                 f"{ind}{v} = {o} {rmw}",
                 f"{ind}if {v} != {o}:",
                 f"{ind}    V[{n}] = {v}"] + marks)

    # -- node bodies ---------------------------------------------------------

    def compile_nodes_pass1(self) -> None:
        """First pass: compile sources and collect sensitivities (the
        reader maps need every node's true read set before any marks
        can be emitted)."""
        model = self.model
        self.node_exprs: List[object] = [None] * len(model.nodes)
        for i, node in enumerate(model.nodes):
            kind = self.kinds[i]
            if kind == "conc":
                stmt: ConcAssign = node.stmt
                comp = _SrcCompiler(model.net_widths, node.scope)
                target = comp.ref_of(stmt.target)
                src, width, k = comp.compile(
                    stmt.value, expect_width=target.width)
                if comp.reads & {target.net}:
                    raise RtlCodegenError(
                        f"{node.label}: node reads its own output net; "
                        "not schedulable")
                self.node_reads[i] = comp.reads
                self.node_exprs[i] = (target, src, width, k)
            elif kind == "fifo":
                p = node.ports
                self.node_reads[i] = {p["wr_en"].net, p["wr_data"].net}
            elif kind == "prim":
                self.node_reads[i] = set(node.reads)
                if set(node.reads) & set(node.writes):
                    raise RtlCodegenError(
                        f"{node.label}: primitive reads its own output "
                        "net; not schedulable")
            else:  # tie
                self.node_reads[i] = set()

    def compile_procs_pass1(self) -> None:
        model = self.model
        owners: Dict[int, int] = {}
        comb_written = set()
        for node in model.nodes:
            comb_written.update(node.writes)
        for pi, proc in enumerate(model.procs):
            if proc.body is None or proc.scope is None:
                raise RtlCodegenError(
                    f"process {proc.label!r} retains no body; "
                    "not schedulable")
            comp = _SrcCompiler(model.net_widths, proc.scope)
            writes: List[int] = []
            lines = self._emit_seq(proc.body, "    ", comp, writes)
            for net in writes:
                other = owners.get(net)
                if other is not None and other != pi:
                    raise RtlCodegenError(
                        f"net {model.net_names[net]!r} is written by two "
                        "processes; not schedulable")
                owners[net] = pi
                if net in comb_written:
                    raise RtlCodegenError(
                        f"net {model.net_names[net]!r} is written both "
                        "combinationally and by a process; not "
                        "schedulable")
            self.proc_reads.append(comp.reads)
            self.proc_guarded.append(comp.guarded)
            self.proc_writes.append(writes)
            self.proc_lines.append(lines)

    def _simple_value(self, value, target: Ref, comp: _SrcCompiler):
        """Classify a sequential assignment's value as a plain field
        copy or constant (the coalescable cases); None otherwise."""
        expr = value
        while isinstance(expr, Call) and expr.fn in (
                "unsigned", "std_logic_vector", "signed"):
            expr = expr.args[0]
        if isinstance(expr, Lit):
            return ("const", (expr.value & target.mask) << target.low)
        if isinstance(expr, OthersZero):
            return ("const", 0)
        if isinstance(expr, (NameRef, Index, SliceRef)):
            ref = comp.ref_of(expr)
            if ref.width != target.width:
                return None
            comp.note(ref.net)
            return ("net", ref.net, target.low - ref.low,
                    target.mask << target.low)
        return None

    def _emit_coalesced(self, net: int, group, ind: str) -> List[str]:
        """Fold a straight-line run of field writes into one masked-OR
        expression. Wide pipeline registers are mostly whole-window
        pass-through copies; evaluating them one bignum RMW per field
        dominates the schedule's runtime, while the composed form costs
        one shift+mask per distinct (source, offset) pair."""
        nw = self.model.net_widths[net]
        full = (1 << nw) - 1
        # later writes shadow earlier ones bit by bit
        segs: List[Tuple[tuple, int]] = []
        cover = 0
        for target, contrib in group:
            dmask = target.mask << target.low
            segs = [(c, em & ~dmask) for c, em in segs if em & ~dmask]
            segs.append((contrib, dmask))
            cover |= dmask
        keep = full & ~cover
        const_acc = 0
        by_src: Dict[Tuple[int, int], int] = {}
        order: List[Tuple[int, int]] = []
        for contrib, em in segs:
            if contrib[0] == "const":
                const_acc |= contrib[1] & em
            else:
                key = (contrib[1], contrib[2])
                if key not in by_src:
                    by_src[key] = 0
                    order.append(key)
                by_src[key] |= em
        terms: List[str] = []
        if keep:
            terms.append(f"t{net} & {_hx(keep)}")
        for snet, delta in order:
            m = by_src[(snet, delta)]
            if delta == 0:
                if m == full and self.model.net_widths[snet] == nw:
                    terms.append(f"V[{snet}]")
                else:
                    terms.append(f"V[{snet}] & {_hx(m)}")
            elif delta > 0:
                terms.append(f"(V[{snet}] << {delta}) & {_hx(m)}")
            else:
                terms.append(f"(V[{snet}] >> {-delta}) & {_hx(m)}")
        if const_acc:
            terms.append(_hx(const_acc))
        if not terms:
            return [f"{ind}t{net} = 0"]
        return [f"{ind}t{net} = " + " | ".join(terms)]

    def _emit_seq(self, stmts, ind: str, comp: _SrcCompiler,
                  writes: List[int]) -> List[str]:
        out: List[str] = []
        group: List[Tuple[Ref, tuple]] = []
        gnet: Optional[int] = None

        def flush() -> None:
            nonlocal gnet
            if group:
                out.extend(self._emit_coalesced(gnet, group, ind))
                del group[:]
                gnet = None

        for stmt in stmts:
            if isinstance(stmt, SeqAssign):
                target = comp.ref_of(stmt.target)
                contrib = self._simple_value(stmt.value, target, comp)
                if contrib is not None:
                    if target.net not in writes:
                        writes.append(target.net)
                    if gnet is not None and gnet != target.net:
                        flush()
                    gnet = target.net
                    group.append((target, contrib))
                    continue
                flush()
                src = comp.compile(stmt.value, expect_width=target.width)[0]
                if target.net not in writes:
                    writes.append(target.net)
                t = f"t{target.net}"
                nw = self.model.net_widths[target.net]
                got = _top_masked(src)
                fits = got is not None and got & target.mask == got
                if target.low == 0 and target.width == nw:
                    out.append(f"{ind}{t} = {src}" if fits else
                               f"{ind}{t} = ({src}) & {_hx(target.mask)}")
                else:
                    keep = ((1 << nw) - 1) ^ (target.mask << target.low)
                    shifted = src if fits \
                        else f"(({src}) & {_hx(target.mask)})"
                    if target.low:
                        shifted = f"({shifted} << {target.low})"
                    out.append(f"{ind}{t} = {t} & {_hx(keep)} "
                               f"| {shifted}")
            else:  # IfStmt, the parser's other sequential statement
                flush()
                out.extend(self._emit_if(stmt, ind, comp, writes))
        flush()
        return out

    def _emit_if(self, stmt: IfStmt, ind: str, comp: _SrcCompiler,
                 writes: List[int]) -> List[str]:
        out: List[str] = []
        opened = False
        outer = comp.guards
        for cond, cbody in stmt.branches:
            (csrc, _w, _k), guards = comp.compile_cond(cond)
            if csrc == "0":
                continue  # branch can never be taken
            # the arm runs only where every guard its condition
            # establishes is high; an elsif's arm gets only its own
            comp.guards = outer + tuple(guards)
            body = self._emit_seq(cbody,
                                  ind + ("    " if csrc != "1" or opened
                                         else ""),
                                  comp, writes)
            comp.guards = outer
            if csrc == "1":
                if not opened:
                    # always taken: inline, drop the rest of the chain
                    out.extend(body or [])
                    return out
                out.append(f"{ind}else:")
                out.extend(body or [f"{ind}    pass"])
                return out
            kw = "if" if not opened else "elif"
            out.append(f"{ind}{kw} {_as_cond(csrc)}:")
            out.extend(body or [f"{ind}    pass"])
            opened = True
        if stmt.otherwise:
            body = self._emit_seq(stmt.otherwise,
                                  ind + ("    " if opened else ""),
                                  comp, writes)
            if opened:
                out.append(f"{ind}else:")
                out.extend(body or [f"{ind}    pass"])
            else:
                out.extend(body)
        return out

    # -- second pass: emit with marks ----------------------------------------

    def build_reader_maps(self) -> None:
        for i, reads in enumerate(self.node_reads):
            for net in reads:
                self.readers_nodes.setdefault(net, []).append(i)
        for pi, reads in enumerate(self.proc_reads):
            for net in reads:
                self.readers_procs.setdefault(net, []).append(pi)

    def compute_fusion(self) -> None:
        """Fuse co-triggered wire nodes into single eval bodies.

        Conc/fifo nodes that share trigger nets wake together on almost
        every cycle (the per-channel mux bank in front of a map
        primitive is the firewall's hot case: five nodes, one shared
        request strobe).  Fusing such a group into one body at the
        highest member index turns N queue dispatches into one and
        collapses the group's marks to a single byte store, while the
        forward-marking invariant survives: every external writer sits
        below the whole group, so its mark still lands ahead of the
        scan, and member bodies run in levelized index order inside the
        fused body (intra-group feeds resolve by ordering, change
        detection keeps the spurious evals idempotent).

        A group is dropped when fusion would move an eval across the
        single-pass scan boundary relative to today's schedule:

        * an external writer of a member trigger net sits inside
          ``[member, rep)`` — its mark would flip from "next settle" to
          "this settle"; or
        * an external node reader of a member output does not resolve
          above the representative — the member's change mark would
          land behind the scan and defer a settle.
        """
        n = len(self.model.nodes)
        self.fuse_rep: Dict[int, int] = {}
        self.fuse_groups: Dict[int, List[int]] = {}
        fusable = [i for i in range(n)
                   if self.kinds[i] in ("conc", "fifo")
                   and self.node_reads[i]]
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        by_net: Dict[int, List[int]] = {}
        for i in fusable:
            for net in self.node_reads[i]:
                by_net.setdefault(net, []).append(i)
        for members in by_net.values():
            head = find(members[0])
            for other in members[1:]:
                ro = find(other)
                if ro != head:
                    if ro < head:
                        head, ro = ro, head
                    parent[ro] = head
        groups: Dict[int, List[int]] = {}
        for i in fusable:
            groups.setdefault(find(i), []).append(i)
        cand = {max(g): sorted(g) for g in groups.values()
                if len(g) > 1}

        writer_ix: Dict[int, List[int]] = {}
        for i, node in enumerate(self.model.nodes):
            for net in node.writes:
                writer_ix.setdefault(net, []).append(i)

        changed = True
        while changed:
            changed = False
            rep_of = {m: rep for rep, g in cand.items() for m in g}
            for rep, g in list(cand.items()):
                gset = set(g)
                ok = True
                for m in g:
                    for net in self.node_reads[m]:
                        for w in writer_ix.get(net, ()):
                            if w in gset:
                                continue
                            if (w < m) != (w < rep):
                                ok = False
                    for net in self.model.nodes[m].writes:
                        for r in self.readers_nodes.get(net, ()):
                            if r in gset:
                                continue
                            if rep_of.get(r, r) <= rep:
                                ok = False
                if not ok:
                    del cand[rep]
                    changed = True

        self.fuse_groups = cand
        for rep, g in cand.items():
            for m in g:
                self.fuse_rep[m] = rep
        if not self.fuse_rep:
            return
        for net, lst in self.readers_nodes.items():
            seen: Set[int] = set()
            remapped = []
            for i in lst:
                j = self.fuse_rep.get(i, i)
                if j not in seen:
                    seen.add(j)
                    remapped.append(j)
            self.readers_nodes[net] = sorted(remapped)

    def emit_node_fns(self) -> List[str]:
        model = self.model
        out: List[str] = []
        self.prim_ids: List[int] = []
        self.prim_labels: List[str] = []
        for i, node in enumerate(model.nodes):
            kind = self.kinds[i]
            rep = self.fuse_rep.get(i, i)
            out.append(f"def _e{i}(V, NQ, PEND, PQ, PRIMS, ACT):")
            if rep != i:
                out.append(f"    pass  # fused into _e{rep}")
                out.append("")
                continue
            members = self.fuse_groups.get(i, [i])
            for m in members:
                mk = self.kinds[m]
                mn = model.nodes[m]
                out.append(f"    # [{mk} r{model.node_ranks[m]}] "
                           f"{mn.label}")
                if mk == "prim":
                    out.extend(self._emit_prim(m, mn))
                elif mk == "conc":
                    target, src, width, k = self.node_exprs[m]
                    out.extend(self.write_lines(target, src, width, k,
                                                "    "))
                elif mk == "fifo":
                    out.extend(self._emit_fifo(mn))
                else:  # tie
                    for ref in mn.idle:
                        out.extend(self.write_lines(ref, "0", 0, "i",
                                                    "    "))
            out.append("")
        return out

    def _emit_prim(self, i: int, node: CombNode) -> List[str]:
        pi = len(self.prim_ids)
        self.prim_ids.append(i)
        self.prim_labels.append(node.label)
        out = [f"    if {self.test_src(node.gate)}:",
               f"        ACT[{pi}] += 1"]
        snaps = []
        for nets, marks in self._commit_groups(sorted(node.writes),
                                               "            "):
            if marks:
                names = [self._fresh("s") for _ in nets]
                snaps.append((nets, names, marks))
                out.extend(f"        {s} = V[{n}]"
                           for n, s in zip(nets, names))
        out.extend(_indent(self._port_lines(pi, i, node), "        "))
        for nets, names, marks in snaps:
            cond = " or ".join(f"V[{n}] != {s}" for n, s in zip(nets, names))
            out.append(f"        if {cond}:")
            out.extend(marks)
        # stay live: side effects must re-run while the gate holds (the
        # settle scan already moved past this index, so the mark lands
        # in the next settle)
        out.append(f"        NQ[{i}] = 1")
        out.append("    else:")
        idle = node.idle or []
        if not idle:
            out.append("        pass")
        for ref in idle:
            out.extend(self.write_lines(ref, "0", 0, "i", "        "))
        return out

    # -- generated ports -----------------------------------------------------

    def bound(self, what: str, node_id: int, fd: Optional[int] = None) -> str:
        """Source of a per-simulator binding: ``PRIMS[k]`` past the
        primitives' own callables. ``what`` is the map of ``fd``
        (``map``, its ``storage`` or its ``find`` core), or the run's
        ``counts`` (``RtlContext.op_counts``) or ``context``;
        ``CompiledRtlSimulator`` binds ``_BIND`` from ``node_id``'s
        block, so the module text names no ``MapSet``."""
        key = (what, fd)
        k = self.bind_ix.get(key)
        if k is None:
            k = self.bind_ix[key] = self.n_prims + len(self.binds)
            self.binds.append((what, node_id))
        return f"PRIMS[{k}]"

    def _field(self, ref: Ref, width: Optional[int] = None) -> str:
        """A port read, narrowed to its low ``width`` bits."""
        mask = ref.mask if width is None else ref.mask & ((1 << width) - 1)
        if ref.low == 0 and mask == (1 << self.model.net_widths[ref.net]) - 1:
            return f"V[{ref.net}]"
        if ref.low == 0:
            return f"(V[{ref.net}] & {_hx(mask)})"
        return f"(V[{ref.net}] >> {ref.low} & {_hx(mask)})"

    def _store(self, ref: Ref, src: str) -> str:
        """A port drive, unmarked (the snapshots mark), like ``Ref.set``;
        a decimal literal is shifted and masked here."""
        n = ref.net
        nw = self.model.net_widths[n]
        keep = _hx(((1 << nw) - 1) ^ (ref.mask << ref.low))
        if src.isdigit():
            val = (int(src) & ref.mask) << ref.low
            if ref.width == nw:
                return f"V[{n}] = {_hx(val)}"
            return f"V[{n}] = V[{n}] & {keep}" + (f" | {_hx(val)}"
                                                  if val else "")
        shifted = _masked(src, ref.mask)
        if ref.width == nw:
            return f"V[{n}] = {shifted}"
        if ref.low:
            shifted = f"({shifted} << {ref.low})"
        return f"V[{n}] = V[{n}] & {keep} | {shifted}"

    def _count(self, kind: str, node_id: int) -> List[str]:
        """``RtlContext.count_op`` inline, of the source ``kind``."""
        return [f"_oc = {self.bound('counts', node_id)}",
                f"_oc[{kind}] = _oc.get({kind}, 0) + 1"]

    def _port_lines(self, pi: int, i: int, node: CombNode) -> List[str]:
        """The live body of gated primitive ``pi`` (node ``i``): its
        common requests generated, the rest ``PRIMS[pi](V)``, the
        reference model in ``rtl/primitives.py``, which also owns every
        out-of-range address and every error."""
        ref = [f"PRIMS[{pi}](V)"]
        if node.prim is None:
            return ref
        block, port, c = node.prim
        if port == "channel":
            return self._channel_lines(i, block, c, ref)
        if port == "atomic":
            return self._atomic_lines(i, block, ref)
        if (block.helper_id == _REDIRECT_HELPER
                and "frame_o" not in block.ports):
            # bpf_redirect: the helper's own two steps on the shadow
            p = block.ports
            return ([f"_sh = {self.bound('context', i)}.packet",
                     "if _sh is None:"] + _indent(ref, "    ")
                    + ["else:"] + _indent(
                        self._count(f'"helper:{block.spec.name}"', i)
                        + [f"_sh.redirect_ifindex = "
                           f"{self._field(p['r1'], 32)}",
                           self._store(p["rsp"], str(_REDIRECT))], "    "))
        return ref

    def _window(self, i: int, block, addr: str, size: str) -> List[str]:
        """``_o``: the offset of ``addr`` in map ``block.fd``'s window,
        and the test that its ``size`` bytes lie in the bound storage
        ``_st`` (what ``MapBlock._decode_addr`` accepts)."""
        base = _hx(AddressSpace.map_value_addr(block.fd, 0))
        return [f"_o = {addr} - {base}",
                f"_z = {size}",
                f"_st = {self.bound('storage', i, block.fd)}",
                f"if 0 <= _o < {_hx(AddressSpace.MAP_WINDOW)} "
                "and _o + _z <= len(_st):"]

    def _channel_lines(self, i: int, block, c: int,
                       ref: List[str]) -> List[str]:
        """One map channel (``MapBlock._channel``): a LOAD or STORE in
        the map's window is a slice of its storage, a LOOKUP its
        ``_find`` core plus the value address, an UPDATE, DELETE or
        REDIRECT_MAP ``helpers.channel_step`` on the bound map."""
        p = {f: block.ports[f"ch{c}_{f}"] for f, _d, _w in MAP_CHANNEL}
        fd, ks, vs = block.fd, block.key_bytes, block.value_bytes
        rd, ob = p["rdata"], p["oob"]
        key = f'{self._field(p["key"], 8 * ks)}.to_bytes({ks}, "little")'
        base = _hx(AddressSpace.map_value_addr(fd, 0))
        load = self._window(i, block, self._field(p["addr"]), "_op >> 4")
        load += _indent(self._count('"load"', i) + [
            self._store(rd, 'int.from_bytes(_st[_o:_o + _z], "little")'),
            self._store(ob, "0")], "    ")
        store = self._window(i, block, self._field(p["addr"]), "_op >> 4")
        store += _indent(self._count('"store"', i) + [
            f"_st[_o:_o + _z] = ({self._field(p['wdata'])} "
            '& ((1 << (_z << 3)) - 1)).to_bytes(_z, "little")',
            self._store(rd, "0"), self._store(ob, "0")], "    ")
        value = (f'{self._field(p["wdata"], 8 * vs)}.to_bytes({vs}, '
                 f'"little") if _cd == {CH_OP_UPDATE} else None')
        step = ["_nm = _CH_OP_NAMES[_cd]"] + self._count("_nm", i) + [
            f"_r, _sl, _if = channel_step(_CH_OP_HELPER[_cd], {fd}, "
            f"{self.bound('map', i, fd)}, {key}, {value}, "
            f"{self._field(p['addr'])})",
            "if _if is not None:",
            f"    _sh = {self.bound('context', i)}.packet",
            "    if _sh is not None:",
            "        _sh.redirect_ifindex = _if",
            self._store(rd, "_r"), self._store(ob, "0")]
        return ([f"_op = {self._field(p['op'])}",
                 "_cd = _op & 15",
                 f"if _cd == {CH_OP_LOAD}:"]
                + _indent(load + ["else:"] + _indent(ref, "    "), "    ")
                + [f"elif _cd == {CH_OP_LOOKUP}:"]
                + _indent(self._count('"lookup"', i) + [
                    f"_sl = {self.bound('find', i, fd)}({key})",
                    self._store(rd, f"0 if _sl is None else {base} + "
                                    f"_sl * {vs}"),
                    self._store(ob, "0")], "    ")
                + [f"elif _cd == {CH_OP_STORE}:"]
                + _indent(store + ["else:"] + _indent(ref, "    "), "    ")
                + [f"elif _cd in _CH_OP_HELPER:"] + _indent(step, "    ")
                + ["else:"] + _indent(ref, "    "))

    def _atomic_lines(self, i: int, block, ref: List[str]) -> List[str]:
        """The atomic port (``MapBlock._atomic``): in the map's window,
        ``atomic_step`` on a slice of its storage; an op it refuses
        goes to the reference, which says so."""
        p = {f: block.ports[f"at_{f}"] for f, _d, _w in ATOMIC_PORT}
        body = [
            "_old = int.from_bytes(_st[_o:_o + _z], \"little\")",
            "try:",
            f"    _new = atomic_step({self._field(p['op'])}, _old, "
            f"{self._field(p['wdata'])}, {self._field(p['expected'])}, "
            "(1 << (_z << 3)) - 1)",
            "except VmError:",
            *_indent(ref, "    "),
            "else:",
            *_indent(self._count('"atomic"', i) + [
                '_st[_o:_o + _z] = _new.to_bytes(_z, "little")',
                self._store(p["old"], "_old"),
                self._store(p["oob"], "0")], "    "),
        ]
        return (self._window(i, block, self._field(p["addr"]),
                             self._field(p["size"]))
                + _indent(body, "    ") + ["else:"] + _indent(ref, "    "))

    def _emit_fifo(self, node: CombNode) -> List[str]:
        p = node.ports
        comp = _SrcCompiler(self.model.net_widths, {})
        wr_data = comp.read_src(p["wr_data"])
        wr_en = comp.read_src(p["wr_en"])
        out = []
        out.extend(self.write_lines(p["rd_data"], wr_data,
                                    p["wr_data"].width, "u", "    "))
        out.extend(self.write_lines(p["empty"],
                                    f"(0 if {wr_en} else 1)", 0, "i",
                                    "    "))
        out.extend(self.write_lines(p["full"], "0", 0, "i", "    "))
        return out

    def _commit_groups(self, writes: List[int], ind: str = "        "
                       ) -> List[Tuple[List[int], Tuple[str, ...]]]:
        """Write nets grouped by identical mark targets: one change
        test (an or-chain) and one mark block per distinct reader set,
        instead of re-guarding the same PQ slot once per net."""
        order: List[Tuple[str, ...]] = []
        nets: Dict[Tuple[str, ...], List[int]] = {}
        for net in writes:
            key = tuple(self.mark_lines(net, ind))
            if key not in nets:
                nets[key] = []
                order.append(key)
            nets[key].append(net)
        return [(nets[key], key) for key in order]

    def emit_proc_fns(self) -> List[str]:
        out: List[str] = []
        for pi, (writes, lines) in enumerate(zip(self.proc_writes,
                                                 self.proc_lines)):
            # Fused evaluate+commit: run in commit order, so every
            # process still reads the pre-edge value of any net it reads
            out.append(f"def _f{pi}(V, NQ, PEND, PQ):")
            for net in writes:
                out.append(f"    t{net} = V[{net}]")
            out.extend(lines or ["    pass"])
            for gnets, marks in self._commit_groups(writes):
                if marks:
                    cond = " or ".join(f"V[{n}] != t{n}" for n in gnets)
                    out.append(f"    if {cond}:")
                    for n in gnets:
                        out.append(f"        V[{n}] = t{n}")
                    out.extend(marks)
                else:
                    for n in gnets:
                        out.append(f"    V[{n}] = t{n}")
            out.append("")
        return out

    # -- assembly ------------------------------------------------------------

    def commit_order(self) -> List[int]:
        """Each process's rank in the static commit order.

        A fused body commits as it runs, so process j must run before
        process k whenever j reads a net k writes. A design whose order
        has a cycle (two processes swapping registers) is refused. Kahn
        with index tie-break keeps the emitted order deterministic."""
        n_procs = len(self.model.procs)
        succ: List[List[int]] = [[] for _ in range(n_procs)]
        indeg = [0] * n_procs
        for j in range(n_procs):
            rj = self.proc_reads[j]
            for k in range(n_procs):
                if j != k and rj.intersection(self.proc_writes[k]):
                    succ[j].append(k)
                    indeg[k] += 1
        topo: List[int] = []
        ready = sorted(p for p in range(n_procs) if not indeg[p])
        while ready:
            j = ready.pop(0)
            topo.append(j)
            fresh = []
            for k in succ[j]:
                indeg[k] -= 1
                if not indeg[k]:
                    fresh.append(k)
            if fresh:
                ready = sorted(ready + fresh)
        stuck = set(range(n_procs)).difference(topo)
        if stuck:
            # name the cycle, not what merely sits downstream of it
            tail = {j for j in stuck if not stuck.intersection(succ[j])}
            while tail:
                stuck -= tail
                tail = {j for j in stuck if not stuck.intersection(succ[j])}
            names = ", ".join(self.model.procs[j].label
                              for j in sorted(stuck))
            raise RtlCodegenError(
                f"commit order has a cycle through processes {names}; "
                "not schedulable")
        prio = [0] * n_procs
        for rank, j in enumerate(topo):
            prio[j] = rank
        return prio

    def stream_ports(self) -> List[Ref]:
        """The AXI-stream ports ``_run`` samples and ``_frame`` drives;
        a design without them is refused."""
        names = ("m_axis_tvalid", "s_axis_tvalid", "s_axis_tlast",
                 "s_axis_tdata", "s_axis_tlen")
        scope = self.model.top_scope
        missing = [p for p in names if scope.get(p) is None]
        if missing:
            raise RtlCodegenError(
                f"top has no {', '.join(missing)} port; not schedulable")
        return [scope[p] for p in names]

    def build(self) -> str:
        self.compile_nodes_pass1()
        self.compile_procs_pass1()
        prio = self.commit_order()
        mv, sv, sl, sd, sn = self.stream_ports()
        self.build_reader_maps()
        self.compute_fusion()
        node_fns = self.emit_node_fns()
        proc_fns = self.emit_proc_fns()
        model = self.model
        n_nodes, n_procs = len(model.nodes), len(model.procs)
        head = [
            '"""Generated RTL evaluation schedule for '
            f'{self.name!r}.',
            "",
            f"RTL_CODEGEN_VERSION = {RTL_CODEGEN_VERSION}; regenerated "
            "whenever the netlist or the",
            "generator changes (repro.rtl.codegen). Event-driven: the "
            "dirty bytearray NQ",
            "doubles as the queue — levelized indices mean marks always "
            "land ahead of the",
            "scan, so settle is a single NQ.find(1) sweep; gated "
            "primitives stay live",
            "while requested by re-marking their own slot.",
            f"nodes={n_nodes} procs={n_procs} "
            f"nets={len(model.net_widths)} "
            f"ranks={max(model.node_ranks) + 1 if model.node_ranks else 0} "
            f"fused={sum(len(g) for g in self.fuse_groups.values())}"
            f"->{len(self.fuse_groups)}",
            '"""',
            "",
        ]

        def table(name: str, items: List[str]) -> str:
            return (f"{name} = (" + ", ".join(items)
                    + ("," if len(items) == 1 else "") + ")")

        tables = [
            table("_EVAL", [f"_e{i}" for i in range(n_nodes)]),
            table("_PFUSED", [f"_f{i}" for i in range(n_procs)]),
            "_READERS = {",
        ]
        for net in sorted(set(self.readers_nodes)
                          | set(self.readers_procs)):
            nodes = tuple(self.readers_nodes.get(net, ()))
            procs = tuple(self.readers_procs.get(net, ()))
            tables.append(f"    {net}: ({nodes!r}, {procs!r}),")
        tables.append("}")
        tables.append(table("_PRIO", [str(r) for r in prio]))

        def settle_block(ind: str) -> List[str]:
            return [
                f"{ind}pos = find(1)",
                f"{ind}while pos >= 0:",
                f"{ind}    NQ[pos] = 0",
                f"{ind}    ev[pos](V, NQ, PEND, PQ, PRIMS, ACT)",
                f"{ind}    nc += 1",
                f"{ind}    pos = find(1, pos + 1)",
            ]

        def edge_block(ind: str) -> List[str]:
            # pending processes run fused, in commit order
            return [
                f"{ind}n = len(PEND)",
                f"{ind}if n == 1:",
                f"{ind}    pr += 1",
                f"{ind}    k = PEND.pop()",
                f"{ind}    PQ[k] = 0",
                f"{ind}    pu[k](V, NQ, PEND, PQ)",
                f"{ind}elif n == 2:",
                f"{ind}    pr += 2",
                f"{ind}    b = PEND.pop()",
                f"{ind}    a = PEND.pop()",
                f"{ind}    if prio[a] > prio[b]:",
                f"{ind}        a, b = b, a",
                f"{ind}    PQ[a] = 0",
                f"{ind}    PQ[b] = 0",
                f"{ind}    pu[a](V, NQ, PEND, PQ)",
                f"{ind}    pu[b](V, NQ, PEND, PQ)",
                f"{ind}elif n:",
                f"{ind}    pr += n",
                f"{ind}    cur = sorted(PEND, key=prio.__getitem__)",
                f"{ind}    for k in cur:",
                f"{ind}        PQ[k] = 0",
                f"{ind}    del PEND[:]",
                f"{ind}    for k in cur:",
                f"{ind}        pu[k](V, NQ, PEND, PQ)",
            ]

        tables.extend([
            "",
            "def _mark(net, NQ, PEND, PQ):",
            "    e = _READERS.get(net)",
            "    if e is None:",
            "        return",
            "    for k in e[0]:",
            "        NQ[k] = 1",
            "    for p in e[1]:",
            "        if not PQ[p]:",
            "            PQ[p] = 1",
            "            PEND.append(p)",
            "",
            "def _settle(V, NQ, PEND, PQ, PRIMS, ACT, ev=_EVAL):",
            "    nc = 0",
            "    find = NQ.find",
            *settle_block("    "),
            "    return nc",
            "",
            "def _edge(V, NQ, PEND, PQ, pu=_PFUSED, prio=_PRIO):",
            "    pr = 0",
            *edge_block("    "),
            "    return pr",
            "",
            "def _run(V, NQ, PEND, PQ, PRIMS, ACT, limit,",
            "         ev=_EVAL, pu=_PFUSED, prio=_PRIO):",
            "    # Fused cycles: settle, stop on m_axis_tvalid (edge",
            "    # still pending for that cycle), else clock edge.",
            "    nc = 0",
            "    pr = 0",
            "    find = NQ.find",
            "    for done in range(limit):",
            *settle_block("        "),
            f"        if {self.test_src(mv)}:",
            "            return (done, 1, nc, pr)",
            *edge_block("        "),
            "    return (limit, 0, nc, pr)",
            "",
            "def _frame(V, NQ, PEND, PQ, PRIMS, ACT, span, data, tlen):",
            "    # Inject one s_axis beat (marks inlined per port), run the",
            "    # inject cycle, drop tvalid, run the rest of the window.",
            *self.write_lines(sv, "1", 0, "i", "    "),
            *self.write_lines(sl, "1", 0, "i", "    "),
            *self.write_lines(sd, "data", sd.width, "u", "    "),
            *self.write_lines(sn, "tlen", sn.width, "u", "    "),
            "    done, hit, nc, pr = _run(V, NQ, PEND, PQ, PRIMS, ACT, 1)",
            "    if hit:",
            "        return (0, 1, nc, pr)",
            *self.write_lines(sv, "0", 0, "i", "    "),
            "    done, hit, nc2, pr2 = _run(V, NQ, PEND, PQ, PRIMS, ACT,",
            "                               span - 1)",
            "    return (done + 1, hit, nc + nc2, pr + pr2)",
            "",
            f"_GEN_VERSION = {RTL_CODEGEN_VERSION}",
            f"_N_NODES = {n_nodes}",
            f"_N_PROCS = {n_procs}",
            f"_PRIM_NODE_IDS = {tuple(self.prim_ids)!r}",
            f"_PRIM_LABELS = {tuple(self.prim_labels)!r}",
            f"_BIND = {tuple(self.binds)!r}",
            "",
        ])
        body = "\n".join(node_fns + proc_fns)
        used = [name for name in sorted(_HELPERS) if name in body]
        imports = [f"from {__name__} import {', '.join(used)}", ""] \
            if used else []
        text = "\n".join(head + imports + [body] + tables)
        return re.sub(r"\n{3,}", "\n\n", text) + "\n"


def generate_rtl_source(model: Elaborated, name: str = "design") -> str:
    """Emit the compiled schedule module source for ``model``."""
    return _Builder(model, name).build()


def read_guards(model: Elaborated) -> Dict[Tuple[int, str], str]:
    """The process reads whose changes wake their process only under a
    guard (``_Builder.proc_guard``): ``(process index, net name)`` to the
    guard's net name."""
    builder = _Builder(model, "design")
    builder.compile_nodes_pass1()
    builder.compile_procs_pass1()
    names = model.net_names
    out = {}
    for p, reads in enumerate(builder.proc_reads):
        for net in sorted(reads):
            g = builder.proc_guard(p, net)
            if g is not None:
                out[(p, names[net])] = names[g.net]
    return out


def schedule_digest(vhdl_text: str) -> str:
    """Digest keying the generated schedule: the design text plus the
    generator version (stale artifacts never load)."""
    h = hashlib.sha256()
    h.update(f"ehdl-rtl-codegen-v{RTL_CODEGEN_VERSION}\n".encode())
    h.update(vhdl_text.encode())
    return h.hexdigest()


#: CompileCache artifact kind for persisted schedule sources.
ARTIFACT_KIND = "rtlsched"


def load_rtl_module(model: Elaborated, vhdl_text: Optional[str],
                    name: str = "design", cache=None) -> dict:
    """Compile (or fetch) the schedule module for ``model``.

    In-process results are memoized by design digest; when a
    :class:`~repro.core.cache.CompileCache` is supplied the generated
    source is also persisted as a side artifact so later processes skip
    generation entirely.
    """
    digest = schedule_digest(vhdl_text) if vhdl_text is not None else None
    if digest is not None:
        cached = _MODULE_CACHE.get(digest)
        if cached is not None:
            return cached
    source = None
    if digest is not None and cache is not None:
        source = cache.get_artifact(digest, ARTIFACT_KIND)
        if source is not None:
            ns = _exec_module(source, name, digest)
            if ns is not None \
                    and ns.get("_GEN_VERSION") == RTL_CODEGEN_VERSION \
                    and ns.get("_N_NODES") == len(model.nodes) \
                    and ns.get("_N_PROCS") == len(model.procs):
                _MODULE_CACHE[digest] = ns
                return ns
            source = None  # corrupt/stale artifact: regenerate
    source = generate_rtl_source(model, name)
    if digest is not None and cache is not None:
        cache.put_artifact(digest, ARTIFACT_KIND, source)
    ns = _exec_module(source, name, digest)
    if ns is None:  # pragma: no cover - generator emits valid source
        raise RtlCodegenError(
            f"generated schedule for {name!r} failed to compile")
    if digest is not None:
        _MODULE_CACHE[digest] = ns
    return ns


def _exec_module(source: str, name: str,
                 digest: Optional[str]) -> Optional[dict]:
    tag = digest[:12] if digest else "nodigest"
    try:
        code = compile(source, f"<ehdl-rtl-sched:{name}:{tag}>", "exec")
        ns: dict = {"__name__": f"ehdl_rtl_sched_{tag}"}
        exec(code, ns)  # noqa: S102 - self-generated source
        return ns
    except SyntaxError:
        return None


def write_debug_source(source: str, directory, name: str) -> Path:
    """Drop the generated schedule source next to a failing run (CI
    uploads the directory as an artifact)."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    out = path / f"{name}_rtl_schedule.py"
    out.write_text(source, encoding="utf-8")
    return out
