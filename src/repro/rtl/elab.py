"""Elaborate a parsed design into a flat netlist of compiled closures.

The entity hierarchy (top → stages / map blocks / helper blocks / FIFOs)
is flattened: ports alias the parent's nets (slice actuals become
bit-offset references), architecture signals allocate fresh nets, and
every concurrent assignment compiles into a closure over a shared value
table. Behavioural architectures (empty bodies) are bound to simulation
primitives supplied by a factory.

Combinational nodes are topologically ordered at elaboration time, so
the simulator evaluates each exactly once per cycle — which also lets
effectful primitives (map blocks mutate the shared ``MapSet``) commit in
deterministic program order. A combinational cycle is an elaboration
error naming the nets involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from .ast import (
    Architecture,
    Bin,
    Call,
    ConcAssign,
    DesignFile,
    EntityDecl,
    IfStmt,
    Index,
    Instance,
    Lit,
    NameRef,
    OthersZero,
    Process,
    SeqAssign,
    SliceRef,
    Un,
    WhenElse,
)
from .errors import RtlElabError


@dataclass(frozen=True)
class Ref:
    """A bit range of one net: the unit of reading and writing."""

    net: int
    low: int
    width: int

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    def get(self, values: List[int]) -> int:
        return (values[self.net] >> self.low) & self.mask

    def set(self, values: List[int], value: int) -> None:
        keep = values[self.net] & ~(self.mask << self.low)
        values[self.net] = keep | ((value & self.mask) << self.low)

    def sub(self, low: int, width: int) -> "Ref":
        return Ref(self.net, self.low + low, width)


@dataclass
class CombNode:
    """One combinational evaluation step."""

    fn: Callable[[List[int]], None]
    reads: Set[int]
    writes: Set[int]
    label: str = ""
    after: Optional["CombNode"] = None  # explicit ordering edge
    # Metadata retained for the compiled scheduler (rtl/codegen.py).
    # Pure assignments keep their AST + name scope; primitives declare
    # how they are gated instead (evaluate while ``gate`` reads 1, zero
    # the ``idle`` refs otherwise) or, for pure wire models, their port
    # refs so the scheduler can re-derive the wire equations.
    stmt: object = None
    scope: Optional[Dict[str, "Ref"]] = None
    where: str = ""
    gate: Optional["Ref"] = None
    idle: Optional[List["Ref"]] = None
    ports: Optional[Dict[str, "Ref"]] = None
    # A gated primitive's block and which of its ports this node models
    # ("channel" with its index, "atomic", "helper"), so the scheduler
    # can generate the port's common requests.
    prim: Optional[Tuple[object, str, int]] = None


@dataclass
class ClockedProcess:
    fn: Callable[[List[int], Dict[int, int]], None]
    label: str = ""
    # Retained for the compiled scheduler: statement list + name scope.
    body: object = None
    scope: Optional[Dict[str, "Ref"]] = None
    where: str = ""


class Elaborated:
    """Flat simulation model: nets, ordered comb nodes, clocked procs."""

    def __init__(self) -> None:
        self.net_widths: List[int] = []
        self.net_names: List[str] = []
        self.top_scope: Dict[str, Ref] = {}
        self.nodes: List[CombNode] = []
        # Longest-path level of each node, aligned with ``nodes`` (filled
        # by ``_order_nodes``; the compiled scheduler keys on it).
        self.node_ranks: List[int] = []
        self.procs: List[ClockedProcess] = []
        self.primitives: List[object] = []
        self.top_entity: Optional[EntityDecl] = None

    def new_net(self, name: str, width: int) -> Ref:
        idx = len(self.net_widths)
        self.net_widths.append(width)
        self.net_names.append(name)
        return Ref(idx, 0, width)


def _sign(value: int, width: int) -> int:
    if width and value & (1 << (width - 1)):
        return value - (1 << width)
    return value


# -- expression compilation --------------------------------------------------

#: compiled expression: (closure over values, bit width, kind)
#: kind: 'u' unsigned/slv bits, 's' signed bits, 'i' integer, 'b' boolean
_C = Tuple[Callable[[List[int]], int], int, str]


class _Compiler:
    def __init__(self, model: Elaborated, scope: Dict[str, Ref],
                 where: str) -> None:
        self.model = model
        self.scope = scope
        self.where = where
        self.reads: Set[int] = set()

    def err(self, message: str) -> RtlElabError:
        return RtlElabError(f"{self.where}: {message}")

    def ref_of(self, target) -> Ref:
        if isinstance(target, NameRef):
            name = target.name
        else:
            name = target.name
        base = self.scope.get(name)
        if base is None:
            raise self.err(f"undeclared signal {name!r}")
        if isinstance(target, NameRef):
            return base
        if isinstance(target, Index):
            if not 0 <= target.index < base.width:
                raise self.err(
                    f"{name}({target.index}) out of range "
                    f"(width {base.width})"
                )
            return base.sub(target.index, 1)
        if not (0 <= target.lo <= target.hi < base.width):
            raise self.err(
                f"{name}({target.hi} downto {target.lo}) out of range "
                f"(width {base.width})"
            )
        return base.sub(target.lo, target.hi - target.lo + 1)

    def compile(self, expr, expect_width: Optional[int] = None) -> _C:
        if isinstance(expr, Lit):
            value, width, kind = expr.value, expr.width, expr.kind
            return (lambda values: value), width, kind
        if isinstance(expr, OthersZero):
            if expect_width is None:
                raise self.err("(others => '0') in a context without a "
                               "known width")
            return (lambda values: 0), expect_width, "u"
        if isinstance(expr, (NameRef, Index, SliceRef)):
            ref = self.ref_of(expr)
            self.reads.add(ref.net)
            return ref.get, ref.width, "u"
        if isinstance(expr, Call):
            return self.compile_call(expr, expect_width)
        if isinstance(expr, Un):
            return self.compile_un(expr)
        if isinstance(expr, Bin):
            return self.compile_bin(expr)
        if isinstance(expr, WhenElse):
            return self.compile_when(expr, expect_width)
        raise self.err(f"cannot compile {type(expr).__name__}")

    def compile_call(self, expr: Call, expect_width: Optional[int]) -> _C:
        fn = expr.fn
        if fn == "rising_edge":
            # processes run exactly at the clock edge
            return (lambda values: 1), 0, "b"
        if fn in ("unsigned", "std_logic_vector"):
            f, w, _k = self.compile(expr.args[0], expect_width)
            return f, w, "u"
        if fn == "signed":
            f, w, _k = self.compile(expr.args[0], expect_width)
            return f, w, "s"
        if fn == "resize":
            f, w, k = self.compile(expr.args[0])
            nw = self._const(expr.args[1])
            mask = (1 << nw) - 1
            if k == "s":
                return (lambda values: _sign(f(values), w) & mask), nw, "s"
            return (lambda values: f(values) & mask), nw, "u"
        if fn in ("to_unsigned", "to_signed"):
            f, _w, _k = self.compile(expr.args[0])
            nw = self._const(expr.args[1])
            mask = (1 << nw) - 1
            kind = "u" if fn == "to_unsigned" else "s"
            return (lambda values: f(values) & mask), nw, kind
        if fn == "to_integer":
            f, w, k = self.compile(expr.args[0])
            if k == "s":
                return (lambda values: _sign(f(values), w)), 0, "i"
            return f, 0, "i"
        if fn in ("shift_left", "shift_right"):
            f, w, k = self.compile(expr.args[0])
            amt, _aw, _ak = self.compile(expr.args[1])
            mask = (1 << w) - 1
            if fn == "shift_left":
                return (lambda values: (f(values) << amt(values)) & mask), w, k
            if k == "s":
                return (
                    lambda values: (_sign(f(values), w) >> amt(values)) & mask
                ), w, k
            return (lambda values: f(values) >> amt(values)), w, k
        if fn in ("ehdl_bswap16", "ehdl_bswap32", "ehdl_bswap64"):
            bits = int(fn[len("ehdl_bswap"):])
            f, _w, _k = self.compile(expr.args[0])

            def bswap(values, bits=bits, f=f):
                raw = f(values) & ((1 << bits) - 1)
                data = raw.to_bytes(bits // 8, "little")
                return int.from_bytes(data, "big")

            return bswap, 64, "u"
        if fn in ("ehdl_udiv", "ehdl_urem"):
            fa, wa, _ka = self.compile(expr.args[0])
            fb, _wb, _kb = self.compile(expr.args[1])
            if fn == "ehdl_udiv":
                return (
                    lambda values: (fa(values) // fb(values))
                    if fb(values) else 0
                ), wa, "u"
            return (
                lambda values: (fa(values) % fb(values))
                if fb(values) else fa(values)
            ), wa, "u"
        raise self.err(f"unknown function {fn!r}")

    def _const(self, expr) -> int:
        if isinstance(expr, Lit) and expr.kind == "i":
            return expr.value
        raise self.err("expected an integer literal")

    def compile_un(self, expr: Un) -> _C:
        f, w, k = self.compile(expr.operand)
        if expr.op != "not":
            raise self.err(f"unary {expr.op!r} unsupported")
        if k == "b":
            return (lambda values: 0 if f(values) else 1), 0, "b"
        mask = (1 << w) - 1
        return (lambda values: (~f(values)) & mask), w, k

    def compile_bin(self, expr: Bin) -> _C:
        op = expr.op
        fa, wa, ka = self.compile(expr.left)
        fb, wb, kb = self.compile(expr.right)
        if op in ("and", "or", "xor"):
            if ka == "b" and kb == "b":
                table = {
                    "and": lambda a, b: a and b,
                    "or": lambda a, b: a or b,
                    "xor": lambda a, b: a != b,
                }[op]
                return (
                    lambda values: 1 if table(fa(values), fb(values)) else 0
                ), 0, "b"
            if wa != wb:
                raise self.err(
                    f"bitwise {op} width mismatch ({wa} vs {wb})"
                )
            table = {
                "and": lambda a, b: a & b,
                "or": lambda a, b: a | b,
                "xor": lambda a, b: a ^ b,
            }[op]
            return (lambda values: table(fa(values), fb(values))), wa, ka
        if op in ("=", "/=", "<", "<=", ">", ">="):
            signed = ka == "s" or kb == "s"

            def interp(f, w, k):
                if signed and k != "i":
                    return lambda values: _sign(f(values), w)
                return f

            ia, ib = interp(fa, wa, ka), interp(fb, wb, kb)
            if ka not in ("i", "b") and kb not in ("i", "b") and wa != wb:
                raise self.err(
                    f"comparison {op} width mismatch ({wa} vs {wb})"
                )
            table = {
                "=": lambda a, b: a == b,
                "/=": lambda a, b: a != b,
                "<": lambda a, b: a < b,
                "<=": lambda a, b: a <= b,
                ">": lambda a, b: a > b,
                ">=": lambda a, b: a >= b,
            }[op]
            return (
                lambda values: 1 if table(ia(values), ib(values)) else 0
            ), 0, "b"
        if op == "&":
            width = wa + wb
            return (
                lambda values: (fa(values) << wb) | fb(values)
            ), width, "u"
        if op in ("+", "-"):
            if ka == "i":
                width, kind = wb, kb
            elif kb == "i":
                width, kind = wa, ka
            elif wa != wb:
                raise self.err(f"{op} width mismatch ({wa} vs {wb})")
            else:
                width, kind = wa, "s" if (ka == "s" or kb == "s") else "u"
            mask = (1 << width) - 1
            if kind == "s":
                ia = (lambda values: _sign(fa(values), wa)) \
                    if ka == "s" else fa
                ib = (lambda values: _sign(fb(values), wb)) \
                    if kb == "s" else fb
            else:
                ia, ib = fa, fb
            if op == "+":
                return (lambda values: (ia(values) + ib(values)) & mask), \
                    width, kind
            return (lambda values: (ia(values) - ib(values)) & mask), \
                width, kind
        if op == "*":
            width = wa + wb
            mask = (1 << width) - 1
            return (lambda values: (fa(values) * fb(values)) & mask), \
                width, "u"
        raise self.err(f"operator {op!r} unsupported")

    def compile_when(self, expr: WhenElse,
                     expect_width: Optional[int]) -> _C:
        arms = []
        width, kind = expect_width, "u"
        for value, cond in expr.arms:
            fv, wv, kv = self.compile(value, expect_width)
            fc, _wc, kc = self.compile(cond)
            if kc != "b":
                raise self.err("when-condition is not boolean")
            arms.append((fv, fc))
            if not isinstance(value, OthersZero):
                width, kind = wv, kv
        fo, wo, _ko = self.compile(expr.otherwise, width)
        if width is None:
            width = wo

        def run(values):
            for fv, fc in arms:
                if fc(values):
                    return fv(values)
            return fo(values)

        return run, width, kind


# -- statement compilation ---------------------------------------------------


def _compile_conc(model: Elaborated, scope: Dict[str, Ref],
                  stmt: ConcAssign, where: str) -> CombNode:
    comp = _Compiler(model, scope, f"{where}:{stmt.line}")
    target = comp.ref_of(stmt.target)
    fn, width, kind = comp.compile(stmt.value, expect_width=target.width)
    if width not in (0, target.width):
        raise comp.err(
            f"assignment width mismatch: target {target.width} bits, "
            f"expression {width} bits"
        )
    node_fn = lambda values, fn=fn, target=target: \
        target.set(values, fn(values))
    return CombNode(node_fn, comp.reads, {target.net},
                    label=f"{where}:{stmt.line}",
                    stmt=stmt, scope=scope, where=f"{where}:{stmt.line}")


def _compile_seq(comp: "_Compiler", body) -> Callable:
    steps = []
    for stmt in body:
        if isinstance(stmt, SeqAssign):
            target = comp.ref_of(stmt.target)
            fn, width, _kind = comp.compile(stmt.value,
                                            expect_width=target.width)
            if width not in (0, target.width):
                raise comp.err(
                    f"line {stmt.line}: sequential assignment width "
                    f"mismatch: target {target.width}, expr {width}"
                )

            def assign(values, pending, fn=fn, target=target):
                current = pending.get(target.net)
                if current is None:
                    current = values[target.net]
                keep = current & ~(target.mask << target.low)
                pending[target.net] = keep | (
                    (fn(values) & target.mask) << target.low
                )

            steps.append(assign)
        elif isinstance(stmt, IfStmt):
            branches = []
            for cond, cbody in stmt.branches:
                fc, _w, kc = comp.compile(cond)
                if kc != "b":
                    raise comp.err(f"line {stmt.line}: non-boolean if")
                branches.append((fc, _compile_seq(comp, cbody)))
            otherwise = _compile_seq(comp, stmt.otherwise)

            def run_if(values, pending, branches=branches,
                       otherwise=otherwise):
                for fc, fbody in branches:
                    if fc(values):
                        fbody(values, pending)
                        return
                otherwise(values, pending)

            steps.append(run_if)
        else:  # pragma: no cover - parser only yields the two kinds
            raise comp.err(f"unsupported statement {type(stmt).__name__}")

    def run(values, pending, steps=steps):
        for step in steps:
            step(values, pending)

    return run


# -- hierarchy ---------------------------------------------------------------


def _actual_ref(comp: _Compiler, actual) -> Ref:
    return comp.ref_of(actual)


def _elaborate_arch(model: Elaborated, design: DesignFile,
                    entity: EntityDecl, arch: Architecture,
                    scope: Dict[str, Ref], generics: Dict[str, object],
                    path: str, factory, context) -> None:
    for decl in arch.signals:
        if decl.name in scope:
            raise RtlElabError(
                f"{path}: signal {decl.name!r} collides with a port"
            )
        scope[decl.name] = model.new_net(f"{path}.{decl.name}", decl.width)
    for stmt in arch.statements:
        if isinstance(stmt, ConcAssign):
            model.nodes.append(_compile_conc(model, scope, stmt, path))
        elif isinstance(stmt, Process):
            comp = _Compiler(model, scope, f"{path}:process@{stmt.line}")
            fn = _compile_seq(comp, stmt.body)
            model.procs.append(
                ClockedProcess(fn, label=f"{path}:process@{stmt.line}",
                               body=stmt.body, scope=scope,
                               where=f"{path}:process@{stmt.line}")
            )
        elif isinstance(stmt, Instance):
            _elaborate_instance(model, design, stmt, scope, path,
                                factory, context)
        else:  # pragma: no cover
            raise RtlElabError(f"{path}: unsupported statement")


def _elaborate_instance(model: Elaborated, design: DesignFile,
                        inst: Instance, scope: Dict[str, Ref],
                        path: str, factory, context) -> None:
    child_entity = design.entities.get(inst.entity)
    if child_entity is None:
        raise RtlElabError(
            f"{path}:{inst.line}: instance {inst.label!r} references "
            f"undeclared entity {inst.entity!r}"
        )
    child_arch = design.architectures.get(inst.entity)
    if child_arch is None:
        raise RtlElabError(
            f"{path}:{inst.line}: entity {inst.entity!r} has no "
            "architecture"
        )
    generics = {g.name: g.default for g in child_entity.generics}
    for formal, value in inst.generic_map.items():
        if formal not in generics:
            raise RtlElabError(
                f"{path}:{inst.line}: unknown generic {formal!r} on "
                f"{inst.entity!r}"
            )
        generics[formal] = value
    comp = _Compiler(model, scope, f"{path}:{inst.line}")
    child_scope: Dict[str, Ref] = {}
    bound = set()
    for formal, actual in inst.port_map:
        port = child_entity.port(formal)
        if port is None:
            raise RtlElabError(
                f"{path}:{inst.line}: entity {inst.entity!r} has no "
                f"port {formal!r}"
            )
        if formal in bound:
            raise RtlElabError(
                f"{path}:{inst.line}: port {formal!r} mapped twice"
            )
        bound.add(formal)
        ref = _actual_ref(comp, actual)
        if ref.width != port.width:
            raise RtlElabError(
                f"{path}:{inst.line}: port {inst.entity}.{formal} is "
                f"{port.width} bits but the actual is {ref.width} bits"
            )
        child_scope[formal] = ref
    for port in child_entity.ports:
        if port.name not in bound:
            raise RtlElabError(
                f"{path}:{inst.line}: port {inst.entity}.{port.name} "
                "is unconnected"
            )
    child_path = f"{path}/{inst.label}"
    if child_arch.is_primitive:
        if factory is None:
            raise RtlElabError(
                f"{child_path}: behavioural entity {inst.entity!r} needs "
                "a primitive factory"
            )
        primitive = factory(child_entity, generics, child_scope, context)
        model.primitives.append(primitive)
        previous = None
        for node in primitive.nodes():
            node.after = previous
            node.label = node.label or child_path
            model.nodes.append(node)
            previous = node
    else:
        _elaborate_arch(model, design, child_entity, child_arch,
                        child_scope, generics, child_path, factory, context)


def _order_nodes(model: Elaborated) -> None:
    """Topologically order combinational nodes (Kahn); cycles are fatal."""
    nodes = model.nodes
    index = {id(n): i for i, n in enumerate(nodes)}
    readers: Dict[int, List[int]] = {}
    for i, node in enumerate(nodes):
        for net in node.reads:
            readers.setdefault(net, []).append(i)
    succs: List[Set[int]] = [set() for _ in nodes]
    indeg = [0] * len(nodes)
    for i, node in enumerate(nodes):
        for net in node.writes:
            for j in readers.get(net, ()):
                if j != i and j not in succs[i]:
                    succs[i].add(j)
                    indeg[j] += 1
        if node.after is not None:
            k = index[id(node.after)]
            if i not in succs[k]:
                succs[k].add(i)
                indeg[i] += 1
    ready = [i for i, d in enumerate(indeg) if d == 0]
    order: List[int] = []
    while ready:
        i = ready.pop()
        order.append(i)
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    if len(order) < len(nodes):
        stuck = [nodes[i].label for i, d in enumerate(indeg) if d > 0]
        raise RtlElabError(
            "combinational cycle through: " + ", ".join(stuck[:8])
        )
    # Levelize: longest-path ranks over the same edge set. A stable sort
    # of any topological order by rank is itself a topological order
    # (every edge strictly increases rank), so both the interpreting and
    # the compiled simulator share one canonical, levelized evaluation
    # order — which lets the compiled scheduler use the plain node index
    # as its priority key.
    rank = [0] * len(nodes)
    for i in order:
        for j in succs[i]:
            if rank[j] <= rank[i]:
                rank[j] = rank[i] + 1
    level_order = sorted(range(len(nodes)), key=lambda i: (rank[i], i))
    model.nodes = [nodes[i] for i in level_order]
    model.node_ranks = [rank[i] for i in level_order]


def elaborate(design: DesignFile, top: str, factory=None,
              context=None) -> Elaborated:
    """Flatten the hierarchy under entity ``top`` into an
    :class:`Elaborated` model ready for simulation."""
    entity = design.entities.get(top)
    if entity is None:
        raise RtlElabError(f"no entity named {top!r}")
    arch = design.architectures.get(top)
    if arch is None:
        raise RtlElabError(f"entity {top!r} has no architecture")
    model = Elaborated()
    model.top_entity = entity
    scope: Dict[str, Ref] = {}
    for port in entity.ports:
        scope[port.name] = model.new_net(f"top.{port.name}", port.width)
    model.top_scope = scope
    _elaborate_arch(model, design, entity, arch, scope, {}, top,
                    factory, context)
    _order_nodes(model)
    return model
