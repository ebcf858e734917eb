"""Map consistency planning (§4.1).

Maps are the only state shared between in-flight packets, so they are the
only source of hazards in the pipeline. This pass scans the assembled
stages once for map accesses, into one table per map
(:class:`~repro.core.pipeline.MapAccess`), and instantiates, per map:

* **WAR protection** (Figure 6): when a write stage precedes a read stage,
  writes are delayed in a buffer sized to the write→read distance so an
  older packet's late read still sees pre-write data — "long enough to
  enable the last pipeline stage that requests a read to actually
  perform a read on the previous value" (§4.1.1);
* **Flush Evaluation Blocks** (Figure 7): when a read stage precedes a
  write stage (the lookup-then-update pattern), a RAW hazard window of
  ``L`` stages exists; one flush block is instantiated *per write
  instruction* ("a Flush Evaluation Block for every single map write",
  §4.1.3), each squashing ``K`` stages on a hit;
* **Atomic blocks**: ``lock`` instructions on map memory execute
  read-modify-write in place at the map port and need no hazard handling
  — the global-state strategy of §4.1.2.

The resulting :class:`MapHazardPlan` objects drive both the simulator's
hazard machinery and the analytical model of Appendix A.1 (each flush
block contributes its (K, L) pair to Table 3).

This module is also the one definition of **cross-packet consistency**:
whether packets in flight together leave a map as sequential execution
of the same packets would. Each plan carries its map's class:

* ``exact`` — no other packet can observe the map: one stage touches
  it, or it is only looked up and updated by atomics that commute
  (:func:`commutes`) with every value access at another stage;
* ``windowed`` — one serialization window holds every access, so at
  most one packet that touches a map there (one of the window's
  holders, :func:`window_holders`) is between the first and the last;
* ``repaired`` — WAR buffers and flush blocks make it exact;
* ``relaxed(<why>)`` — it may differ, for one of three reasons:

  - an atomic and a value access at another stage, outside a window,
    that do not commute interleave across packets (§4.1.2);
  - an effect committed at once — an atomic or a helper update/delete —
    ahead of a live flush block on any map is repeated when the flush
    replays its packet from scratch (Appendix A.2: the hardware does not
    rewind committed writes, at the price of not repairing every stale
    read);
  - a helper write commits at once, while the WAR buffer holds value
    stores back. A write at another stage — a later one, or an earlier
    store still buffered past it — lands out of packet order with it.
    A later read meets another packet's entry, unless every packet
    writes the same one (its key, value and whether it writes at all
    depend on nothing that differs between packets).

A relaxed class (:class:`~repro.core.pipeline.MapConsistency`) names
its rule — ``ATOMICS``, ``REPLAY`` or ``HELPER_WRITE`` — and why it
applies. :func:`program_consistency` turns the classes into the
pipeline's one verdict (:class:`~repro.core.pipeline.Consistency`),
relaxed as well when ``bpf_get_prandom_u32`` draws out of packet order.
The stream path's eligibility, the differential oracle and the tests
read the classes and that verdict.
"""

from __future__ import annotations

from dataclasses import replace
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence, Set,
                    Tuple)

from ..ebpf import isa
from ..ebpf.disasm import format_instruction
from ..ebpf.helpers import HELPER_IDS_BY_NAME, REDIRECT_HELPERS, helper_spec
from ..ebpf.isa import MapSpec, Program
from ..ebpf.verifier import RegKind
from .cfg import Cfg
from .labeling import ProgramLabels, Region
from .pipeline import (ATOMIC, ATOMICS, CALL, CLASSES, EXACT, HELPER_WRITE,
                       LOAD, RELAXED, REPAIRED, REPLAY, SLOT, STORE, VALUE,
                       WINDOWED, BankKey, Consistency, FlushBlock, Forwarding,
                       MapAccess, MapConsistency, MapHazardPlan, PipeOp,
                       Pipeline, Release, Stage, commit_stages_of)

# The one helper whose result depends on the order of all packets' calls:
# every engine steps one PRNG state per draw. (The clock's reading
# depends on the cycle, not on the order of calls; it agrees with the VM
# only under the frozen clock, where it stands still.)
_PRANDOM = HELPER_IDS_BY_NAME["bpf_get_prandom_u32"]


def plan_hazards(stages: List[Stage], program: Program, cfg: Cfg,
                 labels: ProgramLabels,
                 keyed_windows: bool = False) -> Dict[int, MapHazardPlan]:
    """Build per-map hazard plans from one scan of the staged map
    accesses (``MapHazardPlan.accesses``). ``keyed_windows`` (the
    path-parallel layout) turns a plain hash map's live flush blocks
    into a keyed window where :func:`bank_key` allows one."""
    maps = program.maps
    accesses = [access for stage in stages for op in stage.ops
                if (access := _map_access(op, stage.number)) is not None]
    plans = {fd: MapHazardPlan(fd, tuple(a for a in accesses
                                         if a.map_fd == fd))
             for fd in dict.fromkeys(a.map_fd for a in accesses)}
    last, decided = block_stages(stages, cfg)

    for plan in plans.values():
        # Serialization window: LRU maps mutate recency state on every
        # lookup, so even read-only accesses from two in-flight packets
        # interleave observably (a different eviction victim later).
        # Flush blocks cannot repair that — an eviction is irreversible —
        # so when accesses span more than one stage the window is
        # interlocked: at most one packet that may touch a map there
        # between the first and last touching stage (its holders). Single-
        # stage access is already serialized by the pipeline itself.
        spec = maps.get(plan.map_fd)
        touching = plan.touching
        if len(touching) > 1 and spec is not None and spec.serialised:
            plan.serial_window = (touching[0], touching[-1])
            if spec.banks > 1:
                plan.bank_key, plan.unbanked = bank_key(accesses, stages, plan,
                                                        program)

    if keyed_windows:
        # Keyed windows: a plain hash map keeps no recency order, so the
        # key compare its flush blocks make at the write stage (§4.1.3)
        # can stall a packet at the window's entrance instead, behind an
        # in-window packet of its own key only. A map inside another
        # map's window has no live flush block, so gets no second one.
        for fd in sorted({fb.map_fd for fb in live_flush_blocks(plans)}):
            spec = maps.get(fd)
            if spec is None or spec.map_type != "hash":
                continue
            plan = plans[fd]
            plan.serial_window = (plan.touching[0], plan.touching[-1])
            plan.bank_key, plan.unbanked = bank_key(accesses, stages, plan,
                                                    program)
            if plan.bank_key is None:
                plan.serial_window = None

    windows = [p.serial_window for p in plans.values() if p.serial_window]
    live = live_flush_blocks(plans)
    varying: List[Set[int]] = []

    def varies(index: int) -> bool:
        if not varying:  # one analysis, and only when a rule asks
            varying.append(_Flow(program, cfg, labels, maps, maps,
                                 inputs_vary=True).run().varying_writes)
        return index in varying[0]

    commits = commit_stages_of(plans)
    for fd, plan in plans.items():
        plan.consistency = _classify(plan, windows, live, commits[fd],
                                     program, varies)
        if plan.serial_window is not None:
            plan.holders = window_holders(accesses, cfg, last,
                                          *plan.serial_window)
            plan.forwarding = forwarding(accesses, cfg, decided, plan,
                                         commits[fd])
    return plans


def block_stages(stages: Sequence[Stage],
                 cfg: Cfg) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Per block, the stage of its last op, and the stage where it
    decides its successor, its terminator's (a block whose terminator no
    stage runs decides none)."""
    ends = {block.terminator_index: block.block_id for block in cfg.blocks}
    ops = [(op, stage.number) for stage in stages for op in stage.ops]
    return ({op.block_id: number for op, number in ops},
            {op.block_id: number for op, number in ops
             if ends.get(op.insn_index) == op.block_id})


def in_window(windows: Sequence[Tuple[int, int]], first: int,
              last: int) -> bool:
    """Whether one serialization window holds stages ``first..last``."""
    return any(lo <= first and last <= hi for lo, hi in windows)


def window_holders(accesses: Sequence[MapAccess], cfg: Cfg,
                   last: Dict[int, int], lo: int, hi: int) -> FrozenSet[int]:
    """The blocks that hold the window ``[lo, hi]``: a block with one of
    ``accesses`` (every map's) in it, and a block whose ``last`` op is
    at or past ``lo`` with such an access among its descendants.

    A packet enables the blocks of its path as it goes, so one that has
    enabled no holder when it enters ``lo`` touches no map inside the
    window and need not wait for it. One that enables a holder later
    had enabled one already: the ancestor whose branch chose it ends at
    or past ``lo``. Counting every map, not only the windowed one, keeps
    sound what ``in_window`` discharges: only a holder runs the flush
    blocks and accesses inside the window, one at a time."""
    touching = {a.block for a in accesses if lo <= a.stage <= hi}
    reaching: Set[int] = set()  # a descendant touches a map in the window
    for bid in reversed(cfg.topo_order):
        if any(succ in touching or succ in reaching
               for succ, _kind in cfg.blocks[bid].succs):
            reaching.add(bid)
    return frozenset(touching | {bid for bid in reaching
                                 if last.get(bid, 0) >= lo})


def bank_key(accesses: Sequence[MapAccess], stages: Sequence[Stage],
             plan: MapHazardPlan,
             program: Program) -> Tuple[Optional[BankKey], str]:
    """The lane key of a map's window — a banked LRU map's bank, a plain
    hash map's key — or ``None`` and the first rule, over every map's
    ``accesses`` in stage order, that keeps it at one lane.

    Packets of two lanes touch disjoint entries and slots (and, banked,
    recency lists), so they commute inside the window, and a holder need
    wait only for holders of its own lane — when four things hold:

    * every access inside the window is to this map: the window also
      discharges the flush blocks of every other map it holds
      (:func:`in_window`), which guard against any packet, not one lane;
    * every map call there reads its key from one stack slot;
    * every store to that slot is scheduled before ``lo``, so the bytes
      a packet holds on entering the window are the key it uses there
      (and those it leaves at exit, which the stream path reads);
    * every helper update or delete of the map sits at one stage: a hash
      map's capacity is global, so a younger packet's insert must not
      overtake an older one's delete (a bank's is serialised by the
      bank's window)."""
    lo, hi = plan.serial_window
    slot: Optional[Tuple[int, int]] = None
    writes: Dict[int, str] = {}  # stage -> its first helper write
    for access in accesses:
        if not lo <= access.stage <= hi:
            continue
        op = access.op
        where = (f"b{op.block_id} {format_instruction(op.insn)} "
                 f"@{access.stage}")
        if access.map_fd != plan.map_fd:
            return None, (f"map {program.maps[access.map_fd].name} is "
                          f"accessed inside the window ({where})")
        if access.kind != CALL:
            continue
        key = (op.call.key_stack_offset, op.call.key_size)
        if key[0] is None:
            return None, f"no constant stack key ({where})"
        if slot is not None and key != slot:
            return None, (f"keys from stack[{slot[0]}:{slot[1]}] and "
                          f"stack[{key[0]}:{key[1]}] ({where})")
        slot = key
        if access.writes:
            writes.setdefault(access.stage, where)
    if slot is None:
        return None, "no map call inside the window"
    offset, size = slot
    for stage in stages[lo - 1:]:
        for op in stage.ops:
            label = op.label
            if (label is not None and label.region is Region.STACK
                    and (label.is_write or label.is_atomic)
                    and (label.offset is None
                         or (label.offset < offset + size
                             and offset < label.offset + label.size))):
                return None, (
                    f"key stack[{offset}:{size}] is written at or past "
                    f"stage {lo} (b{op.block_id} "
                    f"{format_instruction(op.insn)} @{stage.number})")
    spec = program.maps[plan.map_fd]
    why = _capacity_in_order(spec, writes)
    if why:
        return None, why
    return BankKey(plan.map_fd, offset, size,
                   spec.banks if spec.serialised else 0), ""


_COMMUTING = frozenset({isa.ATOMIC_ADD, isa.ATOMIC_AND, isa.ATOMIC_OR,
                        isa.ATOMIC_XOR})


def commutes(a: MapAccess, b: MapAccess) -> bool:
    """Whether two accesses to one lane leave it alike in either order,
    neither observing the other — the one rule the consistency classes
    and :func:`forwarding` read. Two plain atomics of one op commute: two
    ands, two ors, two xors, and two adds on the same bytes or on
    disjoint ones (an add carries out of its own bytes, so a 32-bit and
    a 64-bit add on one word do not). A fetch variant, an xchg or a
    cmpxchg commutes with nothing. Any other two commute unless one
    writes a part of the lane (``SLOT``, ``VALUE``) the other reads or
    writes."""
    if a.kind == b.kind == ATOMIC:
        x, y = a.op.label, b.op.label
        carried = None in (x.offset, y.offset) or (
            (x.offset, x.size) != (y.offset, y.size)
            and x.offset < y.offset + y.size and y.offset < x.offset + x.size)
        return a.op.insn.imm == b.op.insn.imm in _COMMUTING and not (
            carried and a.op.insn.imm == isa.ATOMIC_ADD)
    return not (a.writes & (b.reads | b.writes) or a.reads & b.writes)


def forwarding(accesses: Sequence[MapAccess], cfg: Cfg,
               decided: Dict[int, int], plan: MapHazardPlan,
               commit: int) -> Optional[Forwarding]:
    """The bypass of a window ``[lo, hi]`` whose ``accesses`` (every
    map's, each map's in stage order) all touch its own map — keyed,
    banked or one lane — or ``None``: when each holder arm releases its
    lane.

    Two packets of one lane conflict where an access of the older one at
    stage ``a`` and one of the younger at ``s`` do not commute
    (:func:`commutes`). In a keyed window a lookup only reads its key's
    slot; in a banked or one-lane window every map call reads
    and writes the lane's slot directory, since an LRU lookup writes
    recency and the lane's keys share its capacity. A younger packet
    that enters ``lo`` while the older sits at ``p`` makes its access
    ``s - lo`` cycles later, the older ``a - p``; stages run
    deepest-first, so the order holds when ``p >= lo + a - s``. A
    block's own distance is the largest ``a - s`` over its accesses (a
    value store the WAR buffer holds lands at the commit stage) and
    every access in the window — which path the younger packet takes is
    not known when it enters — capped at ``W``. A packet's distance is
    the largest over its path; it releases at that distance, or at the
    stage where it decides its arm if that is later (:func:`_release`)."""
    lo, hi = plan.serial_window
    width = hi - lo + 1
    keyed = plan.bank_key is not None and plan.bank_key.keyed
    lane = []
    for a in accesses:
        if not lo <= a.stage <= hi:
            continue
        if a.map_fd != plan.map_fd:
            return None
        if a.kind == STORE:
            a = replace(a, stage=max(a.stage, commit))
        elif a.kind == CALL and not keyed:
            a = replace(a, reads=a.reads | SLOT, writes=a.writes | SLOT)
        lane.append(a)
    own: Dict[int, int] = {}
    pair: Dict[int, str] = {}
    for a in lane:
        for b in lane:
            distance = a.stage - b.stage
            if distance > own.get(a.block, 0) and not commutes(a, b):
                own[a.block] = min(distance, width)
                pair[a.block] = (f"{_what(a)} @{a.stage} → "
                                 f"{_what(b)} @{b.stage}")
    # A block decides its successor at its terminator's stage
    # (``decided``); one whose terminator no stage runs enables none.
    succs = {bid: [succ for succ, _kind in cfg.blocks[bid].succs]
             if bid in decided else [] for bid in cfg.topo_order}
    # Per block, the largest distance of a path from it, and the block
    # that sets it.
    ahead: Dict[int, int] = {}
    setter: Dict[int, int] = {}
    for bid in reversed(cfg.topo_order):
        mine = own.get(bid, 0)
        further = max(succs[bid], key=ahead.__getitem__, default=None)
        if further is None or mine >= ahead[further]:
            ahead[bid], setter[bid] = mine, bid
        else:
            ahead[bid], setter[bid] = ahead[further], setter[further]
    release, arms = _release(cfg, plan, succs, decided, own, ahead,
                             pair, setter)
    return Forwarding(release, arms)


def _release(cfg: Cfg, plan: MapHazardPlan, succs: Dict[int, List[int]],
             decided: Dict[int, int], own: Dict[int, int],
             ahead: Dict[int, int], pair: Dict[int, str],
             setter: Dict[int, int]) -> Tuple[Release, Tuple[str, ...]]:
    """:func:`forwarding`'s release of a holder over its path's block
    flags, and the arms it names.

    Down a path, block ``b`` is enabled at stage ``e(b)``, its
    predecessor's decision (the entry block's before stage 1). While
    ``b`` is the deepest block enabled, the packet's known distance is
    ``max(d, ahead[b])``, ``d`` the largest own distance so far; so the
    holder releases at offset ``max(d_path, m)`` from ``lo``, ``m`` the
    least ``max(e(b) - lo, ahead[b])`` over the path, capped at ``W``;
    one that stops at the entry block releases at ``d``. The decision
    tests a block flag per branch, an ancestor's before a descendant's
    (a packet that took the ancestor may enable the descendant further
    down), each test with its branch, and leaves out the paths that
    hold no block of the window.

    An arm is a holder block below which every path releases alike,
    under a block where they do not: it releases after its distance
    (and the access pair that sets it), or at its decision."""
    lo, hi = plan.serial_window
    width = hi - lo + 1
    holders = plan.holders
    entry = cfg.entry.block_id
    order = {bid: k for k, bid in enumerate(cfg.topo_order)}
    branches = {bid: sorted(set(succs[bid]), key=order.__getitem__)
                for bid in succs}
    memo: Dict[Tuple[int, int, int, bool, str], Optional[Release]] = {}
    arms: Dict[str, int] = {}

    def tree(bid: int, d: int, m: int, holds: bool,
             because: str) -> Optional[Release]:
        """The release below ``bid`` (``None``: no path holds), with
        ``d``, ``m`` and ``holds`` so far; ``because`` sets ``d``."""
        key = (bid, d, m, holds, because)
        if key in memo:
            return memo[key]
        tests = []
        for succ in branches[bid]:
            mine = own.get(succ, 0)
            state = (max(d, mine), min(m, max(decided[bid] - lo, ahead[succ])),
                     holds or succ in holders,
                     pair[succ] if mine > d else because)
            then = tree(succ, *state)
            if then is not None:
                tests.append((succ, then, state))
        otherwise = (None if not holds
                     else min(max(d, m), width) if not branches[bid]
                     else d if bid == entry else None)
        chain = [(succ, then) for succ, then, _state in tests]
        if otherwise is None and chain:
            otherwise = chain.pop()[1]
        while chain and chain[-1][1] == otherwise:
            chain.pop()
        for succ, then in reversed(chain):
            otherwise = (succ, frozenset(branches[bid]), then, otherwise)
        if not isinstance(otherwise, int):
            # below a block whose paths release apart: name the arms
            for succ, then, (d_succ, _m, holds_succ, why) in tests:
                if not isinstance(then, int) or not then or not holds_succ:
                    continue
                if then == max(d_succ, ahead[succ]):
                    if ahead[succ] > d_succ:
                        why = pair[setter[succ]]
                    text = f"b{succ} after {then} ({why})"
                elif lo + then == decided[bid]:
                    text = f"b{succ} at its decision @{decided[bid]}"
                else:
                    text = f"b{succ} at stage {lo + then}"
                arms.setdefault(text, succ)
        memo[key] = otherwise
        return otherwise

    release = tree(entry, own.get(entry, 0), ahead[entry], entry in holders,
                   pair.get(entry, ""))
    if release is None:
        return width, ()
    if arms:
        return release, tuple(sorted(arms, key=lambda text: (arms[text],
                                                             text)))
    alike = release if isinstance(release, int) else 0
    because = (f" ({pair[setter[entry]]})"
               if alike and alike == ahead[entry] else "")
    return release, (f"every arm after {alike}{because}",)


def _capacity_in_order(spec: MapSpec, writes: Dict[int, str]) -> str:
    """:func:`bank_key`'s fourth rule, given the stage of each helper
    update or delete of the map (and its op): why packets of two keys
    may not share a keyed window, or ``""``. A plain hash map's capacity
    is global, so its inserts and deletes must land in packet order —
    at one stage."""
    if spec.serialised or len(writes) < 2:
        return ""
    first, last = min(writes), max(writes)
    return (f"updates and deletes at stages {first} and {last} "
            f"({writes[last]})")


def live_flush_blocks(plans: Dict[int, MapHazardPlan]) -> List[FlushBlock]:
    """The flush blocks that can fire: one inside a serialization window
    never does, one packet is in it."""
    windows = [p.serial_window for p in plans.values() if p.serial_window]
    return [fb for p in plans.values() for fb in p.flush_blocks
            if not in_window(windows, fb.read_stage, fb.write_stage)]


def _what(access: MapAccess) -> str:
    """An access as :func:`forwarding`'s arms name it."""
    return format_instruction(access.op.insn) if access.kind == CALL \
        else access.kind


def _classify(plan: MapHazardPlan, windows, live: List[FlushBlock],
              commit: int, program: Program,
              varies: Callable[[int], bool]) -> MapConsistency:
    """The map's consistency class (see the module docstring)."""
    # the effects committed at once, which no flush undoes (value stores
    # wait in the write buffers until no flush block can squash them)
    effects = [a for a in plan.accesses
               if a.kind == ATOMIC or a.kind == CALL and a.writes]
    for a in effects:
        ahead = [fb for fb in live if a.stage < fb.write_stage]
        if ahead:
            fb = ahead[0]
            return MapConsistency(RELAXED, REPLAY, (
                f"{_effect(a)} at stage {a.stage} commits ahead of "
                f"{program.maps[fb.map_fd].name}'s flush block at stage "
                f"{fb.write_stage}, A.2"))
    touching = plan.touching
    if len(touching) == 1:
        return MapConsistency(EXACT)
    if in_window(windows, touching[0], touching[-1]):
        return MapConsistency(WINDOWED)
    values = plan.value_stages
    if any(a.kind == ATOMIC and b.kind != CALL and a.stage != b.stage
           and not commutes(a, b)
           for a in plan.accesses for b in plan.accesses) and not in_window(
               windows, values[0], values[-1]):
        return MapConsistency(RELAXED, ATOMICS, (
            f"atomics at stages {values[0]}-{values[-1]} do not commute "
            "unobserved, §4.1.2"))
    writes = [a for a in effects if a.kind == CALL]
    if writes:
        first, what = writes[0].stage, _effect(writes[0])
        # a value store waits in the WAR buffer until stage ``commit``
        other = [s for s in plan.write_stages + plan.atomic_stages
                 if s > first] + [s for s in plan.store_stages
                                  if s < first < commit]
        if other:
            return MapConsistency(RELAXED, HELPER_WRITE, (
                f"{what} at stage {first} and the write at stage "
                f"{min(other)} land out of packet order"))
        later = [s for s in touching if s > first]
        if later and any(varies(a.op.insn_index) for a in writes):
            return MapConsistency(RELAXED, HELPER_WRITE, (
                f"{what} at stage {first} commits before older packets' "
                f"read at stage {later[0]}"))
    return MapConsistency(REPAIRED if plan.write_stages else EXACT)


def _effect(access: MapAccess) -> str:
    """An atomic's op or a helper write's helper, by name."""
    imm = access.op.insn.imm
    return isa.ATOMIC_OP_NAMES[imm] if access.kind == ATOMIC \
        else helper_spec(imm).name


def _map_access(op: PipeOp, stage: int) -> Optional[MapAccess]:
    """The access of ``op`` at ``stage`` to a map, or None."""
    call, label = op.call, op.label
    if call is not None and call.map_fd is not None:
        return MapAccess(stage, op, op.block_id, call.map_fd, CALL,
                         SLOT if call.is_map_read else 0,
                         SLOT | VALUE if call.is_map_write else 0)
    if label is None or label.region is not Region.MAP_VALUE:
        return None
    kind = (ATOMIC if label.is_atomic else STORE if label.is_write
            else LOAD)
    return MapAccess(stage, op, op.block_id, label.map_fd, kind,
                     0 if kind == STORE else VALUE,
                     0 if kind == LOAD else VALUE)


# -- the program-level verdict ------------------------------------------------

ACTION = "action"
PACKET_BYTES = "packet bytes"
EGRESS_PORT = "egress port"


def program_consistency(stages: List[Stage], program: Program, cfg: Cfg,
                        labels: ProgramLabels,
                        plans: Dict[int, MapHazardPlan]) -> Consistency:
    """The weakest class of ``plans`` and, for a relaxed program, every
    observable a relaxed map's contents can reach — the actions, the
    packet bytes, a redirect's egress port, and each map they flow into
    (:class:`_Flow`).

    The PRNG relaxes a program too. Packets pass one stage in order, so
    draws at one stage step the shared state in packet order. Draws at
    several stages interleave across packets in flight together, and a
    draw ahead of a live flush block is made again when the flush
    replays its packet. Every draw's result is then a source."""
    draws = sorted({stage.number for stage in stages for op in stage.ops
                    if op.insn.is_call and op.insn.imm == _PRANDOM})
    why = ""
    if len(draws) > 1:
        why = (f"bpf_get_prandom_u32 at stages {draws[0]}-{draws[-1]} "
               "draws out of packet order")
    elif draws and any(draws[0] < fb.write_stage
                       for fb in live_flush_blocks(plans)):
        why = (f"bpf_get_prandom_u32 at stage {draws[0]} draws again when "
               "a flush block replays its packet, A.2")
    kind = max((plan.consistency.kind for plan in plans.values()),
               key=CLASSES.index, default=EXACT)
    relaxed = {fd for fd, plan in plans.items()
               if plan.consistency.kind == RELAXED}
    if not (relaxed or why):
        return Consistency(kind)
    flow = _Flow(program, cfg, labels, relaxed,
                 {fd for fd in relaxed if plans[fd].write_stages},
                 prandom=bool(why)).run()
    maps = sorted(f"map {program.maps[fd].name}"
                  for fd in flow.values | flow.keys)
    exempt = tuple(sink for sink in (ACTION, PACKET_BYTES, EGRESS_PORT)
                   if sink in flow.sinks) + tuple(maps)
    if not exempt:  # the draws reach nothing observable
        return Consistency(kind)
    return Consistency(RELAXED, exempt, why)


class _Taint:
    """What is tainted at one program point: registers, stack bytes (by
    offset from R10; ``None`` after a store at an unknown offset) and the
    packet."""

    __slots__ = ("regs", "stack", "packet")

    def __init__(self) -> None:
        self.regs: Set[int] = set()
        self.stack: Set[Optional[int]] = set()
        self.packet = False

    def join(self, other: "_Taint") -> None:
        self.regs |= other.regs
        self.stack |= other.stack
        self.packet |= other.packet

    def stack_read(self, offset: Optional[int], size: int) -> bool:
        if offset is None or None in self.stack:
            return bool(self.stack)
        return any(b in self.stack for b in range(offset, offset + size))

    def set(self, reg: int, tainted: bool) -> None:
        if tainted:
            self.regs.add(reg)
        else:
            self.regs.discard(reg)


class _Flow:
    """A forward taint analysis over the program's CFG (a DAG).

    Taint flows through registers, stack bytes, the packet and maps; a
    branch on a tainted value taints everything its outcome decides —
    the blocks it reaches before its immediate post-dominator. A map is
    tainted in its ``values`` or also in its ``keys`` (which entries
    exist, and LRU recency), because a lookup observes keys only: dnat's
    burnt port changes the values it writes into ``nat`` but not which
    flows ``nat`` holds, so no verdict. Map taint crosses packets, so
    the pass repeats until no map gains a facet. ``sinks`` collects the
    tainted observables: a verdict (``action``), the packet (``packet
    bytes``), the port a redirect names (``egress port``).

    With ``prandom`` every ``bpf_get_prandom_u32`` result is a source
    too. With ``inputs_vary`` the sources are whatever differs between
    two packets — the packet, every map, every helper's result — and
    ``varying_writes`` collects the helper writes whose key, value or
    execution depends on one."""

    def __init__(self, program: Program, cfg: Cfg, labels: ProgramLabels,
                 values, keys, prandom: bool = False,
                 inputs_vary: bool = False) -> None:
        self.program, self.cfg, self.labels = program, cfg, labels
        self.values: Set[int] = set(values)
        self.keys: Set[int] = set(keys)
        self.prandom = prandom
        self.inputs_vary = inputs_vary
        self.sinks: Set[str] = set()
        self.varying_writes: Set[int] = set()
        # immediate post-dominators (None where the exits differ)
        pdom: Dict[int, Set[int]] = {}
        self.join: Dict[int, Optional[int]] = {}
        for bid in reversed(cfg.topo_order):
            succs = [succ for succ, _kind in cfg.blocks[bid].succs]
            below = set.intersection(*(pdom[s] for s in succs)) \
                if succs else set()
            pdom[bid] = {bid} | below
            self.join[bid] = next(
                (p for p in below if pdom[p] == below), None)

    def run(self) -> "_Flow":
        while True:
            size = len(self.values) + len(self.keys)
            self._pass()
            if len(self.values) + len(self.keys) == size:
                return self

    def _pass(self) -> None:
        cfg, insns = self.cfg, self.program.instructions
        out: Dict[int, _Taint] = {}
        decided: Set[int] = set()  # blocks a tainted branch decides
        for bid in cfg.topo_order:
            block = cfg.blocks[bid]
            preds = [out[p] for p in block.preds if p in out]
            if bid != cfg.entry.block_id and not preds:
                continue  # unreachable
            t = _Taint()
            t.packet = self.inputs_vary
            for pred in preds:
                t.join(pred)
            ctl = bid in decided
            for i in block.indices():
                insn = insns[i]
                label = self.labels.label_for(i)
                if insn.is_exit:
                    if ctl or isa.R0 in t.regs:
                        self.sinks.add(ACTION)
                elif insn.is_call:
                    self._call(i, insn, t, ctl)
                elif label is not None:
                    self._access(insn, label, t, ctl)
                elif not insn.is_jump:
                    tainted = ctl or any(r in t.regs
                                         for r in insn.regs_read())
                    for reg in insn.regs_written():
                        t.set(reg, tainted)
            last = insns[block.terminator_index]
            if last.is_cond_jump and any(r in t.regs
                                         for r in last.regs_read()):
                decided |= self._decided_by(bid)
            out[bid] = t

    def _decided_by(self, branch: int) -> Set[int]:
        """The blocks between ``branch`` and its immediate post-dominator."""
        blocks: Set[int] = set()
        stack = [succ for succ, _kind in self.cfg.blocks[branch].succs]
        while stack:
            bid = stack.pop()
            if bid != self.join[branch] and bid not in blocks:
                blocks.add(bid)
                stack += [succ for succ, _kind in self.cfg.blocks[bid].succs]
        return blocks

    def _access(self, insn, label, t: _Taint, ctl: bool) -> None:
        base = insn.src if insn.is_mem_load else insn.dst
        moved = base in t.regs  # another address: another slot, or a fault
        region = label.region
        if moved and region is Region.PACKET:
            self.sinks.add(ACTION)  # out of bounds drops the packet
        if region is Region.STACK:
            held = t.stack_read(label.offset, label.size)
        elif region is Region.MAP_VALUE:
            held = label.map_fd in self.values
        else:  # the packet, and the ctx's pointers into it
            held = t.packet
        if insn.is_mem_load:
            t.set(insn.dst, ctl or moved or held)
            return
        written = ctl or moved or (
            insn.opclass == isa.BPF_STX and insn.src in t.regs) or (
            insn.is_atomic and (held or (
                insn.imm == isa.ATOMIC_CMPXCHG and isa.R0 in t.regs)))
        if insn.is_atomic and insn.imm & isa.BPF_FETCH:
            fetched = isa.R0 if insn.imm == isa.ATOMIC_CMPXCHG else insn.src
            t.set(fetched, written or held)
        if region is Region.STACK and label.offset is None:
            if written:
                t.stack.add(None)
        elif region is Region.STACK:
            span = range(label.offset, label.offset + label.size)
            if written:
                t.stack.update(span)
            else:
                t.stack.difference_update(span)
        elif region is Region.MAP_VALUE and written:
            self.values.add(label.map_fd)
        elif region is Region.PACKET and written:
            t.packet = True
            self.sinks.add(PACKET_BYTES)

    def _call(self, index: int, insn, t: _Taint, ctl: bool) -> None:
        spec = helper_spec(insn.imm)
        args = range(isa.R1, isa.R1 + spec.nargs)
        tainted = ctl or any(r in t.regs for r in args)
        call = self.labels.call_for(index)
        state = self.labels.verifier.state_before(index)
        if spec.map_channel:
            fd = call.map_fd
            map_spec = self.program.maps[fd]
            key = tainted or spec.reads_stack and self._pointee(
                state.reg(isa.R2), t, call.key_stack_offset, call.key_size)
            if spec.map_write:
                value = bool(call.value_size) and self._pointee(
                    state.reg(isa.R3), t, call.value_stack_offset,
                    call.value_size)
                if key or value:
                    self.varying_writes.add(index)
                    self.values.add(fd)
                if key:
                    self.keys.add(fd)
            elif key and map_spec.serialised:
                self.keys.add(fd)  # a lookup refreshes LRU recency
            if insn.imm in REDIRECT_HELPERS and (
                    key or fd in self.values or fd in self.keys):
                self.sinks.add(EGRESS_PORT)  # the port is the entry's value
            # an array's slot depends on the key alone
            result = key or (fd in self.keys
                             and map_spec.map_type not in ("array",
                                                           "percpu_array"))
        else:
            tainted = tainted or any(self._pointee(state.reg(reg), t)
                                     for reg in args)
            if spec.writes_packet and tainted:
                t.packet = True
                self.sinks.add(PACKET_BYTES)
            if insn.imm in REDIRECT_HELPERS and tainted:
                self.sinks.add(EGRESS_PORT)
            result = tainted or self.inputs_vary or (
                self.prandom and insn.imm == _PRANDOM)
        for reg in range(isa.R1, isa.R5 + 1):
            t.regs.discard(reg)
        t.set(isa.R0, result)

    def _pointee(self, arg, t: _Taint, offset: Optional[int] = None,
                 size: int = 0) -> bool:
        """Whether what a pointer argument points at is tainted, by the
        verifier's kind of the pointer: the stack (``offset`` / ``size``
        narrow it), the packet or a map value. Anything else is not a
        pointer."""
        if arg.kind is RegKind.STACK:
            return t.stack_read(offset, size)
        if arg.kind is RegKind.PACKET:
            return t.packet
        return arg.kind is RegKind.MAP_VALUE and arg.map_fd in self.values


def _port_users(plan: MapHazardPlan) -> str:
    """Each of the plan's ports (``ch<k>``, ``at`` the atomic port) with
    the stages that drive it and, per stage, the blocks that share it."""
    users: Dict[Optional[int], Dict[int, Set[int]]] = {}
    for access, port in zip(plan.accesses, plan.ports):
        users.setdefault(port, {}).setdefault(access.stage, set()).add(
            access.block)
    return "; ".join(
        ("at" if port is None else f"ch{port}") + " " + " · ".join(
            f"s{stage} " + "|".join(f"b{b}" for b in sorted(blocks))
            for stage, blocks in users[port].items())
        for port in sorted(users, key=lambda port: (port is None, port)))


def hazard_summary(pipeline: Pipeline) -> str:
    """One line per map — its consistency class, its ports with the
    stages and blocks that share each, the (K, L) pairs Table 3 reports,
    and the serialization window with its width, the map's ops on its
    two ends (what forces its extent) and its holder blocks — then the
    program's consistency verdict."""
    lines = []
    for fd, plan in sorted(pipeline.map_hazards.items()):
        spec = pipeline.program.maps.get(fd)
        name = spec.name if spec else f"fd{fd}"
        parts = [f"map {name}: {plan.consistency}",
                 f"reads@{plan.read_stages} writes@{plan.write_stages}"]
        if plan.uses_atomic:
            parts.append(f"atomic@{plan.atomic_stages}")
        parts.append(f"ports: {_port_users(plan)}")
        if plan.war_buffer_depth:
            parts.append(f"WAR buffer depth {plan.war_buffer_depth}")
        for fb in plan.flush_blocks:
            parts.append(f"flush block L={fb.L} K={fb.K()}")
        if plan.serial_window is not None:
            # W stages between holders of one bank: the window's
            # cycles/packet when every packet holds it in that bank
            lo, hi = plan.serial_window
            held = " ".join(f"b{bid}" for bid in sorted(plan.holders))
            key = plan.bank_key
            if key is None:
                split = f" one bank: {plan.unbanked}" if plan.unbanked else ""
            else:
                lane = "keyed" if key.keyed else f"banked x{key.banks}"
                split = (f" {lane} on {name} by "
                         f"stack[{key.offset}:{key.size}]")
            ends = "; ".join(
                f"{end}: " + ", ".join(
                    f"b{a.block} {format_instruction(a.op.insn)}"
                    for a in plan.accesses if a.stage == number)
                + f" @{number}"
                for end, number in zip(("opens", "closes"), (lo, hi)))
            parts.append(f"window [{lo}, {hi}] W={hi - lo + 1}{split} "
                         f"({ends}) held by {held}")
            if plan.forwarding is not None:
                parts.append(f"forwards: {', '.join(plan.forwarding.arms)}")
        elif plan.unbanked:
            parts.append(f"flush kept: {plan.unbanked}")
        lines.append("  ".join(parts))
    lines.append(f"consistency: {pipeline.consistency}")
    return "\n".join(lines if pipeline.map_hazards else ["no maps"] + lines)
