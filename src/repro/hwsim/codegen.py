"""Source-emitting execution backend for the pipeline simulator.

The interpreted simulator decodes every
:class:`~repro.core.pipeline.PipeOp` per packet per cycle. This module
decodes once, in the spirit of the paper's own argument (compiling the
program into specialized hardware beats interpreting it on NIC cores):
each stage's op list is translated into *generated Python source* — ops
inlined as statements, widths, offsets, masks and immediates folded
into literals, predication and snapshot/flush logic emitted only for
pipelines whose hazard plans need them. The cycle itself is not
generated: :class:`~repro.hwsim.sim.PipelineSimulator`'s one loop shifts
the packets and calls these stage bodies, as it calls the interpreted
engine's.

Layout of a generated module:

* ``_s<N>`` — stage N's body with the stage-function contract
  ``fn(sim, pkt, slots, barrier_queues, input_queue, report) -> bool``,
  which the cycle loop's ``_enter`` dispatches;
* ``_entry`` — the elided-ctx-load entry ops (or ``None``);
* ``_stream`` — where :func:`stream_blocker` finds no obstacle: every
  stage fused into one per-packet body, packets run front-to-back, the
  cycle accounting (including one serialization window's stalls)
  computed arithmetically instead of simulated (laid out below);
* ``_STAGE_FNS`` / ``_ENTRY`` / ``_STREAM`` — the tuple and bindings
  :class:`~repro.hwsim.sim.PipelineSimulator` consumes — and
  ``_STREAM_SHAPE``, the emitter's one-line account of the stream body
  (``2 of 2 lookups, 1 of 1 writes folded, 0 spill sites, 6 stack
  slots, 2 of 2 value accesses by slot, 2 coalesced runs``) that
  ``engine_path()`` prints.

Every op has one rendering, whichever function it lands in. A load,
store or atomic whose verifier label proves a constant offset folds to
one statement; a dynamically addressed one (``_Emitter._access``) is a
single bounds test against the buffer of the region the verifier
labelled it with — the fast side — and on its cold side, for an address
that strays from that region or an op with no label, the interpreted
engine's own ``sim._mem_load`` / ``_mem_store`` / ``_atomic``, which
dispatch on the address. A map-channel call is one request on its map's
channel, fixed per compile (§4.1): a lookup or ``redirect_map`` names its
map through ``op.call.map_fd`` and inlines ``sim._map_channel_call``'s
steps, and so, in ``_stream``, does an update or delete whose operands
sit in static stack slices. What the two modes differ in is names and exits
(``_Emitter.stream``: ``_reg`` / ``_stack`` / ``_ctx`` / ``_packet``,
``_drop_if``, ``_fallback_call``, ``_enable_after``):

* the cycle loop (``_s<N>``) holds many packets and
  nothing else: state is ``pkt``'s fields, a map is ``sim.maps``' entry
  for the fd *as each access finds it* (nothing is cached across runs,
  so a caller may replace ``Map`` objects between them; an fd the
  ``MapSet`` lacks drops the packet), a drop is ``sim._drop(pkt)`` and
  the next op re-checks ``pkt.done``. Under a hazard plan the map fast
  side keeps the plan's bookkeeping: ``sim._map_read_bytes``
  forwarding, ``value_reads`` / ``addr_reads``, the ``_se`` side-effect
  descriptor;
* ``_stream`` holds one packet and everything that is constant for the
  run, laid out below.

Layout of ``_stream(sim, frames, gap, report, keep_records)``:

* **once per run** (the prologue): the timing model's state; one reused
  ``_InFlight`` and, bound from it, ``_c`` (its context) and — only
  where some site needs them (the spill contract) — ``stack`` and
  ``regs``; one ``_HelperContext``
  (``_hc``) for every non-map helper call of the run but
  ``bpf_redirect``, whose two steps are inlined; and per map the
  body touches ``_m<fd>`` (the map), ``_st<fd>`` (its storage),
  ``_lk<fd>`` (its lookup: the slot directory's ``get`` for a hash, the
  unchecked ``Map._find`` otherwise) and ``_up<fd>`` (its unchecked
  ``Map._update``). What is constant for the *compile* is not bound but
  folded: the fd, key and value slots and sizes of a map call come from
  ``op.call``, the map's kind, geometry and base address from the
  program's ``MapSpec`` — an array lookup is
  ``_ix = _s<K>; r0 = BASE + _ix * VS if _ix < N else 0``, an update
  ``try: _up<fd>(KEY, VALUE, r4 & 0x3); r0 = 0`` / ``except MapError:
  r0 = -1``, a delete ``r0 = 0 if _m<fd>.delete(KEY) else -1`` (the
  stream has no flush checks to want the slot ``channel_step``'s lookup
  names), where ``KEY`` and ``VALUE`` are packed from the stack atoms
  (below); the slices are the map's own sizes, which is what lets the
  cores skip the checks.
  Both rest on the run's ``MapSet`` holding exactly the maps those
  specs build, which ``PipelineSimulator.stream_blocker`` checks before
  every run (``MapSet.mismatch``) — that check is also what became of
  the per-packet unknown-fd test;
* **once per frame**: the timing head (``max_cycles``, or the window's
  queue drops and injection cycle), then the reset of what ops can observe —
  ``_b = _c.packet = frame`` (copied only if some op can write it), the
  block-enable flags ``_e<block>``, all False, the stack atoms some
  path reads before any store, 0 as the VM's zeroed stack reads (see
  *the stack atoms*), and the eBPF registers — the Python
  locals ``r0`` … ``r10`` — that a read may take before any store (r1
  the context, r10 the stack top, any other 0: see *the registers*);
  ``stack`` itself only where some site reaches it by address (and
  then every atom);
* **the registers**: the body renders a register store only where a
  read it renders takes the value. ``core.liveness.reg_liveness`` runs
  over the reads the rendering performs (``_stream_reads``), not the
  ones the ISA states: a load or store folded to a stack atom or a
  ``_b`` / ``_c`` offset reads no pointer, nor does a map-value access
  or null test that reads the pointer's shadow (*map values*), a store
  run's last member reads every member's source (*runs*), a folded map
  request reads no map or key pointer (its fd is folded, its key and
  value are stack atoms), a helper reads r1..r<nargs>
  (``HelperSpec.nargs``; it is passed 0 for the rest), a spill site the
  registers it spills, and an exit whose r0 its own block set to a
  constant reads none — that
  verdict is a local bound once per run (``_PASS = _ACTIONS[2]``). A
  store left out reads nothing either (strong liveness:
  ``reg_liveness``'s ``only_writes``), so a chain of them dies at once.
  Gone with it: the caller-saved scrub after
  a call (``r1 = r2 = r3 = r4 = r5 = 0``, which the verifier makes
  unobservable: it marks r1-r5 uninitialised after a call and rejects
  reading one), the map and key pointers of folded requests, the
  ``r6 = data`` pointer where every read of it is folded, and the
  per-frame zeroing of registers written before every read. That is
  sound by definite assignment: every local a rendered path reads is
  assigned on that path. A register read is live there; walking the
  path back, liveness carries it to the last instruction that writes
  it, whose store is then live and rendered (a call renders the
  clobbered registers still live, normally none), or to the entry,
  whose live registers each frame initialises. So a read never takes
  another frame's value or an unbound local. Arity is part of the
  rule: passing r1..r5 to a helper of fewer arguments would read
  registers no store on the path wrote;
* **the stack atoms**: as the emitted VHDL has no stack memory — the
  verifier gives every stack access a static offset, and a slot is a
  slice of the state vector — the stack bytes the body addresses
  statically are Python locals. Those ranges (constant-offset loads and
  stores, the key and value slices of folded map requests, the window's
  lane key) partition the bytes they cover into the coarsest atoms of
  which each range is a union, each cut into 1-, 2-, 4- or 8-byte
  little-endian locals ``_s<byte>`` (``_stack_atoms``). A store writes
  its atoms (shifting its value apart across several), a load ORs
  them, a key or value slice is one ``Struct.pack`` of them
  (``_pk_<format>``, bound in the prologue). A slice read more than
  once is packed into ``_sb<byte>_<size>`` and reused wherever every
  path to it packed it with no store to its atoms since — ct_firewall's
  key feeds the lookup, the update and the window's bank. A banked
  window's lane key is hashed where it is packed (``_bk =
  _bank_of(...)``) and the bank rides with it: the LRU cores take it
  (``_lk<fd>(KEY, _bk)``, ``_up<fd>(KEY, VALUE, FLAGS, _bk)``) and the
  timing reads it, one CRC a packet. Which atoms a frame zeroes is
  ``liveness.mask_liveness`` over them (``_atom_effects``): read by a
  rendered load (a load left out reads none, the strong rule of *the
  registers*), a folded request's slices and, where a packet that held
  the window leaves the body, the lane key; overwritten by a store. An
  atom every path stores before reading it is not zeroed;
* **map values**: as the VHDL wires a looked-up value as a static slice
  of the entry (§4.1), a map-value access whose label proves a constant
  in-value offset ``k`` with ``0 <= k <= VS - size`` is addressed by
  its slot: a folded lookup keeps the slot's storage offset in the
  register's *shadow*, ``_v0 = None if _sl is None else _sl * VS``
  (an array's ``_v0 = _ix * VS if _ix < N else None``), a 64-bit
  ``mov`` copies it (``_v6 = _v0``), ``±`` an immediate on a pointer
  the verifier proved non-null keeps it, and the access is
  ``_uN(_st<fd>, _v<base> + k)`` — no address, no bounds test, no cold
  side: the verifier proved the bytes in the value, and the shadow is
  the slot the lookup returned. A null test of the pointer reads its
  shadow (``if _v0 is None``), so ``r0 = BASE + …`` is rendered only
  where another read takes it. ``_stream_values`` decides it, one
  forward sweep over the program that knows, before each instruction,
  which register's shadow addresses which map (lost by any other write
  or where two paths disagree); a shadow is rendered where a read takes
  it (``_shadow_liveness``). A store before its map's commit stage
  keeps ``sim._mem_store`` (it may stay WAR-buffered), and so does an
  atomic whose fast side tests ``pkt.pending_writes``;
* **runs**: in one block, loads at constant offsets of one buffer —
  ``_b`` within the entry length checks, or one value by slot — are one
  ``unpack_from`` at the first of them (``r2, r3 = _u_II(_b, 26)``;
  ``x`` pads the gaps; ``_u_<format>`` bound in the prologue), so long
  as nothing between writes that buffer, calls a helper, reads or
  writes a later load's destination or redefines an earlier one (a
  value's base register too); adjacent stores into one value that tile
  one span are one ``pack_into`` (``_p_QQ(_st1, _v8, r9, r3)``). A
  load whose register's one rendered reader is a store into one stack
  atom no narrower than the load writes the atom itself
  (``_s504, _s508 = _u_I4xH(_b, 26)``), and a store drops its mask
  where its block last wrote the register with a load no wider than
  the store (``_load_runs``, ``_store_runs``, ``fits``);
* **the packet body**: one ``while True:`` block executed once. Entry
  length checks, entry ops and every block's ops (blocks in topological
  order, each in stage order) follow each other flat; consecutive ops
  of one basic block share one ``if _e<block>:`` (the entry block's ops
  have none), so nesting follows op structure, not the stage count. An
  exit, an implicit drop or an entry check sets ``_act`` and leaves by
  ``break`` — nothing after it is tested;
* **the spill contract**: ``sim._atomic`` (XCHG / CMPXCHG, stack and
  packet atomics, the cold path of an inlined one) and
  ``sim._map_channel_call`` (a map the program does not declare, an
  update or delete whose key or value the verifier did not place in a
  static stack slice) work on ``pkt.regs``. Before such a call the
  locals it may read — and those it may write, in case it leaves one
  unwritten — are stored to ``regs``; after it ``pkt.done`` is tested
  (these calls report a drop only there) and the locals it may write
  are loaded back. ``sim._mem_load`` / ``_read_plain`` /
  ``_mem_store`` take their operands as arguments, and a folded map
  request drops nothing: neither spills registers. The stack atoms
  spill the same way around every site that can reach ``stack`` by
  address (``_spilled``): a dynamically addressed access labelled STACK
  or unlabelled (its fast side indexes ``stack``, its cold side
  dispatches on the address), a stack or unlabelled atomic (always
  ``sim._atomic``), ``sim._map_channel_call`` and a lookup whose key
  the verifier did not place (they read the key and value by
  address), a helper that reads memory by a pointer argument
  (``reads_stack``; no helper writes it). Every atom is stored into
  ``stack`` before such a site and loaded back after one that may
  write; a site that reports a drop has written nothing. A load,
  store or atomic the verifier labelled PACKET, CTX or MAP_VALUE is
  none: the label proves the region of every address it computes, and
  the regions lie apart (``AddressSpace``), so its cold side, which
  only a region's run-time extent sends it to, never lands on the
  stack. So a program without such a site — every app that streams —
  keeps no stack memory at all;
* **after the body**: the timing tail (the window's entry and exit
  cycles, which wait on the flags of its holder blocks, and
  ``max_cycles``), ``sim._finalize`` if a store could have pended a
  write (only ``sim._mem_store`` can; where no store keeps that
  fallback neither this nor an atomic's ``pkt.pending_writes`` test is
  emitted), the action histogram, the record.

The emitted semantics mirror the interpreted path
(:meth:`PipelineSimulator._execute_op`) instruction for instruction —
predication, snapshot-on-side-effect, flush checks, bounds-violation
drops, successor enabling — so a codegen run is bit-identical: same XDP
actions, packet bytes, map state AND cycle counts. ALU and compare ops
carry no semantics of this module's own: their statements are
:func:`repro.ebpf.opfns.alu_source` / ``cmp_source`` — the specialised
tier, of which this engine is the one Python consumer — inlined as they
come (an op it has no text for is a :class:`CodegenError` at emit time;
the verifier keeps such ops from ever reaching here). Anything not worth
specializing (WAR-buffered map stores, complex atomics, unknown
helpers, flush checks) is emitted as a call to the interpreted path's
own ``sim._*`` method.

The generated *source text* persists: the compiler attaches it to the
:class:`~repro.core.pipeline.Pipeline` (``codegen_source``) and the
compile cache pickles it with the pipeline, so cache hits skip
generation entirely.
Regenerations outside the compiler are counted by the
``ehdl_codegen_recompile_total`` telemetry counter.
"""

from __future__ import annotations

import hashlib
import os
import re
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from ..core.cfg import BasicBlock
from ..core.hazards import in_window
from ..core.labeling import Region
from ..core.liveness import mask_liveness, program_facts, reg_liveness
from ..core.pipeline import (ATOMICS, BankKey, PipeOp, Pipeline, Release,
                             Stage, StageKind)
from ..ebpf import isa
from ..ebpf.helpers import (
    BPF_MAP_DELETE_ELEM,
    BPF_MAP_LOOKUP_ELEM,
    BPF_MAP_UPDATE_ELEM,
    BPF_REDIRECT_MAP,
    HELPER_IDS_BY_NAME,
    ORDER_SENSITIVE_HELPERS,
    PACKET_RESIZING_HELPERS,
    REDIRECT_HELPERS,
    HelperError,
    helper_spec,
    map_ptr,
)
from ..ebpf.isa import MASK32, MASK64, to_signed32
from ..ebpf.opfns import alu_source, cmp_source
from ..ebpf.verifier import RegKind
from ..ebpf.xdp import AddressSpace, XDP_MD_SIZE, XdpAction
from ..telemetry import get_registry

# Bump when the emitted code's shape changes: stale cached source (from
# an older emitter) is regenerated instead of trusted.
# v2: adds the _STREAM straight-line path for hazard-free pipelines.
# v3: constant-offset load/store folding from verifier labels; dead
#     read-tracking elided when no hazard plan exists.
# v4: _STREAM for pipelines whose hazard plans sit inside one
#     serialization window, with the window's stall timing closed-form.
# v5: an interaction-sparse generated cycle advance: one C-level shift,
#     packet-local runs fused into the interaction stage before them,
#     snapshots elided where no elastic-buffer restart is ever chosen.
# v6: run-bound, register-allocated _stream: maps and the helper context
#     bound once per run, lookups folded to the map's kind and geometry,
#     eBPF registers in Python locals (spilled around the pkt.regs
#     fallbacks), a decided packet leaves the flat body by `break`.
# v7: one access rendering: the cycle loop's loads, stores, atomics and
#     lookups take _stream's label-first form and read sim.maps per use.
# v8: path-gated windows: only a packet whose flags enable one of the
#     window's holder blocks waits for it; the window timing moves
#     after the packet body.
# v9: banked windows: a holder waits for the last holder of its own bank,
#     whose bank the timing reads from the key on the stack.
# v10: keyed windows: a holder waits for the last holder of its own key
#     still in the window; a clock read ahead of the window reads the
#     cycle its packet enters the stage.
# v11: no generated cycle: the whole-cycle advance and the unrolled
#     observer are gone; the simulator's one loop shifts and dispatches
#     _s<N>, which snapshot at every map side effect under a flush plan.
# v12: a redirecting program's _stream records each packet's egress port.
# v13: forwarding keyed windows: a holder frees its key's lane after the
#     forward distance of the blocks it enabled, not after the window.
# v14: every window whose accesses all touch its own map forwards, banked
#     and one-lane too; a holder frees its lane at its arm's release
#     (``Forwarding.release``), its decision stage if that is later.
# v15: _stream folds map updates and deletes whose operands sit in static
#     stack slices to the map's unchecked cores (no spill); bpf_redirect
#     is inlined in both modes.
# v16: _stream keeps the statically addressed stack bytes in locals (the
#     stack atoms), zeroed per frame and spilled to pkt.stack only
#     around a site that reaches it by address; a delete is one request.
# v17: _stream renders only the register stores some rendered read takes
#     (no caller-saved scrub, no per-frame zeroing of registers written
#     before every read, no map or key pointer of a folded request), a
#     helper its arguments only, a constant verdict as a bound action;
#     the window's banked lane is hashed once, where its key is packed.
# v18: _stream addresses a map value by its slot (the shadow _v<reg>, no
#     bounds test), reads neighbouring constant offsets of one buffer in
#     one Struct call (a store run in one pack_into), loads a register
#     whose one reader is a stack store straight into the atom, and
#     zeroes per frame only the atoms some path reads before a store.
CODEGEN_VERSION = 18

_KTIME = HELPER_IDS_BY_NAME["bpf_ktime_get_ns"]
_ADJUST_HEAD = HELPER_IDS_BY_NAME["bpf_xdp_adjust_head"]
_ADJUST_TAIL = HELPER_IDS_BY_NAME["bpf_xdp_adjust_tail"]
_REDIRECT_HELPER = HELPER_IDS_BY_NAME["bpf_redirect"]

# Address-space constants folded into the generated source as literals
# (LOAD_CONST beats LOAD_GLOBAL on the hot path).
_M64 = "0x" + format(MASK64, "x")
_M32 = "0x" + format(MASK32, "x")
_STK_LO = hex(AddressSpace.STACK_BASE)
_STK_SZ = AddressSpace.STACK_SIZE
_DATA0 = hex(AddressSpace.PACKET_BASE + AddressSpace.PACKET_HEADROOM)
_REDIRECT = int(XdpAction.REDIRECT)

_STRUCT_FMT = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}
# the opcodes _stream's analyses sort ops by (_Emitter._stream_scan)
_MOV64_X = isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_X
_SHIFTS_K = (isa.BPF_ALU64 | isa.BPF_ADD | isa.BPF_K,
             isa.BPF_ALU64 | isa.BPF_SUB | isa.BPF_K)
_NULL_TESTS = (isa.BPF_JMP | isa.BPF_JEQ | isa.BPF_K,
               isa.BPF_JMP | isa.BPF_JNE | isa.BPF_K)
_CALL = isa.BPF_JMP | isa.BPF_CALL
_ALU_CLASSES = (isa.BPF_ALU64, isa.BPF_ALU, isa.BPF_LD)
_ARRAYS = ("array", "percpu_array")


def _fits_in(insn, size: int, label) -> bool:
    """Whether the value ``insn`` writes to its register fits ``size``
    bytes: a load no wider (its bytes, zero-extended; a context field
    may hold an address), or a non-negative immediate below
    ``1 << 8 * size``."""
    if insn.is_mem_load:
        return insn.size_bytes <= size and (
            label is None or label.region is not Region.CTX)
    if insn.is_alu and insn.op == isa.BPF_MOV and not insn.uses_reg_src:
        value = to_signed32(insn.imm) & (MASK64 if insn.is_alu64 else MASK32)
        return value < 1 << (8 * size)
    return False


class CodegenError(ValueError):
    """Raised at emit time for an op the specialised tier
    (:mod:`repro.ebpf.opfns`) has no text for. Unreachable through
    ``compile_program``, whose verifier rejects such ops first."""


def _specialised(source, insn, stage_number: int):
    if source is None:
        kind = "ALU" if insn.is_alu else "jump"
        raise CodegenError(
            f"stage {stage_number}: no specialisation for {kind} op "
            f"{insn.op:#x} (imm {insn.imm})"
        )
    return source


def _ind(lines: List[str], levels: int = 1) -> List[str]:
    """Indent a block of relative lines by ``levels``."""
    pad = "    " * levels
    return [pad + ln if ln else ln for ln in lines]


def _release_offset(release: Release, named: FrozenSet[str]) -> str:
    """The stage offset from ``lo`` at which the packet the stream body
    just ran frees its lane (``Forwarding.release``), as one conditional
    expression over the block flags the body names (one it does not
    name stays False). It is at least 1, as the cycle loop's is in
    effect (one packet enters ``lo`` a cycle): a lane's ``free`` then
    grows with each holder, and ``_held`` never queues one ``(free,
    key)`` twice."""
    if isinstance(release, int):
        return str(max(release, 1))
    block, _branch, then, otherwise = release
    then, otherwise = (_release_offset(then, named),
                       _release_offset(otherwise, named))
    if f"_e{block}" not in named or then == otherwise:
        return otherwise
    if not then.isdigit():
        then = f"({then})"
    return f"{then} if _e{block} else {otherwise}"


class _StreamTiming(NamedTuple):
    """The cycle-accounting lines one timing model contributes to the
    generated ``_stream`` (the packet body between them is the same)."""

    init: List[str]      # before the frame loop
    head: List[str]      # per frame, before the packet executes
    tail: List[str]      # per frame, after it
    record: Tuple[str, str, str]  # arrival, inject, exit cycle expressions
    cycles: str          # report.cycles once at least one packet ran
    drops: List[str]     # queue-drop accounting after the loop
    sums: Tuple[str, str]  # sum_total_cycles, sum_pipeline_cycles addends


def stream_blocker(pipeline: Pipeline) -> Optional[str]:
    """Why the straight-line ``_STREAM`` path cannot run this pipeline:
    one line naming the first obstacle, or ``None`` when it can.

    The path runs each packet front-to-back to completion and
    reconstructs the cycle accounting arithmetically. That is
    sequentially consistent when every map's consistency class (see
    ``core.hazards``) is ``exact`` or ``windowed`` under one window, and
    the flush and write machinery has nothing to do. A map with a flush
    plan or write stages streams only if one serialization window
    ``[lo, hi]`` holds every access: at most one packet is then between
    its first and last access, so its flush blocks can never fire and
    every write is committed before the next packet's first read.
    Direct stores to such a map ahead of its commit stage are refused
    all the same — they may stay WAR-buffered past ``hi``, while
    ``map_update`` commits at once; one at or past it commits at once
    too. A map relaxed by the ``ATOMICS`` rule has atomics that do not
    commute unobserved (§4.1.2): run packet by packet they would
    interleave otherwise than in the pipeline. Order-sensitive helpers
    (shared clock / PRNG state) and unknown-helper fallbacks would
    observe the changed interleaving — except a clock read ahead of a
    window, whose cycle the timing reconstructs (``_clock_lines``). The
    timing is closed-form for no window, or for a single window with
    ``lo >= 2`` (see ``_window_timing``).
    """
    windows = pipeline.serial_windows
    plans = sorted(pipeline.map_hazards.items())
    commits = pipeline.commit_stages
    for fd, plan in plans:
        if not (plan.needs_flush or plan.write_stages):
            continue
        first, last = plan.touching[0], plan.touching[-1]
        if not in_window(windows, first, last):
            what = "flush plan" if plan.needs_flush else "buffered write"
            return (f"{what} on map {fd} (stages {first}-{last}) "
                    "not covered by a window")
        buffered = [s for s in plan.store_stages if s < commits[fd]]
        if buffered:
            return (f"direct store to map {fd} at stage "
                    f"{buffered[0]} may stay WAR-buffered")
    for fd, plan in sorted(plans, key=lambda item: item[1].value_stages[:1]):
        if plan.consistency.rule == ATOMICS:
            stages = plan.value_stages
            return (f"atomics on map {fd} (stages {stages[0]}-{stages[-1]}) "
                    "do not commute unobserved")
    if len(windows) > 1:
        return (f"{len(windows)} serialization windows (the closed-form "
                "timing covers one)")
    if windows and windows[0][0] < 2:
        return "serialization window starts at stage 1"
    lo = windows[0][0] if windows else 0
    for stage in pipeline.stages:
        for helper_id in (op.insn.imm for op in stage.ops
                          if op.insn.is_call):
            try:
                helper_spec(helper_id)
            except HelperError:
                return f"helper {helper_id} is unknown (generic call)"
            if helper_id == _KTIME and stage.number < lo:
                continue
            if helper_id in ORDER_SENSITIVE_HELPERS:
                # Running packets to completion would reorder their calls
                # relative to the cycle-accurate schedule.
                return f"helper {helper_id} is order-sensitive"
    return None


class _Emitter:
    """Builds the generated module's source for one pipeline."""

    def __init__(self, pipeline: Pipeline) -> None:
        self.pipeline = pipeline
        self.any_flush = any(
            plan.squashes for plan in pipeline.map_hazards.values()
        )
        # Whether the map fast side keeps the hazard plans' read
        # bookkeeping (store forwarding, value_reads / addr_reads): dead
        # work where no plan can buffer a write and no flush can fire.
        self.maintain = self.any_flush or any(
            plan.write_stages for plan in pipeline.map_hazards.values())
        self.commits = pipeline.commit_stages
        # Packets executing any stage op already passed every entry
        # length comparator, so constant packet accesses below the
        # largest entry threshold need no bounds check — unless the
        # program can change the packet length mid-flight (adjust_head/
        # adjust_tail, or an unknown helper we can't reason about).
        resizes = False
        all_ops = list(pipeline.entry_ops)
        for stage in pipeline.stages:
            all_ops.extend(stage.ops or [])
        for op in all_ops:
            insn = op.insn
            if getattr(insn, "is_call", False):
                try:
                    helper_spec(insn.imm)
                except HelperError:
                    resizes = True
                else:
                    if insn.imm in PACKET_RESIZING_HELPERS:
                        resizes = True
        self.pkt_min_len = 0 if resizes else max(
            (min_len for min_len, _action in pipeline.entry_checks),
            default=0,
        )
        self.terminator_block: Dict[int, BasicBlock] = {
            b.terminator_index: b for b in pipeline.cfg.blocks
        }
        self.unpack_widths: set = set()
        self.pack_widths: set = set()
        self.helpers: Dict[int, str] = {}
        self.insns: List[object] = []  # Instruction literals for fallbacks
        self.uses_actions = False
        self.uses_helper_ctx = False
        self.uses_sim_error = False
        self.uses_stream = False
        self.uses_deque = False
        self.uses_bank = False  # a banked window's stream timing
        # The window's first stage while the stream body is emitted: a
        # clock read ahead of it reads its packet's cycle there
        # (_clock_lines), which the window timing's prologue sets up.
        self.window_lo = 0
        self.uses_clock = False
        # Stream mode (see stream_body): the op emitters below name the
        # run-bound locals of ``_stream`` instead of ``pkt``'s fields,
        # and a decided packet leaves by ``break``.
        self.stream = False
        # Whether any store can reach sim._mem_store, the one call that
        # appends to pkt.pending_writes: one that does not fold to a
        # constant stack/packet offset. Where none can, neither an
        # atomic's own-pending-writes test nor _stream's sim._finalize
        # is emitted.
        self.stores_may_pend = any(
            op.insn.opclass in (isa.BPF_ST, isa.BPF_STX)
            and not op.insn.is_atomic
            and (op.label is None or op.label.offset is None
                 or self._const_store(
                     op.label, op.insn.size_bytes, "0", False) is None)
            for op in all_ops
        )
        # What engine_path() says about the stream body (which restarts it).
        self.lookups = self.folded_lookups = self.spill_sites = 0
        self.writes = self.folded_writes = 0
        # Whether an inlined map write can raise MapError (_write_lines).
        self.uses_map_error = False
        # Whether a helper can set ctx.redirect_ifindex (bpf_redirect,
        # bpf_redirect_map): _stream then clears it per frame.
        self.redirects = False
        # Whether any emitted op can mutate the packet bytes: labeled
        # packet stores, stores/atomics whose target region is unknown,
        # and the packet-resizing helpers. When False the stream path
        # wraps the caller's frame without copying it.
        self.pkt_writes = False
        # _stream's stack (see _stack_atoms): start -> size of each
        # local _s<start>; the packed slices read more than once, which
        # are bound to a local _sb<start>_<size> and reused while
        # ``avail`` holds them; whether some site reaches ``stack`` by
        # address (the per-frame zeroing stays); the Structs that pack
        # slices, by format.
        self.atoms: Dict[int, int] = {}
        self.bound: FrozenSet[Tuple[int, int]] = frozenset()
        self.avail: set = set()
        self.stack_spills = False
        self.slice_packs: Dict[str, str] = {}
        # _stream's registers (see _stream_liveness): per instruction, the
        # registers some rendered read may still take from it — a store
        # to any other is not rendered; None outside _stream. The
        # verdicts its constant exits leave, each bound once per run.
        self.live_out: Optional[List[FrozenSet[int]]] = None
        self.dead_stores: set = set()  # the _pure ops _stream leaves out
        self.verdicts: set = set()
        # The window's banked lane — its map fd, key slice, bank count —
        # while the body computes ``_bk`` once where it packs that key
        # for the map's requests (_atom_bytes), else None.
        self.lane_bank: Optional[Tuple[int, Tuple[int, int], int]] = None
        # _stream's map values (see _stream_values): per value access
        # addressed by slot, its base register, whose shadow ``_v<reg>``
        # holds the storage offset of the value it points into; per null
        # test read off a shadow, its register; the shadow copies a mov
        # renders (insn -> (dst, src)) and the lookups that render
        # ``_v0``; the stores whose register already fits their width.
        self.by_slot: Dict[int, int] = {}
        self.null_tests: Dict[int, int] = {}
        self.copies: Dict[int, Tuple[int, int]] = {}
        self.shadowed: FrozenSet[int] = frozenset()
        self.fits: FrozenSet[int] = frozenset()
        # _stream's runs (see _store_runs, _load_runs): the lines a load
        # or store renders instead of its own (none for a run's other
        # members), the read mask of a store run's last member, the
        # stack stores a load already wrote (insn -> the atom), and the
        # Structs the runs call (format -> local), bound per run.
        self.runs: Dict[int, List[str]] = {}
        self.run_reads: Dict[int, int] = {}
        self.fed: Dict[int, Tuple[int, int]] = {}
        self.run_structs: Dict[str, str] = {}
        self.value_accesses = self.slot_accesses = self.coalesced = 0
        # the ops _stream's body leaves after, where a window's lane key
        # is read after the body (_atoms_read_first)
        self.leaving: Optional[set] = None
        self.stream_names: FrozenSet[str] = frozenset()  # _fn's, of _stream

    # -- shared sub-emitters -------------------------------------------------

    def _unpack(self, size: int) -> str:
        self.unpack_widths.add(size)
        return f"_u{size}"

    def _pack(self, size: int) -> str:
        self.pack_widths.add(size)
        return f"_p{size}"

    def _helper(self, helper_id: int) -> str:
        name = f"_h{helper_id}"
        self.helpers[helper_id] = name
        return name

    # -- _stream's stack: atoms in locals --------------------------------------

    def _atoms_in(self, start: int, size: int) -> List[Tuple[int, int]]:
        """The atoms that tile the stack bytes ``[start, start + size)``
        (``_stack_atoms`` made each static range a union of atoms)."""
        pieces, at = [], start
        while at < start + size:
            pieces.append((at, self.atoms[at]))
            at += self.atoms[at]
        return pieces

    def _atom_int(self, start: int, size: int) -> str:
        """The little-endian integer in the stack bytes ``[start, start +
        size)``, ``size`` at most 8: its atoms ORed together."""
        return " | ".join(f"_s{at}" + (f" << {8 * (at - start)}"
                                       if at > start else "")
                          for at, _n in self._atoms_in(start, size))

    def _atom_store(self, start: int, size: int, raw: str,
                    masked: str) -> List[str]:
        """Store ``size`` bytes of ``raw`` (a register or a literal;
        ``masked`` is it cut to ``size`` bytes) at stack byte ``start``:
        each atom takes its bytes of the value by a shift."""
        self._kill(start, size)
        pieces = self._atoms_in(start, size)
        if len(pieces) == 1:
            # a register already fits 8 bytes (the invariant)
            return [f"_s{start} = {raw if size == 8 else masked}"]
        out = []
        for at, n in pieces:
            shift, mask = 8 * (at - start), (1 << (8 * n)) - 1
            if raw.startswith("0x"):
                out.append(f"_s{at} = {hex(int(raw, 16) >> shift & mask)}")
                continue
            part = f"{raw} >> {shift}" if shift else raw
            if at + n < start + 8:
                part = f"{part} & {hex(mask)}"
            out.append(f"_s{at} = {part}")
        return out

    def _kill(self, start: int, size: int) -> None:
        """A store to the stack bytes ``[start, start + size)``: no
        packed slice that overlaps them is reused past it."""
        self.avail = {(a, n) for a, n in self.avail
                      if a + n <= start or start + size <= a}

    def _atom_bytes(self, start: int, size: int) -> Tuple[List[str], str]:
        """The stack bytes ``[start, start + size)`` as ``bytes``: the
        statements that pack them and the expression that names them.
        One ``Struct.pack`` of their atoms; a slice read more than once
        (``bound``) is packed into its local once and reused while no
        store to its atoms intervenes (``avail``)."""
        pieces = self._atoms_in(start, size)
        fmt = "".join(_STRUCT_FMT[n][1] for _at, n in pieces)
        name = self.slice_packs.setdefault(fmt, f"_pk_{fmt}")
        packed = f"{name}({', '.join(f'_s{at}' for at, _n in pieces)})"
        if (start, size) not in self.bound:
            return [], packed
        local = f"_sb{start}_{size}"
        if (start, size) in self.avail:
            return [], local
        self.avail.add((start, size))
        lines = [f"{local} = {packed}"]
        if self.lane_bank is not None and self.lane_bank[1] == (start, size):
            # the window's lane key: its bank rides with it
            self.uses_bank = True
            lines.append(f"_bk = _bank_of({local}, {self.lane_bank[2]})")
        return lines, local

    def _bank_arg(self, fd: int, piece: Tuple[int, int]) -> str:
        """``, _bk`` where a request on map ``fd`` keyed by the stack
        slice ``piece`` is keyed by the window's banked lane, whose bank
        ``_atom_bytes`` computed where it packed the key: the LRU cores
        then hash no key of their own."""
        if (self.lane_bank is not None and self.lane_bank[:2] == (fd, piece)
                and piece in self.bound):
            return ", _bk"
        return ""

    def _stack_out(self) -> List[str]:
        """Before a site that reaches ``stack`` by address: every atom
        stored into it (the rest of it is what the frame's zeroing and
        such sites left there)."""
        self.stack_spills = True
        return [f"{self._pack(n)}(stack, {at}, _s{at})"
                for at, n in sorted(self.atoms.items())]

    def _stack_in(self) -> List[str]:
        """After a site that may write ``stack``: every atom loaded back
        from it, and no packed slice reused past it."""
        self.avail = set()
        return [f"_s{at} = {self._unpack(n)}(stack, {at})[0]"
                for at, n in sorted(self.atoms.items())]

    def _spilled(self, label, lines: List[str], writes: bool) -> List[str]:
        """``lines``, an access the verifier labelled ``label`` that
        folds to no atom: in ``_stream`` one labelled STACK, or with no
        label, may reach ``stack``, so it runs between ``_stack_out``
        and, if it ``writes``, ``_stack_in``."""
        if not self.stream or (label is not None
                               and label.region is not Region.STACK):
            return lines
        return (self._stack_out() + lines
                + (self._stack_in() if writes else []))

    def _insn_literal(self, insn) -> str:
        name = f"_i{len(self.insns)}"
        self.insns.append(insn)
        return name

    # Names of the packet's state. The cycle loop holds many packets and
    # reaches each one's state through ``pkt``; ``_stream`` holds one,
    # whose register file is the locals r0..r10, whose statically
    # addressed stack bytes are the atoms _s<byte> (above) and whose
    # stack buffer, context and frame buffer are bound once (per run,
    # per run, per frame).

    def _reg(self, number: int) -> str:
        return f"r{number}" if self.stream else f"regs[{number}]"

    @property
    def _stack(self) -> str:
        return "stack" if self.stream else "pkt.stack"

    @property
    def _ctx(self) -> str:
        return "_c" if self.stream else "pkt.ctx"

    @property
    def _packet(self) -> str:
        return "_b" if self.stream else "pkt.ctx.packet"

    def _bind_packet(self) -> List[str]:
        """Statements after which ``_b`` is the frame buffer (``_stream``
        binds it once per frame)."""
        return [] if self.stream else ["_b = pkt.ctx.packet"]

    def _drop_if(self, bad: str, ok: List[str]) -> List[str]:
        """``ok``, unless ``bad`` holds: then the implicit hardware drop
        (``sim._drop``). ``_stream`` leaves the packet body instead."""
        if self.stream:
            return [f"if {bad}:", "    _act = _DROP", "    break"] + ok
        return [f"if {bad}:", "    sim._drop(pkt)", "else:"] + _ind(ok)

    def _unless_none(self, name: str, ok: List[str]) -> List[str]:
        """``ok``, unless the ``sim._*`` method that returned ``name``
        returned None — having dropped the packet itself."""
        if self.stream:
            return self._drop_if(f"{name} is None", ok)
        return [f"if {name} is not None:"] + _ind(ok)

    def _enable_lines(self, block: BasicBlock) -> List[str]:
        return self._enable_set(tuple(s for s, _k in block.succs))

    def _enable_set(self, succs: Tuple[int, ...]) -> List[str]:
        """Unconditionally enable successors. In stream mode (one packet
        per scope) block enables are plain local boolean stores instead
        of set mutations."""
        if self.stream:
            return [f"_e{s} = True" for s in succs]
        if len(succs) == 1:
            return [f"enabled.add({succs[0]})"]
        return [f"enabled.update({succs!r})"]

    def _enable_after(
        self, out: List[str], block: Optional[BasicBlock], may_finish: bool
    ) -> None:
        """Append the successor enabling of a block-terminating op whose
        own lines (``out``) may have finished the packet: the cycle loop
        re-checks ``pkt.done``, ``_stream`` has already left."""
        if block is None:
            return
        if may_finish and not self.stream:
            out.append("if not pkt.done:")
            out += _ind(self._enable_lines(block))
        else:
            out += self._enable_lines(block)

    def _enable_branch(
        self, cond: str, taken: Tuple[int, ...], fall: Tuple[int, ...]
    ) -> List[str]:
        """Enable one of two successor sets depending on ``cond``."""
        if not self.stream:
            return [f"enabled.update({taken!r} if {cond} else {fall!r})"]
        if taken and fall:
            return (
                [f"if {cond}:"]
                + _ind(self._enable_set(taken))
                + ["else:"]
                + _ind(self._enable_set(fall))
            )
        if taken:
            return [f"if {cond}:"] + _ind(self._enable_set(taken))
        if fall:
            return [f"if not ({cond}):"] + _ind(self._enable_set(fall))
        return []

    def _flush_lines(self, stage_number: int) -> List[str]:
        return [
            "if _se is not None:",
            f"    pkt.take_snapshot({stage_number})",
            "    if sim._flush_check(pkt, _se, slots, barrier_queues, "
            "input_queue, report):",
            "        flushed = True",
        ]

    # -- per-opclass emission ------------------------------------------------

    def _ldx_lines(self, op: PipeOp) -> List[str]:
        insn = op.insn
        size = insn.size_bytes
        D = self._reg(insn.dst)
        label = op.label
        if self.stream:
            self._count_value_access(op)
            if op.insn_index in self.runs:
                return self.runs[op.insn_index]
        if label is not None and label.offset is not None:
            folded = self._const_ldx(label, size, D)
            if folded is not None:
                return folded

        def fast(buf: str) -> List[str]:
            if self.maintain and label.region is Region.MAP_VALUE:
                # Under a hazard plan the read sees older packets'
                # pending writes (store forwarding) and is recorded for
                # the flush checks, as sim._mem_load does it.
                fd = label.map_fd
                return [
                    f"_d = sim._map_read_bytes(pkt, {fd}, _o, {size})",
                    f"pkt.value_reads.setdefault({fd}, set()).add("
                    "_m.slot_of_addr(_o))",
                    f'{D} = int.from_bytes(_d, "little")',
                ]
            return [f"{D} = {self._unpack(size)}({buf}, _o)[0]"]

        # sim._mem_load is the interpreted engine's whole region
        # dispatch; None means it dropped the packet.
        return self._spilled(label, self._access(
            insn.src, insn.off, label, size, fast,
            [f"_v = sim._mem_load(pkt, _a, {size})"]
            + self._unless_none("_v", [f"{D} = _v"])), writes=False)

    def _address(self, base: int, off: int) -> str:
        """The effective address ``base register + off``, wrapped to 64
        bits; a bare register needs no wrap (the register invariant, see
        :mod:`repro.ebpf.opfns`)."""
        if off:
            return f"({self._reg(base)} + {off}) & {_M64}"
        return self._reg(base)

    def _bound_spec(self, fd: Optional[int]):
        """The ``MapSpec`` behind ``fd`` when ``_stream`` may bind that
        map once per run (``_m<fd>``, ``_st<fd>``, ``_lk<fd>``) and fold
        its geometry into literals: a map the program declares, whose
        storage fits its address window. ``PipelineSimulator`` streams
        only while its ``MapSet`` holds exactly the maps these specs
        build (``MapSet.mismatch``), which is what makes that sound —
        and stands in, once per run, for the per-packet unknown-fd
        check."""
        spec = self.pipeline.program.maps.get(fd)
        if spec is None or (spec.max_entries * spec.value_size
                            > AddressSpace.MAP_WINDOW):
            return None
        return spec

    def _access(self, base: int, off: int, label, size: int,
                fast, slow: List[str], also: str = "") -> List[str]:
        """A dynamically addressed access: ``fast(buf)`` where the
        address lands inside the region the verifier labelled it with —
        the ``size`` bytes at ``buf[_o]`` — else ``slow``, the
        interpreted engine's own method, which dispatches on the
        address. ``also`` is a further condition of the fast side.

        ``buf`` is the packet's stack or frame under the mode's name for
        it, or the labelled map's storage: the run-bound ``_st<fd>`` in
        ``_stream``, its length folded from the ``MapSpec``
        (``_bound_spec``); in the cycle loop, whose maps nothing vouches
        for, that of ``sim.maps``' entry for the fd as this access finds
        it (``_m``), if it has one and while it fits the map's address
        window."""
        out = [f"_a = {self._address(base, off)}"]
        region = label.region if label is not None else None
        fd = label.map_fd if region is Region.MAP_VALUE else None
        if region is Region.STACK:
            out.append(f"_o = _a - {_STK_LO}")
            cond, buf = f"0 <= _o <= {_STK_SZ - size}", self._stack
        elif region is Region.PACKET:
            # _o >= 0 puts _a past PACKET_BASE (head_adjust >= -headroom)
            out += self._bind_packet()
            out.append(f"_o = _a - {_DATA0} - {self._ctx}.head_adjust")
            cond = f"_a < {_STK_LO} and 0 <= _o <= len(_b) - {size}"
            buf = "_b"
        elif fd is not None and not self.stream:
            out += [
                f"_o = _a - {hex(AddressSpace.map_value_addr(fd, 0))}",
                f"_m = sim.maps.maps.get({fd})",
            ]
            cond = (f"_m is not None and 0 <= _o <= len(_m.storage) - {size}"
                    f" <= {AddressSpace.MAP_WINDOW - size}")
            buf = "_m.storage"
        elif (spec := self._bound_spec(fd)) is not None:
            out.append(f"_o = _a - {hex(AddressSpace.map_value_addr(fd, 0))}")
            # len(storage) is max_entries * value_size (MapSet.mismatch),
            # or a hash map's slots handed out, which hold every value
            # address a lookup can have returned
            cond = f"0 <= _o <= {spec.max_entries * spec.value_size - size}"
            buf = f"_st{fd}"
        else:
            return out + slow
        return (out + [f"if {cond}{also}:"] + _ind(fast(buf)) + ["else:"]
                + _ind(slow))

    @property
    def _left_by_fallback(self) -> List[str]:
        """What follows a ``sim._*`` fallback that reports a drop only
        through ``pkt.done``: the cycle loop's next op re-checks it,
        ``_stream`` leaves the packet body."""
        if self.stream:
            return ["if pkt.done:", "    _act = pkt.action", "    break"]
        return []

    def _fallback_call(self, call: str, reads, writes,
                       flush: bool = False) -> List[str]:
        """``call`` is a ``sim._*`` fallback that works on ``pkt.regs``
        — where the cycle loop's registers live. ``_stream``'s are
        locals, hence the spill contract: those the call may read — or
        may leave unwritten among those reloaded — go to ``pkt.regs``
        before it, the ones it may write come back after it."""
        if not self.stream:
            return [f"_se = {call}" if flush else call]
        self.spill_sites += 1
        return (
            [f"regs[{n}] = r{n}" for n in sorted(set(reads) | set(writes))]
            + [call] + self._left_by_fallback
            + [f"r{n} = regs[{n}]" for n in sorted(writes)]
        )

    def _const_ldx(self, label, size: int, D: str) -> Optional[List[str]]:
        """Constant-offset load: the verifier proved every address this
        insn computes lands at one fixed byte offset inside its region —
        the same guarantee the VHDL backend uses to wire static slices —
        so the region dispatch chain and the offset arithmetic fold away
        entirely. Returns None when the label can't be folded. A map
        value is not folded here: the *slot* varies per packet even when
        the in-value offset is fixed. The cycle loop tests its address;
        ``_stream`` keeps the slot's storage offset in a local and
        addresses the value by it (``_stream_values``)."""
        off = label.offset
        if label.region is Region.STACK:
            idx = self._stack_index(off, size)
            if idx is None:
                return None
            # Statically in range: no bounds check, no drop path.
            if self.stream:
                return [f"{D} = {self._atom_int(idx, size)}"]
            return [f"{D} = {self._unpack(size)}({self._stack}, {idx})[0]"]
        if label.region is Region.PACKET:
            if off < 0:
                return None
            if off + size <= self.pkt_min_len:
                # Subsumed by the entry length comparators: every packet
                # reaching stage ops is at least pkt_min_len bytes.
                return [f"{D} = {self._unpack(size)}({self._packet}, "
                        f"{off})[0]"]
            # Offset is relative to the current data pointer, exactly
            # like the dynamic path's _a - DATA0 - head_adjust; only the
            # (variable) length check remains.
            return self._bind_packet() + self._drop_if(
                f"len(_b) < {off + size}",
                [f"{D} = {self._unpack(size)}(_b, {off})[0]"])
        if label.region is Region.CTX:
            if off < 0 or off + size > XDP_MD_SIZE:
                return None
            ctx = self._ctx
            if size == 4 and off in (0, 4, 8, 12, 16, 20):
                expr = {
                    0: f"{_DATA0} + {ctx}.head_adjust",
                    4: f"{_DATA0} + {ctx}.head_adjust + "
                       f"len({self._packet})",
                    8: "0",
                    12: f"{ctx}.ingress_ifindex",
                    16: f"{ctx}.rx_queue_index",
                    20: f"{ctx}.egress_ifindex",
                }[off]
                return [f"{D} = {expr}"]
            return [
                f"_d = {ctx}.ctx_bytes()",
                f'{D} = int.from_bytes(_d[{off}:{off + size}], "little")',
            ]
        return None

    def _ldx_folds(self, label, size: int) -> Optional[bool]:
        """Whether ``_const_ldx`` folds a load labelled ``label``: None
        where it does not, else whether the fold keeps a drop path (a
        frame offset past the entry length checks)."""
        off, region = label.offset, label.region
        if off is None:
            return None
        if region is Region.STACK:
            return None if self._stack_index(off, size) is None else False
        if region is Region.PACKET:
            return None if off < 0 else off + size > self.pkt_min_len
        if region is Region.CTX:
            return None if off < 0 or off + size > XDP_MD_SIZE else False
        return None

    def _const_store(
        self, label, size: int, val: str, flush: bool, raw: str = ""
    ) -> Optional[List[str]]:
        """Constant-offset stack/packet store (see _const_ldx) of
        ``val``, which is ``raw`` cut to ``size`` bytes. Emits the dead
        _se slot when a flush epilogue follows: direct stack and packet
        stores are never map side effects."""
        if not self._store_folds(label, size):
            return None
        pre = ["_se = None"] if flush else []
        if label.region is Region.STACK:
            idx = self._stack_index(label.offset, size)
            return pre + (self._atom_store(idx, size, raw, val)
                          if self.stream else
                          [f"{self._pack(size)}({self._stack}, {idx}, {val})"])
        if label.region is Region.PACKET:
            off = label.offset
            if off + size <= self.pkt_min_len:
                return pre + [
                    f"{self._pack(size)}({self._packet}, {off}, {val})"
                ]
            return pre + self._bind_packet() + self._drop_if(
                f"len(_b) < {off + size}",
                [f"{self._pack(size)}(_b, {off}, {val})"])

    def _store_folds(self, label, size: int) -> bool:
        """Whether ``_const_store`` folds a store the verifier labelled
        ``label``: one at a constant offset in the stack or past the
        frame's data pointer."""
        if label is None or label.offset is None:
            return False
        if label.region is Region.STACK:
            return self._stack_index(label.offset, size) is not None
        return label.region is Region.PACKET and label.offset >= 0

    def _store_value(self, op: PipeOp) -> Tuple[str, str]:
        """``(raw, masked)``: what a store writes, and that cut to the
        store's width — which ``_stream`` leaves uncut where the register
        already fits it (``fits``)."""
        insn = op.insn
        if insn.opclass != isa.BPF_STX:
            imm = to_signed32(insn.imm) & MASK64
            return hex(imm), hex(imm & ((1 << (8 * insn.size_bytes)) - 1))
        raw = self._reg(insn.src)
        if self.stream and op.insn_index in self.fits:
            return raw, raw
        return raw, f"{raw} & {hex((1 << (8 * insn.size_bytes)) - 1)}"

    def _slot_at(self, op: PipeOp, offset: Optional[int] = None) -> str:
        """Where in its map's storage ``_stream`` finds the value bytes an
        access addressed by slot (``by_slot``) reaches: its base
        register's shadow plus the in-value offset (``offset``, else
        the label's)."""
        offset = op.label.offset if offset is None else offset
        shadow = f"_v{self.by_slot[op.insn_index]}"
        return f"{shadow} + {offset}" if offset else shadow

    def _count_value_access(self, op: PipeOp) -> None:
        """Count a map-value load, store or atomic ``_stream`` renders,
        and whether by slot, for ``_STREAM_SHAPE``."""
        if op.label is not None and op.label.region is Region.MAP_VALUE:
            self.value_accesses += 1
            self.slot_accesses += op.insn_index in self.by_slot

    def _ld_lines(self, insn) -> List[str]:
        if insn.src == isa.BPF_PSEUDO_MAP_FD:
            value = map_ptr((insn.imm64 or insn.imm) & MASK32)
        else:
            value = (insn.imm64 if insn.imm64 is not None else insn.imm) & MASK64
        return [f"{self._reg(insn.dst)} = {hex(value)}"]

    def _store_lines(
        self, op: PipeOp, stage_number: int, in_entry: bool, flush: bool
    ) -> List[str]:
        insn = op.insn
        size = insn.size_bytes
        raw_val, masked_val = self._store_value(op)
        label = op.label
        if self.stream:
            self._count_value_access(op)
            index = op.insn_index
            if index in self.fed:
                # a load already wrote the atom (_load_runs)
                self._kill(*self.fed[index])
                return []
            if index in self.runs:
                return self.runs[index]
            if index in self.by_slot:
                return [f"{self._pack(size)}(_st{label.map_fd}, "
                        f"{self._slot_at(op)}, {masked_val})"]
        if label is not None and label.offset is not None:
            folded = self._const_store(label, size, masked_val, flush,
                                       raw_val)
            if folded is not None:
                if label.region is Region.PACKET:
                    self.pkt_writes = True
                return folded
        if label is None or label.region is Region.PACKET:
            self.pkt_writes = True

        # A map store is sim._mem_store's (WAR buffering, the side-effect
        # descriptor), so only the stack and the frame have a fast side —
        # and, in _stream, a map store at or past its commit stage, which
        # commits at once with no descriptor to make.
        fallback = []
        if self.stream and not in_entry:
            # _stream keeps no position; sim._mem_store's WAR threshold
            # compare reads it.
            fallback.append(f"pkt.position = {stage_number}")
        call = f"sim._mem_store(pkt, _a, {size}, {raw_val}, None)"
        fallback.append(f"_se = {call}" if flush else call)
        plain = label if label is not None and (
            label.region in (Region.STACK, Region.PACKET)
            or self.stream and label.region is Region.MAP_VALUE
            and stage_number >= self.commits.get(label.map_fd, 0)) else None
        return self._spilled(label, self._access(
            insn.dst, insn.off, plain, size,
            lambda buf: [f"{self._pack(size)}({buf}, _o, {masked_val})"]
            + (["_se = None"] if flush else []),
            fallback + self._left_by_fallback), writes=True)

    def _atomic_lines(self, op: PipeOp, flush: bool) -> List[str]:
        insn = op.insn
        label = op.label
        if label is None or label.region is Region.PACKET:
            self.pkt_writes = True
        size = insn.size_bytes
        smask = hex((1 << (8 * size)) - 1)
        base_op = insn.imm & ~isa.BPF_FETCH
        fetch = bool(insn.imm & isa.BPF_FETCH)
        iname = self._insn_literal(insn)
        # What sim._atomic reads and writes of pkt.regs.
        cmpxchg = insn.imm == isa.ATOMIC_CMPXCHG
        reads = {insn.src} | ({isa.R0} if cmpxchg else set())
        writes = ({isa.R0} if cmpxchg else
                  {insn.src} if fetch or insn.imm == isa.ATOMIC_XCHG
                  else set())
        writes = {n for n in writes if self._keeps(op, n)}

        new = {
            isa.ATOMIC_ADD: f"(_old + _sv) & {smask}",
            isa.ATOMIC_OR: "_old | _sv",
            isa.ATOMIC_AND: "_old & _sv",
            isa.ATOMIC_XOR: "_old ^ _sv",
        }.get(base_op)
        if new is None:
            # XCHG/CMPXCHG and unknown atomics defer entirely to the
            # interpreted path (which materialises pending overlaps).
            return self._spilled(label, self._fallback_call(
                f"sim._atomic(pkt, {iname}, "
                f"{self._address(insn.dst, insn.off)})", reads, writes,
                flush), writes=True)

        unpack = self._unpack(size)
        pack = self._pack(size)
        src = self._reg(insn.src)
        mapped = label if label is not None and (
            label.region is Region.MAP_VALUE) else None

        def rmw(buf: str, at: str) -> List[str]:
            return [
                f"_old = {unpack}({buf}, {at})[0]",
                # a register already fits 8 bytes (the invariant)
                f"_sv = {src}" if size == 8 else f"_sv = {src} & {smask}",
                f"{pack}({buf}, {at}, {new})",
            ] + ([f"{src} = _old"] if insn.src in writes else [])

        if self.stream:
            self._count_value_access(op)
            if op.insn_index in self.by_slot:
                at = self._slot_at(op)
                if "+" not in at:
                    return rmw(f"_st{label.map_fd}", at)
                return [f"_o = {at}"] + rmw(f"_st{label.map_fd}", "_o")
        return self._spilled(label, self._access(
            insn.dst, insn.off, mapped, size,
            lambda buf: rmw(buf, "_o")
            + ([f'_se = ("atomic", {mapped.map_fd})'] if flush else []),
            # stack/packet atomics keep the interpreted path ...
            self._fallback_call(f"sim._atomic(pkt, {iname}, _a)",
                                reads, writes, flush),
            # ... and so does the rare own-pending-write overlap
            " and not pkt.pending_writes" if self.stores_may_pend else ""),
            writes=True)

    def _call_lines(self, op: PipeOp, flush: bool,
                    stage_number: int) -> List[str]:
        """Helper-call body."""
        helper_id = op.insn.imm
        R = self._reg
        try:
            spec = helper_spec(helper_id)
        except HelperError:
            # Unknown helper: fail at execution time, like the interpreter.
            self.pkt_writes = True
            call = f"sim._call(pkt, {helper_id})"
            return [f"_se = {call}" if flush else call]
        if helper_id in PACKET_RESIZING_HELPERS:
            self.pkt_writes = True
        if helper_id in REDIRECT_HELPERS:
            self.redirects = True
        # The caller-saved registers a call clobbers: the cycle loop
        # zeroes them all, _stream those some rendered read still takes
        # (the verifier lets no program read one before writing it, so
        # only a conservative spill ever does).
        clobbered = [R(n) for n in range(isa.R1, isa.R5 + 1)
                     if self._keeps(op, n)]
        scrub = [" = ".join(clobbered) + " = 0"] if clobbered else []

        if spec.map_channel:
            return self._map_call(op, flush) + scrub
        if helper_id == _REDIRECT_HELPER:
            # bpf_redirect: the helper's own two steps
            verdict = ([f"{R(0)} = {_REDIRECT}"]
                       if self._keeps(op, isa.R0) else [])
            return ([f"{self._ctx}.redirect_ifindex = {R(1)} & {_M32}"]
                    + verdict + scrub)

        # Non-map helper: shared VM implementation via the duck-typed
        # execution context — per packet in the cycle loop, one for the
        # run in _stream (pkt, its ctx, sim.maps and sim.time_ns are the
        # same objects from the first frame to the last).
        self.uses_helper_ctx = True
        hname = self._helper(helper_id)
        context = "_hc" if self.stream else "_HC(sim, pkt)"
        clock = (self._clock_lines(stage_number)
                 if self.stream and helper_id == _KTIME else [])
        # a helper that reads memory by a pointer argument reads the
        # stack through _hc (no helper writes it)
        if self.stream and spec.reads_stack:
            clock = self._stack_out() + clock
        # _stream passes the helper its arguments only: a register past
        # its arity may hold nothing this packet wrote
        args = ", ".join(R(n) if n in self._arity(helper_id)
                         or not self.stream else "0"
                         for n in range(isa.R1, isa.R5 + 1))
        call = f"{hname}({context}, {args})"
        return clock + [f"{R(0)} = {call} & {_M64}"
                        if self._keeps(op, isa.R0) else call] + scrub

    def _clock_lines(self, stage: int) -> List[str]:
        """Set ``_hc``'s clock to the cycle the stream's packet enters
        ``stage``, ahead of the window's first stage ``lo``
        (``stream_blocker`` admits no other clock read): the cycle loop
        reads the clock of that cycle. The ``lo - 1`` stages ahead of
        the window back up behind it, so the packet enters ``stage``
        when the packet ``lo - stage`` places ahead enters ``lo``,
        ``stage - 1`` cycles after its injection at the earliest —
        ``max(inj[k] + stage - 1, ent[k - (lo - stage)])``, the latter
        from ``_window_timing``'s ring of the last ``lo - 1`` entries."""
        self.uses_clock = True
        lead = stage - 1
        return [
            f"_t = _ring[_ri - {self.window_lo - stage}]",
            f"if _inj + {lead} > _t:",
            f"    _t = _inj + {lead}",
            "_hc.time_ns = _t0 + int(_t * _cns)",
        ]

    def _map_call(self, op: PipeOp, flush: bool) -> List[str]:
        """A map-channel helper: one request on its map's channel (§4.1),
        fixed per compile. ``op.call`` names the map (the verifier
        resolved r1 to one fd), so a lookup or ``redirect_map`` of it is
        ``sim._map_channel_call``'s own steps inlined, and in ``_stream``
        so is an update or delete whose operands sit in static stack
        slots (``_write_lines``); everything else — those in the cycle
        loop, an unresolved map, an operand the verifier could not place
        — is that method.

        The cycle loop takes ``sim.maps``' entry for the fd as each call
        finds it (an fd the ``MapSet`` lacks drops the packet) and under
        a hazard plan records the read in ``pkt.addr_reads``. ``_stream``
        runs over exactly the maps the program's specs build
        (``_bound_spec``), so there the spec decides per compile, not
        per packet: an array index is compared and scaled in place, a
        hash key goes straight to the run-bound slot directory, an LRU
        hash to its unchecked ``_find`` (it moves the key up the
        recency order), a key slot on the stack is read where it sits."""
        helper_id = op.insn.imm
        info = op.call
        fd = info.map_fd if info is not None else None
        spec = self._bound_spec(fd) if self.stream else None
        r0 = self._keeps(op, isa.R0)
        if helper_id in (BPF_MAP_UPDATE_ELEM, BPF_MAP_DELETE_ELEM):
            self.writes += 1
            out = None if spec is None else self._write_lines(
                helper_id, fd, info, spec, r0)
            self.folded_writes += out is not None
        else:
            self.lookups += 1
            out = (None if fd is None or (self.stream and spec is None)
                   else self._read_lines(helper_id, fd, info, spec, r0,
                                         op.insn_index in self.shadowed))
            self.folded_lookups += out is not None
        if out is None:
            # the channel reads its key and value by address, and its
            # operands in r1..r<nargs>
            return self._spilled(None, self._fallback_call(
                f"sim._map_channel_call(pkt, {helper_id})",
                reads=self._arity(helper_id), writes=(isa.R0,) if r0 else (),
                flush=flush), writes=False)
        return out

    @staticmethod
    def _arity(helper_id: int) -> range:
        """The argument registers of a helper: r1..r<nargs>."""
        return range(isa.R1, isa.R1 + helper_spec(helper_id).nargs)

    def _read_lines(self, helper_id: int, fd: int, info,
                    spec, r0: bool, shadow: bool = False) -> List[str]:
        """A lookup or ``redirect_map`` of map ``fd`` (see ``_map_call``):
        on the run-bound map in ``_stream``, on ``sim.maps``' entry as
        found in the cycle loop. ``r0``: whether a lookup's result is
        stored (a redirect's always is); ``shadow``: whether its slot's
        storage offset is (``_v0``, ``_stream_values``)."""
        if self.stream:
            bpf_map, lookup = f"_m{fd}", f"_lk{fd}"
            ks, vs = spec.key_size, spec.value_size
        else:
            bpf_map, lookup = "_m", "_m.lookup_slot"
            ks, vs = "_m.key_size", "_m.value_size"
        # addr_reads only feeds flush-restart validation
        # (sim._reads_match); with no hazard plans it is dead work.
        track = [f"pkt.addr_reads.setdefault({fd}, []).append((_k, _sl))"
                 ] if self.maintain else []
        if helper_id == BPF_MAP_LOOKUP_ELEM:
            out = self._lookup_lines(fd, info, spec, lookup, ks, vs, track,
                                     r0, shadow)
        else:
            out = self._redirect_lines(spec, bpf_map, lookup, ks, track)
        if self.stream:
            return out
        return ([f"_m = sim.maps.maps.get({fd})"]
                + self._drop_if("_m is None", out))

    def _write_lines(self, helper_id: int, fd: int, info,
                     spec, r0: bool) -> Optional[List[str]]:
        """An update or delete of the run-bound map ``fd`` whose key —
        and an update's value — the verifier placed in a static stack
        slice (the operands ``core/vhdl.py`` wires to the map's channel),
        else None. What ``helpers.channel_step`` does, step for step, on
        the map's unchecked cores (``_up<fd>`` is ``Map._update``): the
        slices are the map's own key and value sizes, so the size checks
        cannot fire, and nothing here drops — no spill, no ``pkt.done``
        test. A ``MapError`` (a full hash map, a flag refused, an array
        index out of range or deleted) leaves -1 in r0 — where ``r0``
        says a read takes it."""
        R = self._reg
        slices = self._stack_operands(helper_id, info, spec)
        if slices is None:
            return None
        pack, key = self._atom_bytes(*slices[0])
        if helper_id == BPF_MAP_UPDATE_ELEM:
            more, value = self._atom_bytes(*slices[1])
            pack += more
            bank = self._bank_arg(fd, slices[0])
            write = [f"_up{fd}({key}, {value}, {R(4)} & 0x3{bank})"]
            if r0:
                write.append(f"{R(0)} = 0")
        else:
            # channel_step's lookup ahead of the delete only names the
            # slot the flush checks want; the stream has none
            delete = f"_m{fd}.delete({key})"
            write = [f"{R(0)} = 0 if {delete} else {_M64}" if r0 else delete]
        self.uses_map_error = True
        return (pack + ["try:"] + _ind(write)
                + ["except MapError:",
                   f"    {R(0)} = {_M64}" if r0 else "    pass"])

    def _stack_operands(self, helper_id: int, info,
                        spec) -> Optional[List[Tuple[int, int]]]:
        """``(start, size)`` of the stack slices a request of the
        run-bound map ``spec`` reads: its key, and an update's value —
        where the verifier placed every one of them in a static stack
        slice (the operands ``core/vhdl.py`` wires to the map's
        channel), else None."""
        sizes = [spec.key_size]
        offsets = [info.key_stack_offset]
        if helper_id == BPF_MAP_UPDATE_ELEM:
            sizes.append(spec.value_size)
            offsets.append(info.value_stack_offset)
        slices = [(self._stack_index(offset, size), size)
                  for offset, size in zip(offsets, sizes)]
        if any(start is None for start, _size in slices):
            return None
        return slices

    @staticmethod
    def _stack_index(offset: Optional[int], size: int) -> Optional[int]:
        """Where in the stack the ``size`` bytes at the verifier's static
        R10-relative ``offset`` start, or None where there is no such
        offset or the bytes leave the stack."""
        if offset is None or not 0 <= _STK_SZ + offset <= _STK_SZ - size:
            return None
        return _STK_SZ + offset

    def _lookup_lines(self, fd: int, info, spec, lookup: str, ks, vs,
                      track: List[str], r0: bool,
                      shadow: bool = False) -> List[str]:
        """``bpf_map_lookup_elem`` of map ``fd`` (see ``_map_call``):
        ``ks`` / ``vs`` are literals where ``spec`` is known, else
        expressions on the map as found. Where no read takes the
        result (``r0``), a hash lookup only moves the key up the
        recency order, and an array lookup is nothing. ``shadow``: the
        slot's storage offset goes to ``_v0`` (None on a miss), which
        the accesses and null tests ``_stream_values`` admits read."""
        R = self._reg
        base = hex(AddressSpace.map_value_addr(fd, 0))
        array = spec is not None and spec.map_type in _ARRAYS
        slices = (None if spec is None else
                  self._stack_operands(BPF_MAP_LOOKUP_ELEM, info, spec))
        if slices is not None:
            # The key's stack slot is statically in range: its atoms.
            (idx, _ks), = slices
            read = None
            pack, key = ([], "") if array else self._atom_bytes(idx, ks)
            index = self._atom_int(idx, ks) if array else ""
            bank = self._bank_arg(fd, (idx, ks))
        else:
            room = f"{_STK_SZ} - {ks}" if spec is None else _STK_SZ - ks
            read = [
                f"_a = {R(2)}",
                f"_o = _a - {_STK_LO}",
                f"if 0 <= _o <= {room}:",
                f"    _k = bytes({self._stack}[_o:_o + {ks}])",
                "else:",
                f"    _k = sim._read_plain(pkt, _a, {ks})",
            ]
            pack, index, key = [], 'int.from_bytes(_k, "little")', "_k"
            bank = ""
        if array:
            # ArrayMap.lookup_slot: key_size is 4 by construction
            hit = f"_ix < {spec.max_entries}"
            out = ([f"_ix = {index}"] if r0 or shadow else []) + (
                [f"_v0 = _ix * {vs} if {hit} else None"] if shadow else []
            ) + ([f"{R(0)} = {base} + _ix * {vs} if {hit} else 0"]
                 if r0 else [])
        else:
            # value_addr folded: directory slots are in range by
            # construction, so it is just slot * value_size.
            out = pack + [f"_sl = {lookup}({key}{bank})"] + track + (
                [f"_v0 = None if _sl is None else _sl * {vs}"]
                if shadow else []) + ([
                    f"{R(0)} = 0 if _sl is None else {base} + _sl * {vs}",
                ] if r0 else [])
        if read is None:
            return out
        # the key is read by address
        return self._spilled(None, read + self._unless_none("_k", out),
                             writes=False)

    def _redirect_lines(self, spec, bpf_map: str, lookup: str, ks,
                        track: List[str]) -> List[str]:
        """``bpf_redirect_map`` (see ``_map_call``, ``_lookup_lines``)."""
        R = self._reg
        miss = [f"{R(0)} = {R(3)} & {_M32}"]
        if spec is not None and ks != 4:
            return miss
        probe = f"{lookup}(_k)"
        if spec is None:
            probe += f" if {ks} == 4 else None"
        return [
            f'_k = ({R(2)} & {_M32}).to_bytes(4, "little")',
            f"_sl = {probe}",
        ] + track + ["if _sl is None:"] + _ind(miss) + [
            "else:",
            f"    {self._ctx}.redirect_ifindex = int.from_bytes("
            f'{bpf_map}.lookup(_k)[:4], "little")',
            f"    {R(0)} = {_REDIRECT}",
        ]

    def _branch_lines(
        self, op: PipeOp, block: BasicBlock, stage_number: int
    ) -> List[str]:
        insn = op.insn
        taken = tuple(s for s, k in block.succs if k == "taken")
        fall = tuple(s for s, k in block.succs if k != "taken")
        if self.stream and op.insn_index in self.null_tests:
            # a value pointer is null exactly where its shadow is None
            test = "is" if insn.op == isa.BPF_JEQ else "is not"
            cond = f"_v{insn.dst} {test} None"
            return self._enable_branch(cond, taken, fall)
        prelude, cond = _specialised(
            cmp_source(insn, self._reg), insn, stage_number)
        return prelude + self._enable_branch(cond, taken, fall)

    # -- op -> statements ----------------------------------------------------

    def op_may_side_effect(self, op: PipeOp) -> bool:
        """Whether ``op`` can return a side-effect descriptor (a map
        write to snapshot and flush-check)."""
        insn = op.insn
        cls = insn.opclass
        if cls in (isa.BPF_ST, isa.BPF_STX):
            return True
        if cls in (isa.BPF_JMP, isa.BPF_JMP32) and insn.is_call:
            try:
                spec = helper_spec(insn.imm)
            except HelperError:
                return True
            return spec.map_channel and insn.imm not in (1, 51)
        return False

    def _op_body(
        self, op: PipeOp, stage_number: int, in_entry: bool
    ) -> Optional[Tuple[List[str], bool]]:
        """Emit one op's statements (relative indent 0).

        Returns (lines, sets_done) or None when the op has no observable
        behaviour. ``sets_done`` says whether executing the op can set
        ``pkt.done`` (drops, exits) — later ops of the cycle loop then
        re-check it; in stream mode such an op leaves the packet body
        itself.
        """
        insn = op.insn
        cls = insn.opclass
        block = self.terminator_block.get(op.insn_index)
        flush = (
            self.any_flush and not in_entry and self.op_may_side_effect(op)
        )

        if cls in (isa.BPF_ALU64, isa.BPF_ALU):
            out = [] if self._dead_store(op) else _specialised(
                alu_source(insn, self._reg), insn, stage_number)
            if self.stream and op.insn_index in self.copies:
                out = out + ["_v{} = _v{}".format(
                    *self.copies[op.insn_index])]
            # ALU ops never set done: successor enabling needs no done
            # re-check.
            self._enable_after(out, block, False)
            return out, False

        if cls == isa.BPF_LDX:
            out = [] if self._dead_store(op) else self._ldx_lines(op)
            # Fully folded loads (constant stack offset, packet offset
            # under the entry threshold, ctx field) have no drop path:
            # no sim._* call appears, so done needs no re-check.
            sets_done = any("sim._" in line for line in out)
            self._enable_after(out, block, sets_done)
            return out, sets_done

        if cls == isa.BPF_LD:
            out = [] if self._dead_store(op) else self._ld_lines(insn)
            self._enable_after(out, block, False)
            return out, False

        if cls in (isa.BPF_ST, isa.BPF_STX):
            if insn.is_atomic:
                out = self._atomic_lines(op, flush)
            else:
                out = self._store_lines(op, stage_number, in_entry, flush)
            sets_done = any("sim._" in line for line in out) or flush
            self._enable_after(out, block, sets_done)
            if flush:
                out += self._flush_lines(stage_number)
            return out, sets_done

        if cls in (isa.BPF_JMP, isa.BPF_JMP32):
            if insn.is_exit:
                self.uses_actions = True
                verdict = f"_ACTIONS.get({self._reg(0)} & {_M32}, _ABORTED)"
                if self.stream:
                    constant = self._verdict(op)
                    if constant is not None:
                        verdict = self._action_name(constant)
                    return [f"_act = {verdict}", "break"], True
                return ["pkt.done = True", f"pkt.action = {verdict}"], True
            if insn.is_call:
                out = self._call_lines(op, flush, stage_number)
                # A call can terminate a block; helpers may drop the
                # packet, so the done re-check stays. Enabling happens
                # BEFORE the snapshot, so a restart resumes with the
                # successors enabled.
                self._enable_after(out, block, True)
                if flush:
                    out += self._flush_lines(stage_number)
                return out, True
            if block is None:
                # A jump with no block to terminate has no behaviour.
                return None
            if insn.is_cond_jump:
                return self._branch_lines(op, block, stage_number), False
            return self._enable_lines(block), False

        # Unknown class: canonical simulator error at execution time.
        self.uses_sim_error = True
        return [f'raise SimError("unknown instruction class {cls:#x}")'], False

    # -- stage / entry bodies ------------------------------------------------

    def stage_body(self, stage: Stage) -> Optional[Tuple[List[str], bool]]:
        """The guarded op sequence of one stage (relative indent 0).

        Returns (lines, has_flush) or None when the stage has nothing to
        execute. The caller guarantees ``pkt.done`` is False on entry
        (the ``_s<N>`` prologue), so done is only re-checked after
        ops that can set it — the interpreted path's per-op break.
        """
        if stage.kind is not StageKind.OPS or not stage.ops:
            return None
        out: List[str] = []
        has_flush = False
        done_dirty = False
        for op in stage.ops:
            body = self._op_body(op, stage.number, in_entry=False)
            if body is None:
                continue
            lines, sets_done = body
            guard = f"{op.block_id} in enabled"
            if done_dirty:
                guard = f"not pkt.done and {guard}"
            out.append(f"if {guard}:")
            out += _ind(lines)
            done_dirty = done_dirty or sets_done
            if self.any_flush and self.op_may_side_effect(op):
                has_flush = True
        if not out:
            return None
        return out, has_flush

    def entry_body(self) -> Optional[List[str]]:
        """Entry ops run unconditionally, with no inter-op done checks
        (like ``sim._interpreted_entry``); side effects are impossible
        for ctx loads and are ignored."""
        if not self.pipeline.entry_ops:
            return None
        out: List[str] = []
        for op in self.pipeline.entry_ops:
            body = self._op_body(op, stage_number=1, in_entry=True)
            if body is None:
                continue
            out += body[0]
        return out or None

    def _line_rate_timing(self) -> _StreamTiming:
        """Cycle accounting of a stall-free pipeline: every packet is
        injected the cycle it arrives (``i * gap``) and exits
        ``n_stages`` later, so nothing queues, nothing drops and the
        tally sums are closed-form in the packet count."""
        n = self.pipeline.n_stages
        return _StreamTiming(
            init=["cycle = 0"],
            head=[
                f"if cycle + {n} >= _max:",
                '    raise SimError("simulation exceeded %d cycles" % _max)',
            ],
            tail=[],
            record=("cycle", "cycle", f"cycle + {n}"),
            cycles=f"report.cycles = (pid - 1) * gap + {n + 1}",
            drops=[],
            sums=(f"pid * {n}", f"pid * {n}"),
        )

    def _window_timing(self, lo: int, hi: int, held: str,
                       bank: Optional[BankKey], lane: Tuple[List[str], str],
                       after: Optional[str]) -> _StreamTiming:
        """Cycle accounting of a pipeline with one serialization window
        ``[lo, hi]``, ``lo >= 2``, that a packet holds when ``held`` (an
        expression over the body's block flags) is true. Which packets
        hold depends on their paths, but not on when they run, so the
        cycle loop's stalls reduce to a recurrence over accepted packets
        ``k`` (``W = hi - lo + 1``):

        * the input queue holds the accepted packets not injected
          strictly before the arrival cycle; a frame arriving to a full
          queue is dropped and never executes;
        * ``inj[k] = max(arr, inj[k-1] + 1, ent[k-(lo-1)])`` — the
          ``lo - 1`` stages ahead of the window back up behind it, so
          stage 1 frees when the packet ``lo - 1`` places ahead enters;
        * ``ent[k] = max(inj[k] + lo - 1, ent[k-1] + 1, free[b] if k
          holds)`` — packets enter stage ``lo`` one per cycle at most,
          and a holder of lane ``b`` enters the cycle the last holder of
          that lane frees it (``free[b]``): its entry plus its release
          offset where the window forwards (``after``, an expression
          over the block flags: ``core.pipeline.Forwarding.release``),
          the stage from which the cycle loop's interlock lets a packet
          of its lane in, else plus ``W``, the cycle it leaves stage
          ``hi`` (deepest-first shifting vacates it in the same cycle);
          a packet that does not hold passes through. A window without a
          lane key has the one lane; a banked one reads ``b`` from the
          key the packet leaves on its stack (``bank``; ``lane`` holds
          the statements and the expression that read it off the
          atoms), which no store at or past ``lo`` changes
          (``hazards.bank_key``), and a keyed one takes the key itself,
          keeping ``free`` only for keys whose
          last holder is still in the window;
        * ``exit[k] = ent[k] + n - lo + 1`` — past stage ``lo`` nothing
          stalls.

        The cycle loop decides whether a packet holds from the blocks it
        has enabled when it enters ``lo``; a holder block enabled later
        implies one enabled by then (``hazards.window_holders``), so the
        flags the finished body leaves decide the same. The head settles
        the queue and ``inj[k]`` before the body runs (a dropped frame
        never executes), the tail ``ent[k]`` after it.
        """
        n = self.pipeline.n_stages
        after = after or str(hi - lo + 1)
        pack, key = lane
        self.uses_deque = True
        if bank is None:
            frees = ["_exit = _free = _drops = _tot = _pip = 0"]
            wait = ["if _free > _went:",
                    "    _went = _free",
                    f"_free = _went + {after}"]
        elif not bank.keyed:
            self.uses_bank = True
            frees = [f"_free = [0] * {bank.banks}",
                     "_exit = _drops = _tot = _pip = 0"]
            # a lane key the body packed comes with its bank (_atom_bytes)
            hashed = [] if key.startswith("_sb") else [
                f"_bk = _bank_of({key}, {bank.banks})"]
            wait = pack + hashed + ["if _free[_bk] > _went:",
                                    "    _went = _free[_bk]",
                                    f"_free[_bk] = _went + {after}"]
        else:
            # per key, the cycle its last holder frees it (leaves the
            # window, or is its release in); _held queues
            # (free, key) in entry order to retire the rest
            frees = ["_free = {}", "_held = _deque()",
                     "_exit = _drops = _tot = _pip = 0"]
            wait = pack + [f"_bk = {key}",
                           "while _held and _held[0][0] <= _went:",
                           "    _f, _k = _held.popleft()",
                           "    if _free[_k] == _f:",
                           "        del _free[_k]",
                           "_f = _free.get(_bk, 0)",
                           "if _f > _went:",
                           "    _went = _f",
                           f"_f = _free[_bk] = _went + {after}",
                           "_held.append((_f, _bk))"]
        clock = (["_t0 = sim.time_ns",
                  "_cns = 1000.0 / sim.options.clock_mhz"]
                 if self.uses_clock else [])
        return _StreamTiming(
            init=[
                "cycle = 0",
                "_cap = sim.options.input_queue_capacity",
                "_inq = _deque()",
                f"_ring = [0] * {lo - 1}",
                "_ri = 0",
                "_inj = _went = -1",
            ] + frees + clock,
            head=[
                "while _inq and _inq[0] < cycle:",
                "    _inq.popleft()",
                "if len(_inq) >= _cap:",
                "    _drops += 1",
                "    cycle += gap",
                "    continue",
                "_inj += 1",
                "if cycle > _inj:",
                "    _inj = cycle",
                "if _ring[_ri] > _inj:",
                "    _inj = _ring[_ri]",
                "_inq.append(_inj)",
            ],
            tail=[
                "_went += 1",
                f"if _inj + {lo - 1} > _went:",
                f"    _went = _inj + {lo - 1}",
            ] + (wait if held == "True" else [f"if {held}:"] + _ind(wait)) + [
                "_ring[_ri] = _went",
                "_ri += 1",
                f"if _ri == {lo - 1}:",
                "    _ri = 0",
                f"_exit = _went + {n - lo + 1}",
                "if _exit >= _max:",
                '    raise SimError("simulation exceeded %d cycles" % _max)',
                "_tot += _exit - cycle",
                "_pip += _exit - _inj",
            ],
            record=("cycle", "_inj", "_exit"),
            cycles="report.cycles = _exit + 1",
            drops=["report.packets_dropped_queue += _drops"],
            sums=("_tot", "_pip"),
        )

    def stream_body(self) -> List[str]:
        """One packet per loop iteration, every stage's ops in one flat
        body, cycle counts computed closed-form. Mirrors run()'s
        per-packet event order: entry length checks, entry ops, stage
        1..N ops, finalize, record/tally. Only called when
        ``stream_blocker`` found no obstacle, so at most one window
        exists and it starts past stage 1. The module docstring lays
        out the function this returns."""
        pipeline = self.pipeline
        self.uses_stream = True
        self.uses_sim_error = True
        self.uses_actions = True

        # The op emitters in stream mode. Flush checks, snapshots and
        # read tracking are provably dead here (no plan at all, or every
        # plan inside the window — see stream_blocker), so they are
        # elided either way.
        hazard_modes = self.any_flush, self.maintain
        windows = pipeline.held_windows
        self.window_lo = windows[0][0] if windows else 0
        self.stream = True
        self.lookups = self.folded_lookups = self.spill_sites = 0
        self.writes = self.folded_writes = 0
        self.stack_spills = False
        self.any_flush = self.maintain = False
        placed = self._stream_placed()
        bank = windows[0][3] if windows else None
        self._stack_atoms(placed, bank)
        if bank is not None and not bank.keyed:
            self.lane_bank = (bank.map_fd, (_STK_SZ + bank.offset, bank.size),
                              bank.banks)
        try:
            scan = self._stream_scan(placed)
            shadows = self._stream_values(scan)
            self._stream_fits(scan)
            self._store_runs(scan)
            entry_live = self._stream_liveness(placed)
            self._shadow_liveness(*shadows)
            gen, kill, touch = self._atom_effects(scan)
            if bank is not None and self.atoms:
                self.leaving = set()
            self._load_runs(placed, scan, touch)
            ops, exits, avail_out = self._stream_ops(placed)
            zeroed = self._atoms_read_first(
                gen, kill, windows[0] if windows else None, self.leaving)
        finally:
            self.stream = False
            self.any_flush, self.maintain = hazard_modes
            self.live_out, self.dead_stores = None, set()
            self.by_slot, self.null_tests, self.copies = {}, {}, {}
            self.runs, self.run_reads, self.fed = {}, {}, {}
            self.shadowed = self.fits = frozenset()
            self.leaving = None
        named = _idents(ops)
        if windows:
            (lo, hi, holders, bank, forward), = windows
            lane: Tuple[List[str], str] = ([], "")
            if bank is not None:
                self.avail = self._avail_after(holders, exits, avail_out)
                start = _STK_SZ + bank.offset
                lane = (([], self._atom_int(start, bank.size))
                        if bank.keyed and bank.size in _STRUCT_FMT
                        else self._atom_bytes(start, bank.size))
            self.lane_bank = None
            # The entry block's flag is constant: every packet holds. A
            # holder all of whose predecessors hold is enabled only after
            # one of them, so the others' flags decide.
            blocks = pipeline.cfg.blocks
            entry = pipeline.cfg.entry.block_id
            held = "True" if entry in holders else \
                " or ".join(f"_e{b}" for b in sorted(holders)
                            if not holders.issuperset(blocks[b].preds)
                            and f"_e{b}" in named)
            after = None
            if forward is not None:
                after = _release_offset(forward.release, named)
                if not after.isdigit():
                    after = f"({after})"
            timing = self._window_timing(lo, hi, held, bank, lane, after)
        else:
            timing = self._line_rate_timing()

        # -- once per run ------------------------------------------------------
        # One reused _InFlight: only state the emitted ops can observe is
        # ever restored. inject_cycle, enabled, position and the
        # read/write tracking dicts are never touched on this path
        # (records carry the closed-form cycles, predication runs on
        # local flags), so they keep their defaults; regs is the spill
        # area of the fallbacks that go through pkt.regs.
        out = ["pid = 0"] + timing.init + [
            "_max = sim.options.max_cycles",
            'pkt = _IF(0, b"", 0)',
            "_c = pkt.ctx",
        ]
        if self.stack_spills:
            out.append("stack = pkt.stack")
        if "regs" in named:
            out.append("regs = pkt.regs")
        if "_hc" in named:
            out.append("_hc = _HC(sim, pkt)")
        out += [f"{name} = {struct}"
                for name, struct in sorted(self.run_structs.items())
                if name in named]
        for fd, spec in sorted(pipeline.program.maps.items()):
            handle, storage = f"_m{fd}", f"_st{fd}"
            lookup, update = f"_lk{fd}", f"_up{fd}"
            if {handle, storage, lookup, update} & named:
                out.append(f"{handle} = sim.maps[{fd}]")
            if storage in named:
                out.append(f"{storage} = {handle}.storage")
            # The unchecked cores (Map._find, Map._update): every key and
            # value the body passes is sliced at the map's own sizes. A
            # plain hash map's slot directory IS its lookup.
            if lookup in named:
                out.append(f"{lookup} = {handle}." + (
                    "_slot_by_key.get" if spec.map_type == "hash"
                    else "_find"))
            if update in named:
                out.append(f"{update} = {handle}._update")

        # -- once per frame ----------------------------------------------------
        blk: List[str] = list(timing.head)
        if self.pkt_writes:
            blk.append("_b = _c.packet = bytearray(frame)")
        else:
            # No emitted op can mutate packet bytes: wrap without copy.
            blk.append("_b = _c.packet = frame")
        if _ADJUST_HEAD in self.helpers:
            blk.append("_c.head_adjust = 0")
        if _ADJUST_TAIL in self.helpers:
            blk.append("_c.tail_adjust = 0")
        if self.redirects:
            blk.append("_c.redirect_ifindex = None")
        if "done" in named:  # some fallback reports through pkt.done
            blk.append("pkt.done = False")
        # A stack atom reads 0 until stored, as the VM's zeroed stack
        # does; ``stack`` itself needs it only where some site reaches
        # it by address, which also reads the bytes that are no atom.
        if self.stack_spills:
            blk.append("stack[:] = _ZSTACK")
        if self.stack_spills:
            zeroed = sorted(self.atoms)
        if zeroed:
            blk.append(" = ".join(f"_s{at}" for at in zeroed) + " = 0")
        # A register starts as the VM starts it (r1 the context, r10
        # the stack top, the rest 0) only where a rendered read may take
        # that value: the others are assigned before every read.
        init = {isa.R1: AddressSpace.CTX_BASE,
                isa.R10: AddressSpace.stack_top()}
        used = sorted(entry_live)
        zeroed = [f"r{n}" for n in used if n not in init]
        if zeroed:
            blk.append(" = ".join(zeroed) + " = 0")
        blk += [f"r{n} = {hex(init[n])}" for n in used if n in init]
        flags = [f"_e{b.block_id}" for b in pipeline.cfg.blocks
                 if f"_e{b.block_id}" in named]
        if flags:
            blk.append(" = ".join(flags) + " = False")

        # The packet body: a one-shot block that a verdict, a drop or an
        # entry length check leaves by ``break`` with ``_act`` set.
        body: List[str] = []
        if pipeline.entry_checks:
            body.append("_pl = len(_b)")
            for min_len, action in pipeline.entry_checks:
                body += [
                    f"if _pl < {min_len}:",
                    f"    _act = {self._action_name(action)}",
                    "    break",
                ]
        # Past the last stage without an exit: like the kernel treats a
        # fault (sim._finalize).
        ops_at = len(blk) + 1 + len(body)  # where the ops start in blk
        body += ops + ["_act = _ABORTED", "break"]
        blk += ["while True:"] + _ind(body) + timing.tail

        # Exit accounting. The per-packet aggregates are batched: the
        # cycle sums come from the timing model and only the action
        # histogram needs per-packet work.
        if self.stores_may_pend and "_mem_store" in named:
            blk += ["if pkt.pending_writes:", "    sim._finalize(pkt)"]
        arrival, inject, exit_ = timing.record
        blk += [
            "_cnt[_act] = _cnt.get(_act, 0) + 1",
            "if keep_records:",
            "    _recs.append(_PR(pid=pid, action=_act, "
            f"data=bytes(_b), arrival_cycle={arrival}, "
            f"inject_cycle={inject}, exit_cycle={exit_}, restarts=0"
            + (", egress=_c.redirect_ifindex if _act is _REDIRECT_ACT "
               "else None" if self.redirects else "") + "))",
            "pid += 1",
            "cycle += gap",
        ]

        total, in_pipeline = timing.sums
        # the constant verdicts (_action_name)
        out += [f"_{action.name} = _ACTIONS[{int(action)}]"
                for action in sorted(self.verdicts)]
        out += ["_cnt = {}", "_recs = report.records", "for frame in frames:"]
        ops_at += len(out)
        out += _ind(blk)
        out += ["if pid:", "    " + timing.cycles] + [
            "report.packets_in += pid",
            "report.packets_out += pid",
        ] + timing.drops + [
            "_ac = report.action_counts",
            "for _k, _v in _cnt.items():",
            "    _ac[_k] = _ac.get(_k, 0) + _v",
            f"report.sum_total_cycles += {total}",
            f"report.sum_pipeline_cycles += {in_pipeline}",
            "return pid",
        ]
        # every name the function uses, the ops' scanned once (_fn)
        self.stream_names = named | _idents(
            out[:ops_at] + out[ops_at + len(ops):])
        return out

    def _stream_placed(self) -> Dict[int, List[Tuple[PipeOp, int, bool]]]:
        """Per block, ``(op, stage, in_entry)`` of its ops in stage
        order — the entry ops first in the entry block."""
        pipeline = self.pipeline
        placed: Dict[int, List[Tuple[PipeOp, int, bool]]] = {
            pipeline.cfg.entry.block_id: [
                (op, 1, True) for op in pipeline.entry_ops]}
        for stage in pipeline.stages:
            if stage.kind is StageKind.OPS:
                for op in stage.ops or ():
                    placed.setdefault(op.block_id, []).append(
                        (op, stage.number, False))
        return placed

    def _stack_atoms(self, placed, bank: Optional[BankKey]) -> None:
        """Partition the stack bytes the stream body addresses statically
        — constant-offset loads and stores, the key and value slices of
        folded map requests, the window's lane key (``bank``) — into the
        coarsest atoms of which each of those ranges is a union, each
        cut into 1-, 2-, 4- or 8-byte little-endian locals ``_s<start>``
        (``atoms``). A slice read as bytes more than once is ``bound``."""
        ranges: List[Tuple[int, int]] = []
        reads: Dict[Tuple[int, int], int] = {}
        stack = Region.STACK  # an enum member read is a metaclass lookup
        for op, _stage, _in_entry in (p for ops in placed.values()
                                      for p in ops):
            info, label = op.call, op.label
            if info is not None:
                spec = self._bound_spec(info.map_fd)
                helper_id = op.insn.imm
                if spec is None or helper_id not in (
                        BPF_MAP_LOOKUP_ELEM, BPF_MAP_UPDATE_ELEM,
                        BPF_MAP_DELETE_ELEM):
                    continue
                slices = self._stack_operands(helper_id, info, spec) or []
                ranges += slices
                if helper_id == BPF_MAP_LOOKUP_ELEM and \
                        spec.map_type in _ARRAYS:
                    continue  # the index is an integer
                for piece in slices:
                    reads[piece] = reads.get(piece, 0) + 1
            elif (label is not None and label.region is stack
                  and label.offset is not None and not op.insn.is_atomic
                  and op.insn.opclass in (isa.BPF_LDX, isa.BPF_ST,
                                          isa.BPF_STX)):
                size = op.insn.size_bytes
                start = self._stack_index(label.offset, size)
                if start is not None:
                    ranges.append((start, size))
        if bank is not None:
            lane = (_STK_SZ + bank.offset, bank.size)
            ranges.append(lane)
            if not (bank.keyed and bank.size in _STRUCT_FMT):
                reads[lane] = reads.get(lane, 0) + 1
        covered: set = set()
        for start, size in ranges:
            covered.update(range(start, start + size))
        cuts = sorted({start for start, _size in ranges}
                      | {start + size for start, size in ranges})
        self.atoms = {}
        for lo, hi in zip(cuts, cuts[1:]):
            while lo < hi and lo in covered:
                size = next(n for n in (8, 4, 2, 1) if n <= hi - lo)
                self.atoms[lo] = size
                lo += size
        self.bound = frozenset(piece for piece, count in reads.items()
                               if count > 1)

    # -- _stream's registers: liveness over what the rendering reads ----------

    def _stream_liveness(self, placed) -> FrozenSet[int]:
        """Set ``live_out`` from ``liveness.reg_liveness`` over the reads
        the stream body renders (``_stream_reads``) and return the
        registers live on entry, which each frame initialises. An
        instruction the body never renders (an arm whose bounds check
        became an entry length check) is made to kill nothing."""
        program = self.pipeline.program
        facts = program_facts(program)
        reads = [r | w for r, w in zip(facts.reads, facts.writes)]
        pure: Dict[int, int] = {}  # insn index -> destination register
        for op, _stage, _in_entry in (p for ops in placed.values()
                                      for p in ops):
            reads[op.insn_index] = self._stream_reads(op)
            if self._pure(op):
                pure[op.insn_index] = op.insn.dst
        # a store the body leaves out reads nothing either: the whole
        # chain ``r2 = r10; r2 += -16`` of a folded key pointer dies
        live_in, self.live_out = reg_liveness(program, reads, pure)
        self.dead_stores = {index for index, dst in pure.items()
                            if dst not in self.live_out[index]}
        return live_in[0]

    def _stream_reads(self, op: PipeOp) -> int:
        """Bit r: the stream body's rendering of ``op`` reads register r.
        That is the ISA's read set (``liveness.regs_read``: a helper
        reads r1..r<nargs>) but where the rendering folds the read away
        or adds one: a load or store at a constant offset reads no
        pointer (a stack atom, ``_b`` or ``_c`` at a literal offset), a
        folded map request reads only an update's flags in r4 (its fd is
        folded, its key and value are stack atoms), ``bpf_redirect``
        only r1, a ``sim._map_channel_call`` fallback the registers it
        spills, and an exit whose verdict is a constant no r0. A map-value
        access addressed by slot reads its base register's shadow, not
        the register (a store its source, a store run's last member all
        the run's sources, ``run_reads``), and so does a null test read
        off a shadow."""
        insn = op.insn
        index = op.insn_index
        if insn.opcode & 0x07 in _ALU_CLASSES:  # as the ISA states
            return program_facts(self.pipeline.program).reads[index]
        label, size = op.label, insn.size_bytes
        if index in self.null_tests:
            return 0
        if index in self.by_slot:
            if index in self.runs:
                return self.run_reads.get(index, 0)
            return 1 << insn.src if insn.opclass == isa.BPF_STX else 0
        if insn.is_exit:
            return 0 if self._verdict(op) is not None else 1 << isa.R0
        if insn.is_call:
            return self._call_reads(op)
        if insn.is_mem_load and label is not None \
                and self._ldx_folds(label, size) is not None:
            return 0
        if insn.opclass in (isa.BPF_ST, isa.BPF_STX) and not insn.is_atomic \
                and self._store_folds(label, size):
            return 1 << insn.src if insn.opclass == isa.BPF_STX else 0
        return program_facts(self.pipeline.program).reads[op.insn_index]

    def _call_reads(self, op: PipeOp) -> int:
        """``_stream_reads`` of a helper call (``_call_lines``)."""
        helper_id = op.insn.imm
        if helper_id == _REDIRECT_HELPER:
            return 1 << isa.R1
        arity = sum(1 << n for n in self._arity(helper_id))
        if not helper_spec(helper_id).map_channel:
            return arity
        info = op.call
        spec = self._bound_spec(info.map_fd if info is not None else None)
        if spec is not None and helper_id == BPF_REDIRECT_MAP:
            return 1 << isa.R3 | (1 << isa.R2 if spec.key_size == 4 else 0)
        folded = spec is not None and self._stack_operands(
            helper_id, info, spec) is not None
        if helper_id == BPF_MAP_LOOKUP_ELEM and spec is not None:
            return 0 if folded else 1 << isa.R2  # else the key by address
        if folded:
            return 1 << isa.R4 if helper_id == BPF_MAP_UPDATE_ELEM else 0
        return arity | 1 << isa.R0  # sim._map_channel_call's spill

    def _pure(self, op: PipeOp) -> bool:
        """Whether all ``op`` does in the stream body is write its
        destination register: an ALU op, a 64-bit immediate, a load
        folded to a stack atom, a context field or a frame offset the
        entry length checks cover (no drop path), or of a map value
        addressed by slot."""
        insn = op.insn
        if insn.opcode & 0x07 in _ALU_CLASSES:
            return True
        if not insn.is_mem_load:
            return False
        return op.insn_index in self.by_slot or op.label is not None \
            and self._ldx_folds(op.label, insn.size_bytes) is False

    def _keeps(self, op: PipeOp, reg: int) -> bool:
        """Whether the body renders ``op``'s store to register ``reg``:
        the cycle loop always, ``_stream`` where some read it renders
        takes the value (``live_out``)."""
        return self.live_out is None or reg in self.live_out[op.insn_index]

    def _dead_store(self, op: PipeOp) -> bool:
        """Whether the stream body leaves ``op`` out: it is ``_pure`` and
        no read the body renders takes the value it leaves."""
        return op.insn_index in self.dead_stores

    def _verdict(self, op: PipeOp) -> Optional[int]:
        """The r0 the exit ``op`` reads where its reaching definition is
        a constant: the last write of r0 before it in its own block is
        ``r0 = imm``. None where r0 comes from anywhere else — another
        block (two arms that set it join before the exit), a helper, an
        ALU op."""
        program = self.pipeline.program
        writes = program_facts(program).writes
        block = self.pipeline.cfg.blocks[op.block_id]
        for index in range(op.insn_index - 1, block.start - 1, -1):
            if writes[index] >> isa.R0 & 1:
                insn = program.instructions[index]
                if insn.is_alu and insn.op == isa.BPF_MOV \
                        and not insn.uses_reg_src:
                    return insn.imm & MASK32
                return None
        return None

    def _action_name(self, code: int) -> str:
        """The local that holds the verdict ``code`` names
        (``XdpAction.of``): ``_ABORTED`` and ``_DROP`` are bound for the
        module, the others once per run in ``_stream``'s prologue."""
        action = XdpAction.of(code)
        if action not in (XdpAction.ABORTED, XdpAction.DROP):
            self.verdicts.add(action)
        return f"_{action.name}"

    def _stream_ops(self, placed) -> Tuple[
            List[str], List[Tuple[int, FrozenSet[Tuple[int, int]]]],
            Dict[int, FrozenSet[Tuple[int, int]]]]:
        """Every block's ops in topological block order, each block's in
        stage order, for one packet that is never done when an op starts
        (a decided packet has left). On the packet's one path that is
        the order the stages run them: every block starts after its
        predecessors end, and blocks sharing a stage are exclusive. A
        block's ops share one ``if _e<block>:``; the entry block's flag
        is constant, so its ops carry none. Nesting depth therefore
        follows op structure, not the stage count.

        Returns the lines; per op that can leave the body, its block
        and the packed slices that are available wherever it leaves;
        per block, those available at its end. A slice is available
        where every path to it packed it with no store to its atoms
        since (``_atom_bytes``, ``_kill``, ``_stack_in``): at a block's
        start, the slices available at the end of all its
        predecessors."""
        cfg = self.pipeline.cfg
        entry_block = cfg.entry.block_id
        out: List[str] = []
        exits: List[Tuple[int, FrozenSet[Tuple[int, int]]]] = []
        avail_out: Dict[int, FrozenSet[Tuple[int, int]]] = {}
        for block in cfg.topo_order:
            preds = cfg.blocks[block].preds
            self.avail = set(frozenset.intersection(*(
                avail_out.get(p, frozenset()) for p in preds))) \
                if preds and block != entry_block else set()
            lines: List[str] = []
            for op, stage_number, in_entry in placed.get(block, ()):
                before = set(self.avail)
                emitted = self._op_body(op, stage_number, in_entry)
                if emitted is None:
                    continue
                lines += emitted[0]
                if (self.bound or self.leaving is not None) and any(
                        line.endswith("break") for line in emitted[0]):
                    if self.leaving is not None:
                        self.leaving.add(op.insn_index)
                    # no op both kills a slice and packs it
                    exits.append((block, frozenset(before & self.avail)))
            avail_out[block] = frozenset(self.avail)
            if lines and block != entry_block:
                lines = [f"if _e{block}:"] + _ind(lines)
            out += lines
        return out, exits, avail_out

    def _avail_after(self, holders, exits, avail_out) -> set:
        """The packed slices available after the body to a packet that
        holds the window: it ran one of the ``holders``, so it left the
        body in one of them or in a block they reach — by a ``break``
        (``exits``), past the last op of a block with no successor, or,
        if the entry block holds, at an entry length check."""
        cfg = self.pipeline.cfg
        reach = self._reach(holders)
        ways = [avail for block, avail in exits if block in reach]
        ways += [avail_out.get(block, frozenset()) for block in reach
                 if not cfg.blocks[block].succs]
        if cfg.entry.block_id in reach and self.pipeline.entry_checks:
            ways.append(frozenset())
        return set(frozenset.intersection(*ways)) if ways else set()

    def _reach(self, holders) -> set:
        """The blocks a packet that ran one of ``holders`` may run after:
        they and every block they reach."""
        blocks = self.pipeline.cfg.blocks
        reach, todo = set(), list(holders)
        while todo:
            block = todo.pop()
            if block not in reach:
                reach.add(block)
                todo += [succ for succ, _kind in blocks[block].succs]
        return reach

    # -- _stream's map values: slots, runs and fed atoms ----------------------

    def _stream_scan(self, placed) -> "_Scan":
        """One pass over the body's ops, by opcode and label, that sorts
        out the few each analysis below reads (``_Scan``)."""
        scan = _Scan({}, {}, {}, [], [], {}, [], {})
        for block, ops in placed.items():
            for position, (op, stage, entry) in enumerate(ops):
                insn, label, index = op.insn, op.label, op.insn_index
                code = insn.opcode
                cls = code & 0x07
                scan.at[index] = (block, position)
                if cls == isa.BPF_ALU64:
                    if code == _MOV64_X:
                        scan.moves[index] = (insn.dst, insn.src)
                    elif code in _SHIFTS_K:
                        scan.shifts[index] = insn.dst
                elif cls == isa.BPF_JMP:
                    if code == _CALL:
                        scan.stack.append(op)
                        if self._folded_lookup(op):
                            scan.lookups[index] = op.call.map_fd
                    elif code in _NULL_TESTS and insn.imm == 0:
                        scan.readers.append((op, stage))
                elif cls in (isa.BPF_LDX, isa.BPF_ST, isa.BPF_STX):
                    region = None if label is None else label.region
                    if region is None or region is Region.STACK:
                        scan.stack.append(op)
                    elif region is Region.MAP_VALUE:
                        scan.readers.append((op, stage))
                    if code & 0xE7 == isa.BPF_STX | isa.BPF_MEM:
                        scan.stores.append((block, op))
                    elif code & 0xE7 == isa.BPF_LDX | isa.BPF_MEM \
                            and not entry and (
                                region is Region.MAP_VALUE
                                or region is Region.PACKET
                                and label.offset is not None
                                and 0 <= label.offset
                                <= self.pkt_min_len - insn.size_bytes):
                        scan.loads.setdefault(block, []).append(op)
        return scan

    def _stream_values(self, scan: "_Scan") -> Tuple[
            Dict[int, Tuple[int, int]], FrozenSet[int], FrozenSet[int]]:
        """Rule 1 of the module docstring's *map values*, one forward
        sweep over the program's blocks (a program with a backward edge
        addresses no value by slot). Before each instruction it knows,
        per register, the map whose value the register's shadow
        ``_v<reg>`` addresses — set by a folded lookup, copied by a
        64-bit ``mov``, kept by ``±`` an immediate on a pointer the
        verifier proved non-null, lost by any other write or where two
        paths disagree.

        Sets ``by_slot`` (a load, store or arithmetic atomic at a
        constant in-value offset ``k``, ``0 <= k <= VS - size``, through
        a register whose shadow addresses the labelled map; a store at
        or past the map's commit stage, an atomic only where no store
        can pend a write) and ``null_tests`` (``== 0`` / ``!= 0`` on such
        a register). Returns the candidate shadow copies, the shifts
        that keep a shadow and the folded lookups, for
        ``_shadow_liveness``."""
        sets, moves, shifts, readers = (scan.lookups, scan.moves,
                                        scan.shifts, scan.readers)
        facts = program_facts(self.pipeline.program)
        if not sets or not facts.forward:
            return {}, frozenset(), frozenset()
        # per block in topological order (the edges go forward: the CFG
        # has no cycle), the state two paths agree on at its start, then
        # each instruction in turn; the state before each op that reads
        # or moves a shadow is kept
        cfg = self.pipeline.cfg
        care = {*moves, *shifts, *(op.insn_index for op, _stage in readers)}
        # a block that sets, copies or keeps no shadow passes no shadow on
        # from a start that has none
        acting = {scan.at[index][0] for index in (*sets, *moves, *shifts)}
        flow: Dict[int, Dict[int, int]] = {}
        ends: Dict[int, Dict[int, int]] = {}
        for block in cfg.topo_order:
            outs = [ends[pred] for pred in cfg.blocks[block].preds
                    if pred in ends]
            if block == cfg.entry.block_id:
                state: Dict[int, int] = {}
            elif not outs:
                continue  # unreachable
            else:
                state = outs[0]
                for other in outs[1:]:
                    state = {reg: fd for reg, fd in state.items()
                             if other.get(reg) == fd}
            if not state and block not in acting:
                ends[block] = state
                continue
            held = sum(1 << reg for reg in state)
            for index in cfg.blocks[block].indices():
                if index in care:
                    flow[index] = state
                writes = facts.writes[index]
                if writes & held:
                    state = {reg: fd for reg, fd in state.items()
                             if not writes >> reg & 1}
                    held &= ~writes
                move, shift = moves.get(index), shifts.get(index)
                if index in sets:
                    state, held = {**state, isa.R0: sets[index]}, held | 1
                elif move is not None and move[1] in flow[index]:
                    state = {**state, move[0]: flow[index][move[1]]}
                    held |= 1 << move[0]
                elif shift in flow.get(index, ()) \
                        and self._non_null(index, shift):
                    state = {**state, shift: flow[index][shift]}
                    held |= 1 << shift
            ends[block] = state
        copies = {index: move for index, move in moves.items()
                  if move[1] in flow.get(index, ())}
        keeps = frozenset(index for index, reg in shifts.items()
                          if reg in flow.get(index, ())
                          and self._non_null(index, reg))
        for op, stage in readers:
            state, insn, label = flow.get(op.insn_index), op.insn, op.label
            if state is None:
                continue
            if insn.opclass == isa.BPF_JMP:
                if insn.dst in state:
                    self.null_tests[op.insn_index] = insn.dst
                continue
            base = insn.src if insn.is_mem_load else insn.dst
            spec = self._bound_spec(label.map_fd)
            if (spec is not None and label.offset is not None
                    and state.get(base) == label.map_fd
                    and 0 <= label.offset <= spec.value_size - insn.size_bytes
                    and self._slot_kind(op, stage)):
                self.by_slot[op.insn_index] = base
        return copies, keeps, frozenset(sets)

    def _non_null(self, index: int, reg: int) -> bool:
        """Whether the verifier proved register ``reg`` a non-null map
        value pointer before instruction ``index``: moved by ``±`` an
        immediate, its shadow, the value's start, stays (a null one
        would stop being 0, where its shadow stays None)."""
        state = self.pipeline.labels.verifier.state_before(index)
        return state is not None and state.reg(reg).kind is RegKind.MAP_VALUE

    def _stream_fits(self, scan: "_Scan") -> None:
        """Set ``fits``: the register stores whose source the body last
        wrote, in the store's own block, with a load no wider than the
        store or a non-negative immediate that fits it (an 8-byte store
        always fits: the register invariant). Their values need no
        mask."""
        program = self.pipeline.program
        insns, writes = program.instructions, program_facts(program).writes
        blocks = self.pipeline.cfg.blocks
        fits = set()
        for block, op in scan.stores:
            size, src = op.insn.size_bytes, op.insn.src
            if size == 8:
                fits.add(op.insn_index)
                continue
            for index in range(op.insn_index - 1,
                               blocks[block].start - 1, -1):
                if writes[index] >> src & 1:
                    if index in scan.at and _fits_in(
                            insns[index], size,
                            self.pipeline.labels.label_for(index)):
                        fits.add(op.insn_index)
                    break
        self.fits = frozenset(fits)

    def _folded_lookup(self, op: PipeOp) -> bool:
        """Whether ``op`` is a lookup ``_stream`` folds (``_map_call``)."""
        return (op.insn.is_call and op.insn.imm == BPF_MAP_LOOKUP_ELEM
                and op.call is not None
                and self._bound_spec(op.call.map_fd) is not None)

    def _slot_kind(self, op: PipeOp, stage: int) -> bool:
        """Whether a map-value access of ``op``'s kind may be addressed by
        slot: a load; a store at or past its map's commit stage (one
        before may stay WAR-buffered: ``sim._mem_store``); an arithmetic
        atomic where no store can pend a write (else its fast side tests
        ``pkt.pending_writes``)."""
        insn = op.insn
        if insn.is_mem_load:
            return True
        if not insn.is_atomic:
            return stage >= self.commits.get(op.label.map_fd, 0)
        return not self.stores_may_pend and insn.imm & ~isa.BPF_FETCH in (
            isa.ATOMIC_ADD, isa.ATOMIC_OR, isa.ATOMIC_AND, isa.ATOMIC_XOR)

    def _shadow_liveness(self, copies: Dict[int, Tuple[int, int]],
                         keeps: FrozenSet[int],
                         lookups: FrozenSet[int]) -> None:
        """Keep the shadow copies and lookup shadows some rendered read
        takes: ``liveness.mask_liveness`` over the shadows (bit r is
        ``_v<r>``), read by the accesses addressed by slot and the null
        tests, copied by a ``mov`` only where its destination is live
        after it (the strong rule), kept through a shift, lost by any
        other write of the register."""
        if not (self.by_slot or self.null_tests):
            return
        program = self.pipeline.program
        kill = list(program_facts(program).writes)
        gen = [0] * len(kill)
        for index, reg in (*self.by_slot.items(), *self.null_tests.items()):
            gen[index] |= 1 << reg
        for index, (_dst, src) in copies.items():
            gen[index] |= 1 << src
        for index in keeps:
            kill[index] = 0
        _live_in, live_out = mask_liveness(
            program, gen, kill,
            {index: dst for index, (dst, _src) in copies.items()})
        self.copies = {index: copy for index, copy in copies.items()
                       if live_out[index] >> copy[0] & 1}
        self.shadowed = frozenset(index for index in lookups
                                  if live_out[index] >> isa.R0 & 1)

    def _store_runs(self, scan: "_Scan") -> None:
        """Rule 2's stores: stores addressed by slot through one register
        into one value, next to each other both in a block's body and in
        the program, whose bytes tile one span, are one ``pack_into`` at
        the last of them — which reads every source (``run_reads``)."""
        stores = sorted((op for op, _stage in scan.readers
                         if self._slot_store(op)),
                        key=lambda op: op.insn_index)
        run: List[PipeOp] = []
        for op in (*stores, None):
            if run and op is not None:
                prev = run[-1]
                block, position = scan.at[prev.insn_index]
                if op.insn_index == prev.insn_index + 1 \
                        and scan.at[op.insn_index] == (block, position + 1) \
                        and self.by_slot[op.insn_index] \
                        == self.by_slot[prev.insn_index] \
                        and op.label.map_fd == prev.label.map_fd \
                        and op.label.offset \
                        == prev.label.offset + prev.insn.size_bytes:
                    run.append(op)
                    continue
            if len(run) > 1:
                for member in run:  # the preamble binds it, as it did
                    self._pack(member.insn.size_bytes)
                fmt = "".join(_STRUCT_FMT[member.insn.size_bytes][1]
                              for member in run)
                name = self._run_struct("_p_", fmt, "pack_into")
                values = ", ".join(self._store_value(member)[1]
                                   for member in run)
                last = run[-1].insn_index
                self.runs.update({member.insn_index: [] for member in run})
                self.runs[last] = [
                    f"{name}(_st{run[0].label.map_fd}, "
                    f"{self._slot_at(run[0])}, {values})"]
                self.run_reads[last] = sum(
                    1 << member.insn.src for member in run
                    if member.insn.opclass == isa.BPF_STX)
                self.coalesced += 1
            run = [op] if op is not None else []

    def _slot_store(self, op: PipeOp) -> bool:
        insn = op.insn
        return (op.insn_index in self.by_slot and not insn.is_atomic
                and insn.opclass in (isa.BPF_ST, isa.BPF_STX))

    def _run_struct(self, prefix: str, fmt: str, method: str) -> str:
        """The local, bound once per run, that is the ``method`` of
        ``Struct("<" + fmt)``."""
        name = prefix + fmt
        self.run_structs[name] = f'struct.Struct("<{fmt}").{method}'
        return name

    def _atom_effects(self, scan: "_Scan") -> Tuple[
            List[int], List[int], Dict[int, int]]:
        """Per instruction, the stack atoms (bit k: the k-th atom) the
        body reads before it writes any and those it overwrites, and per
        rendered op the atoms it touches either way. A rendered constant
        stack load reads its atoms (a load left out, none: the strong
        rule), a folded map request its key and value slices, a site that
        reaches ``stack`` by address all of them; a constant stack store
        overwrites its atoms. An instruction the body never renders does
        neither."""
        program = self.pipeline.program
        gen = [0] * len(program.instructions)
        kill = [0] * len(gen)
        touch: Dict[int, int] = {}
        if not self.atoms:
            return gen, kill, touch
        bits = {start: 1 << k for k, start in enumerate(sorted(self.atoms))}
        every = (1 << len(bits)) - 1

        def span(start: int, size: int) -> int:
            return sum(bits[at] for at, _n in self._atoms_in(start, size))

        for op in scan.stack:  # calls, memory ops on the stack or unknown
            insn, label, index = op.insn, op.label, op.insn_index
            reads = writes = 0
            if insn.opcode == _CALL:
                reads = self._call_atoms(op, span, every)
            elif label is None or label.offset is None or insn.is_atomic \
                    or (start := self._stack_index(
                        label.offset, insn.size_bytes)) is None:
                reads = every  # reaches ``stack`` by address
            elif insn.opclass != isa.BPF_LDX:
                writes = span(start, insn.size_bytes)
            elif not self._dead_store(op):
                reads = span(start, insn.size_bytes)
            gen[index], kill[index] = reads, writes
            touch[index] = reads | writes
        return gen, kill, touch

    def _call_atoms(self, op: PipeOp, span, every: int) -> int:
        """The atoms a helper call reads (``_atom_effects``): a folded
        map request its slices, a call that reaches ``stack`` by address
        (``_spilled``) all of them, any other none."""
        insn, info = op.insn, op.call
        spec = helper_spec(insn.imm)
        if not spec.map_channel:
            return every if spec.reads_stack else 0
        bound = self._bound_spec(info.map_fd if info is not None else None)
        if bound is None:
            return every  # sim._map_channel_call
        if insn.imm == BPF_REDIRECT_MAP:
            return 0
        slices = self._stack_operands(insn.imm, info, bound)
        if slices is None:
            # a lookup reads its key by address; an update or delete is
            # sim._map_channel_call
            return every
        return sum(span(*piece) for piece in slices)

    def _load_runs(self, placed, scan: "_Scan",
                   touch: Dict[int, int]) -> None:
        """Rule 2's loads, per block in the body's order. A load that is
        a run's member (``_run_item``: a constant ``_b`` offset the entry
        checks cover, or a value by slot) writes a register — or, where
        that register's one rendered reader is a store into one stack
        atom no wider than the load, that atom (``_fed_loads``) — and
        joins the open run on its buffer if, since the run's first
        member, nothing wrote that buffer, called a helper, or read or
        wrote its destination, and its bytes overlap no member's. A run
        ends where something writes its buffer, calls a helper, or
        redefines one of its destinations (a value's base register too).
        A run of one renders its load alone; a longer one is one
        ``unpack_from`` at its first member (``x`` pads the gaps)."""
        facts = program_facts(self.pipeline.program)
        # the blocks where a load may write a stack atom itself
        feeding = {block for block, op in scan.stores
                   if op.label is not None
                   and op.label.region is Region.STACK}
        for block, loads in scan.loads.items():
            items = {op.insn_index: item for op in loads
                     if not self._dead_store(op)
                     and (item := self._run_item(op)) is not None}
            if not items:
                continue
            if len(items) == 1 and block not in feeding:
                (index, (key, offset)), = items.items()
                op = next(op for op in loads if op.insn_index == index)
                self._close_run(_Run(key, op, offset, 0, 0), {})
                continue
            body = [op for op, _stage, entry in placed[block]
                    if not entry and not self._dead_store(op)]
            at = {op.insn_index: k for k, op in enumerate(body)}
            fed = self._fed_loads(block, body, at, items, touch) \
                if touch else {}
            feeds = {store: load for load, store in fed.items()}
            first = min(at[index] for index in items)
            last = max(at[index] for index in items)
            runs: Dict[tuple, _Run] = {}
            for op in body[first:last + 1]:
                item = items.get(op.insn_index)
                index = op.insn_index
                if item is None:
                    # the ISA's reads cover the rendered ones inside a
                    # run: a spill's extra r0 is a call's, which ends it,
                    # and a store run's sources its first member's too
                    reads, regs = facts.reads[index], facts.writes[index]
                    atoms = touch.get(index, 0)
                else:
                    key, offset = item
                    regs = 0 if index in fed else 1 << op.insn.dst
                    atoms = touch[fed[index]] if index in fed else 0
                    reads = 0
                    run = runs.get(key)
                    if run is not None and run.admits(
                            offset, op.insn.size_bytes, regs, atoms):
                        run.add(op, offset, regs, atoms)
                    else:
                        if run is not None:
                            self._close_run(run, fed)
                        runs[key] = _Run(key, op, offset, regs, atoms)
                for key, run in list(runs.items()):
                    # a member's fed store is that member's own write
                    if index in run.loads or feeds.get(index) in run.loads:
                        continue
                    if run.ended_by(op, regs, atoms):
                        self._close_run(run, fed)
                        del runs[key]
                    else:
                        run.regs |= reads | regs
                        run.atoms |= atoms
            for run in runs.values():
                self._close_run(run, fed)

    def _run_item(self, op: PipeOp) -> Optional[Tuple[tuple, int]]:
        """``(buffer, offset)`` of a load a run may take: a value by slot
        (its map and base register name the buffer) or a constant frame
        offset the entry length checks cover; else None."""
        insn, label = op.insn, op.label
        if not insn.is_mem_load or label is None:
            return None
        if op.insn_index in self.by_slot:
            return (label.map_fd, self.by_slot[op.insn_index]), label.offset
        if label.region is Region.PACKET and label.offset is not None \
                and 0 <= label.offset <= self.pkt_min_len - insn.size_bytes:
            return ("_b",), label.offset
        return None

    def _fed_loads(self, block: int, body: List[PipeOp],
                   at: Dict[int, int], items,
                   touch: Dict[int, int]) -> Dict[int, int]:
        """Load -> the stack store that is its register's one rendered
        reader, where the load may write that store's atom itself: the
        store writes exactly one atom, is no narrower than the load and
        is the first instruction after it (in program order) to read the
        register, which nothing reads after it (``live_out``), and no op
        between the two in the body touches the atom. ``at``: each op's
        place in the body; ``items``: the body's run members. Records
        each such store in ``fed``."""
        facts = program_facts(self.pipeline.program)
        ops = {op.insn_index: op for op in body}
        pending: Dict[int, int] = {}  # register -> the load that wrote it
        held = 0  # the registers pending names
        fed: Dict[int, int] = {}
        last = max(items)
        for index in range(min(items), self.pipeline.cfg.blocks[block].end):
            if not held and index > last:
                break
            reads = facts.reads[index]
            touched = (reads | facts.writes[index]) & held
            held &= ~touched
            while touched:
                reg = touched.bit_length() - 1
                touched &= ~(1 << reg)
                load = pending.pop(reg)
                store = ops.get(index)
                if (reads >> reg & 1 and store is not None
                        and self._feeds(ops[load], store)
                        and at[load] < at[index]
                        and not any(touch.get(op.insn_index, 0)
                                    & touch[index]
                                    for op in body[at[load] + 1:at[index]])):
                    fed[load] = index
            if index in items:
                pending[ops[index].insn.dst] = index
                held |= 1 << ops[index].insn.dst
        for load, store in fed.items():
            label = ops[store].label
            self.fed[store] = (self._stack_index(
                label.offset, ops[store].insn.size_bytes),
                ops[store].insn.size_bytes)
        return fed

    def _feeds(self, load: PipeOp, store: PipeOp) -> bool:
        """Whether ``store`` writes ``load``'s register, and nothing
        else reads it after, into one stack atom no narrower than the
        load (``_fed_loads``)."""
        insn, label = store.insn, store.label
        if insn.opclass != isa.BPF_STX or insn.is_atomic \
                or insn.src != load.insn.dst or label is None \
                or label.region is not Region.STACK \
                or insn.size_bytes < load.insn.size_bytes \
                or insn.src in self.live_out[store.insn_index]:
            return False
        start = self._stack_index(label.offset, insn.size_bytes)
        return start is not None and self.atoms.get(start) == insn.size_bytes

    def _close_run(self, run: "_Run", fed: Dict[int, int]) -> None:
        """Render a finished run (``_load_runs``) into ``runs``."""
        members = sorted(run.members, key=lambda member: member[0])
        start, first = members[0]
        targets, fmt, end = [], "", start
        for offset, op in members:
            index, size = op.insn_index, op.insn.size_bytes
            self._unpack(size)  # the preamble binds it, as it did
            targets.append(f"_s{self.fed[fed[index]][0]}" if index in fed
                           else self._reg(op.insn.dst))
            fmt += (f"{offset - end}x" if offset > end else "") \
                + _STRUCT_FMT[size][1]
            end = offset + size
            self.runs[index] = []
        if len(run.key) == 1:
            buf, at = "_b", str(start)
        else:
            buf, at = f"_st{run.key[0]}", self._slot_at(first, start)
        if len(members) == 1:
            self.runs[first.insn_index] = [
                f"{targets[0]} = _u{first.insn.size_bytes}({buf}, {at})[0]"]
            return
        self.coalesced += 1
        name = self._run_struct("_u_", fmt, "unpack_from")
        self.runs[run.members[0][1].insn_index] = [
            f"{', '.join(targets)} = {name}({buf}, {at})"]

    def _atoms_read_first(self, gen: List[int], kill: List[int],
                          window, leaving: set) -> List[int]:
        """The atoms some path reads before any store (``_atom_effects``):
        those live on entry, which each frame zeroes. The timing reads the
        lane key of ``window`` (``held_windows``' entry, or None) after
        the body of a packet that ran one of its holders: wherever such a
        packet leaves it — an op that breaks (``leaving``), the end of a
        block with no successor, an entry length check."""
        if not self.atoms:
            return []
        if window is not None and window[3] is not None:
            _lo, _hi, holders, bank, _forward = window
            lane = sum(1 << k for k, start in enumerate(sorted(self.atoms))
                       if 0 <= start - _STK_SZ - bank.offset < bank.size)
            gen = list(gen)
            blocks = self.pipeline.cfg.blocks
            for block in self._reach(holders):
                ends = blocks[block].indices()
                if not blocks[block].succs:
                    gen[ends[-1]] |= lane
                for index in leaving.intersection(ends):
                    gen[index] |= lane
            if self.pipeline.cfg.entry.block_id in holders \
                    and self.pipeline.entry_checks:
                gen[0] |= lane
        live_in, _live_out = mask_liveness(self.pipeline.program, gen, kill)
        entry = live_in[0] if live_in else 0
        return [start for k, start in enumerate(sorted(self.atoms))
                if entry >> k & 1]


class _Scan(NamedTuple):
    """The ops of ``_stream``'s body each of its analyses reads
    (``_Emitter._stream_scan``)."""

    lookups: Dict[int, int]  # folded lookup -> its map
    moves: Dict[int, Tuple[int, int]]  # 64-bit mov -> (dst, src)
    shifts: Dict[int, int]  # 64-bit ± an immediate -> its register
    readers: List[Tuple[PipeOp, int]]  # (op, stage): value accesses, == 0
    stores: List[Tuple[int, PipeOp]]  # (block, register store)
    loads: Dict[int, List[PipeOp]]  # block -> the loads a run may take
    stack: List[PipeOp]  # calls, memory ops on the stack or unlabelled
    at: Dict[int, Tuple[int, int]]  # insn -> (block, place in its body)


class _Run:
    """An open run of loads from one buffer (``_Emitter._load_runs``):
    its members ``(offset, op)`` in body order and their
    instructions (``loads``), the registers and atoms its members write
    (``dest_*``) and those the ops since its first member read or wrote
    (``regs`` / ``atoms``)."""

    def __init__(self, key: tuple, op: PipeOp, offset: int, regs: int,
                 atoms: int) -> None:
        self.key = key
        self.members: List[Tuple[int, PipeOp]] = []
        self.loads: set = set()
        self.dest_regs = self.dest_atoms = self.regs = self.atoms = 0
        self.add(op, offset, regs, atoms)

    def add(self, op: PipeOp, offset: int, regs: int, atoms: int) -> None:
        self.members.append((offset, op))
        self.loads.add(op.insn_index)
        self.dest_regs |= regs
        self.dest_atoms |= atoms

    def admits(self, offset: int, size: int, regs: int, atoms: int) -> bool:
        """Whether a load of ``size`` bytes at ``offset`` into ``regs`` /
        ``atoms`` may join: its bytes overlap no member's, and nothing
        since the first member read or wrote its destination."""
        return (not (regs & (self.regs | self.dest_regs)
                     or atoms & (self.atoms | self.dest_atoms))
                and all(offset + size <= start
                        or start + op.insn.size_bytes <= offset
                        for start, op in self.members))

    def ended_by(self, op: PipeOp, regs: int, atoms: int) -> bool:
        """Whether ``op`` — writing ``regs`` and touching ``atoms`` —
        closes the run: a helper call, a write to its buffer, or a
        redefinition of a destination or of a value's base register."""
        insn, label = op.insn, op.label
        if insn.is_call or regs & self.dest_regs or atoms & self.dest_atoms:
            return True
        if len(self.key) == 2 and regs >> self.key[1] & 1:
            return True
        if insn.opclass not in (isa.BPF_ST, isa.BPF_STX) or (
                label is not None and label.region is Region.STACK):
            return False
        if len(self.key) == 1:
            return label is None or label.region is Region.PACKET
        return label is None or label.map_fd == self.key[0]


_IDENT_RUN = re.compile(r"[A-Za-z0-9_]+")


def _idents(lines: List[str]) -> FrozenSet[str]:
    """Every maximal identifier-character run in ``lines``: one scan per
    body, after which "does this body name X" is a set lookup."""
    return frozenset(_IDENT_RUN.findall("\n".join(lines)))


def _hoists(named: FrozenSet[str]) -> List[str]:
    """Local aliases of pkt.regs / pkt.enabled, for a body whose
    ``_idents`` name them."""
    return (
        (["regs = pkt.regs"] if "regs" in named else [])
        + (["enabled = pkt.enabled"] if "enabled" in named else [])
    )


def _fn(name: str, params: List[str], body: List[str], binds: List[str],
        named: Optional[FrozenSet[str]] = None) -> List[str]:
    """Assemble a def with module-level names re-bound as keyword-default
    locals (LOAD_FAST beats LOAD_GLOBAL on the hot path); ``named``: the
    body's ``_idents``, where the caller has them."""
    if named is None:
        named = _idents(body)
    used = [b for b in binds if b in named]
    sig = ", ".join(params + [f"{b}={b}" for b in used])
    return [f"def {name}({sig}):"] + _ind(body) + [""]


def generate_pipeline_source(pipeline: Pipeline) -> str:
    """Emit the specialized execution module for a pipeline as source text.

    Deterministic for a given pipeline (no timestamps, no environment):
    the golden tests snapshot it and the compile cache stores it.
    """
    em = _Emitter(pipeline)
    n_stages = pipeline.n_stages

    # Per-stage bodies first (they populate the emitter's usage sets).
    stage_bodies: List[Optional[Tuple[List[str], bool]]] = [
        em.stage_body(stage) for stage in pipeline.stages
    ]
    entry = em.entry_body()

    # -- stage functions ------------------------------------------------------
    fn_sections: List[List[str]] = []
    stage_fn_names: List[str] = []
    stage_params = ["sim", "pkt", "slots", "barrier_queues", "input_queue",
                    "report"]
    for stage, body in zip(pipeline.stages, stage_bodies):
        if body is None:
            stage_fn_names.append("None")
            continue
        lines, has_flush = body
        fn_body = ["if pkt.done:", "    return False"] + _hoists(
            _idents(lines))
        if has_flush:
            fn_body.append("flushed = False")
        fn_body += lines
        fn_body.append("return flushed" if has_flush else "return False")
        name = f"_s{stage.number}"
        stage_fn_names.append(name)
        fn_sections.append((name, stage_params, fn_body))

    # -- entry ----------------------------------------------------------------
    if entry is not None:
        fn_sections.append(
            ("_entry", ["sim", "pkt"], _hoists(_idents(entry)) + entry))

    # -- stream ---------------------------------------------------------------
    # Straight-line per-packet execution wherever stream_blocker finds no
    # obstacle: the 10x path — no slots, no per-cycle loop.
    stream_ok = stream_blocker(pipeline) is None
    if stream_ok:
        fn_sections.append(
            ("_stream",
             ["sim", "frames", "gap", "report", "keep_records"],
             em.stream_body(), em.stream_names)
        )

    # -- preamble -------------------------------------------------------------
    binds: List[str] = []
    pre: List[str] = []
    head = [
        f'"""Generated execution module for pipeline {pipeline.name!r} '
        f"({n_stages} stages).",
        "",
        f"Emitted by repro.hwsim.codegen (CODEGEN_VERSION = "
        f"{CODEGEN_VERSION}); flush machinery "
        f"{'included' if em.any_flush else 'elided'}, map-read "
        f"tracking {'included' if em.maintain else 'elided'}. Do not edit.",
        '"""',
        "",
    ]
    imports: List[str] = []
    if em.unpack_widths or em.pack_widths or em.slice_packs:
        imports.append("import struct")
        imports.append("")
    if em.uses_deque:
        imports.append("from collections import deque as _deque")
        binds.append("_deque")
    map_imports = []
    if em.uses_map_error:
        map_imports.append("MapError")
        binds.append("MapError")
    if em.uses_bank:
        map_imports.append("bank_of as _bank_of")
        binds.append("_bank_of")
    if map_imports:
        imports.append("from repro.ebpf.maps import " + ", ".join(map_imports))
    if em.helpers:
        imports.append("from repro.ebpf.helpers import helper_impl")
    if em.insns:
        imports.append("from repro.ebpf.isa import Instruction")
    if em.uses_actions:
        imports.append("from repro.ebpf.xdp import XdpAction")
    sim_imports = []
    if em.uses_helper_ctx:
        sim_imports.append("_HelperContext as _HC")
        binds.append("_HC")
    if em.uses_sim_error:
        sim_imports.append("SimError")
        binds.append("SimError")
    if em.uses_stream:
        sim_imports.append("_InFlight as _IF")
        binds.append("_IF")
    if sim_imports:
        imports.append(
            "from repro.hwsim.sim import " + ", ".join(sim_imports)
        )
    if em.uses_stream:
        imports.append(
            "from repro.hwsim.stats import PacketRecord as _PR"
        )
        binds.append("_PR")
    if imports:
        imports.append("")
    for size in sorted(em.unpack_widths):
        pre.append(
            f'_u{size} = struct.Struct("{_STRUCT_FMT[size]}").unpack_from'
        )
        binds.append(f"_u{size}")
    for size in sorted(em.pack_widths):
        pre.append(
            f'_p{size} = struct.Struct("{_STRUCT_FMT[size]}").pack_into'
        )
        binds.append(f"_p{size}")
    if em.uses_actions:
        pre.append("_ACTIONS = {int(_a): _a for _a in XdpAction}")
        pre.append("_ABORTED = XdpAction.ABORTED")
        binds += ["_ACTIONS", "_ABORTED"]
    if em.uses_stream:
        pre.append("_DROP = XdpAction.DROP")
        binds.append("_DROP")
    if em.uses_stream and em.redirects:
        pre.append("_REDIRECT_ACT = XdpAction.REDIRECT")
        binds.append("_REDIRECT_ACT")
    for helper_id in sorted(em.helpers):
        pre.append(f"_h{helper_id} = helper_impl({helper_id})")
        binds.append(f"_h{helper_id}")
    for idx, insn in enumerate(em.insns):
        pre.append(
            f"_i{idx} = Instruction(opcode={insn.opcode}, dst={insn.dst}, "
            f"src={insn.src}, off={insn.off}, imm={insn.imm}, "
            f"imm64={insn.imm64!r})"
        )
        binds.append(f"_i{idx}")
    for fmt, name in sorted(em.slice_packs.items()):
        pre.append(f'{name} = struct.Struct("<{fmt}").pack')
        binds.append(name)
    if em.stack_spills:
        # Stack-zero block for the in-place per-packet reset of the
        # stream path's reused _InFlight.
        pre.append(f"_ZSTACK = bytes({_STK_SZ})")
        binds.append("_ZSTACK")
    if pre:
        pre.append("")

    # -- assembly -------------------------------------------------------------
    out = head + imports + pre + [""]
    for name, params, body, *named in fn_sections:
        out += _fn(name, params, body, binds, *named)
        out.append("")
    out.append(f"_STAGE_FNS = ({', '.join(stage_fn_names)},)")
    out.append(f"_ENTRY = {'_entry' if entry is not None else 'None'}")
    out.append(f"_STREAM = {'_stream' if stream_ok else 'None'}")
    if stream_ok:
        sites = "site" if em.spill_sites == 1 else "sites"
        slots = "slot" if len(em.atoms) == 1 else "slots"
        runs = "run" if em.coalesced == 1 else "runs"
        out.append(
            f'_STREAM_SHAPE = "{em.folded_lookups} of {em.lookups} lookups, '
            f'{em.folded_writes} of {em.writes} writes folded, '
            f'{em.spill_sites} spill {sites}, '
            f'{len(em.atoms)} stack {slots}, '
            f'{em.slot_accesses} of {em.value_accesses} value accesses '
            f'by slot, {em.coalesced} coalesced {runs}"')
    out.append("")
    # Collapse double blanks left by empty sections.
    text_lines: List[str] = []
    for ln in out:
        if ln == "" and text_lines and text_lines[-1] == "":
            continue
        text_lines.append(ln)
    return "\n".join(text_lines) + "\n"


# ---------------------------------------------------------------------------
# source lifecycle: attach, reuse, count recompiles, exec


def ensure_source(pipeline: Pipeline, count_recompile: bool = True) -> str:
    """Return the pipeline's generated source, generating (and attaching)
    it when missing or emitted by an older CODEGEN_VERSION.

    ``count_recompile`` increments ``ehdl_codegen_recompile_total`` when a
    regeneration happens — every such event is work the compile cache
    should have avoided. The compiler's own initial attachment uses
    :func:`attach_source`, which does not count.
    """
    source = getattr(pipeline, "codegen_source", None)
    if (
        source is not None
        and getattr(pipeline, "codegen_version", 0) == CODEGEN_VERSION
    ):
        return source
    source = generate_pipeline_source(pipeline)
    pipeline.codegen_source = source
    pipeline.codegen_version = CODEGEN_VERSION
    if count_recompile:
        reg = get_registry()
        if reg.enabled:
            reg.counter(
                "ehdl_codegen_recompile_total",
                "Generated pipeline source rebuilt outside the compiler "
                "(a compile-cache reuse miss)",
                {"program": pipeline.name},
            ).inc()
    return source


def attach_source(pipeline: Pipeline) -> str:
    """Compiler-side attachment: generate once at compile time so the
    cached (pickled) pipeline already carries its source."""
    return ensure_source(pipeline, count_recompile=False)


# Executed modules, keyed by source digest: every simulator over the same
# pipeline (and every pipeline with identical generated code) shares one
# compiled namespace.
_MODULE_CACHE: Dict[str, Dict[str, object]] = {}


def load_pipeline_module(pipeline: Pipeline) -> Dict[str, object]:
    """compile() + exec the pipeline's generated source (memoized)."""
    source = ensure_source(pipeline)
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    ns = _MODULE_CACHE.get(digest)
    if ns is None:
        filename = f"<ehdl-codegen:{pipeline.name}:{digest[:12]}>"
        code = compile(source, filename, "exec")
        ns = {"__name__": f"_ehdl_codegen_{digest[:12]}"}
        exec(code, ns)
        _MODULE_CACHE[digest] = ns
    return ns


def write_debug_source(pipeline: Pipeline, directory: str) -> str:
    """Dump the generated source to ``directory`` for postmortem debugging
    (the CI workflow uploads this directory on differential failure)."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{pipeline.name}_codegen.py")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ensure_source(pipeline, count_recompile=False))
    return path
