"""The consistency classifier checked by enumeration, not by sampling.

``core.hazards`` classifies every map ``exact``, ``windowed``,
``repaired`` or ``relaxed(<why>)`` and gives the pipeline one verdict:
what a run with packets in flight together may differ on from
sequential execution. This is the small-scope check of that claim
(Alloy's small-scope hypothesis): for every app and every corpus
program, under both schedule layouts, every sequence of 2 and 3
packets over a 2-key domain runs on the sequential ``vm`` and on the
``interpreted`` pipeline at every gap in 1..``n_stages``, under the
frozen clock. The two LRU-windowed apps draw from one frame per path
instead, so a packet that passes through the window runs beside one
that holds it. ct_firewall's banked conntrack draws two keys of one
bank, over that bank full (an outbound packet of each, and one's reply
on the inbound arm), and a key of another bank, whose packet shares the
window with them. A program the verdict calls equal to sequential must
match bit for bit; a relaxed one may differ only in what its verdict
exempts, and each exempted observable must differ somewhere — else the
class is too conservative.

Two classes hold witnesses for what the classifier has beyond the
paper's §4.1.2 and Appendix A.2 cases: a helper write commits at once,
so an older packet's later access, or a value store still in the WAR
buffer, meets it out of packet order; a relaxed value travels through
the packet into a packet-keyed map; and ``bpf_get_prandom_u32`` draws
out of packet order (no app or corpus program calls it). The last two
hold witnesses for what a window's holder blocks must cover, and for
what its split by bank needs.
"""

import copy
from dataclasses import replace
from itertools import count, islice, product
from pathlib import Path

import pytest

from repro import apps
from repro.apps import ct_firewall, leaky_bucket
from repro.cli import load_program
from repro.core import compile_program
from repro.core import hazards
from repro.core.hazards import hazard_summary
from repro.core.pipeline import BankKey, Consistency
from repro.ebpf.asm import assemble_program
from repro.ebpf.isa import MapSpec
from repro.ebpf.maps import bank_of
from repro.hwsim import (FROZEN_CLOCK_MHZ, SimOptions, compare_runs,
                         exempt_observables, run_differential, run_engine)
from repro.hwsim.codegen import stream_blocker
from repro.workloads import make_workload, parse_workload_spec
from tests.cases import CASES as TABLE, F_OTHER, LAYOUTS, udp
from tests.test_corpus import PACKETS
from tests.test_path_parallel import _arm_frames
from tests.test_second_gen_apps import (TestCtFirewall, TestSynCookie,
                                        ct_firewall_paths, syn_cookie_paths)

FROZEN = SimOptions(clock_mhz=FROZEN_CLOCK_MHZ)
CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.ebpf"))


def _two_keys(frames):
    """The first two distinct frames."""
    distinct = list(dict.fromkeys(frames))
    return distinct[0], distinct[1]


def _flows_of_bank(bank, count, dst=TestCtFirewall.OUT.dst_ip):
    """``count`` outbound flows to ``dst`` whose conntrack keys fall in
    ``bank`` (the map's own hash), skipping TestCtFirewall.OUT."""
    spec = ct_firewall.CONNTRACK_MAP
    out = TestCtFirewall.OUT
    flows = (replace(out, dst_ip=dst, sport=sport)
             for sport in range(out.sport + 1, 1 << 16))
    return list(islice((flow for flow in flows
                        if bank_of(ct_firewall.conntrack_key(flow),
                                   spec.banks) == bank), count))


# conntrack is banked: two keys in one bank (TestCtFirewall.OUT and
# SAME) and one in another (OTHER). The setup fills their bank with SAME
# oldest, so OUT's insert evicts it, and a younger packet's refresh of
# SAME — SAME's own packet, or its reply on the inbound arm — let in
# beside it would have evicted another entry.
_BANK = bank_of(ct_firewall.conntrack_key(TestCtFirewall.OUT),
                ct_firewall.CONNTRACK_MAP.banks)
(_SAME,) = _flows_of_bank(_BANK, 1)
(_OTHER,) = _flows_of_bank((_BANK + 1) % ct_firewall.CONNTRACK_MAP.banks, 1)
_FILLERS = _flows_of_bank(_BANK, ct_firewall.CONNTRACK_MAP.max_entries
                          // ct_firewall.CONNTRACK_MAP.banks - 1,
                          dst=TestCtFirewall.OUT.dst_ip + 1)


def _full_bank(maps):
    conntrack = maps.by_name("conntrack")
    for flow in [_SAME] + _FILLERS:
        conntrack.update(ct_firewall.conntrack_key(flow),
                         (1).to_bytes(8, "little"))


# leaky_bucket's keyed window on buckets, shrunk to two entries: SAME's
# bucket is in it, so two frames of its flow (another destination, one
# key) share a key, and OTHER and THIRD, new flows, race for the last
# slot — the one that inserts second meets a full map.
_LB_SAME = replace(F_OTHER, sport=5000)
_LB_FLOWS = (_LB_SAME, replace(_LB_SAME, dst_ip=F_OTHER.dst_ip + 1),
             replace(_LB_SAME, sport=5001), replace(_LB_SAME, sport=5002))


def _two_buckets():
    program = leaky_bucket.build()
    program.maps[1] = replace(program.maps[1], max_entries=2)
    return program


def _same_bucket(maps):
    maps[1].update(leaky_bucket.bucket_key(_LB_SAME), bytes(16))


# The windowed apps mix paths instead: a packet that does not hold the
# window (a SYN, a non-IPv4 frame) runs beside one that does.
WINDOWED_DOMAINS = {
    "syn_cookie": (None, None, syn_cookie_paths()),
    "ct_firewall": (None, _full_bank, (
        ct_firewall_paths()[0], *ct_firewall_paths(_SAME)[1:],
        ct_firewall_paths(_SAME)[0], ct_firewall_paths(_OTHER)[0])),
    "leaky_bucket": (_two_buckets, _same_bucket,
                     tuple(udp(flow) for flow in _LB_FLOWS)),
}


def _cases():
    """name -> (build, setup, frames: two keys, or the mixed paths)."""
    cases = {}
    for name in sorted(n for n in apps.__all__ if n.islower()):
        build, setup, frames, _flushes = TABLE[name]
        if name in WINDOWED_DOMAINS:
            own_build, own_setup, domain = WINDOWED_DOMAINS[name]
            cases[name] = (own_build or build, own_setup or setup, domain)
        else:
            cases[name] = (build, setup, _two_keys(frames))
    for path in CORPUS:
        cases[path.name] = (lambda path=path: load_program(str(path)), None,
                            (PACKETS[0], PACKETS[3]))
    return cases


CASES = _cases()


def _sequences(domain):
    """Every sequence of 2 and 3 frames drawn from ``domain``."""
    return [[domain[k] for k in seq] for n in (2, 3)
            for seq in product(range(len(domain)), repeat=n)]


def _differences(program, pipeline, frames, setup=None):
    """gap -> the observables that differ from the vm, at every gap in
    1..n_stages."""
    vm = run_engine("vm", program, frames, setup=setup)
    return {gap: {m.what for m in compare_runs(vm, run_engine(
                "interpreted", program, frames, pipeline=pipeline,
                sim_options=FROZEN, setup=setup, gap=gap))}
            for gap in range(1, pipeline.n_stages + 1)}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_every_short_interleaving_keeps_the_verdict(layout, name):
    build, setup, domain = CASES[name]
    program = build()
    pipeline = compile_program(program, LAYOUTS[layout])
    exempt = pipeline.consistency.exempt
    witnessed = set()
    for frames in _sequences(domain):
        for gap, differ in _differences(program, pipeline, frames,
                                        setup).items():
            allowed = exempt_observables(pipeline, "vm", "interpreted", gap)
            assert differ <= set(allowed), (
                f"{name} ({pipeline.consistency}) packets "
                f"{[domain.index(f) for f in frames]} gap {gap}: "
                f"{sorted(differ - set(allowed))} differ")
            witnessed |= differ
    assert witnessed == set(exempt), (
        f"{name}: exempts {exempt}, only {sorted(witnessed)} ever differ")


def test_the_relaxed_programs_and_what_they_exempt():
    verdicts = {name: compile_program(build()).consistency
                for name, (build, _setup, _keys) in CASES.items()}
    relaxed = {name: v.exempt for name, v in verdicts.items()
               if v.kind == "relaxed"}
    assert relaxed == {
        # Appendix A.2: a flushed first-of-flow packet replays its port
        # allocation; the burnt port reaches the bindings and the packet
        "dnat": ("packet bytes", "map nat", "map ports", "map rnat"),
        # §4.1.2: or/and/xor/xchg at several stages interleave
        "atomic_variants.ebpf": ("map m",),
    }
    plans = compile_program(apps.dnat.build()).map_hazards
    assert [(plan.consistency.kind, plan.consistency.rule)
            for _fd, plan in sorted(plans.items())] == [
        # nat, rnat (one write stage), ports
        ("repaired", None), ("exact", None), ("relaxed", "A.2")]


def _assembled(source, name):
    return assemble_program(source, name=name, maps={
        "w": MapSpec("w", "hash", key_size=4, value_size=8, max_entries=4),
        "l": MapSpec("l", "lru_hash", key_size=4, value_size=8,
                     max_entries=4),
        "a": MapSpec("a", "array", key_size=4, value_size=8,
                     max_entries=1)})


_PROLOGUE = """
    r7 = *(u32 *)(r1 + 4)
    r6 = *(u32 *)(r1 + 0)
    r2 = r6
    r2 += 8
    if r2 > r7 goto out
"""

# the packet's first byte is written to key 7 of w, then read back as
# the verdict
_WRITE_THEN_READ = _PROLOGUE + """
    r2 = 7
    *(u32 *)(r10 - 8) = r2
    r3 = *(u8 *)(r6 + 0)
    *(u64 *)(r10 - 16) = r3
    r1 = map[w]
    r2 = r10
    r2 += -8
    r3 = r10
    r3 += -16
    r4 = 0
    call 2
    r1 = map[w]
    r2 = r10
    r2 += -8
    call 1
    if r0 == 0 goto out
    r0 = *(u64 *)(r0 + 0)
    r0 &= 3
    exit
out:
    r0 = 2
    exit
"""

# packets whose first byte is 1 write key 7 on the longer arm, at a
# later stage
_TWO_WRITE_STAGES = _PROLOGUE + """
    r2 = 7
    *(u32 *)(r10 - 4) = r2
    r3 = *(u8 *)(r6 + 0)
    *(u64 *)(r10 - 16) = r3
    if r3 == 1 goto late
    r1 = map[w]
    r2 = r10
    r2 += -4
    r3 = r10
    r3 += -16
    r4 = 0
    call 2
    goto out
late:
    r3 <<= 1
    r3 += 1
    *(u64 *)(r10 - 16) = r3
    r1 = map[w]
    r2 = r10
    r2 += -4
    r3 = r10
    r3 += -16
    r4 = 0
    call 2
out:
    r0 = 2
    exit
"""

# byte 0 keys an increment on a hit; byte 1 keys a delete on a hit and
# an insert on a miss; an lru_hash insert follows, whose flush block
# (inert inside its window) holds the increment's buffered store past
# the delete — it lands in the slot the next packet's insert reuses
_STORE_BEFORE_DELETE = _PROLOGUE + """
    r2 = *(u8 *)(r6 + 0)
    *(u32 *)(r10 - 4) = r2
    r1 = map[w]
    r2 = r10
    r2 += -4
    call 1
    if r0 == 0 goto second
    r3 = *(u64 *)(r0 + 0)
    r3 += 1
    *(u64 *)(r0 + 0) = r3
second:
    r2 = *(u8 *)(r6 + 1)
    *(u32 *)(r10 - 4) = r2
    r1 = map[w]
    r2 = r10
    r2 += -4
    call 1
    if r0 != 0 goto delete
    *(u64 *)(r10 - 16) = 101
    r1 = map[w]
    r2 = r10
    r2 += -4
    r3 = r10
    r3 += -16
    r4 = 0
    call 2
    goto tail
delete:
    r1 = map[w]
    r2 = r10
    r2 += -4
    call 3
tail:
    r2 = *(u8 *)(r6 + 2)
    *(u32 *)(r10 - 4) = r2
    r1 = map[l]
    r2 = r10
    r2 += -4
    call 1
    if r0 != 0 goto out
    *(u64 *)(r10 - 16) = 7
    r1 = map[l]
    r2 = r10
    r2 += -4
    r3 = r10
    r3 += -16
    r4 = 0
    call 2
out:
    r0 = 2
    exit
"""


# the packet's first byte is written to key 7 of w, then read back by
# bpf_redirect_map as the port the packet leaves by
_WRITE_THEN_REDIRECT = _PROLOGUE + """
    r2 = 7
    *(u32 *)(r10 - 8) = r2
    r3 = *(u8 *)(r6 + 0)
    *(u64 *)(r10 - 16) = r3
    r1 = map[w]
    r2 = r10
    r2 += -8
    r3 = r10
    r3 += -16
    r4 = 0
    call 2
    r1 = map[w]
    r2 = 7
    r3 = 2
    call 51
    exit
out:
    r0 = 2
    exit
"""


def _frames(*first_bytes):
    return [bytes(b) + bytes(64 - len(b)) for b in first_bytes]


class TestHelperWrites:
    """A helper update or delete commits at once, while the WAR buffer
    delays value stores only. None of these maps has a live flush block
    ahead of a committed effect, so a rule set of §4.1.2 and Appendix
    A.2 alone would call each of them repaired; each differs at line
    rate."""

    @pytest.mark.parametrize("source,frames,why,exempt,differs", [
        (_WRITE_THEN_READ, _frames([1], [2]),
         "bpf_map_update_elem at stage 3 commits before older packets' "
         "read at stage 6", ("action", "map w"), "action"),
        (_TWO_WRITE_STAGES, _frames([1], [2]),
         "bpf_map_update_elem at stage 4 and the write at stage 6 land out "
         "of packet order", ("map w",), "map w"),
        (_STORE_BEFORE_DELETE, _frames([1, 2], [2, 2], [3, 3]),
         "bpf_map_update_elem at stage 15 and the write at stage 8 land out "
         "of packet order", ("map w",), "map w"),
        # the younger packet's port reaches the older packet's redirect
        (_WRITE_THEN_REDIRECT, _frames([1], [2]),
         "bpf_map_update_elem at stage 3 commits before older packets' "
         "read at stage 6", ("action", "egress port", "map w"),
         "egress port"),
    ], ids=["write_then_read", "two_write_stages", "store_before_delete",
            "write_then_redirect"])
    def test_relaxed_with_a_witness(self, source, frames, why, exempt,
                                    differs):
        program = _assembled(source, "helper_writes")
        pipeline = compile_program(program)
        assert str(pipeline.map_hazards[1].consistency) == f"relaxed({why})"
        assert pipeline.map_hazards[1].consistency.rule == "helper write"
        assert pipeline.consistency.exempt == exempt
        line_rate = run_differential(program, frames, pipeline=pipeline,
                                     engines=("vm", "interpreted"))
        line_rate.raise_on_mismatch()
        assert {m.what for m in compare_runs(*line_rate.runs.values())} \
            == {differs}
        spaced = run_differential(program, frames, pipeline=pipeline,
                                  gap=pipeline.n_stages,
                                  engines=("vm", "interpreted"))
        assert spaced.ok and not spaced.not_compared

    def test_every_packet_writing_the_same_entry_is_repaired(self):
        # the key and the value are constants: whichever packet's write
        # a later read meets, it is the one sequential execution left
        program = _assembled(_WRITE_THEN_READ.replace(
            "r3 = *(u8 *)(r6 + 0)", "r3 = 1"), "same_entry")
        pipeline = compile_program(program)
        assert pipeline.consistency.kind == "repaired"
        run_differential(program, _frames([1], [2]), pipeline=pipeline,
                         engines=("vm", "interpreted")).raise_on_mismatch()


# a's add, xor and fetch-add interleave across packets (§4.1.2); the
# fetched value is written into the packet, which then keys an update
# of w through a packet pointer
_PACKET_KEYED_WRITE = _PROLOGUE + """
    r2 = 0
    *(u32 *)(r10 - 4) = r2
    r1 = map[a]
    r2 = r10
    r2 += -4
    call 1
    if r0 == 0 goto out
    r8 = r0
    r3 = 5
    lock *(u64 *)(r8 + 0) += r3
    r3 = 0x11
    lock *(u64 *)(r8 + 0) ^= r3
    r3 = 0
    lock fetch *(u64 *)(r8 + 0) += r3
    *(u32 *)(r6 + 0) = r3
    *(u64 *)(r10 - 16) = 5
    r1 = map[w]
    r2 = r6
    r3 = r10
    r3 += -16
    r4 = 0
    call 2
out:
    r0 = 2
    exit
"""

# two draws, at two stages, written into the packet
_TWO_DRAWS = _PROLOGUE + """
    call 7
    r7 = r0
    call 7
    *(u32 *)(r6 + 0) = r7
    *(u32 *)(r6 + 4) = r0
out:
    r0 = 2
    exit
"""

# one draw, at one stage, written into the packet
_ONE_DRAW = _PROLOGUE + """
    call 7
    *(u32 *)(r6 + 0) = r0
out:
    r0 = 2
    exit
"""

# one draw ahead of w's flush block (a count per first byte), written
# into the packet
_DRAW_BEFORE_FLUSH = _PROLOGUE + """
    call 7
    r9 = r0
    r2 = *(u8 *)(r6 + 0)
    *(u32 *)(r10 - 4) = r2
    r1 = map[w]
    r2 = r10
    r2 += -4
    call 1
    r3 = 1
    if r0 == 0 goto insert
    r3 = *(u64 *)(r0 + 0)
    r3 += 1
insert:
    *(u64 *)(r10 - 16) = r3
    r1 = map[w]
    r2 = r10
    r2 += -4
    r3 = r10
    r3 += -16
    r4 = 0
    call 2
    *(u32 *)(r6 + 4) = r9
out:
    r0 = 2
    exit
"""


def _differs_only_where_exempt(program, pipeline, frames, differs):
    """At line rate the oracle passes and ``differs`` is what differs
    from the VM; spaced, everything is compared and agrees."""
    line_rate = run_differential(program, frames, pipeline=pipeline,
                                 engines=("vm", "interpreted"))
    line_rate.raise_on_mismatch()
    assert {m.what for m in compare_runs(*line_rate.runs.values())} \
        == set(differs)
    spaced = run_differential(program, frames, pipeline=pipeline,
                              gap=pipeline.n_stages,
                              engines=("vm", "interpreted"))
    assert spaced.ok and not spaced.not_compared


class TestTaintSources:
    """What carries a relaxed value, or makes one, besides maps."""

    def test_a_packet_pointer_key_carries_the_packet(self):
        # the key is read through a pointer loaded before the packet
        # held anything relaxed; what it points at does by then
        program = _assembled(_PACKET_KEYED_WRITE, "packet_key")
        pipeline = compile_program(program)
        exempt = ("packet bytes", "map a", "map w")
        assert pipeline.consistency.exempt == exempt
        _differs_only_where_exempt(program, pipeline,
                                   _frames([1], [2], [3]), exempt)

    @pytest.mark.parametrize("source,frames,layout,why", [
        (_TWO_DRAWS, _frames([1], [2], [3]), "path_parallel",
         "bpf_get_prandom_u32 at stages 1-3 draws out of packet order"),
        # on the path-parallel layout w's window is keyed: no flush
        (_DRAW_BEFORE_FLUSH, _frames([1], [1], [1]), "paper",
         "bpf_get_prandom_u32 at stage 1 draws again when a flush block "
         "replays its packet, A.2"),
    ], ids=["two_stages", "ahead_of_a_flush_block"])
    def test_prandom_out_of_packet_order_relaxes_the_program(
            self, source, frames, layout, why):
        program = _assembled(source, "prandom")
        pipeline = compile_program(program, LAYOUTS[layout])
        assert pipeline.consistency == Consistency(
            "relaxed", ("packet bytes",), why)
        assert str(pipeline.consistency).startswith(f"relaxed ({why}; ")
        _differs_only_where_exempt(program, pipeline, frames,
                                   ("packet bytes",))

    def test_prandom_at_one_stage_draws_in_packet_order(self):
        program = _assembled(_ONE_DRAW, "prandom")
        pipeline = compile_program(program)
        assert pipeline.consistency == Consistency("exact")
        _differs_only_where_exempt(program, pipeline,
                                   _frames([1], [2], [3]), ())

    def test_a_keyed_window_replays_no_draw(self):
        # the same draw ahead of w's keyed window: a same-key packet
        # stalls at the window instead of flushing, so nothing replays
        program = _assembled(_DRAW_BEFORE_FLUSH, "prandom")
        pipeline = compile_program(program)
        assert pipeline.map_hazards[1].bank_key.keyed
        assert pipeline.consistency == Consistency("windowed")
        _differs_only_where_exempt(program, pipeline,
                                   _frames([1], [1], [1]), ())


def _reheld(pipeline, fd, holders):
    """A copy of ``pipeline`` whose window on map ``fd`` is held by
    ``holders`` instead of its own holder blocks."""
    clone = copy.deepcopy(pipeline)
    clone.map_hazards[fd].holders = frozenset(holders)
    clone.codegen_source = None
    return clone


def _released_at(pipeline, release):
    """A copy of ``pipeline`` whose window on map 1 releases its lane at
    ``release`` instead (``Forwarding.release``), for the cycle loop and
    the stream alike."""
    clone = copy.deepcopy(pipeline)
    plan = clone.map_hazards[1]
    plan.forwarding = replace(plan.forwarding, release=release)
    clone.codegen_source = None
    return clone


def _released_sooner(program, pipeline, frames, sooner):
    """The cycle loop's mismatches against the vm on ``pipeline``
    released at ``sooner``; none on either engine at its own release.
    The stream renders ``sooner`` too (its packet cycles move) but runs
    each packet to completion in order, so its maps and actions stay
    the vm's: the loop's mismatches are where that timing breaks
    order."""
    runs = {}
    for release in (None, sooner):
        candidate = pipeline if release is None else _released_at(
            pipeline, release)
        assert stream_blocker(candidate) is None
        for engine in ("interpreted", "codegen"):
            runs[release, engine] = run_differential(
                program, frames, pipeline=candidate, sim_options=FROZEN,
                gap=1, engine=engine)
    assert all(not result.mismatches for (release, engine), result
               in runs.items() if release is None or engine == "codegen")
    streams = (runs[release, "codegen"].runs["codegen"]
               for release in (None, sooner))
    assert "packet cycles" in {m.what for m in compare_runs(*streams)}
    return runs[sooner, "interpreted"].mismatches


def _blocks_touching(pipeline, fd, helper=None):
    """The blocks with an op on map ``fd`` (a call of ``helper`` only,
    if given)."""
    return {op.block_id for stage in pipeline.stages for op in stage.ops
            if getattr(op.call or op.label, "map_fd", None) == fd
            and (helper is None or op.insn.is_call and op.insn.imm == helper)}


# An lru_hash map t is looked up on one arm and inserted into on a miss.
# The other arm (byte 12 == 1) touches only the hash map h: it computes
# from byte 13, then branches to a lookup, an atomic add, a load and an
# update of one entry. Block order puts that arm between t's lookup and
# t's insert, so on both layouts it sits inside t's window, and its
# branch past the window's first stage; h's flush block guards the
# update there, with the add committed ahead of it.
_COUNTING_ARM = """
    r7 = *(u32 *)(r1 + 4)
    r6 = *(u32 *)(r1 + 0)
    r2 = r6
    r2 += 18
    if r2 > r7 goto pass
    r2 = *(u32 *)(r6 + 14)
    *(u32 *)(r10 - 4) = r2
    r3 = *(u8 *)(r6 + 12)
    if r3 == 1 goto count
    r1 = map[t]
    r2 = r10
    r2 += -4
    call 1
    if r0 == 0 goto insert
    r1 = 1
    lock *(u64 *)(r0 + 0) += r1
    r0 = 2
    exit
count:
    r4 = *(u8 *)(r6 + 13)
    r4 *= 3
    r4 += 1
    r4 &= 7
    r4 ^= 5
    r4 *= 3
    if r4 == 0 goto pass
    r1 = map[h]
    r2 = r10
    r2 += -4
    call 1
    if r0 == 0 goto pass
    r1 = 1
    lock *(u64 *)(r0 + 0) += r1
    r1 = *(u64 *)(r0 + 0)
    r1 += 10
    *(u64 *)(r10 - 16) = r1
    r1 = map[h]
    r2 = r10
    r2 += -4
    r3 = r10
    r3 += -16
    r4 = 0
    call 2
    r0 = 3
    exit
insert:
    *(u64 *)(r10 - 16) = r0
    r1 = map[t]
    r2 = r10
    r2 += -4
    r3 = r10
    r3 += -16
    r4 = 0
    call 2
    r0 = 2
    exit
pass:
    r0 = 1
    exit
"""


def _seed_h(maps):
    for key in (1, 2):
        maps[2].update(key.to_bytes(4, "little"), bytes(8))


class TestWindowHolders:
    """A packet waits for an LRU window only if it holds it: it has
    enabled a block that can still reach an op inside the window on any
    map. Each witness drops blocks the holders must cover and diverges
    from sequential execution."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_dropping_the_admit_path_diverges(self, layout):
        program = apps.syn_cookie.build()
        pipeline = compile_program(program, LAYOUTS[layout])
        fd = next(fd for fd, spec in program.maps.items()
                  if spec.name == "conns")
        holders = pipeline.map_hazards[fd].holders
        (admit,) = _blocks_touching(pipeline, fd, helper=2)
        above, stack = set(), [admit]
        while stack:
            for pred in pipeline.cfg.blocks[stack.pop()].preds:
                if pred not in above:
                    above.add(pred)
                    stack.append(pred)
        # F is admitted; G's cookie-ACK admits G, then data on F
        # refreshes F, which sequentially ends most recent.
        flow = TestSynCookie.FLOW
        frames = [syn_cookie_paths(replace(flow, sport=flow.sport + 7))[1],
                  syn_cookie_paths(flow)[2]]

        def setup(maps):
            apps.syn_cookie.default_setup(maps)
            maps[fd].update(apps.syn_cookie.conn_key(flow),
                            (1).to_bytes(8, "little"))

        # The insert's own block is not needed: an ACK has enabled the
        # lookup's block, which opens the window, before it enters.
        alone = _reheld(pipeline, fd, holders - {admit})
        assert not any(_differences(program, alone, frames, setup).values())
        # Without the holders on its path, the data packet's refresh
        # overtakes the insert: conns ends in another recency order.
        path = _reheld(pipeline, fd, holders - {admit} - above)
        assert "map conns" in set().union(
            *_differences(program, path, frames, setup).values())

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_a_flush_checked_map_inside_the_window(self, layout):
        program = assemble_program(_COUNTING_ARM, name="counting_arm", maps={
            "t": MapSpec("t", "lru_hash", key_size=4, value_size=8,
                         max_entries=4),
            "h": MapSpec("h", "hash", key_size=4, value_size=8,
                         max_entries=4)})
        pipeline = compile_program(program, LAYOUTS[layout])
        t, h = pipeline.map_hazards[1], pipeline.map_hazards[2]
        lo, hi = t.serial_window
        assert h.flush_blocks and lo <= h.touching[0] <= h.touching[-1] <= hi
        assert h.consistency.kind == "windowed"
        counting = _blocks_touching(pipeline, 2)
        # the block that computes and branches touches no map; it holds
        # because the lookup of h is below it and it ends past lo
        (late,) = {pred for block in counting
                   for pred in pipeline.cfg.blocks[block].preds} - counting
        assert counting | {late} <= t.holders
        frames = _arm_frames([(1, 1), (1, 1), (0, 1), (1, 2), (1, 1)])
        assert not any(_differences(program, pipeline, frames,
                                    _seed_h).values())
        # Dropping the arm from the holders, or only the block that
        # chooses it: in_window took h's flush block out of the
        # classification, and its flush replays the younger packet's add.
        for dropped in (counting | {late}, {late}):
            reheld = _reheld(pipeline, 1, t.holders - dropped)
            differ = set().union(*_differences(program, reheld, frames,
                                               _seed_h).values())
            assert "map h" in differ, dropped


# a banked LRU map whose miss path inserts under a copy of the key
_KEY_COPY = """
    r7 = *(u32 *)(r1 + 4)
    r6 = *(u32 *)(r1 + 0)
    r2 = r6
    r2 += 18
    if r2 > r7 goto pass
    r8 = *(u32 *)(r6 + 14)
    *(u32 *)(r10 - 4) = r8
    *(u32 *)(r10 - 8) = r8
    r1 = map[t]
    r2 = r10
    r2 += -4
    call 1
    if r0 != 0 goto pass
    *(u64 *)(r10 - 16) = r8
    r1 = map[t]
    r2 = r10
    r2 += -8
    r3 = r10
    r3 += -16
    r4 = 0
    call 2
pass:
    r0 = 2
    exit
"""


class TestBankedWindow:
    """ct_firewall's window serialises per conntrack bank, and a holder
    releases its bank at its arm's forward distance or at its decision;
    a banked map's window that breaks one of ``hazards.bank_key``'s
    rules keeps one bank and names the rule."""

    @pytest.mark.parametrize("source,maps,why", [
        (_COUNTING_ARM, {
            "t": MapSpec("t", "lru_hash", 4, 8, 4, banks=2),
            "h": MapSpec("h", "hash", 4, 8, 4)},
         "map h is accessed inside the window (b4 call 1 @10)"),
        (_KEY_COPY, {"t": MapSpec("t", "lru_hash", 4, 8, 8, banks=4)},
         "keys from stack[-4:4] and stack[-8:4] (b1 call 2 @6)"),
    ], ids=["another_map_inside", "two_key_slots"])
    def test_a_window_that_keeps_one_bank(self, source, maps, why):
        pipeline = compile_program(assemble_program(source, maps=maps))
        plan = pipeline.map_hazards[1]
        assert (plan.bank_key, plan.unbanked) == (None, why)
        assert pipeline.held_windows[0][3] is None
        assert f" one bank: {why} (opens: " in hazard_summary(pipeline)
        # the one lane forwards unless another map is accessed inside
        assert (plan.forwarding is None) == (len(maps) > 1)
        assert ("  forwards: " in hazard_summary(pipeline)) == (
            len(maps) == 1)

    def test_the_paper_layout_keeps_one_bank(self):
        # §3.3's window [11, 31] holds the outbound arm's key stores
        plan = compile_program(ct_firewall.build(),
                               LAYOUTS["paper"]).map_hazards[1]
        assert plan.bank_key is None
        assert plan.unbanked.startswith(
            "key stack[-16:16] is written at or past stage 11 (b6 ")

    def test_a_bank_blind_interlock_diverges(self, monkeypatch):
        # every packet reads as a bank of its own: the window lets two
        # holders of one bank in together. Then a lookup of SAME (its
        # own packet's or its reply's) overtakes OUT's insert into their
        # full bank and refreshes SAME, which the insert should have
        # evicted; the flush blocks inside the window cannot undo an
        # eviction.
        build, setup, domain = CASES["ct_firewall"]
        program = build()
        pipeline = compile_program(program)
        assert pipeline.map_hazards[1].bank_key is not None
        banks = count()
        monkeypatch.setattr(BankKey, "of", lambda _key, _stack: next(banks))
        failing = {}
        for frames in _sequences(domain[:4]):
            differ = set().union(*_differences(program, pipeline, frames,
                                               setup).values())
            if differ:
                failing[tuple(domain.index(f) for f in frames)] = differ
        out = 0
        same = {domain.index(frame) for frame in ct_firewall_paths(_SAME)[:2]}
        assert {(out, refresh) for refresh in same} <= set(failing)
        assert all(out in seq and same & set(seq[seq.index(out) + 1:])
                   for seq in failing)
        assert set().union(*failing.values()) == {"action", "map conntrack"}

    @pytest.mark.parametrize("engine", ["interpreted", "codegen"])
    def test_two_banks_share_the_window(self, engine):
        # OUT and OTHER hold the window together, one cycle apart. SAME
        # trails OUT's insert (call 2 @15 → call 1 @12) by 3 of the
        # window's 4 stages; OUT trails SAME's refresh, a hit, by 2: the
        # hit arm is decided at stage 14, before which SAME may still
        # insert
        build, setup, domain = CASES["ct_firewall"]
        program = build()
        pipeline = compile_program(program)
        (lo, hi), = pipeline.serial_windows
        out, same, other = (ct_firewall_paths(flow)[0]
                            for flow in (TestCtFirewall.OUT, _SAME, _OTHER))
        assert out == domain[0]

        def exits(*frames):
            run = run_engine(engine, program, list(frames),
                             pipeline=pipeline, setup=setup,
                             sim_options=FROZEN, gap=1)
            return [exit_cycle for *_, exit_cycle in run.packet_cycles]

        first, then = exits(out, other)
        assert then - first == 1
        assert exits(out, same) == [first, first + 3]
        assert exits(same, out) == [first, first + 2]
        assert hi - lo + 1 == 4


    def test_the_insert_distance_is_tight(self):
        # one cycle sooner behind an insert (b7), a younger lookup of
        # its bank runs the cycle before the insert that may evict its
        # entry or take the bank's last slot: the LRU order parts from
        # sequential execution
        program = ct_firewall.build()
        pipeline = compile_program(program)
        frames = make_workload(replace(
            parse_workload_spec("flow-churn:flows=4,churn=0.5"),
            packets=400, seed=7)).materialize()
        inbound, outbound = frozenset({4, 6}), frozenset({7, 8})
        assert pipeline.map_hazards[1].forwarding.release == (
            4, inbound, 0, (7, outbound, 3, 2))
        # the same entries, in another recency order from a named
        # position
        (found,) = _released_sooner(program, pipeline, frames,
                                    (4, inbound, 0, (7, outbound, 2, 2)))
        assert found.what == "map conntrack"
        (where,) = found.ref_value
        assert where.startswith("order from ")

# A hash map's lookup, then on a miss an insert, on a hit — further down
# a longer arm — a delete: its updates and deletes sit at two stages.
_INSERT_OR_DELETE = _PROLOGUE + """
    r2 = *(u8 *)(r6 + 0)
    *(u32 *)(r10 - 4) = r2
    r1 = map[w]
    r2 = r10
    r2 += -4
    call 1
    if r0 != 0 goto hit
    *(u64 *)(r10 - 16) = 100
    r1 = map[w]
    r2 = r10
    r2 += -4
    r3 = r10
    r3 += -16
    r4 = 0
    call 2
    goto out
hit:
    r3 = *(u64 *)(r0 + 0)
    r3 *= 3
    r3 ^= 5
    r3 *= 7
    if r3 == 0 goto out
    r1 = map[w]
    r2 = r10
    r2 += -4
    call 3
out:
    r0 = 2
    exit
"""

# a hash map looked up, then deleted under a key rewritten in between
_KEY_REWRITTEN = _PROLOGUE + """
    r2 = *(u8 *)(r6 + 0)
    *(u32 *)(r10 - 4) = r2
    r1 = map[w]
    r2 = r10
    r2 += -4
    call 1
    if r0 == 0 goto out
    r2 = *(u8 *)(r6 + 1)
    *(u32 *)(r10 - 4) = r2
    r1 = map[w]
    r2 = r10
    r2 += -4
    call 3
out:
    r0 = 2
    exit
"""


def _two_entries(source):
    return assemble_program(source, name="keyed", maps={
        "w": MapSpec("w", "hash", key_size=4, value_size=8, max_entries=2),
        "t": MapSpec("t", "hash", key_size=4, value_size=8,
                     max_entries=2)})


class TestKeyedWindow:
    """On the path-parallel layout a plain hash map whose flush blocks
    would fire gets a keyed window instead: a holder waits at ``lo``
    for an in-window holder of its own key. ``hazards.bank_key``'s four
    rules decide; a map that breaks one keeps its flushes and names the
    rule, and each witness below breaks one."""

    def test_leaky_bucket_stalls_by_key(self):
        pipeline = compile_program(leaky_bucket.build())
        plan = pipeline.map_hazards[1]
        assert plan.serial_window == (8, 18)
        assert plan.bank_key == BankKey(1, -8, 8, 0) and plan.bank_key.keyed
        assert str(plan.consistency) == "windowed"
        assert len(plan.flush_blocks) == 5  # the comparator it reuses
        assert ("window [8, 18] W=11 keyed on buckets by stack[-8:8] "
                "(opens: b1 call 1 @8; ") in hazard_summary(pipeline)
        # a packet of the key may follow the hit arm six stages behind,
        # the insert ten
        assert ("  forwards: b2 after 6 (store @18 → load @12), "
                "b8 after 10 (call 2 @18 → call 1 @8)") \
            in hazard_summary(pipeline)
        assert pipeline.held_windows[0][4] is plan.forwarding

    def test_the_paper_layout_keeps_its_flushes(self):
        plan = compile_program(leaky_bucket.build(),
                               LAYOUTS["paper"]).map_hazards[1]
        assert (plan.serial_window, plan.bank_key, plan.unbanked) \
            == (None, None, "")
        assert str(plan.consistency) == "repaired"

    @pytest.mark.parametrize("program,why", [
        (apps.dnat.build(),
         "map ports is accessed inside the window (b4 call 1 @13)"),
        (assemble_program(_KEY_COPY, maps={
            "t": MapSpec("t", "hash", 4, 8, 8)}),
         "keys from stack[-4:4] and stack[-8:4] (b1 call 2 @7)"),
        (_two_entries(_KEY_REWRITTEN),
         "key stack[-4:4] is written at or past stage 3 (b1 "
         "*(u32 *)(r10 - 4) = r2 @"),
        (_two_entries(_INSERT_OR_DELETE),
         "updates and deletes at stages 7 and 13 (b3 call 3 @13)"),
    ], ids=["another_map_inside", "two_key_slots", "key_rewritten",
            "two_write_stages"])
    def test_a_flush_that_stays(self, program, why):
        pipeline = compile_program(program)
        plan = pipeline.map_hazards[1]
        assert plan.serial_window is None and plan.bank_key is None
        assert plan.unbanked.startswith(why)
        assert plan.flush_blocks and not pipeline.serial_windows
        assert f"  flush kept: {plan.unbanked}" in hazard_summary(pipeline)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_no_second_window_inside_a_window(self, layout):
        # h's flush blocks sit inside t's LRU window, which discharges
        # them (TestWindowHolders): nothing is left for a keyed one
        program = assemble_program(_COUNTING_ARM, name="counting_arm", maps={
            "t": MapSpec("t", "lru_hash", key_size=4, value_size=8,
                         max_entries=4),
            "h": MapSpec("h", "hash", key_size=4, value_size=8,
                         max_entries=4)})
        pipeline = compile_program(program, LAYOUTS[layout])
        h = pipeline.map_hazards[2]
        assert (h.serial_window, h.bank_key, h.unbanked) == (None, None, "")
        assert len(pipeline.serial_windows) == 1

    def test_a_key_blind_interlock_diverges(self, monkeypatch):
        # every packet reads as a key of its own: SAME's two packets
        # share the window, and the younger reads the bucket before the
        # older writes it back — a stale read no flush repairs, since
        # the window took the flush blocks out
        build, setup, domain = CASES["leaky_bucket"]
        program = build()
        pipeline = compile_program(program)
        keys = count()
        monkeypatch.setattr(BankKey, "of", lambda _key, _stack: next(keys))
        failing = {}
        for frames in _sequences(domain):
            differ = set().union(*_differences(program, pipeline, frames,
                                               setup).values())
            if differ:
                failing[tuple(domain.index(f) for f in frames)] = differ
        # only packets of one key meet: SAME's two frames, or a new
        # flow's twice (the second misses what the first inserts)
        key = {0: "same", 1: "same", 2: "other", 3: "third"}
        assert {(a, b) for a in (0, 1) for b in (0, 1)} <= set(failing)
        assert all(len({key[k] for k in seq}) < len(seq) for seq in failing)
        assert set().union(*failing.values()) == {"map buckets"}

    # leaky_bucket's arm heads: the hit arm (its stores at 18, released
    # at 6) and the insert (call 2 at 18, released at 10), each released
    # one stage sooner
    @pytest.mark.parametrize("sooner", [
        (2, frozenset({2, 8}), 5, 10),
        (2, frozenset({2, 8}), 6, 9),
    ], ids=["hit", "insert"])
    def test_each_forward_distance_is_tight(self, sooner):
        # one cycle sooner, the younger packet of a hot key reads its
        # bucket (misses it, on the insert arm) the cycle before the
        # older one writes it
        program = leaky_bucket.build()
        pipeline = compile_program(program)
        frames = make_workload(replace(
            parse_workload_spec("udp-zipf"), flows=4, packets=200,
            seed=7)).materialize()
        assert pipeline.map_hazards[1].forwarding.release == (
            2, frozenset({2, 8}), 6, 10)
        found = _released_sooner(program, pipeline, frames, sooner)
        assert found and {m.what for m in found} <= {"action", "map buckets"}
        assert any(m.index >= 0 for m in found)  # names a packet

    def test_a_late_arm_releases_at_its_decision(self):
        # the hit arm chooses between the store (6) and the insert (10)
        # at stage 10, after a holder of 6 would release its key at 9:
        # the store arm releases at 10, where the cycle loop learns it
        program = load_program(str(Path(__file__).parent / "corpus"
                                   / "late_arm.ebpf"))
        pipeline = compile_program(program)
        plan = pipeline.map_hazards[1]
        assert plan.bank_key.keyed and plan.serial_window == (3, 13)
        assert pipeline.held_windows[0][4] is plan.forwarding
        assert ("  forwards: b2 at its decision @10, "
                "b3 after 10 (call 2 @13 → call 1 @3)") \
            in hazard_summary(pipeline)
        # released at lo + 6 instead, the stream would let a store's key
        # in at 9 while the cycle loop, not knowing the arm yet, holds
        # it to 10
        frames = [bytes([0, key % 2]) + bytes(62) for key in range(24)]
        forced = _released_at(pipeline, (2, frozenset({2, 3}), 6, 10))
        for candidate, agree in ((pipeline, True), (forced, False)):
            assert stream_blocker(candidate) is None
            loop, stream = (run_engine(engine, program, frames,
                                       pipeline=candidate,
                                       sim_options=FROZEN, gap=1)
                            for engine in ("interpreted", "codegen"))
            assert (compare_runs(loop, stream) == []) is agree

    @staticmethod
    def _full(maps):
        for key in (0, 1):
            maps[1].update(key.to_bytes(4, "little"), bytes(8))

    def test_two_write_stages_keep_the_verdict(self):
        # the flushes kept, a helper write relaxes w: a delete of key 0
        # (a hit), inserts of keys 2 and 3 (misses) into the full map
        program = _two_entries(_INSERT_OR_DELETE)
        pipeline = compile_program(program)
        exempt = set(pipeline.consistency.exempt)
        domain = _frames([0], [2], [3])
        witnessed = set()
        for frames in _sequences(domain):
            for differ in _differences(program, pipeline, frames,
                                       self._full).values():
                assert differ <= exempt, (frames, pipeline.consistency)
                witnessed |= differ
        assert witnessed == exempt == {"map w"}

    def test_capacity_needs_one_write_stage(self, monkeypatch):
        # a full map: an older packet deletes key 0 at stage 13, a
        # younger one inserts key 2 at stage 7. Keyed on their two keys,
        # the insert overtakes the delete and fails.
        program = _two_entries(_INSERT_OR_DELETE)
        frames = _frames([0], [2])
        assert compile_program(program).map_hazards[1].bank_key is None
        monkeypatch.setattr(hazards, "_capacity_in_order", lambda *_: "")
        pipeline = compile_program(program)
        assert pipeline.map_hazards[1].bank_key.keyed
        assert pipeline.consistency.kind == "windowed"
        differ = _differences(program, pipeline, frames, self._full)
        assert "map w" in differ[1]
        assert not differ[pipeline.n_stages]


class TestCommutingAccesses:
    """``hazards.commutes`` is the one rule for which two accesses to a
    lane need packet order: the consistency classes read it, and so does
    each window's release. Two plain adds commute, so a holder releases
    its lane without waiting for another packet's add; a fetch-add
    commutes with nothing, so it keeps its ordered release."""

    @pytest.mark.parametrize("flows,churn", [(4, 0.5), (16, 0.2), (2, 0.9)])
    def test_two_adds_hold_no_lane(self, flows, churn):
        # §3.3 layout: the outbound refresh (b8) adds at 31, the inbound
        # refresh at 15. The adds commute, so b8 releases at its decision
        # (23), not 16 stages after the inbound add.
        program = ct_firewall.build()
        pipeline = compile_program(program, LAYOUTS["paper"])
        assert ("forwards: b7 after 15 (call 2 @26 → call 1 @11), "
                "b8 at its decision @23") in hazard_summary(pipeline)
        frames = make_workload(replace(parse_workload_spec(
            f"flow-churn:flows={flows},churn={churn}"), packets=1500,
            seed=7)).materialize()
        result = run_differential(
            program, frames, pipeline=pipeline, sim_options=FROZEN, gap=1,
            engines=("vm", "interpreted", "codegen"))
        result.raise_on_mismatch()
        assert compare_runs(result.runs["interpreted"],
                            result.runs["codegen"]) == []

    def test_a_fetch_add_keeps_its_ordered_release(self):
        # the hit arm's fetch-add (7) and add (12) do not commute: a
        # younger packet of the key enters once the older one is 5 stages
        # in, and its fetch meets the older add's value. Released one
        # stage sooner, it fetches the value before that add, writes it
        # into its packet and adds a value derived from it. (The miss
        # arm's insert, at 10, alone would release the hit arm at 2.)
        program = load_program(str(Path(__file__).parent / "corpus"
                                   / "fetch_beside_add.ebpf"))
        pipeline = compile_program(program)
        arms = frozenset({1, 2})  # the hit arm and the insert
        assert pipeline.map_hazards[1].forwarding.release == (
            1, arms, 5, (2, arms, 7, 0))
        assert ("forwards: b1 after 5 (atomic @12 → atomic @7), "
                "b2 after 7 (call 2 @10 → call 1 @3)") \
            in hazard_summary(pipeline)
        frames = [bytes([0, k]) + bytes(62) for k in range(24)]
        found = _released_sooner(program, pipeline, frames,
                                 (1, arms, 4, (2, arms, 7, 0)))
        assert "packet bytes" in {m.what for m in found} <= {
            "packet bytes", "map m"}
        assert any(m.index >= 0 for m in found)  # names a packet
