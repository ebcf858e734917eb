"""Path-parallel scheduling: mutually exclusive blocks share stages.

Every app, every corpus program and both hypothesis program generators
are held to the layout invariants under both layouts:

* ops that share a stage come from blocks that cannot reach one another
  (no packet executes both, so each op is gated by its own enable bit);
* every block's first stage comes after all of its predecessors' ops;
* a stage holds atomics on at most one map (the stage entity's one
  ``ap_*`` port), several only from mutually exclusive blocks, which the
  port muxes by enable bit;
* so do a map's channels (``MapHazardPlan.ports``): requests that share
  one in a stage come from mutually exclusive blocks, and a block's k
  requests in a stage take k channels;
* ops that touch state other packets observe (maps, the clock, the PRNG)
  keep the paper layout's block order, so no cross-packet interleaving
  appears that the paper layout does not have — except two ops on one
  serialised (LRU) map, which its window orders across packets wherever
  they sit;
* ``path_parallel=False`` is §3.3's layout — one block per stage, blocks
  in topological order — and reproduces the stage lists compiled before
  the option existed, byte for byte.

Then: the witnesses for window-compact placement (exclusive arms enter
an LRU map's window in one stage, and dropping the window breaks LRU
order), and the RTL witness for why in-stage forwarding in the VHDL is
scoped per block. vm == hwsim == rtl on every app under both layouts
is ``tests/test_matrix.py``'s three-way cells, which
``TestThreeWayBothLayouts`` runs by app and layout.
"""

import copy
import hashlib
import re
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro import apps
from repro.cli import load_program
from repro.core import vhdl
from repro.core.compiler import CompileOptions, compile_program
from repro.core.labeling import Region
from repro.core.pipeline import ATOMIC
from repro.ebpf.asm import assemble_program
from repro.ebpf.helpers import ORDER_SENSITIVE_HELPERS
from repro.ebpf.isa import MapSpec
from repro.hwsim import FROZEN_CLOCK_MHZ, SimOptions, run_differential
from repro.rtl import RTL_ENGINES, run_three_way
from tests.cases import LAYOUTS
from tests.test_codegen import _TWO_LRU_MAPS, _TWO_LRU_SRC, _seed_two_lru
from tests.test_matrix import check_cell
from tests.test_property import random_programs
from tests.test_property_maps import map_programs
from tests.test_second_gen_apps import _key_frames

APPS = sorted(name for name in apps.__all__ if name.islower())
CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.ebpf"))


def render_stages(pipeline) -> str:
    """Every stage's kind, note, ops (index, block, fused) and carried
    state, one line each: what the layout digests below hash."""
    lines = []
    for s in pipeline.stages:
        ops = ",".join(f"{op.insn_index}:{op.block_id}:{int(op.fused)}"
                       for op in s.ops)
        regs = ",".join(str(r) for r in sorted(s.live_in_regs))
        stack = ",".join(f"{o}:{n}" for o, n in s.live_in_stack)
        lines.append(f"{s.number} {s.kind.value} {s.note!r} [{ops}] "
                     f"[{regs}] [{stack}]")
    return "\n".join(lines)


# sha256 of render_stages under path_parallel=False, captured from the
# compiler before path-parallel scheduling existed (one block per stage);
# redirect_map.ebpf's, late_arm.ebpf's, fetch_beside_add.ebpf's and
# shared_channel.ebpf's when each joined the corpus.
PAPER_LAYOUT_DIGESTS = {
    "app:ct_firewall": "50ff2cde9d491de66565ff77311d2a8296bbfef40513fa3f457b22da71519cbc",
    "app:dnat": "c85dfa7d8e86cf2dcb7fee9f77315843878e01e9b2e4df1276283c0a730792b9",
    "app:firewall": "1be60d76ea20237bcc05858e152d45d43224c75f80a1ccf3001105b6d783eef8",
    "app:icmp_echo": "e2022bfbea0570966f47c05b8e5a36f356f068d4695d3eee39f8b3b1dd1e697e",
    "app:leaky_bucket": "c60ebca6839ac186572ece53ad3529455c1c769cc3a9a8694798375d68fcbc3c",
    "app:maglev": "58a270668ca1096d6f8d551550689afbf00af9a9a9b76b0af841c787cf91be61",
    "app:nat64": "cfcf1ae9b4afb51b21a60ac2f190ecdfcc2289c8e72b1e3fac1d312e67bac20b",
    "app:router": "2df9233f90b3c0787708ddd5c3dc2694a92851d8dbcfe190c090e65ff221c792",
    "app:suricata": "4311ea2b574d4460566830f1dc61de86f3a600e5a8753a1ca386e353ded57261",
    "app:syn_cookie": "9b0a763893d0f0c6c650fd6cd84800f345afccf8132e64ac85ee1c77f32aecc3",
    "app:toy_counter": "86a419b0e432e9ea31a116b5bf05820af89c837b38a9829c32143ce5fda28edd",
    "app:tunnel": "071350989767bdc9975a427509d9c1242e4c2181ef1ac9f312e9880ec92852d4",
    "app:vxlan_term": "237efc9cead390e72d7c5fc21568c5a70ba81f0e2da67e5b5f998ec69a7d38b1",
    "atomic_variants.ebpf": "f704f47499671662c821cd7035e43fd9740825de0ffe58ac1b1646e49281287d",
    "counted_loop.ebpf": "2d09c0c5e559071291d8665203ce5782a39a78433f59f1e7064b3232e7d01c7a",
    "deep_nesting.ebpf": "b769a20352163537fd34ace7f71a62cc97caaf26f8fb83877452efe0f1f8a87b",
    "div_mod_edge.ebpf": "2ef501471f225056693ea8a881748b19564e723d0eb44b61f5f01adf47899275",
    "endian_chain.ebpf": "1dce185d03402a9870eae6ff9706fa756487a90596ca685d28cda22d5e840d33",
    "fetch_beside_add.ebpf": "1c31675ab95679d9d95bb784c9e8229bb52e5a0c0a6d1f0444b1d9cad3445b52",
    "head_tail_resize.ebpf": "227a12920d32fc2d6b37029f64e8c9ede340b977b44a572b7a500d82e0b3e6e7",
    "jmp32_signed.ebpf": "a3e48d7cc6e34d6a03c8b4d198c0168ebd7bbfd765f681675330a8718dee6812",
    "late_arm.ebpf": "f7858ee92bad430fc52fd7970dd5f49443dad24b0606be63d4ff610dbf93d032",
    "mixed_width_alu.ebpf": "9bab0567f3c4a480411cb477f959a6a587a2fb8de24e9aaa6153fc8e30f26926",
    "multi_map.ebpf": "e464a8365d94b2a373d7e8915771555c63337cb2e023fbc107e38024db30981d",
    "redirect_map.ebpf": "42fb73ccef232fa04308a7c2bbbb37eaf3d4053bc1d80f8e8965c120b9c92969",
    "shared_channel.ebpf": "3d19b36287f04680f7972678d3a64d98276f4a0b89ba3faf36a85ae22b4de633",
    "stack_spills.ebpf": "fc8cec66737e646bcbf0aafb6daa65ff2d95066afe98339607d784bb2c642af2",
}


def _programs():
    named = {f"app:{name}": getattr(apps, name).build() for name in APPS}
    named.update({path.name: load_program(str(path)) for path in CORPUS})
    return named


def _descendants(cfg):
    below = {b.block_id: {b.block_id} for b in cfg.blocks}
    for b in reversed(cfg.topo_order):
        for succ, _kind in cfg.blocks[b].succs:
            below[b] |= below[succ]
    return below


def _touches_shared_state(op) -> bool:
    if op.insn.is_call:
        return (op.call is None or op.call.map_fd is not None
                or op.insn.imm in ORDER_SENSITIVE_HELPERS)
    return op.label is not None and op.label.region is Region.MAP_VALUE


def _serialised_fd(op, maps):
    """The fd of the serialised (LRU) map a shared op touches, else None."""
    labelled = op.call if op.insn.is_call else op.label
    fd = labelled.map_fd if labelled is not None else None
    spec = maps.get(fd)
    return fd if spec is not None and spec.serialised else None


def check_ports(pipeline, below) -> None:
    """Each map's ports (``MapHazardPlan.ports``): an atomic goes on the
    atomic port, and two requests that share a channel in one stage
    come from distinct, mutually exclusive blocks (``below[a]`` holds
    ``a``), so a block's k requests in one stage take k channels."""
    for plan in pipeline.map_hazards.values():
        assert len(plan.ports) == len(plan.accesses)
        sharing = {}
        for access, port in zip(plan.accesses, plan.ports):
            assert (port is None) == (access.kind == ATOMIC)
            if port is not None:
                sharing.setdefault((access.stage, port), []).append(
                    access.block)
        for (number, port), blocks in sharing.items():
            for a, b in combinations(blocks, 2):
                assert b not in below[a] and a not in below[b], (
                    f"stage {number}: b{a} and b{b} share ch{port} on "
                    f"map {plan.map_fd}")


def check_layout(pipeline, path_parallel: bool) -> None:
    cfg = pipeline.cfg
    below = _descendants(cfg)
    topo = {b: k for k, b in enumerate(cfg.topo_order)}
    first, last = {}, {}
    shared = []  # (topo position of the block, stage, serialised fd)
    for stage in pipeline.stages:
        blocks = {op.block_id for op in stage.ops}
        for a, b in combinations(sorted(blocks), 2):
            assert b not in below[a] and a not in below[b], (
                f"stage {stage.number}: blocks {a} and {b} share it but "
                "one reaches the other")
        map_atomics = [op for op in stage.ops if op.insn.is_atomic
                       and op.label.region is Region.MAP_VALUE]
        # one atomic port per map and stage: atomics of one map only,
        # each from its own (so, per the check above, exclusive) block
        assert len({op.label.map_fd for op in map_atomics}) <= 1, \
            f"stage {stage.number}"
        assert len({op.block_id for op in map_atomics}) \
            == len(map_atomics), f"stage {stage.number}"
        for op in stage.ops:
            first.setdefault(op.block_id, stage.number)
            last[op.block_id] = stage.number
            if _touches_shared_state(op):
                shared.append((topo[op.block_id], stage.number,
                               _serialised_fd(op, pipeline.program.maps)))
        if not path_parallel and stage.ops:
            assert len(blocks) == 1, f"stage {stage.number}"
    check_ports(pipeline, below)
    for block, start in first.items():
        for pred in cfg.blocks[block].preds:
            if pred in last:
                assert start > last[pred], (block, pred)
    # shared-state ops: block order (topological) implies stage order,
    # except between two ops on one serialised map under path_parallel —
    # its window already orders them across packets
    shared.sort()
    for k, (t2, s2, fd2) in enumerate(shared):
        for t1, s1, fd1 in shared[:k]:
            if t1 < t2 and not (path_parallel and fd1 is not None
                                and fd1 == fd2):
                assert s1 <= s2, (
                    f"stage {s2} (block #{t2}) ahead of stage {s1} "
                    f"(block #{t1})")
    if not path_parallel:
        # §3.3: blocks contiguous, in topological order
        order = [topo[op.block_id] for s in pipeline.stages for op in s.ops]
        assert order == sorted(order)


class TestLayoutInvariants:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_apps_and_corpus(self, layout):
        for name, program in _programs().items():
            pipeline = compile_program(program, LAYOUTS[layout])
            try:
                check_layout(pipeline, LAYOUTS[layout].path_parallel)
            except AssertionError as exc:
                raise AssertionError(f"{name}: {exc}") from exc

    def test_paper_layout_is_the_parent_layout(self):
        moved = [
            name for name, program in _programs().items()
            if hashlib.sha256(render_stages(compile_program(
                program, LAYOUTS["paper"])).encode()).hexdigest()
            != PAPER_LAYOUT_DIGESTS[name]
        ]
        assert sorted(PAPER_LAYOUT_DIGESTS) == sorted(_programs())
        assert not moved, f"paper layout moved for {moved}"

    def test_no_app_gets_deeper(self):
        for name in APPS:
            program = getattr(apps, name).build()
            shared, paper = (compile_program(program, LAYOUTS[layout])
                             for layout in ("path_parallel", "paper"))
            assert shared.n_stages < paper.n_stages, name

    def test_serial_ilp_shares_nothing(self):
        # enable_ilp=False stays fully serial whatever path_parallel says
        program = apps.ct_firewall.build()
        serial = compile_program(program, CompileOptions(
            enable_ilp=False, enable_fusion=False))
        check_layout(serial, path_parallel=False)
        assert all(s.width <= 1 for s in serial.stages)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog=random_programs())
    def test_random_programs(self, prog):
        for options in LAYOUTS.values():
            check_layout(compile_program(prog, options), options.path_parallel)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog_ops=map_programs())
    def test_random_map_programs(self, prog_ops):
        for options in LAYOUTS.values():
            check_layout(compile_program(prog_ops[0], options),
                         options.path_parallel)


class TestThreeWayBothLayouts:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("name", APPS)
    def test_vm_hwsim_rtl_agree(self, name, layout):
        check_cell(name, layout, "three-way-rtl")


class TestSharedAtomicPort:
    """ct_firewall's refresh locks (inbound b5, outbound b8) share stage
    15's atomic port on the conntrack map: each ``ap_*`` input muxes on
    the enable bits, b5's increment in r1 and b8's in r9."""

    @staticmethod
    def _case():
        from repro.apps import ct_firewall
        from repro.net.packet import FiveTuple, ipv4, udp_packet

        out = FiveTuple(ipv4("10.1.2.3"), ipv4("93.184.216.34"), 17,
                        4242, 53)
        frames = [udp_packet(flow.src_ip, flow.dst_ip, sport=flow.sport,
                             dport=flow.dport)
                  for flow in (out, out.reversed(), out, out.reversed())]
        program = ct_firewall.build()
        return program, compile_program(program), frames

    def test_both_arms_drive_the_port(self):
        program, pipeline, frames = self._case()
        text = vhdl.emit_vhdl(pipeline)
        assert len(re.findall(r"  ap_wdata <= (.*) when enable_in\(5\) "
                              r"= '1' else (.*);", text)) == 1
        run_three_way(program, frames, pipeline=pipeline) \
            .raise_on_mismatch()

    def test_an_unmuxed_port_fails_the_rtl_leg(self):
        # drive the port's operand from b8 alone: an inbound reply's
        # refresh then adds b8's register, not its own increment. (Both
        # arms address the entry through r0, so ap_addr cannot tell.)
        program, pipeline, frames = self._case()
        text = vhdl.emit_vhdl(pipeline)
        mux = re.search(r"  ap_wdata <= (.*) when enable_in\(5\) = '1' "
                        r"else (.*);", text)
        bad = text.replace(mux.group(0), f"  ap_wdata <= {mux.group(2)};")
        result = run_three_way(program, frames, pipeline=pipeline,
                               vhdl_text=bad)
        # located on the flow's entry: four refreshes in the VM, and in
        # the RTL only the two outbound ones (the replies added nothing)
        (mismatch,) = result.mismatches
        assert str(mismatch) == (
            "vm vs rtl: rtl map conntrack "
            "{'0a0102035db8d8221092003500000000': '0400000000000000'} != "
            "{'0a0102035db8d8221092003500000000': '0200000000000000'}")


class TestSharedChannel:
    """shared_channel.ebpf's exclusive arms each update map ``m`` in one
    stage, and ``MapHazardPlan.ports`` puts both requests on ``ch0``:
    the top muxes the two stage ports onto it by their request bits, and
    every engine agrees on traffic that takes both arms."""

    # (key, third byte): a byte up to 127 takes the low arm (stores
    # byte + 1), a larger one the high arm (byte << 1); key 3 takes both
    SENT = ((1, 0x10), (2, 0x80), (3, 0x7F), (3, 0xFF), (4, 0x00))
    FRAMES = [bytes([key << 2, 0, byte]).ljust(60, b"\x00")
              for key, byte in SENT]

    @staticmethod
    def _case():
        program = load_program(str(Path(__file__).parent / "corpus"
                                   / "shared_channel.ebpf"))
        pipeline = compile_program(program)
        (stage,) = {a.stage for a in pipeline.map_hazards[1].accesses}
        return program, pipeline, stage

    @pytest.mark.parametrize("engine", RTL_ENGINES)
    def test_exclusive_updates_share_ch0_and_agree(self, engine):
        program, pipeline, stage = self._case()
        plan = pipeline.map_hazards[1]
        assert len({access.block for access in plan.accesses}) == 2
        assert plan.ports == (0, 0) and plan.channels == 1
        assert (f"  m1_ch0_req <= s{stage}_mp0_req or s{stage}_mp1_req;\n"
                in vhdl.emit_vhdl(pipeline))
        result = run_three_way(program, self.FRAMES, pipeline=pipeline,
                               rtl_engine=engine)
        result.raise_on_mismatch()
        assert result.runs[engine].map_items[1] == {
            key.to_bytes(4, "little"): value.to_bytes(8, "little")
            for key, value in ((1, 0x11), (2, 0x100), (3, 0x1FE), (4, 1))}

    def test_a_channel_deaf_to_one_arm_fails_the_rtl_leg(self):
        # ch0 hears the low arm alone: the high arm's updates never land
        program, pipeline, stage = self._case()
        bad = vhdl.emit_vhdl(pipeline).replace(
            f"_req <= s{stage}_mp0_req or s{stage}_mp1_req;",
            f"_req <= s{stage}_mp0_req;")
        result = run_three_way(program, self.FRAMES, pipeline=pipeline,
                               vhdl_text=bad)
        (mismatch,) = result.mismatches
        assert str(mismatch).startswith("vm vs rtl: rtl map m "), mismatch


class TestObservability:
    def test_stats_names_the_window_and_the_sharing_blocks(self, capsys):
        from repro.cli import main

        assert main(["stats", "app:ct_firewall"]) == 0
        out = capsys.readouterr().out
        # the window, its split by bank, the ops on its first and last
        # stage that force its extent, and the blocks whose packets wait
        # for it: every conntrack arm, not the non-IPv4 pass
        assert "window [12, 15] W=4 banked x16 on conntrack by " \
            "stack[-16:16] (opens: b4 call 1, b6 call 1 @12; " \
            "closes: b5 lock *(u64 *)(r0 + 0) += r1, b7 call 2, " \
            "b8 lock *(u64 *)(r0 + 0) += r9 @15) " \
            "held by b4 b5 b6 b7 b8  " in out
        # a holder frees its bank for the next one after the insert's
        # forward distance, or at the refresh's decision; an inbound
        # lookup frees it at once
        assert "held by b4 b5 b6 b7 b8  forwards: b7 after 3 " \
            "(call 2 @15 → call 1 @12), b8 at its decision @14\n" in out
        # a shared stage tags each block's run of ops: both directions'
        # lookups enter the window together, with the insert's initial
        # value ([-32:8]) and the refresh's renamed increment (r9)
        # computed above them
        assert "stage  12 [r1,r2,r9 [-32:8],[-16:16]] b4: call 1 | " \
            "b6: call 1\n" in out

    def test_stats_names_a_single_path_window(self, capsys):
        from repro.cli import main

        # syn_cookie's lookup and insert sit on one path, behind the
        # cookie recompute; a SYN enables none of the holders (the
        # lookup, established, ACK-check and admit blocks) and passes
        # through. The window has one lane, and only the admit arm's
        # insert holds it for the lookup after it; every other arm
        # releases it where it is decided
        assert main(["stats", "app:syn_cookie"]) == 0
        assert "window [15, 31] W=17 (opens: b4 call 1 @15; closes: " \
            "b9 call 2 @31) held by b4 b5 b7 b8 b9  forwards: " \
            "b6 at its decision @18, b7 at its decision @17, " \
            "b9 after 16 (call 2 @31 → call 1 @15), " \
            "b15 at its decision @28\n" in capsys.readouterr().out

    def test_stats_names_each_maps_class_and_the_verdict(self, capsys):
        from repro.cli import main

        assert main(["stats", "app:ct_firewall"]) == 0
        out = capsys.readouterr().out
        assert "map conntrack: windowed  reads@" in out
        assert "consistency: windowed (equal to sequential execution)\n" \
            in out
        # dnat: the port counter's fetch-add commits ahead of the nat
        # table's flush block, and the burnt port reaches both bindings
        # and the rewritten packet
        assert main(["stats", "app:dnat"]) == 0
        out = capsys.readouterr().out
        assert "map ports: relaxed(fetch_add at stage 17 commits ahead of " \
            "nat's flush block at stage 20, A.2)  reads@[13] writes@[]  " \
            "atomic@[17]  ports: ch0 s13 b4; at s17 b5\n" in out
        assert "map rnat: exact  " in out
        assert "consistency: relaxed (with packets in flight together, " \
            "packet bytes, map nat, map ports, map rnat may differ from " \
            "sequential)\n" in out
        assert main(["stats", str(Path(__file__).parent / "corpus"
                                  / "atomic_variants.ebpf")]) == 0
        assert "map m: relaxed(atomics at stages 7-17 do not commute " \
            "unobserved, §4.1.2)  reads@[3] writes@[]  " \
            "atomic@[7, 9, 11, 13, 15, 17]  ports: ch0 s3 b0; " \
            "at s7 b1 · s9 b1 · s11 b1 · s13 b1 · s15 b1 · s17 b1\n" \
            in capsys.readouterr().out

    def test_one_block_stages_carry_no_tags(self):
        pipeline = compile_program(apps.ct_firewall.build(),
                                   LAYOUTS["paper"])
        assert not re.search(r"\bb\d+: ", pipeline.summary())


_LRU_ARMS_MAPS = {
    "t": MapSpec("t", "lru_hash", key_size=4, value_size=8, max_entries=4),
    "h": MapSpec("h", "hash", key_size=4, value_size=8, max_entries=4),
}
# An lru_hash map looked up on two exclusive arms: the short arm keys on
# the packet word, the long arm builds its key in four more ops. A miss
# inserts on either arm; one arm's miss first takes a detour through an
# op on another ordering domain: the clock, or a flush-checked store to
# the hash map ``h``. On the short arm the detour precedes the whole long
# arm in block order.
_LRU_ARMS_SRC = """
    r7 = *(u32 *)(r1 + 4)
    r6 = *(u32 *)(r1 + 0)
    r2 = r6
    r2 += 18
    if r2 > r7 goto pass
    r2 = *(u32 *)(r6 + 14)
    r3 = *(u8 *)(r6 + 12)
    if r3 == 1 goto long
    *(u32 *)(r10 - 4) = r2
    r1 = map[t]
    r2 = r10
    r2 += -4
    call 1
    if r0 == 0 goto {short_miss}
    r1 = 1
    lock *(u64 *)(r0 + 0) += r1
    r0 = 2
    exit
{short_detour}
long:
    r2 ^= 5
    r2 &= 7
    r2 *= 3
    r2 += 1
    *(u32 *)(r10 - 4) = r2
    r1 = map[t]
    r2 = r10
    r2 += -4
    call 1
    if r0 == 0 goto {long_miss}
    r1 = 1
    lock *(u64 *)(r0 + 0) += r1
    r0 = 3
    exit
{long_detour}
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
_DETOURS = {
    "ktime": """
    call 5
    goto insert
    """,
    "hash_store": """
    r1 = map[h]
    r2 = r10
    r2 += -4
    call 1
    if r0 == 0 goto insert
    r1 = *(u64 *)(r0 + 0)
    r1 += 1
    *(u64 *)(r0 + 0) = r1
    r0 = 0
    goto insert
    """,
}
# (arm, key): arm 1 takes the long arm. Keys 1-6 through the 4-entry
# table on both arms, with repeats: evictions, refreshes and inserts.
_ARM_TRACE = [(0, 1), (1, 2), (0, 1), (1, 3), (0, 2), (0, 4), (1, 1),
              (0, 5), (1, 2), (0, 1), (0, 6), (1, 5), (0, 3), (1, 3),
              (0, 1), (1, 6), (0, 2), (0, 2), (1, 4), (0, 5)] * 2
# Key 1 goes in; after a run of too-short frames (which never reach the
# map) key 2 misses and key 1 hits, back to back. Sequentially key 1 ends
# most recent. Without the window the hit's lookup refresh, a few stages
# into the pipeline, overtakes the insert of key 2 further down, and key
# 2 ends most recent; no flush repairs it, the two keys differ.
_OVERTAKE_TRACE = [(0, 1)] + [None] * 24 + [(0, 2), (0, 1)]
_GAP1_ENGINES = ("vm", "interpreted", "codegen", "rtl")


def _arm_frames(trace):
    """(arm, key) -> a frame taking that arm with that key; None -> a
    frame too short to reach the map."""
    return [bytes(16) if step is None else
            bytes([0xEE] * 12) + bytes([step[0], 0xEE])
            + step[1].to_bytes(4, "little") + bytes(42) for step in trace]


def _assert_gap1_agreement(program, pipeline, frames, setup=None):
    """vm == interpreted == codegen == rtl back to back (the RTL leg at
    its single-packet minimum spacing), LRU recency order included."""
    run_differential(
        program, frames, pipeline=pipeline, engines=_GAP1_ENGINES, gap=1,
        sim_options=SimOptions(clock_mhz=FROZEN_CLOCK_MHZ), setup=setup,
    ).raise_on_mismatch()


class TestWindowCompactPlacement:
    """A serialised map's accesses are ordered by its window, not by
    block order: exclusive arms enter the window in one stage, and that
    is sound because the window, not chance, keeps LRU order."""

    @staticmethod
    def _program(detour, arm="long"):
        parts = {"short_miss": "insert", "long_miss": "insert",
                 "short_detour": "", "long_detour": "",
                 f"{arm}_miss": "detour",
                 f"{arm}_detour": "detour:" + _DETOURS[detour]}
        return assemble_program(_LRU_ARMS_SRC.format(**parts),
                                maps=_LRU_ARMS_MAPS,
                                name=f"lru_arms_{detour}_{arm}")

    @staticmethod
    def _lookup_stages(pipeline):
        """Stages of the lookups of ``t``, the short arm's first."""
        return [s.number for _i, s in sorted(
            (op.insn_index, s) for s in pipeline.stages for op in s.ops
            if op.call is not None and op.call.map_fd == 1
            and op.insn.imm == 1)]

    @staticmethod
    def _detour_stages(pipeline):
        """Stages of the ops on the clock or on ``h``."""
        return [s.number for s in pipeline.stages for op in s.ops
                if (op.insn.is_call and op.insn.imm == 5)
                or getattr(op.call or op.label, "map_fd", None) == 2]

    @pytest.mark.parametrize("detour", sorted(_DETOURS))
    def test_exclusive_first_accesses_share_a_stage(self, detour):
        program = self._program(detour)
        pipeline = compile_program(program)
        check_layout(pipeline, path_parallel=True)
        short, long = self._lookup_stages(pipeline)
        assert short == long, pipeline.summary()
        (lo, _hi), = pipeline.serial_windows
        assert lo == short
        # in block order the long arm's prefix would push its lookup
        # past the short arm's: the paper layout keeps them apart
        short, long = self._lookup_stages(
            compile_program(program, LAYOUTS["paper"]))
        assert short < long

    @pytest.mark.parametrize("detour", sorted(_DETOURS))
    def test_other_domains_keep_block_order(self, detour):
        # the short arm's detour precedes the long arm in block order: the
        # long arm's lookup may skip the short arm's accesses to ``t``,
        # not the detour
        pipeline = compile_program(self._program(detour, arm="short"))
        check_layout(pipeline, path_parallel=True)
        _short, long = self._lookup_stages(pipeline)
        assert long >= max(self._detour_stages(pipeline)), pipeline.summary()

    @pytest.mark.parametrize("arm", ["long", "short"])
    @pytest.mark.parametrize("detour", sorted(_DETOURS))
    def test_engines_agree_at_gap_1(self, detour, arm):
        program = self._program(detour, arm)
        for options in LAYOUTS.values():
            _assert_gap1_agreement(program, compile_program(program, options),
                                   _arm_frames(_ARM_TRACE))

    def test_two_lru_maps(self):
        program = assemble_program(_TWO_LRU_SRC, maps=_TWO_LRU_MAPS,
                                   name="two_lru")
        frames = _key_frames([1, 2, 9, 3, 1, 1, 2, 5, 7, 1, 3, 3, 9, 2])
        for name, options in LAYOUTS.items():
            pipeline = compile_program(program, options)
            check_layout(pipeline, options.path_parallel)
            assert len(pipeline.serial_windows) == 2, name
            _assert_gap1_agreement(program, pipeline, frames, _seed_two_lru)

    @pytest.mark.parametrize("detour", sorted(_DETOURS))
    def test_dropping_the_window_diverges(self, detour):
        program = self._program(detour)
        pipeline = compile_program(program)
        frames = _arm_frames(_OVERTAKE_TRACE)
        _assert_gap1_agreement(program, pipeline, frames)
        unwindowed = copy.deepcopy(pipeline)
        unwindowed.map_hazards[1].serial_window = None
        unwindowed.codegen_source = None
        result = run_differential(
            program, frames, pipeline=unwindowed, gap=1,
            engines=("vm", "interpreted", "codegen"),
            sim_options=SimOptions(clock_mhz=FROZEN_CLOCK_MHZ))
        # the same two keys, most recent last: reversed
        order = [key.to_bytes(4, "little").hex() for key in (2, 1)]
        assert [(m.what, m.ref_value, m.leg_value)
                for m in result.mismatches] == [
            (f"{engine} map t", {"order from 0": order},
             {"order from 0": order[::-1]})
            for engine in ("interpreted", "codegen")]


class _OneScope(dict):
    """Every block's key maps to one shared entry: the stage emitter's
    forwarding and drop chain scoped per stage instead of per block."""

    def setdefault(self, _key, default=None):
        return super().setdefault(None, default)


class TestBlockScopedForwarding:
    """Arm A writes r5 and arm B reads r5 in the stage the two exclusive
    arms share. B must read the r5 carried into the stage (7); forwarding
    scoped per stage hands it A's combinational result (100) instead."""

    SOURCE = """
        r6 = *(u32 *)(r1 + 0)
        r7 = *(u32 *)(r1 + 4)
        r2 = r6
        r2 += 2
        if r2 > r7 goto short
        r3 = *(u8 *)(r6 + 0)
        r5 = 7
        if r3 == 1 goto arm_b
        r5 = 100
        *(u8 *)(r6 + 1) = r5
        r0 = 2
        exit
    arm_b:
        r4 = r5
        *(u8 *)(r6 + 1) = r4
        r0 = 3
        exit
    short:
        r0 = 1
        exit
    """
    FRAMES = [bytes([b]) + bytes(63) for b in (0, 1, 1, 0)]

    def _witness(self):
        program = assemble_program(self.SOURCE, name="two_arms")
        pipeline = compile_program(program)
        shared = [
            s for s in pipeline.stages
            if {op.insn.dst for op in s.ops if op.insn.is_alu} >= {4, 5}
            and len({op.block_id for op in s.ops}) == 2
        ]
        assert shared, pipeline.summary()
        return program, pipeline

    def test_block_scoped_forwarding_agrees(self):
        program, pipeline = self._witness()
        run_three_way(program, self.FRAMES, pipeline=pipeline) \
            .raise_on_mismatch()

    def test_stage_scoped_forwarding_fails_the_rtl_leg(self, monkeypatch):
        program, pipeline = self._witness()
        init = vhdl._StageBuilder.__init__

        def stage_scoped(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self._reg_exprs = _OneScope()
            self._drop_chains = _OneScope()

        monkeypatch.setattr(vhdl._StageBuilder, "__init__", stage_scoped)
        result = run_three_way(program, self.FRAMES, pipeline=pipeline)
        assert result.mismatches
        assert all(m.what.startswith("rtl") for m in result.mismatches)
        assert {m.index for m in result.mismatches} == {1, 2}
