"""Path-parallel scheduling: mutually exclusive blocks share stages.

Every app, every corpus program and both hypothesis program generators
are held to the layout invariants under both layouts:

* ops that share a stage come from blocks that cannot reach one another
  (no packet executes both, so each op is gated by its own enable bit);
* every block's first stage comes after all of its predecessors' ops;
* a stage holds at most one map atomic (the stage entity's one ``ap_*``
  port);
* ops that touch state other packets observe (maps, the clock, the PRNG)
  keep the paper layout's block order, so no cross-packet interleaving
  appears that the paper layout does not have;
* ``path_parallel=False`` is §3.3's layout — one block per stage, blocks
  in topological order — and reproduces the stage lists compiled before
  the option existed, byte for byte.

Then: vm == hwsim == rtl on all 13 apps under both layouts, and the RTL
witness for why in-stage forwarding in the VHDL is scoped per block.
"""

import hashlib
import re
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro import apps
from repro.apps import SECOND_GEN_APPS
from repro.cli import load_program
from repro.core import vhdl
from repro.core.compiler import CompileOptions, compile_program
from repro.core.labeling import Region
from repro.ebpf.asm import assemble_program
from repro.ebpf.helpers import ORDER_SENSITIVE_HELPERS
from repro.rtl import run_three_way
from tests.test_property import random_programs
from tests.test_property_maps import map_programs
from tests.test_rtl import APP_CASES
from tests.test_second_gen_apps import app_frames, app_setup

APPS = sorted(name for name in apps.__all__ if name.islower())
CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.ebpf"))
LAYOUTS = {"path_parallel": CompileOptions(),
           "paper": CompileOptions(path_parallel=False)}


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
# compiler before path-parallel scheduling existed (one block per stage).
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
    "head_tail_resize.ebpf": "227a12920d32fc2d6b37029f64e8c9ede340b977b44a572b7a500d82e0b3e6e7",
    "jmp32_signed.ebpf": "a3e48d7cc6e34d6a03c8b4d198c0168ebd7bbfd765f681675330a8718dee6812",
    "mixed_width_alu.ebpf": "9bab0567f3c4a480411cb477f959a6a587a2fb8de24e9aaa6153fc8e30f26926",
    "multi_map.ebpf": "e464a8365d94b2a373d7e8915771555c63337cb2e023fbc107e38024db30981d",
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


def check_layout(pipeline, path_parallel: bool) -> None:
    cfg = pipeline.cfg
    below = _descendants(cfg)
    topo = {b: k for k, b in enumerate(cfg.topo_order)}
    first, last = {}, {}
    shared = []  # (topo position of the block, stage)
    for stage in pipeline.stages:
        blocks = {op.block_id for op in stage.ops}
        for a, b in combinations(sorted(blocks), 2):
            assert b not in below[a] and a not in below[b], (
                f"stage {stage.number}: blocks {a} and {b} share it but "
                "one reaches the other")
        map_atomics = [op for op in stage.ops if op.insn.is_atomic
                       and op.label.region is Region.MAP_VALUE]
        assert len(map_atomics) <= 1, f"stage {stage.number}"
        for op in stage.ops:
            first.setdefault(op.block_id, stage.number)
            last[op.block_id] = stage.number
            if _touches_shared_state(op):
                shared.append((topo[op.block_id], stage.number))
        if not path_parallel and stage.ops:
            assert len(blocks) == 1, f"stage {stage.number}"
    for block, start in first.items():
        for pred in cfg.blocks[block].preds:
            if pred in last:
                assert start > last[pred], (block, pred)
    # shared-state ops: block order (topological) implies stage order
    shared.sort()
    for (_, s1), (_, s2) in zip(shared, shared[1:]):
        assert s1 <= s2
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


def _three_way_case(name):
    """(program, frames, setup) for one app: the RTL test fixtures where
    they exist, else 40 packets of the app's registered workload."""
    if name in APP_CASES:
        build, setup, frames = APP_CASES[name]
        return build(), frames, setup
    return SECOND_GEN_APPS[name].build(), app_frames(name, 40), app_setup(name)


class TestThreeWayBothLayouts:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("name", APPS)
    def test_vm_hwsim_rtl_agree(self, name, layout):
        program, frames, setup = _three_way_case(name)
        result = run_three_way(program, frames, setup=setup,
                               compile_options=LAYOUTS[layout])
        result.raise_on_mismatch()
        assert result.rtl_report is not None


class TestObservability:
    def test_stats_names_the_window_and_the_sharing_blocks(self, capsys):
        from repro.cli import main

        assert main(["stats", "app:ct_firewall"]) == 0
        out = capsys.readouterr().out
        assert "window [11, 20] W=10" in out
        # a shared stage tags each block's run of ops
        assert "stage  15 [r0,r1,r2 [-16:16]] b5: lock *(u64 *)(r0 + 0) " \
            "+= r1 | b6: call 1 | b9: exit\n" in out

    def test_one_block_stages_carry_no_tags(self):
        pipeline = compile_program(apps.ct_firewall.build(),
                                   LAYOUTS["paper"])
        assert not re.search(r"\bb\d+: ", pipeline.summary())


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
