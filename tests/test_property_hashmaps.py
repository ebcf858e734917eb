"""Randomized differential testing of HASH-map programs.

Array maps never change their key→slot mapping; hash maps do — inserts
and deletes invalidate *address-resolution* reads (the lookup-miss →
insert race that DNAT hits). This module sweeps random programs over the
lookup / insert-on-miss / delete / rmw-on-hit vocabulary, back-to-back,
so the update/delete flush paths and their snapshots get hammered.
"""

import random

import pytest

from repro.ebpf.builder import ProgramBuilder
from repro.hwsim import run_differential
from tests.test_property_maps import differential_both_layouts

PACKET_DEPTH = 16
TRIALS = 60
LRU_SHARE = 0.3  # programs that also touch an lru_hash map on two arms


def build_program(rng: random.Random):
    """A random hash-map program.

    Per op: derive a key byte from the packet, look it up, then on the
    miss path optionally insert a constant value; on the hit path read,
    rmw, or delete. The compiled pipeline's consistency verdict says
    where sequential equality must hold exactly. Some programs then
    touch an ``lru_hash`` map on two arms (:func:`_lru_arms`).
    """
    b = ProgramBuilder("randhash")
    entries = rng.choice([2, 4, 8])
    b.add_map("h", "hash", key_size=4, value_size=8, max_entries=entries)
    b.load("u32", 7, 1, 4)
    b.load("u32", 6, 1, 0)
    b.mov(2, 6)
    b.alu_imm("+", 2, PACKET_DEPTH)
    b.jmp_reg(">", 2, 7, "drop")

    ops = []
    for i in range(rng.randint(1, 3)):
        key_off = rng.randrange(PACKET_DEPTH)
        miss_kind = rng.choice(["insert", "nothing"])
        hit_kind = rng.choice(["read", "rmw", "delete", "nothing"])
        ops.append((key_off, miss_kind, hit_kind))
        b.load("u8", 2, 6, key_off)
        b.alu_imm("&", 2, 3)
        b.store("u32", 10, 2, -4)
        b.ld_map(1, "h")
        b.mov(2, 10)
        b.alu_imm("+", 2, -4)
        b.call(1)
        b.jmp_imm("!=", 0, 0, f"hit_{i}")
        if miss_kind == "insert":
            b.store_imm("u64", 10, -16, 100 + i)
            b.store_imm("u64", 10, -12, 0)
            b.ld_map(1, "h")
            b.mov(2, 10)
            b.alu_imm("+", 2, -4)
            b.mov(3, 10)
            b.alu_imm("+", 3, -16)
            b.mov_imm(4, 0)
            b.call(2)
        b.jmp(f"end_{i}")
        b.label(f"hit_{i}")
        if hit_kind == "read":
            b.load("u64", 8, 0, 0)
        elif hit_kind == "rmw":
            b.load("u64", 3, 0, 0)
            b.alu_imm("+", 3, 1)
            b.store("u64", 0, 3, 0)
        elif hit_kind == "delete":
            b.ld_map(1, "h")
            b.mov(2, 10)
            b.alu_imm("+", 2, -4)
            b.call(3)
        b.label(f"end_{i}")

    if rng.random() < LRU_SHARE:
        _lru_arms(b, rng)
    b.mov_imm(0, 3)
    b.exit()
    b.label("drop")
    b.mov_imm(0, 1)
    b.exit()
    return b.build(), ops


def _lru_arms(b: ProgramBuilder, rng: random.Random) -> None:
    """An ``lru_hash`` map looked up on both arms of a branch, each arm
    building its key in a different number of ops; a miss inserts, a hit
    adds in place or leaves the entry alone. The scheduler places the
    arms' accesses by the map's window, not by block order. It follows
    the hash ops, so a flush on ``h`` never squashes a packet that has
    touched it: its recency order must match the VM's exactly."""
    b.add_map("l", "lru_hash", key_size=4, value_size=8,
              max_entries=rng.choice([2, 4]))
    b.load("u8", 3, 6, rng.randrange(PACKET_DEPTH))
    b.jmp_imm("==", 3, rng.randrange(4), "lru_arm_1")
    for arm, extra in enumerate(rng.sample(range(5), 2)):
        if arm:
            b.label("lru_arm_1")
        b.load("u8", 2, 6, rng.randrange(PACKET_DEPTH))
        for _ in range(extra):
            b.alu_imm(rng.choice(["+", "^", "*"]), 2, rng.randrange(1, 4))
        b.alu_imm("&", 2, 3)
        b.store("u32", 10, 2, -4)
        b.ld_map(1, "l")
        b.mov(2, 10)
        b.alu_imm("+", 2, -4)
        b.call(1)
        b.jmp_imm("!=", 0, 0, f"lru_hit_{arm}")
        if rng.random() < 0.8:
            b.store_imm("u64", 10, -16, 200 + arm)
            b.ld_map(1, "l")
            b.mov(2, 10)
            b.alu_imm("+", 2, -4)
            b.mov(3, 10)
            b.alu_imm("+", 3, -16)
            b.mov_imm(4, 0)
            b.call(2)
        b.jmp("lru_end")
        b.label(f"lru_hit_{arm}")
        if rng.random() < 0.5:
            b.mov_imm(1, 1)
            b.atomic_add("u64", 0, 1)
        b.jmp("lru_end")
    b.label("lru_end")


def lru_entries(result):
    """Per leg, the ``lru_hash`` map's entries in ``lru_keys()`` order
    (oldest first), values included."""
    return {name: [list(items.items()) for fd, items in run.map_items.items()
                   if run.map_names[fd] == "l"]
            for name, run in result.runs.items()}


def frames_for(rng: random.Random):
    out = []
    for _ in range(rng.randint(2, 8)):
        out.append(bytes([rng.randrange(4) for _ in range(PACKET_DEPTH)])
                   + bytes(64 - PACKET_DEPTH))
    return out


class TestRandomHashPrograms:
    @pytest.mark.parametrize("seed", [11, 222, 3333, 44444])
    def test_line_rate_equivalence_sweep(self, seed):
        # Helper updates and deletes commit at once: one ahead of a flush
        # is repeated when the flush replays its packet from scratch
        # (Appendix A.2), and one ahead of a later lookup meets older
        # packets. The compiled pipeline's consistency verdict says where
        # that relaxes sequential equality, and run_differential holds
        # every leg to it. The lru_hash map follows the hash ops, so a
        # flush never squashes a packet that has touched it: its recency
        # order matches the VM's whatever the verdict.
        rng = random.Random(seed)
        for trial in range(TRIALS):
            program, ops = build_program(rng)
            frames = frames_for(rng)
            gap = rng.choice([1, 1, 1, 2, 3])
            for result in differential_both_layouts(program, frames, gap=gap):
                entries = lru_entries(result)
                assert all(e == entries["vm"] for e in entries.values()), (
                    f"seed={seed} trial={trial} ops={ops} gap={gap}: "
                    f"{entries}")
                assert result.ok, (
                    f"seed={seed} trial={trial} ops={ops} gap={gap}: "
                    f"{result.mismatches[0]}"
                )

    def test_insert_race_two_packets(self):
        # the DNAT shape: both packets miss, first inserts, second must
        # observe the insert (via flush + re-execution)
        rng = random.Random(0)
        b = ProgramBuilder("insert_race")
        b.add_map("h", "hash", key_size=4, value_size=8, max_entries=4)
        b.load("u32", 7, 1, 4)
        b.load("u32", 6, 1, 0)
        b.mov(2, 6)
        b.alu_imm("+", 2, 4)
        b.jmp_reg(">", 2, 7, "drop")
        b.store_imm("u32", 10, -4, 7)
        b.ld_map(1, "h")
        b.mov(2, 10)
        b.alu_imm("+", 2, -4)
        b.call(1)
        b.jmp_imm("!=", 0, 0, "hit")
        b.store_imm("u64", 10, -16, 1)
        b.store_imm("u64", 10, -12, 0)
        b.ld_map(1, "h")
        b.mov(2, 10)
        b.alu_imm("+", 2, -4)
        b.mov(3, 10)
        b.alu_imm("+", 3, -16)
        b.mov_imm(4, 0)
        b.call(2)
        b.mov_imm(0, 3)
        b.exit()
        b.label("hit")
        b.load("u64", 3, 0, 0)
        b.alu_imm("+", 3, 1)
        b.store("u64", 0, 3, 0)
        b.mov_imm(0, 2)
        b.exit()
        b.label("drop")
        b.mov_imm(0, 1)
        b.exit()
        prog = b.build()
        for result in differential_both_layouts(prog, [bytes(64)] * 6):
            result.raise_on_mismatch()

    def test_delete_reinsert_cycle_spaced(self):
        # with no overlap even delete churn is exact
        rng = random.Random(1)
        program, _ops = build_program(rng)
        frames = [bytes([k % 4] * PACKET_DEPTH) + bytes(48) for k in range(12)]
        run_differential(program, frames, gap=120).raise_on_mismatch()
