"""Tests of the code-generation backend (:mod:`repro.hwsim.codegen`).

Semantics (bit-identical agreement with the other pipeline engines on
every app) are covered by ``tests/test_matrix.py``; this file pins the
machinery around the generated source itself:

* golden snapshots of the emitted module text (``tests/corpus/codegen/``,
  regenerate with ``pytest --update-golden``) for one stream-eligible
  app and one with hazard plans, so emitter changes show up as diffs;
* caching: the compiler attaches the source at compile time, it pickles
  with the pipeline (compile-cache hits exec() it instead of
  re-emitting), and every regeneration outside the compiler
  increments ``ehdl_codegen_recompile_total``;
* the ``_STREAM`` straight-line path: emitted only where
  ``stream_blocker`` finds no obstacle (no hazard plan at all, or every
  plan inside one serialization window; no order-sensitive helpers),
  and observably equivalent to the cycle loop — for windowed pipelines
  down to every packet's arrival/inject/exit cycle, the queue drops and
  the LRU recency order;
* the compiled stage bodies on the cycle loop both engines share, under
  flushes that restart packets from elastic buffers and from the input
  queue, the ``interpreted`` engine being the reference.
"""

import ast
import copy
import dataclasses
import hashlib
import json
import pickle
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import apps, telemetry
from repro.apps import (
    APP_WORKLOADS,
    ct_firewall,
    dnat,
    firewall,
    leaky_bucket,
    syn_cookie,
    toy_counter,
)
from repro.core.cache import CompileCache, compile_cached
from repro.core.compiler import CompileOptions, compile_program
from repro.core.hazards import block_stages, forwarding, window_holders
from repro.core.labeling import Region
from repro.core.pipeline import MapConsistency
from repro.core.vhdl import emit_vhdl
from repro.ebpf import isa
from repro.ebpf.asm import assemble_program
from repro.cli import load_program
from repro.ebpf.isa import MapSpec
from repro.ebpf.maps import MapSet, bank_of, create_map
from repro.hwsim import (
    OccupancyTracer,
    PipelineSimulator,
    SimOptions,
    compare_runs,
    run_differential,
)
from repro.hwsim.codegen import (
    CODEGEN_VERSION,
    CodegenError,
    _Emitter,
    _release_offset,
    ensure_source,
    generate_pipeline_source,
    load_pipeline_module,
    stream_blocker,
    write_debug_source,
)
from repro.ebpf.xdp import AddressSpace
from repro.hwsim.engines import engine_run, run_engine
from repro.net.packet import FiveTuple, ipv4
from repro.workloads import make_workload, parse_workload_spec
from tests.cases import CASES, LAYOUTS, SHORT
from tests.test_second_gen_apps import (_TINY_LRU_MAPS, _TINY_LRU_SRC,
                                        _key_frames, _tiny_lru_program,
                                        syn_cookie_paths)
from tests.test_sim import TestInterleavedRmwRegression

_COUNTER = "ehdl_codegen_recompile_total"
PAPER = CompileOptions(path_parallel=False)  # the §3.3 layout


def _recompiles(reg, pipeline):
    return reg.counter(_COUNTER, labels={"program": pipeline.name}).value


class TestGolden:
    """Full-text snapshots of the generated execution modules.

    ``firewall`` exercises the ``_STREAM`` straight-line path plus
    constant-offset folding; ``router_rmw`` has read-modify-write hazard
    plans, so its module carries the predication/snapshot/flush logic
    the firewall's elides; ``ct_firewall`` has one LRU serialization
    window, so its ``_stream`` carries the window timing recurrence and
    its cycle-loop half the flush machinery the stream body elides.
    Regenerate intentionally with ``pytest --update-golden``.
    """

    BUILDS = {
        "firewall": CASES["firewall"].build,
        "router_rmw": CASES["router_rmw"].build,
        "ct_firewall": ct_firewall.build,
    }

    @pytest.mark.parametrize("app", sorted(BUILDS))
    def test_snapshot(self, app, request):
        text = generate_pipeline_source(compile_program(self.BUILDS[app]()))
        path = Path(__file__).parent / "corpus" / "codegen" / f"{app}.py"
        if request.config.getoption("--update-golden"):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            pytest.skip(f"golden file {path.name} regenerated")
        assert path.exists(), (
            f"missing golden file {path}; run pytest --update-golden"
        )
        assert text == path.read_text(), (
            f"generated source for {app} diverged from {path.name}; if "
            "the change is intentional run pytest --update-golden"
        )

    def test_generation_is_deterministic(self):
        pipeline = compile_program(firewall.build())
        assert generate_pipeline_source(pipeline) \
            == generate_pipeline_source(pipeline)


class TestDigests:
    """sha256 of both generated artifacts for every app, in both layouts.

    The full-text goldens cover three apps; a refactor that must leave
    the emitters' output alone is held to all thirteen by this manifest
    (``tests/corpus/codegen/DIGESTS.json``), rewritten by
    ``pytest --update-golden`` like the snapshots above. The ``paper_``
    artifacts are compiled with ``path_parallel=False``: §3.3's layout,
    whose text has not moved since before the default layout existed.
    """

    PATH = Path(__file__).parent / "corpus" / "codegen" / "DIGESTS.json"
    APPS = sorted(name for name in apps.__all__ if name.islower())
    LAYOUTS = {"": CompileOptions(),
               "paper_": CompileOptions(path_parallel=False)}

    def test_every_app_matches_the_manifest(self, request):
        actual = {}
        for app in self.APPS:
            actual[app] = {}
            for prefix, options in self.LAYOUTS.items():
                pipeline = compile_program(getattr(apps, app).build(),
                                           options)
                actual[app].update({
                    prefix + artifact: hashlib.sha256(
                        text.encode()).hexdigest()
                    for artifact, text in (
                        ("codegen_source", pipeline.codegen_source),
                        ("vhdl", emit_vhdl(pipeline)),
                    )
                })
        if request.config.getoption("--update-golden"):
            self.PATH.write_text(json.dumps(actual, indent=2) + "\n")
            pytest.skip(f"digest manifest {self.PATH.name} regenerated")
        assert self.PATH.exists(), (
            f"missing {self.PATH}; run pytest --update-golden"
        )
        expected = json.loads(self.PATH.read_text())
        assert sorted(expected) == self.APPS
        assert all(sorted(expected[app]) == sorted(actual[app])
                   for app in self.APPS)
        moved = [
            f"{app}: {artifact}"
            for app in self.APPS
            for artifact, digest in actual[app].items()
            if expected[app].get(artifact) != digest
        ]
        assert not moved, (
            "generated text diverged from DIGESTS.json for "
            + ", ".join(moved)
            + "; if the change is intentional run pytest --update-golden"
        )


class TestUnknownOps:
    """The verifier closes the op set, so ``compile_program`` never
    hands the emitter an op :mod:`repro.ebpf.opfns` has no text for; a
    hand-built pipeline that does gets a typed error naming op and
    stage, not generated code that fails when a packet reaches it."""

    SOURCE = "r0 = 2\nr0 += 1\nif r0 == 3 goto +0\nexit"

    @pytest.mark.parametrize("cls, old_op, new_op, message", [
        (isa.BPF_ALU64, isa.BPF_ADD, 0xE0,
         r"stage \d+: no specialisation for ALU op 0xe0"),
        (isa.BPF_JMP, isa.BPF_JEQ, 0xF0,
         r"stage \d+: no specialisation for jump op 0xf0"),
    ])
    def test_emit_time_error_names_op_and_stage(
            self, cls, old_op, new_op, message):
        pipeline = copy.deepcopy(compile_program(
            assemble_program(self.SOURCE), CompileOptions(enable_fusion=False)))
        swapped = 0
        for stage in pipeline.stages:
            for i, op in enumerate(stage.ops):
                if op.insn.opcode == cls | isa.BPF_K | old_op:
                    stage.ops[i] = dataclasses.replace(
                        op, insn=dataclasses.replace(
                            op.insn, opcode=cls | isa.BPF_K | new_op))
                    swapped += 1
        assert swapped == 1
        with pytest.raises(CodegenError, match=message):
            generate_pipeline_source(pipeline)


class TestSourceAttachment:
    def test_compiler_attaches_versioned_source(self):
        pipeline = compile_program(firewall.build())
        assert pipeline.codegen_source
        assert pipeline.codegen_version == CODEGEN_VERSION
        # attachment is exactly the on-demand generation
        assert pipeline.codegen_source == generate_pipeline_source(pipeline)

    def test_source_survives_pickling(self):
        pipeline = compile_program(firewall.build())
        clone = pickle.loads(pickle.dumps(pipeline))
        assert clone.codegen_source == pipeline.codegen_source
        assert clone.codegen_version == CODEGEN_VERSION
        # and the clone exec()s that text instead of re-emitting it
        with telemetry.scoped(enabled=True) as reg:
            PipelineSimulator(clone).run_packets(
                CASES["firewall"].frames[:SHORT])
            assert _recompiles(reg, clone) == 0

    def test_attached_source_is_not_regenerated(self):
        pipeline = compile_program(firewall.build())
        with telemetry.scoped(enabled=True) as reg:
            source = ensure_source(pipeline)
            assert source is pipeline.codegen_source
            assert _recompiles(reg, pipeline) == 0

    def test_stale_version_recompiles_and_counts(self):
        pipeline = compile_program(firewall.build())
        pipeline.codegen_version = 0  # e.g. unpickled from an old cache
        with telemetry.scoped(enabled=True) as reg:
            ensure_source(pipeline)
            assert _recompiles(reg, pipeline) == 1
            assert pipeline.codegen_version == CODEGEN_VERSION
            # and only once: the refreshed stamp satisfies the next call
            ensure_source(pipeline)
            assert _recompiles(reg, pipeline) == 1

    def test_compile_cache_hit_carries_source(self, tmp_path):
        prog = toy_counter.build()
        warm = CompileCache(tmp_path)
        compile_cached(prog, cache=warm)
        # a fresh cache over the same directory: a "new process" whose
        # hit must come back ready to execute, no re-emission
        cold = CompileCache(tmp_path)
        pipeline = compile_cached(prog, cache=cold)
        assert cold.hits == 1
        assert pipeline.codegen_version == CODEGEN_VERSION
        with telemetry.scoped(enabled=True) as reg:
            sim = PipelineSimulator(
                pipeline, options=SimOptions(engine="codegen"))
            sim.run_packets([toy_counter.packet_for_key(1)])
            assert _recompiles(reg, pipeline) == 0

    def test_cache_key_tracks_codegen_version(self, monkeypatch):
        # an emitter bump must invalidate cached pipelines: their pickled
        # source is stale, and serving it would recompile on every "hit"
        from repro.core.cache import cache_key
        from repro.hwsim import codegen

        prog = toy_counter.build()
        before = cache_key(prog)
        monkeypatch.setattr(codegen, "CODEGEN_VERSION",
                            codegen.CODEGEN_VERSION + 1)
        assert cache_key(prog) != before

    def test_module_cache_shared_across_simulators(self):
        pipeline = compile_program(firewall.build())
        clone = pickle.loads(pickle.dumps(pipeline))
        # same source digest -> the exec()d namespace is shared, even
        # across distinct pipeline objects
        assert load_pipeline_module(pipeline) is load_pipeline_module(clone)

    def test_write_debug_source(self, tmp_path):
        pipeline = compile_program(firewall.build())
        path = write_debug_source(pipeline, str(tmp_path / "dbg"))
        assert Path(path).read_text() == pipeline.codegen_source


def _paper_leaky_bucket():
    """leaky_bucket on the §3.3 layout, where its flush blocks fire (the
    path-parallel layout gives ``buckets`` a keyed window instead)."""
    return compile_program(leaky_bucket.build(), PAPER)


UPD, DEL = 0, 1
ANY, NOEXIST, EXIST = 0, 1, 2
_NEG1 = isa.MASK64


def _map_writes_program(spec, key_in_frame=False):
    """Per frame, a lookup of the key at bytes 4..8 of map ``m`` (the
    hit lands in byte 2), then — by byte 0 — an update with the value
    at bytes 8..16 and the flags in byte 1, or a delete (not for an
    array: the verifier refuses it); the write's r0 replaces the value
    in the frame, and decides TX (0) or DROP. The writes' key is the
    stack copy, or with ``key_in_frame`` the frame bytes themselves."""
    key = "r6\n    r2 += 4" if key_in_frame else "r10\n    r2 += -4"
    write = [
        "    r3 = r10",
        "    r3 += -16",
        "    r4 = *(u8 *)(r6 + 1)",
        "    call 2",
    ]
    if spec.map_type != "array":
        write = ["    if r8 != 0 goto delete"] + write + [
            "    goto verdict", "delete:", "    call 3", "verdict:"]
    return assemble_program("\n".join([
        "    r7 = *(u32 *)(r1 + 4)",
        "    r6 = *(u32 *)(r1 + 0)",
        "    r2 = r6",
        "    r2 += 16",
        "    if r2 > r7 goto out",
        "    r2 = *(u32 *)(r6 + 4)",
        "    *(u32 *)(r10 - 4) = r2",
        "    r3 = *(u64 *)(r6 + 8)",
        "    *(u64 *)(r10 - 16) = r3",
        "    r1 = map[m]",
        "    r2 = r10",
        "    r2 += -4",
        "    call 1",
        "    r9 = 0",
        "    if r0 == 0 goto miss",
        "    r9 = 1",
        "miss:",
        "    r8 = *(u8 *)(r6 + 0)",
        "    r1 = map[m]",
        f"    r2 = {key}",
    ] + write + [
        "    *(u64 *)(r6 + 8) = r0",
        "    *(u8 *)(r6 + 2) = r9",
        "    if r0 == 0 goto tx",
        "    r0 = 1",
        "    exit",
        "tx:",
        "    r0 = 3",
        "    exit",
        "out:",
        "    r0 = 2",
        "    exit",
    ]), maps={"m": spec}, name=f"map_writes_{spec.map_type}")


def _write_frame(op, flags, key):
    return (bytes([op, flags, 0, 0]) + key.to_bytes(4, "little")
            + (100 + key).to_bytes(8, "little"))


def _stream_source(pipeline):
    source = ensure_source(pipeline)
    return source[source.index("def _stream("):]


# What _stream no longer renders: the caller-saved scrub after a call,
# and a register store no read takes.
SCRUB = "r1 = r2 = r3 = r4 = r5 = 0"
_REGISTER = re.compile(r"r(\d+)|_v(\d+)")
_REGISTER_TARGETS = re.compile(r"\s*(?:[\w, ]+ = )*")


def stream_dead_stores(source):
    """``(register, line)`` of each store to a register local of the
    generated module's ``_stream`` — ``r<n>``, or the shadow ``_v<n>``
    that holds the storage offset of the map value ``r<n>`` points into
    — that no later line of it reads. Its packet body is laid out in
    topological block order, so a store some path reads is read further
    down."""
    stream = next(node for node in ast.parse(source).body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_stream")
    stores, last_read = [], {}
    for node in ast.walk(stream):
        if isinstance(node, ast.Name) and _REGISTER.fullmatch(node.id):
            if isinstance(node.ctx, ast.Store):
                stores.append((node.id, node.lineno))
            else:
                last_read[node.id] = max(last_read.get(node.id, 0),
                                         node.lineno)
    return [(name, line) for name, line in stores
            if last_read.get(name, 0) <= line]


def value_bound_tests(pipeline):
    """``(tested, refused)``: how many map-value accesses the generated
    ``_stream`` still bounds-tests (``_o = _a - <the map's base>``), and
    how many the module docstring's *map values* rule refuses on the
    label alone: an offset that is not constant or leaves ``[0, VS -
    size]``, a store ahead of its map's commit stage, an arithmetic
    atomic whose fast side tests ``pkt.pending_writes``. Every other
    access is addressed by its slot, so where each value pointer comes
    from a lookup by moves and immediate shifts the two are equal."""
    program = pipeline.program
    source = pipeline.codegen_source
    body = source[source.index("def _stream("):]
    tested = sum(
        body.count(f"_o = _a - {hex(AddressSpace.map_value_addr(fd, 0))}\n")
        for fd in program.maps)
    pends = _Emitter(pipeline).stores_may_pend
    commits = pipeline.commit_stages
    refused = 0
    for stage in pipeline.stages:
        for op in stage.ops or ():
            insn, label = op.insn, op.label
            if label is None or label.region is not Region.MAP_VALUE:
                continue
            arithmetic = insn.imm & ~isa.BPF_FETCH in (
                isa.ATOMIC_ADD, isa.ATOMIC_OR, isa.ATOMIC_AND,
                isa.ATOMIC_XOR)
            spec = program.maps.get(label.map_fd)
            if (insn.is_atomic and not arithmetic) or spec is None or \
                    spec.max_entries * spec.value_size \
                    > AddressSpace.MAP_WINDOW:
                continue  # no bounds test to begin with
            refused += (
                label.offset is None
                or not 0 <= label.offset <= spec.value_size - insn.size_bytes
                or insn.is_atomic and pends
                or insn.is_mem_store and not insn.is_atomic
                and stage.number < commits.get(label.map_fd, 0))
    return tested, refused


def _rendered_reads(lines):
    """Bit r: some line reads the register local ``r<r>`` (anywhere but
    as the target of an assignment)."""
    mask = 0
    for line in lines:
        line = line[_REGISTER_TARGETS.match(line).end():]
        for number in re.findall(r"\br(\d+)\b", line):
            mask |= 1 << int(number)
    return mask


def streaming_programs():
    """``(name, program)`` of the 13 apps and every corpus program."""
    named = [(app, getattr(apps, app).build()) for app in TestDigests.APPS]
    corpus = Path(__file__).parent / "corpus"
    return named + [(path.stem, load_program(str(path)))
                    for path in sorted(corpus.glob("*.ebpf"))]


# Every flag on a miss and on a hit, inserts into a full map, a delete
# that misses and one that hits; for a map of three entries the r0 each
# write leaves (None: banked, whose evictions follow the key's CRC).
_WRITE_STEPS = [
    (UPD, ANY, 1), (UPD, NOEXIST, 1), (UPD, EXIST, 2), (UPD, NOEXIST, 2),
    (UPD, ANY, 3),
    (UPD, ANY, 4),  # full: a hash map refuses, an LRU map evicts 1
    (UPD, 3, 5),    # flags 3 are ANY: refused / evicts 2
    (DEL, ANY, 9),  # misses
    (DEL, ANY, 3),  # hits
    (UPD, ANY, 4), (UPD, EXIST, 1), (UPD, ANY, 6),
    (UPD, EXIST, 7),  # full LRU: evicts, then refuses
]
_WRITE_CASES = {
    "hash": (MapSpec("m", "hash", 4, 8, 3),
             [0, _NEG1, _NEG1, 0, 0, _NEG1, _NEG1, _NEG1, 0, 0, 0, _NEG1,
              _NEG1]),
    "lru_hash": (MapSpec("m", "lru_hash", 4, 8, 3),
                 [0, _NEG1, _NEG1, 0, 0, 0, 0, _NEG1, 0, 0, _NEG1, 0,
                  _NEG1]),
    "banked_lru_hash": (MapSpec("m", "lru_hash", 4, 8, 4, banks=2), None),
}


class TestStreamPath:
    def test_stream_emitted_only_when_hazard_free(self):
        # firewall: no flush plans, no order-sensitive helpers
        fw = generate_pipeline_source(compile_program(firewall.build()))
        assert "_STREAM = _stream" in fw
        # leaky bucket on the §3.3 layout: a flush plan no window covers
        lb = generate_pipeline_source(_paper_leaky_bucket())
        assert "_STREAM = None" in lb

    def test_simulator_binds_stream_function(self):
        fw = PipelineSimulator(compile_program(firewall.build()),
                               options=SimOptions(engine="codegen"))
        lb = PipelineSimulator(_paper_leaky_bucket(),
                               options=SimOptions(engine="codegen"))
        assert fw._stream_fn is not None
        assert lb._stream_fn is None

    def test_stream_matches_cycle_loop(self):
        # telemetry forces the generated cycle loop (per-cycle observers
        # need every cycle to happen); the straight-line path must agree
        # with it on every packet and on the whole run's counters
        build, setup, frames, _flushes = CASES["firewall"]
        program = build()
        pipeline = compile_program(program)
        frames = frames[:SHORT] * 10
        with telemetry.scoped(enabled=False):
            path, stream = _observed(pipeline, program, frames, "codegen",
                                     setup=setup)
        assert path.startswith("stream (")
        with telemetry.scoped(enabled=True):
            path, loop = _observed(pipeline, program, frames, "codegen",
                                   setup=setup)
        assert path == "cycle-loop (telemetry is on)"
        assert stream.report.metrics is None and loop.report.metrics is not None
        assert compare_runs(loop, stream) == []

    def test_hundred_stages_load_and_stream(self):
        # one `if not pkt.done:` per stage used to nest the stream body
        # past Python's 100 indentation levels
        program = deep_branch_program()
        pipeline = compile_program(program)
        assert pipeline.n_stages >= 100
        frames = [bytes([b]) + bytes(63) for b in range(0, 60, 7)] \
            + [bytes(1)]
        for gap in (3, 1):
            path, got = _observed(pipeline, program, frames, "codegen", gap)
            assert path == ("stream (0 of 0 lookups, 0 of 0 writes folded, "
                            "0 spill sites, 0 stack slots, 0 of 0 value "
                            "accesses by slot, 0 coalesced runs)")
            _path, want = _observed(pipeline, program, frames,
                                    "interpreted", gap)
            assert compare_runs(want, got) == []
        # and the cycle loop runs the same stage bodies one by one (gap 1)
        with telemetry.scoped(enabled=True):
            path, loop = _observed(pipeline, program, frames, "codegen")
        assert path.startswith("cycle-loop (telemetry is on")
        assert compare_runs(want, loop) == []

    # -- the spill contract ---------------------------------------------------
    # sim._atomic and sim._map_channel_call work on pkt.regs; _stream
    # keeps the registers in locals and spills / reloads around them.

    def _agrees_spaced(self, program, frames, shape, atomics=None):
        """Streams, and agrees with the VM and the reference engine on a
        schedule where they are comparable (one packet in flight: the
        atomics of two packets do not interleave) — and so does the
        cycle loop an attached observer forces, which renders the same
        fallbacks on ``pkt.regs`` directly.

        ``atomics`` names the map a program updates by atomics that do
        not commute: ``stream_blocker`` refuses it (its own cycle loop is
        one more leg), so it streams under a serialization window holding
        its accesses to that map."""
        pipeline = compile_program(program)
        gap = pipeline.n_stages + 2
        legs = []
        if atomics is not None:
            reason = stream_blocker(pipeline)
            assert reason.startswith(f"atomics on map {atomics} (stages ")
            legs.append(
                (pipeline, None, f"cycle-loop ({reason})"))
            plan = pipeline.map_hazards[atomics]
            pipeline = _rewindowed(pipeline, atomics, (
                min(plan.read_stages), max(plan.atomic_stages)))
            # the class the plan states follows the window: every access
            # inside one window is windowed
            pipeline.map_hazards[atomics].consistency = MapConsistency(
                "windowed")
        legs += [
            (pipeline, None, f"stream ({shape})"),
            (pipeline, _idle_observer,
             "cycle-loop (a per-cycle observer is attached"),
        ]
        for leg, observer, expected in legs:
            path, got = _observed(leg, program, frames, "codegen", gap,
                                  observer=observer)
            assert path.startswith(expected), path
            # ... with the reference on every packet's cycles
            _path, want = _observed(leg, program, frames, "interpreted", gap)
            assert compare_runs(want, got) == []
            if observer is None:
                run_differential(
                    program, frames, pipeline=leg, gap=gap,
                    engines=("vm", "interpreted", "codegen"),
                ).raise_on_mismatch()

    def test_spill_around_complex_atomics(self):
        corpus = Path(__file__).parent / "corpus" / "atomic_variants.ebpf"
        self._agrees_spaced(
            load_program(str(corpus)), [bytes(range(64))] * 6 + [b""],
            "1 of 1 lookups, 0 of 0 writes folded, 1 spill site, "
            "1 stack slot, 5 of 5 value accesses by slot, 0 coalesced runs",
            atomics=1)

    def test_registers_written_inside_the_atomic_fallback_come_back(self):
        # fetch-add (inlined; its cold fallback spills), xchg and cmpxchg
        # (always sim._atomic) each write a register the program then
        # stores into the frame: a lost reload is a packet-bytes mismatch
        program = assemble_program("""
            r7 = *(u32 *)(r1 + 4)
            r6 = *(u32 *)(r1 + 0)
            r2 = r6
            r2 += 32
            if r2 > r7 goto out
            r2 = *(u8 *)(r6 + 0)
            r2 &= 1
            *(u32 *)(r10 - 4) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto out
            r8 = r0
            r2 = *(u64 *)(r6 + 8)
            lock fetch *(u64 *)(r8 + 0) += r2
            *(u64 *)(r6 + 8) = r2
            r3 = *(u64 *)(r6 + 16)
            lock *(u64 *)(r8 + 0) xchg r3
            *(u64 *)(r6 + 16) = r3
            r0 = *(u64 *)(r6 + 24)
            r4 = 7
            lock *(u64 *)(r8 + 0) cmpxchg r4
            *(u64 *)(r6 + 24) = r0
        out:
            r0 = 2
            exit
        """, maps={"m": MapSpec("m", "array", key_size=4, value_size=8,
                                max_entries=2)}, name="atomic_results")
        frames = [
            bytes([i]) + bytes(7) + (5 * i).to_bytes(8, "little")
            + (i + 1).to_bytes(8, "little")
            # the value cmpxchg expects: right for some frames only
            + (i * 5 % 3).to_bytes(8, "little") + bytes(32)
            for i in range(12)
        ] + [bytes(8)]
        self._agrees_spaced(
            program, frames,
            "1 of 1 lookups, 0 of 0 writes folded, 2 spill sites, "
            "1 stack slot, 1 of 1 value accesses by slot, 1 coalesced run",
            atomics=1)

    def test_spill_around_map_update_then_branch_on_r0(self):
        # r0 of the update — an inline request on the map's unchecked
        # core, no spill — decides the verdict: 0 -> TX, -1 (BPF_EXIST on
        # a missing key, BPF_NOEXIST cannot fail after a miss) -> DROP,
        # a hit -> PASS
        program = assemble_program("""
            r7 = *(u32 *)(r1 + 4)
            r6 = *(u32 *)(r1 + 0)
            r2 = r6
            r2 += 16
            if r2 > r7 goto out
            r2 = *(u8 *)(r6 + 0)
            *(u32 *)(r10 - 4) = r2
            r1 = map[h]
            r2 = r10
            r2 += -4
            call 1
            if r0 != 0 goto out
            r3 = *(u64 *)(r6 + 8)
            *(u64 *)(r10 - 16) = r3
            r4 = *(u8 *)(r6 + 1)
            r1 = map[h]
            r2 = r10
            r2 += -4
            r3 = r10
            r3 += -16
            call 2
            if r0 == 0 goto stored
            r0 = 1
            exit
        stored:
            r0 = 3
            exit
        out:
            r0 = 2
            exit
        """, maps={"h": MapSpec("h", "lru_hash", key_size=4, value_size=8,
                                max_entries=4)}, name="update_then_branch")
        frames = [
            bytes([key, flags]) + bytes(6)
            + (3 * key + flags).to_bytes(8, "little")
            for key, flags in [(1, 0), (1, 1), (2, 2), (2, 1), (3, 0),
                               (1, 2), (4, 1), (5, 1), (6, 0), (1, 1),
                               (7, 2), (8, 0)]
        ] + [bytes(4)]
        self._agrees_spaced(
            program, frames,
            "1 of 1 lookups, 1 of 1 writes folded, 0 spill sites, "
            "2 stack slots, 0 of 0 value accesses by slot, 1 coalesced run")
        pipeline = compile_program(program)
        verdicts = set()
        for gap in (1, 2, 7):  # windowed: the cycle accounting too
            path, got = _observed(pipeline, program, frames, "codegen", gap)
            assert path.startswith("stream (")
            _path, want = _observed(pipeline, program, frames,
                                    "interpreted", gap)
            assert compare_runs(want, got) == []
            verdicts |= set(got.actions)
        assert {int(v) for v in verdicts} == {1, 2, 3}

    # -- map writes folded into the stream ----------------------------------
    # An update or delete whose key (and value) sit in static stack slots
    # is the map's unchecked core in _stream, with no spill; r0 of each
    # write lands in the frame, so a wrong -1 / 0 is a bytes mismatch.

    def _writes_agree(self, pipeline, program, frames, shape,
                      line_rate=True):
        """Streams with ``shape``; vm, interpreted and codegen agree on
        verdicts, bytes, map entries and LRU order with one packet in
        flight and (``line_rate``) at gap 1, the pipeline pair on every
        packet's cycles too. Returns the r0 each frame's write left
        (bytes 8..16)."""
        vm = run_engine("vm", program, frames)
        for gap in (1,) * line_rate + (pipeline.n_stages + 2,):
            path, got = _observed(pipeline, program, frames, "codegen", gap)
            assert path == f"stream ({shape})"
            _path, want = _observed(pipeline, program, frames,
                                    "interpreted", gap)
            assert compare_runs(want, got) == []
            assert compare_runs(vm, want) == []
            assert compare_runs(vm, got) == []
        return [int.from_bytes(frame[8:16], "little")
                for frame in got.frames]

    @pytest.mark.parametrize("kind", sorted(_WRITE_CASES))
    def test_map_writes_fold_into_the_stream(self, kind):
        spec, r0s = _WRITE_CASES[kind]
        program = _map_writes_program(spec)
        frames = [_write_frame(*step) for step in _WRITE_STEPS] \
            + [bytes(15)]
        pipeline = compile_program(program)
        assert "sim._map_channel_call" not in _stream_source(pipeline)
        got = self._writes_agree(
            pipeline, program, frames,
            "1 of 1 lookups, 2 of 2 writes folded, 0 spill sites, "
            "2 stack slots, 0 of 0 value accesses by slot, 1 coalesced run")
        if r0s is None:  # banked: which key evicts which is the CRC's
            assert {0, _NEG1} <= set(got[:-1])
        else:
            assert got[:-1] == r0s

    def test_array_writes_fold_into_the_stream(self):
        # an array's lookup + update plan flushes: held in one window, it
        # streams. The verifier refuses an array delete, so a delete
        # reaches an array only through a spec swapped after compiling
        # (both engines' channel step raise MapError: -1). The swapped
        # pipeline keeps the hash map's keyed window, which the cycle
        # loop runs with one lane over an array: one packet in flight.
        array = MapSpec("m", "array", 4, 8, 4)
        program = _map_writes_program(array)
        pipeline = compile_program(program)
        plan = pipeline.map_hazards[1]
        pipeline = _rewindowed(pipeline, 1, (plan.touching[0],
                                             plan.touching[-1]))
        pipeline.map_hazards[1].consistency = MapConsistency("windowed")
        steps = [(UPD, ANY, 1), (UPD, NOEXIST, 0), (UPD, EXIST, 2),
                 (UPD, ANY, 4), (UPD, ANY, 9), (UPD, 3, 3)]
        got = self._writes_agree(
            pipeline, program, [_write_frame(*step) for step in steps],
            "1 of 1 lookups, 1 of 1 writes folded, 0 spill sites, "
            "2 stack slots, 0 of 0 value accesses by slot, 1 coalesced run")
        assert got == [0, _NEG1, 0, _NEG1, _NEG1, 0]

        swapped = copy.deepcopy(compile_program(_map_writes_program(
            dataclasses.replace(array, map_type="hash"))))
        swapped.program.maps[1] = array
        swapped.codegen_source = None
        steps = [(DEL, ANY, 1), (DEL, ANY, 9), (UPD, ANY, 2), (DEL, ANY, 2)]
        got = self._writes_agree(
            swapped, swapped.program, [_write_frame(*s) for s in steps],
            "1 of 1 lookups, 2 of 2 writes folded, 0 spill sites, "
            "2 stack slots, 0 of 0 value accesses by slot, 1 coalesced run",
            line_rate=False)
        assert got == [_NEG1, _NEG1, 0, _NEG1]

    def test_write_with_its_key_in_the_frame_keeps_the_channel_call(self):
        # no static stack slice to fold: sim._map_channel_call behind a
        # spill, in the same stream
        spec, r0s = _WRITE_CASES["lru_hash"]
        program = _map_writes_program(spec, key_in_frame=True)
        pipeline = compile_program(program)
        assert "sim._map_channel_call" in _stream_source(pipeline)
        got = self._writes_agree(
            pipeline, program,
            [_write_frame(*step) for step in _WRITE_STEPS],
            "1 of 1 lookups, 0 of 2 writes folded, 2 spill sites, "
            "2 stack slots, 0 of 0 value accesses by slot, 1 coalesced run")
        assert got == r0s

    def test_drops_leave_the_packet_body(self):
        # the key is read from the frame (no constant stack slot to
        # fold: sim._read_plain, which drops a frame too short to hold
        # it) and the value load reaches past the looked-up slot (the
        # run-bound storage's bounds check, then sim._mem_load's drop).
        # The VM faults where the hardware drops, so the reference
        # engine is the oracle here.
        program = assemble_program("""
            r7 = *(u32 *)(r1 + 4)
            r6 = *(u32 *)(r1 + 0)
            r2 = r6
            r2 += 2
            if r2 > r7 goto out
            r1 = map[m]
            r2 = r6
            r2 += 12
            call 1
            if r0 == 0 goto out
            r3 = *(u64 *)(r0 + 4)
            *(u64 *)(r6 + 0) = r3
            r0 = 3
            exit
        out:
            r0 = 2
            exit
        """, maps={"m": MapSpec("m", "array", key_size=4, value_size=8,
                                max_entries=2)}, name="drops")
        pipeline = compile_program(program)
        keyed = [bytes(12) + key.to_bytes(4, "little") + bytes(8)
                 for key in (0, 1, 2, 0)]
        frames = keyed + [bytes(15), bytes(13), bytes(2), bytes(1)]

        def seed(maps):
            maps[1].update(bytes(4), (0xC0FFEE).to_bytes(8, "little"))
            maps[1].update((1).to_bytes(4, "little"), bytes([0xAB] * 8))

        _path, want = _observed(pipeline, program, frames, "interpreted",
                                setup=seed)
        # The fast side of the value load is the bounds test of the
        # region its label names, so a label that names another region,
        # or none, only takes the load to sim._mem_load sooner — in
        # _stream and in the cycle loop alike.
        load = pipeline.stages[4].ops[0]
        assert load.label.region is Region.MAP_VALUE
        for label in (load.label, None, dataclasses.replace(
                load.label, region=Region.STACK, map_fd=None)):
            labelled = _unresolved(pipeline, 5, label=label)
            # a load no longer labelled MAP_VALUE is no value access
            accesses = int(label is load.label)
            for observer, expected in (
                (None, "stream (1 of 1 lookups, 0 of 0 writes folded, "
                       "0 spill sites, 0 stack slots, "
                       f"0 of {accesses} value accesses by slot, "
                       "0 coalesced runs)"),
                (_idle_observer,
                 "cycle-loop (a per-cycle observer is attached)"),
            ):
                path, got = _observed(labelled, program, frames, "codegen",
                                      setup=seed, observer=observer)
                assert path.startswith(expected), path
                assert compare_runs(want, got) == []
        assert [int(action) for action in got.actions] == [
            3,  # slot 0: bytes 4..12 of the storage are in range
            1,  # slot 1: 12 + 8 > 16, dropped at the value load
            2,  # index 2 is past the array: NULL
            3,
            1, 1, 1,  # the key is not all in the frame: sim._read_plain
            2,  # under the entry length check
        ]

    # -- the stack in locals ------------------------------------------------
    # _stream keeps the stack bytes it addresses statically in atoms
    # (locals, zeroed per frame); every result below lands in the frame,
    # so a wrong atom is a bytes mismatch, a wrong key a map mismatch.

    def _atoms_agree(self, body, frames, shape, maps=None):
        """``_writes_agree`` on ``body`` in a frame program; returns the
        pipeline and the frames the three engines agree on."""
        program = _frame_program(body, maps)
        pipeline = compile_program(program)
        self._writes_agree(pipeline, program, frames, shape)
        return pipeline, run_engine("vm", program, frames).frames

    def test_a_slot_read_before_any_write_reads_zero(self):
        # written on one arm only: the frame after a writing one must
        # not see its value
        pipeline, got = self._atoms_agree("""
            r2 = *(u8 *)(r6 + 0)
            if r2 == 0 goto skip
            r3 = *(u64 *)(r6 + 8)
            *(u64 *)(r10 - 8) = r3
        skip:
            r4 = *(u64 *)(r10 - 8)
            r4 += 1
            *(u64 *)(r6 + 16) = r4
        """, [bytes([flag]) + bytes(7) + (7 + i).to_bytes(8, "little")
              + bytes(24) for i, flag in enumerate([0, 1, 0, 1, 1, 0])],
            "0 of 0 lookups, 0 of 0 writes folded, 0 spill sites, "
            "1 stack slot, 0 of 0 value accesses by slot, 0 coalesced runs")
        assert [int.from_bytes(frame[16:24], "little") for frame in got] \
            == [1, 9, 1, 11, 12, 1]
        assert "stack[:] = _ZSTACK" not in _stream_source(pipeline)

    def test_narrow_stores_read_back_wide_and_a_wide_store_narrow(self):
        # u32 + u16 + u16 read as one u64; a u64 read as its middle u16
        # and whole again, its atoms cut at that u16
        self._atoms_agree("""
            r2 = *(u32 *)(r6 + 0)
            *(u32 *)(r10 - 8) = r2
            r3 = *(u16 *)(r6 + 4)
            *(u16 *)(r10 - 4) = r3
            r4 = *(u16 *)(r6 + 6)
            *(u16 *)(r10 - 2) = r4
            r5 = *(u64 *)(r10 - 8)
            *(u64 *)(r6 + 8) = r5
            r2 = *(u64 *)(r6 + 16)
            *(u64 *)(r10 - 16) = r2
            r3 = *(u16 *)(r10 - 14)
            *(u64 *)(r6 + 24) = r3
            r4 = *(u64 *)(r10 - 16)
            r4 ^= r5
            *(u64 *)(r6 + 32) = r4
        """, [bytes(range(i, i + 40)) for i in (0, 40, 200)],
            "0 of 0 lookups, 0 of 0 writes folded, 0 spill sites, "
            "6 stack slots, 0 of 0 value accesses by slot, 1 coalesced run")

    def test_a_key_with_unwritten_bytes_changed_between_lookup_and_update(
            self):
        # the key's last two bytes are never written (0); its second
        # byte is stored again between the lookup and the update, which
        # must not reuse the lookup's packed key
        frames = [bytes([k0, k1, 0, 0, 5, 0, r, 0])
                  + (100 + i).to_bytes(8, "little") * 4
                  for i, (k0, k1, r) in enumerate(
                      [(1, 0, 1), (1, 1, 0), (2, 0, 0), (1, 1, 1),
                       (2, 0, 1), (2, 1, 0), (1, 0, 0), (2, 1, 1)])]
        self._atoms_agree("""
            r2 = *(u32 *)(r6 + 0)
            *(u32 *)(r10 - 8) = r2
            r3 = *(u16 *)(r6 + 4)
            *(u16 *)(r10 - 4) = r3
            r1 = map[m]
            r2 = r10
            r2 += -8
            call 1
            r9 = 0
            if r0 == 0 goto miss
            r9 = *(u64 *)(r0 + 0)
        miss:
            *(u64 *)(r6 + 8) = r9
            r3 = *(u64 *)(r6 + 16)
            *(u64 *)(r10 - 16) = r3
            r4 = *(u8 *)(r6 + 6)
            *(u8 *)(r10 - 7) = r4
            r1 = map[m]
            r2 = r10
            r2 += -8
            r3 = r10
            r3 += -16
            r4 = 0
            call 2
            *(u64 *)(r6 + 24) = r0
        """, frames, "1 of 1 lookups, 1 of 1 writes folded, 0 spill sites, "
            "6 stack slots, 1 of 1 value accesses by slot, 2 coalesced runs",
            maps=_ATOM_MAPS)

    def test_a_slot_written_on_one_arm_is_read_after_the_join(self):
        # the lookup's key, changed on one arm only: the update after
        # the join packs it again, and the whole slot lands in the frame
        frames = [(key).to_bytes(4, "little") + bytes([arm]) + bytes(11)
                  + (100 + i).to_bytes(8, "little") + bytes(16)
                  for i, (key, arm) in enumerate(
                      [(1, 0), (1, 3), (1, 0), (2, 3), (2, 0), (1, 3),
                       (2, 3)])]
        self._atoms_agree("""
            r2 = *(u32 *)(r6 + 0)
            *(u64 *)(r10 - 8) = r2
            r1 = map[m]
            r2 = r10
            r2 += -8
            call 1
            r9 = 0
            if r0 == 0 goto miss
            r9 = *(u64 *)(r0 + 0)
        miss:
            *(u64 *)(r6 + 8) = r9
            r3 = *(u8 *)(r6 + 4)
            if r3 == 0 goto join
            *(u8 *)(r10 - 2) = r3
        join:
            r3 = *(u64 *)(r6 + 16)
            *(u64 *)(r10 - 16) = r3
            r1 = map[m]
            r2 = r10
            r2 += -8
            r3 = r10
            r3 += -16
            r4 = 0
            call 2
            *(u64 *)(r6 + 24) = r0
            r5 = *(u64 *)(r10 - 8)
            *(u64 *)(r6 + 32) = r5
        """, frames, "1 of 1 lookups, 1 of 1 writes folded, 0 spill sites, "
            "5 stack slots, 1 of 1 value accesses by slot, 0 coalesced runs",
            maps=_ATOM_MAPS)

    def test_stack_atomics_and_dynamic_stack_accesses_spill_the_atoms(self):
        # a stack atomic (sim._atomic), a load and a store whose stack
        # address is dynamic (r10 - 16 or r10 - 8) and a helper reading
        # its buffer by pointer (bpf_csum_diff) reach the stack by
        # address: the atoms go to it before, and come back after a
        # write; so the per-frame zeroing of the stack stays
        pipeline, got = self._atoms_agree("""
            r2 = *(u64 *)(r6 + 0)
            *(u64 *)(r10 - 8) = r2
            r3 = *(u64 *)(r6 + 8)
            lock *(u64 *)(r10 - 8) += r3
            r4 = *(u64 *)(r10 - 8)
            *(u64 *)(r6 + 16) = r4
            r5 = *(u8 *)(r6 + 24)
            r5 &= 8
            r2 = r10
            r2 += -16
            r2 += r5
            r7 = *(u64 *)(r2 + 0)
            *(u64 *)(r6 + 24) = r7
            r8 = *(u64 *)(r6 + 32)
            *(u64 *)(r2 + 0) = r8
            r4 = *(u64 *)(r10 - 8)
            *(u64 *)(r6 + 32) = r4
            r2 = *(u64 *)(r6 + 8)
            *(u64 *)(r10 - 8) = r2
            r1 = r10
            r1 += -16
            r2 = 16
            r3 = 0
            r4 = 0
            r5 = 0
            call 28
            *(u64 *)(r6 + 0) = r0
        """, [(5 + i).to_bytes(8, "little") + (3 * i).to_bytes(8, "little")
              + bytes(8) + bytes([8 * (i % 2)]) + bytes(7)
              + (50 + i).to_bytes(8, "little") for i in range(6)],
            "0 of 0 lookups, 0 of 0 writes folded, 1 spill site, "
            "1 stack slot, 0 of 0 value accesses by slot, 1 coalesced run")
        # the atomic's sum; r10 - 16 (never written) or that sum; the
        # dynamic store's value where it hit r10 - 8
        assert [(int.from_bytes(frame[16:24], "little"),
                 int.from_bytes(frame[24:32], "little"),
                 int.from_bytes(frame[32:40], "little"))
                for frame in got[:2]] == [(5, 0, 5), (9, 9, 51)]
        assert "stack[:] = _ZSTACK" in _stream_source(pipeline)

    # -- what the stream leaves out -----------------------------------------
    # _stream renders a register store only where a read it renders takes
    # the value; a frame starts with only the registers such a read may
    # take before any store. A store left out that a read needs, or a
    # read of a register no store on its path wrote, is a wrong value or
    # an UnboundLocalError on the first frame down that path.

    def test_a_callee_saved_value_lives_across_folded_requests(self):
        # r7 and r9 cross a folded lookup and a folded update, whose map
        # and key pointers (r1, r2, r3) the stream never materialises
        frames = [(key).to_bytes(4, "little") + bytes(4)
                  + (10 * i + 1).to_bytes(8, "little") + bytes(24)
                  for i, key in enumerate([1, 2, 1, 3, 1, 2])]
        pipeline, got = self._atoms_agree("""
            r7 = *(u64 *)(r6 + 8)
            r2 = *(u32 *)(r6 + 0)
            *(u32 *)(r10 - 4) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            r9 = 0
            if r0 == 0 goto miss
            r9 = *(u64 *)(r0 + 0)
        miss:
            r9 += r7
            *(u64 *)(r10 - 16) = r9
            r1 = map[m]
            r2 = r10
            r2 += -4
            r3 = r10
            r3 += -16
            r4 = 0
            call 2
            *(u64 *)(r6 + 16) = r7
            *(u64 *)(r6 + 24) = r9
        """, frames, "1 of 1 lookups, 1 of 1 writes folded, 0 spill sites, "
            "2 stack slots, 1 of 1 value accesses by slot, 1 coalesced run",
            maps=_KEY4_MAPS)
        # key 1's running sum: 1, 1 + 21, 22 + 41
        assert [int.from_bytes(frame[24:32], "little")
                for frame in got] == [1, 11, 22, 31, 63, 62]
        body = _stream_source(pipeline)
        for gone in ("r1 = ", "r2 = r10", "r3 = r10", "r10 = ", "r5 = 0"):
            assert gone not in body, gone

    def test_a_helper_reads_only_its_arguments(self):
        # bpf_xdp_adjust_tail takes r1 and r2; r4 and r5 hold values on
        # one arm only, so the first frame, down the other, has never
        # written them: passed to the helper, they would be unbound
        frames = [bytes([arm]) + bytes(7) + (3 + i).to_bytes(8, "little")
                  + bytes(24) for i, arm in enumerate([0, 1, 0, 1])]
        pipeline, got = self._atoms_agree("""
            r2 = *(u8 *)(r6 + 0)
            if r2 == 0 goto trim
            r4 = *(u64 *)(r6 + 8)
            r5 = r4
            r5 += 1
            *(u64 *)(r6 + 16) = r5
        trim:
            r2 = -4
            call 65
            if r0 != 0 goto out
        """, frames, "0 of 0 lookups, 0 of 0 writes folded, 0 spill sites, "
            "0 stack slots, 0 of 0 value accesses by slot, 0 coalesced runs")
        assert [len(frame) for frame in got] == [36] * 4
        assert "_h65(_hc, r1, r2, 0, 0, 0)" in _stream_source(pipeline)

    def test_a_verdict_set_on_two_arms_is_not_folded(self):
        # r0 reaches the exit from two arms: its verdict is read from r0;
        # the exits whose own block sets r0 are bound actions
        program = assemble_program("""
            r7 = *(u32 *)(r1 + 4)
            r6 = *(u32 *)(r1 + 0)
            r2 = r6
            r2 += 2
            if r2 > r7 goto out
            r2 = *(u8 *)(r6 + 0)
            r0 = 2
            if r2 == 0 goto join
            r0 = 3
            r3 = *(u8 *)(r6 + 1)
            if r3 == 0 goto join
            r0 = 1
            exit
        join:
            exit
        out:
            r0 = 0
            exit
        """, name="two_arm_verdict")
        frames = [bytes([0, 0]), bytes([1, 0]), bytes([1, 1]), bytes(1)]
        pipeline = compile_program(program)
        self._writes_agree(pipeline, program, frames,
                           "0 of 0 lookups, 0 of 0 writes folded, "
                           "0 spill sites, 0 stack slots, 0 of 0 value "
                           "accesses by slot, 0 coalesced runs")
        body = _stream_source(pipeline)
        assert body.count("_act = _ACTIONS.get(r0 & 0xffffffff, _ABORTED)") \
            == 1
        assert "_act = _DROP" in body and "_act = _ABORTED" in body
        got = run_engine("codegen", program, frames, pipeline=pipeline)
        assert [int(a) for a in got.actions] == [2, 3, 1, 0]

    def test_a_spill_site_takes_a_register_assigned_on_one_arm(self):
        # the flags of an update that keeps sim._map_channel_call (its
        # key is in the frame; the lookup ahead of it holds the map in a
        # window) are 0 from before the branch, or 1 (BPF_NOEXIST) from
        # one arm: both stores reach the spill
        frames = [bytes([0, noexist, 0, 0]) + key.to_bytes(4, "little")
                  + (50 + i).to_bytes(8, "little")
                  for i, (noexist, key) in enumerate(
                      [(0, 1), (1, 1), (1, 2), (0, 2), (1, 3), (0, 1)])]
        program = assemble_program("""
            r7 = *(u32 *)(r1 + 4)
            r6 = *(u32 *)(r1 + 0)
            r2 = r6
            r2 += 16
            if r2 > r7 goto out
            r2 = *(u32 *)(r6 + 4)
            *(u32 *)(r10 - 4) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            r3 = *(u64 *)(r6 + 8)
            *(u64 *)(r10 - 16) = r3
            r4 = 0
            r5 = *(u8 *)(r6 + 1)
            if r5 == 0 goto go
            r4 = 1
        go:
            r1 = map[m]
            r2 = r6
            r2 += 4
            r3 = r10
            r3 += -16
            call 2
            *(u64 *)(r6 + 8) = r0
            r0 = 3
            exit
        out:
            r0 = 1
            exit
        """, maps=_KEY4_MAPS, name="one_arm_flags")
        pipeline = compile_program(program)
        got = self._writes_agree(pipeline, program, frames,
                                 "1 of 1 lookups, 0 of 1 writes folded, "
                                 "1 spill site, 2 stack slots, 0 of 0 value "
                                 "accesses by slot, 1 coalesced run")
        assert got == [0, _NEG1, 0, 0, 0, 0]
        assert "regs[4] = r4" in _stream_source(pipeline)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_the_stream_renders_no_scrub_and_no_dead_store(
            self, layout, monkeypatch):
        # every op's rendering reads only registers its read mask names
        # (the liveness is over those masks), and of the registers it
        # stores, some later line reads each
        render = _Emitter._op_body

        def checked(em, op, stage_number, in_entry):
            body = render(em, op, stage_number, in_entry)
            if em.stream and body is not None:
                extra = _rendered_reads(body[0]) & ~em._stream_reads(op)
                assert not extra, (op.insn_index, op.insn, body[0])
            return body

        monkeypatch.setattr(_Emitter, "_op_body", checked)
        streamed = 0
        for name, program in streaming_programs():
            pipeline = compile_program(program, LAYOUTS[layout])
            if stream_blocker(pipeline) is not None:
                continue
            streamed += 1
            assert SCRUB not in _stream_source(pipeline), name
            assert stream_dead_stores(pipeline.codegen_source) == [], name
            tested, refused = value_bound_tests(pipeline)
            assert tested == refused, name
        assert streamed >= 20

    def test_a_bank_handed_in_is_the_bank_computed(self):
        # _stream hashes ct_firewall's key once and hands the bank to
        # both LRU cores: the maps must not tell the two apart
        spec = MapSpec("l", "lru_hash", 4, 8, 64, banks=16)
        handed, computed = create_map(spec), create_map(spec)
        rng = random.Random(5)
        for step in range(600):
            key = rng.randrange(200).to_bytes(4, "little")
            bank = bank_of(key, 16)
            if step % 3:
                value = step.to_bytes(8, "little")
                assert handed._update(key, value, 0, bank) \
                    == computed._update(key, value, 0)
            else:
                assert handed._find(key, bank) == computed._find(key)
        assert handed.evictions == computed.evictions > 0
        assert handed.lru_keys() == computed.lru_keys()
        assert handed.storage == computed.storage
        assert all(len(d) == 4 for d in handed._dirs)  # every bank full

    # -- map values by slot, runs of loads --------------------------------
    # _stream addresses a map value through the shadow _v<reg> of the
    # register that points into it (the slot's storage offset) and reads
    # neighbouring constant offsets of one buffer in one Struct call.

    def _values_agree(self, body, frames, shape, setup=None):
        """``body`` in a frame program over ``_VALUE_MAPS`` streams with
        ``shape``; vm, interpreted and codegen agree on every frame with
        one packet in flight and at gap 1 (the pipeline pair on every
        packet's cycles too). Returns the pipeline and the codegen run."""
        program = _frame_program(body, _VALUE_MAPS)
        pipeline = compile_program(program)
        vm = run_engine("vm", program, frames, setup=setup)
        for gap in (1, pipeline.n_stages + 2):
            path, got = _observed(pipeline, program, frames, "codegen", gap,
                                  setup=setup)
            assert path == f"stream ({shape})"
            _path, want = _observed(pipeline, program, frames,
                                    "interpreted", gap, setup=setup)
            assert compare_runs(want, got) == []
            assert compare_runs(vm, got) == []
        return pipeline, got

    def test_two_value_pointers_into_one_map_live_at_once(self):
        # lookup A's pointer waits in r6 while lookup B's is in r0, and
        # both are read: each register keeps its own shadow (one shadow
        # per map reads B's slot for A)
        rng = random.Random(7)
        frames = [bytes([rng.randrange(5), 0, 0, 0, rng.randrange(5)])
                  + bytes(35) for _ in range(40)]
        pipeline, got = self._values_agree("""
            r9 = r6
            r2 = *(u32 *)(r9 + 0)
            *(u32 *)(r10 - 4) = r2
            r2 = *(u32 *)(r9 + 4)
            *(u32 *)(r10 - 8) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto out
            r6 = r0
            r1 = map[m]
            r2 = r10
            r2 += -8
            call 1
            if r0 == 0 goto out
            r3 = *(u64 *)(r6 + 0)
            r4 = *(u64 *)(r0 + 0)
            *(u64 *)(r9 + 8) = r3
            *(u64 *)(r9 + 16) = r4
        """, frames, "2 of 2 lookups, 0 of 0 writes folded, 0 spill sites, "
            "2 stack slots, 2 of 2 value accesses by slot, 1 coalesced run",
            setup=_seed_values)
        source = _stream_source(pipeline)
        assert "_s508, _s504 = _u_II(_b, 0)" in source  # the two keys
        assert "_u8(_st1, _v6)[0]" in source
        assert "_u8(_st1, _v0)[0]" in source
        values = {int.from_bytes(frame[8:16], "little")
                  for frame in got.frames}
        assert len(values - {0}) == 4  # every slot read through r6

    def test_a_value_offset_past_the_slot_stays_tested(self):
        # 8 bytes at in-value offset 4 of an 8-byte value: the label's
        # offset is constant but past VS - size, so the load keeps its
        # bounds test — slot 0 reads into slot 1, the last slot drops,
        # as the interpreted engine does (the VM faults there instead)
        frames = [bytes([key]) + bytes(39) for key in (0, 1, 3, 2, 0, 9, 1)]
        body = """
            r2 = *(u32 *)(r6 + 0)
            *(u32 *)(r10 - 4) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto out
            r3 = *(u64 *)(r0 + 4)
            *(u64 *)(r6 + 8) = r3
        """
        shape = ("1 of 1 lookups, 0 of 0 writes folded, 0 spill sites, "
                 "1 stack slot, 0 of 1 value accesses by slot, "
                 "0 coalesced runs")
        in_range = [frame for frame in frames if frame[0] < 3]
        pipeline, _got = self._values_agree(body, in_range, shape,
                                            setup=_seed_values)
        assert "if 0 <= _o <= 24:" in _stream_source(pipeline)
        program = _frame_program(body, _VALUE_MAPS)
        runs = [_observed(pipeline, program, frames, engine,
                          setup=_seed_values)
                for engine in ("interpreted", "codegen")]
        assert runs[1][0] == f"stream ({shape})"
        assert compare_runs(runs[0][1], runs[1][1]) == []
        assert [int(action) for action in runs[1][1].actions] == [
            3, 3, 1, 3, 3, 1, 3]  # slot 3 of 4 drops; key 9 misses

    def test_a_run_stops_at_a_store_over_its_bytes(self):
        # the second load reads bytes a store between the two wrote: the
        # two loads are not one unpack_from ahead of the store
        rng = random.Random(3)
        frames = [bytes(rng.randrange(256) for _ in range(40))
                  for _ in range(12)]
        pipeline, _vm = self._atoms_agree("""
            r2 = *(u16 *)(r6 + 0)
            *(u16 *)(r6 + 1) = 0x5a5a
            r3 = *(u16 *)(r6 + 2)
            r2 <<= 16
            r2 |= r3
            *(u32 *)(r6 + 8) = r2
        """, frames, "0 of 0 lookups, 0 of 0 writes folded, 0 spill sites, "
            "0 stack slots, 0 of 0 value accesses by slot, 0 coalesced runs")
        source = _stream_source(pipeline)
        assert "r2 = _u2(_b, 0)[0]" in source
        assert "r3 = _u2(_b, 2)[0]" in source

    def test_a_destination_redefined_in_the_middle_of_a_run(self):
        # maglev's hash: the third load's register was read since the
        # run began, so it stays a load of its own after the xor
        rng = random.Random(4)
        frames = [bytes(rng.randrange(256) for _ in range(40))
                  for _ in range(12)]
        pipeline, _vm = self._atoms_agree("""
            r2 = *(u32 *)(r6 + 0)
            r3 = *(u32 *)(r6 + 4)
            r2 ^= r3
            r3 = *(u32 *)(r6 + 8)
            r2 ^= r3
            *(u32 *)(r6 + 12) = r2
        """, frames, "0 of 0 lookups, 0 of 0 writes folded, 0 spill sites, "
            "0 stack slots, 0 of 0 value accesses by slot, 1 coalesced run")
        source = _stream_source(pipeline)
        assert "r2, r3 = _u_II(_b, 0)" in source
        assert "r3 = _u4(_b, 8)[0]" in source

    @pytest.mark.parametrize("app, shape", [
        ("maglev", "2 of 2 lookups, 0 of 0 writes folded, 0 spill sites, "
                   "2 stack slots, 3 of 3 value accesses by slot, "
                   "2 coalesced runs"),
        ("leaky_bucket", "1 of 1 lookups, 1 of 1 writes folded, 0 spill "
                         "sites, 5 stack slots, 6 of 6 value accesses by "
                         "slot, 4 coalesced runs"),
        ("ct_firewall", "2 of 2 lookups, 1 of 1 writes folded, 0 spill "
                        "sites, 6 stack slots, 2 of 2 value accesses by "
                        "slot, 2 coalesced runs"),
        ("firewall", "2 of 2 lookups, 0 of 0 writes folded, 0 spill sites, "
                     "5 stack slots, 1 of 1 value accesses by slot, "
                     "2 coalesced runs"),
    ])
    def test_the_apps_address_every_value_by_slot(self, app, shape):
        # every value access of the four addressed by its slot, none
        # spilled, and the runs engine_path() reports
        pipeline = compile_program(getattr(apps, app).build())
        sim = PipelineSimulator(pipeline,
                                options=SimOptions(engine="codegen"))
        with telemetry.scoped(enabled=False):
            assert sim.engine_path() == f"stream ({shape})"


_KEY4_MAPS = {"m": MapSpec("m", "lru_hash", key_size=4, value_size=8,
                             max_entries=8)}
_VALUE_MAPS = {"m": MapSpec("m", "array", key_size=4, value_size=8,
                            max_entries=4)}


def _seed_values(maps):
    """A distinct value in every slot of ``_VALUE_MAPS``' array."""
    for key in range(4):
        maps[1].update(key.to_bytes(4, "little"),
                       (0x1111 * (key + 1)).to_bytes(8, "little"))
_ATOM_MAPS ={"m": MapSpec("m", "lru_hash", key_size=8, value_size=8,
                             max_entries=8)}


def _frame_program(body, maps=None):
    """``body`` between a 40-byte frame bounds check (r6: the frame)
    and TX; a shorter frame is dropped."""
    return assemble_program("""
        r7 = *(u32 *)(r1 + 4)
        r6 = *(u32 *)(r1 + 0)
        r2 = r6
        r2 += 40
        if r2 > r7 goto out
    """ + body + """
        r0 = 3
        exit
    out:
        r0 = 1
        exit
    """, maps=maps or {}, name="stack_atoms")


def deep_branch_program(branches=50):
    """``branches`` sequential conditional branches, each skipping one
    add: two stages apiece, no map, no helper — stream-eligible and, at
    the default, past 100 stages."""
    lines = [
        "r7 = *(u32 *)(r1 + 4)",
        "r6 = *(u32 *)(r1 + 0)",
        "r2 = r6",
        "r2 += 2",
        "if r2 > r7 goto out",
        "r3 = *(u8 *)(r6 + 0)",
        "r0 = 0",
    ]
    for value in range(branches):
        lines += [f"if r3 == {value} goto +1", "r0 += 1"]
    lines += ["r0 &= 3", "exit", "out:", "r0 = 1", "exit"]
    return assemble_program("\n".join(lines), name="deep_branches")


def _observed(pipeline, program, frames, engine, gap=1, capacity=4096,
              setup=None, stream_input=False, observer=None, **options):
    """The path a run took (an attached ``observer`` forces the cycle
    loop) and its :class:`EngineRun`: compared by ``compare_runs``, two
    runs of one cycle model agree down to every packet's cycles and the
    maps' raw storage."""
    maps = MapSet(program.maps)
    if setup is not None:
        setup(maps)
    sim = PipelineSimulator(pipeline, maps=maps, options=SimOptions(
        engine=engine, keep_records=True, input_queue_capacity=capacity,
        **options))
    sim.observer = observer
    path = sim.engine_path(gap)
    report = sim.run_packets((f for f in frames) if stream_input else frames,
                             gap=gap)
    return path, engine_run(engine, report, maps, len(frames))


def _idle_observer(*_cycle_state):
    """Attached to a simulator, it takes the run off the stream path."""


def _rewindowed(pipeline, fd, window):
    """A copy of ``pipeline`` whose map ``fd`` interlocks over
    ``window`` instead of its own access span, with that window's
    holders and forwarding from the plans' access tables, source
    regenerated."""
    clone = copy.deepcopy(pipeline)
    plan = clone.map_hazards[fd]
    accesses = [a for each in clone.map_hazards.values()
                for a in each.accesses]
    last, decided = block_stages(clone.stages, clone.cfg)
    plan.serial_window = window
    plan.holders = window_holders(accesses, clone.cfg, last, *window)
    plan.forwarding = forwarding(accesses, clone.cfg, decided, plan,
                                 clone.commit_stages[fd])
    clone.codegen_source = None
    return clone


def _syn_cookie_mixed(frames, flows=8):
    """SYN-flood ``frames`` (which pass through syn_cookie's window)
    with every third frame one that holds it: per flow its cookie-ACK,
    data on it once admitted, data on a flow never admitted."""
    holding = [frame for i in range(flows) for frame in syn_cookie_paths(
        FiveTuple(ipv4(f"203.0.113.{i + 1}"), ipv4("10.9.9.9"), 6,
                  40000 + i, 443))[1:]]
    mixed = []
    for k, frame in enumerate(frames):
        mixed.append(frame)
        if k % 2:
            mixed.append(holding[k // 2 % len(holding)])
    return mixed


# _tiny_lru_program with an arm that skips the map: byte 12 == 1 passes
_TINY_SKIP = assemble_program(_TINY_LRU_SRC.replace(
    "    r2 = *(u32 *)(r6 + 14)\n",
    "    r2 = *(u32 *)(r6 + 14)\n    r3 = *(u8 *)(r6 + 12)\n"
    "    if r3 == 1 goto pass\n", 1), maps=_TINY_LRU_MAPS,
    name="tiny_lru_skip")

_WINDOWED_APPS = {"ct_firewall": ct_firewall, "syn_cookie": syn_cookie}
_GAPS = (1, 2, 5, 20, 21, 22, 23, 40)
_CAPACITIES = (1, 4, 64, 3000)

_TWO_LRU_MAPS = {
    "a": MapSpec("a", "lru_hash", key_size=4, value_size=8, max_entries=4),
    "b": MapSpec("b", "lru_hash", key_size=4, value_size=8, max_entries=4),
}
# lookup + in-place add on two lru_hash maps in turn: two windows
_TWO_LRU_SRC = """
    r7 = *(u32 *)(r1 + 4)
    r6 = *(u32 *)(r1 + 0)
    r2 = r6
    r2 += 18
    if r2 > r7 goto out
    r2 = *(u32 *)(r6 + 14)
    *(u32 *)(r10 - 4) = r2
    r1 = map[a]
    r2 = r10
    r2 += -4
    call 1
    if r0 == 0 goto second
    r1 = 1
    lock *(u64 *)(r0 + 0) += r1
second:
    r1 = map[b]
    r2 = r10
    r2 += -4
    call 1
    if r0 == 0 goto out
    r1 = 1
    lock *(u64 *)(r0 + 0) += r1
out:
    r0 = 2
    exit
"""


def _seed_two_lru(maps):
    for fd in maps:
        for key in (1, 2, 3):
            maps[fd].update(key.to_bytes(4, "little"), bytes(8))


class TestWindowedStream:
    """A pipeline whose hazard plans all sit inside one serialization
    window streams, and its stall timing is reproduced arithmetically:
    the ``interpreted`` engine's cycle loop is the reference."""

    TINY = _tiny_lru_program()
    TINY_PIPELINE = compile_program(TINY)

    @staticmethod
    def _app(name, packets=160):
        """The app's registered workload; for syn_cookie, whose SYNs
        all pass through its window, mixed with packets that hold it."""
        module = _WINDOWED_APPS[name]
        program = module.build()
        spec = dataclasses.replace(
            parse_workload_spec(APP_WORKLOADS[name]), packets=packets)
        frames = make_workload(spec).materialize()
        if name == "syn_cookie":
            frames = _syn_cookie_mixed(frames)
        return (program, compile_program(program),
                getattr(module, "default_setup", None), frames)

    @pytest.mark.parametrize("name", sorted(_WINDOWED_APPS))
    def test_apps_stream(self, name):
        _program, pipeline, _setup, _frames = self._app(name, packets=1)
        assert pipeline.serial_windows
        assert stream_blocker(pipeline) is None
        assert "_STREAM = _stream" in pipeline.codegen_source

    @staticmethod
    def _paths(cfg, bid):
        """The blocks of each CFG path from ``bid`` to an exit, in
        order."""
        succs = cfg.blocks[bid].succs
        if not succs:
            yield (bid,)
        for succ, _kind in succs:
            for path in TestWindowedStream._paths(cfg, succ):
                yield (bid,) + path

    @pytest.mark.parametrize("layout,windows", [("path_parallel", 4),
                                                ("paper", 2)])
    def test_the_stream_renders_the_loops_release(self, layout, windows):
        # wherever a packet that holds a forwarding window stops on its
        # path, the stream's release over the flags it set is the one
        # the cycle loop reads of it done (at least 1: one packet enters
        # lo a cycle)
        programs = [getattr(apps, name).build()
                    for name in sorted(apps.__all__) if name.islower()]
        programs.append(load_program(str(Path(__file__).parent / "corpus"
                                         / "late_arm.ebpf")))
        forwarding_windows = 0
        for program in programs:
            pipeline = compile_program(program, LAYOUTS[layout])
            cfg = pipeline.cfg
            named = frozenset(f"_e{block.block_id}" for block in cfg.blocks)
            stops = {frozenset(path[:k])
                     for path in self._paths(cfg, cfg.entry.block_id)
                     for k in range(1, len(path) + 1)}
            for plan in pipeline.map_hazards.values():
                forward = plan.forwarding
                if forward is None:
                    continue
                forwarding_windows += 1
                after = _release_offset(forward.release, named)
                for enabled in stops:
                    if plan.holders.isdisjoint(enabled):
                        continue
                    flags = {f"_e{block.block_id}":
                             block.block_id in enabled
                             for block in cfg.blocks}
                    assert eval(after, flags) == max(
                        forward.released(enabled, done=True), 1), (
                            program.name, sorted(enabled))
        assert forwarding_windows == windows

    @pytest.mark.parametrize("name", sorted(_WINDOWED_APPS))
    def test_app_timing_matches_interpreted(self, name):
        program, pipeline, setup, frames = self._app(name)
        for gap in _GAPS:
            for capacity in _CAPACITIES:
                path, got = _observed(pipeline, program, frames, "codegen",
                                      gap, capacity, setup)
                assert path.startswith("stream (")
                _path, want = _observed(pipeline, program, frames,
                                        "interpreted", gap, capacity, setup)
                assert compare_runs(want, got) == []
        # the sweep genuinely crossed the drop regime and the stall-free one
        assert want.counters["queue drops"] == 0
        _path, tight = _observed(pipeline, program, frames, "codegen", 1, 1,
                                 setup)
        assert tight.counters["queue drops"] > 0

    # Any window containing the map's own access span is a valid
    # interlock, so the tiny program covers shapes no app has: lo == 2,
    # a window ending at the last stage, a one-stage lead-in.
    def _tiny_windows(self):
        (lo, hi), = self.TINY_PIPELINE.serial_windows
        n = self.TINY_PIPELINE.n_stages
        assert lo > 2 and hi < n
        return [(lo, hi), (2, hi), (lo, n), (2, n)]

    def test_tiny_lru_window_shapes(self):
        keys = [1, 2, 3, 4, 1, 5, 6, 2, 7, 8, 9, 5, 1, 1, 3] * 3
        frames = _key_frames(keys)
        fd = next(iter(self.TINY_PIPELINE.map_hazards))
        for window in self._tiny_windows():
            pipeline = _rewindowed(self.TINY_PIPELINE, fd, window)
            assert pipeline.serial_windows == [window]
            width = window[1] - window[0] + 1
            for gap in (1, 2, width - 1, width, width + 1):
                for capacity in (1, 2, 64):
                    path, got = _observed(pipeline, self.TINY, frames,
                                          "codegen", gap, capacity)
                    assert path.startswith("stream ("), window
                    _path, want = _observed(pipeline, self.TINY, frames,
                                            "interpreted", gap, capacity)
                    assert compare_runs(want, got) == []

    def _mixed_trace(self, name):
        """(program, pipeline, setup, frames) of a trace mixing packets
        that hold the window with packets that pass through it."""
        if name == "syn_cookie":
            return self._app(name, packets=120)
        # key 0: a frame down the arm that skips the map
        keys = [1, 2, 0, 3, 1, 0, 0, 4, 5, 1, 0, 6, 2, 7, 0, 1, 8, 0, 0, 0,
                9, 5, 1, 0, 3] * 3
        frames = [_key_frames([key])[0] for key in keys]
        frames = [f[:12] + b"\x01" + f[13:] if key == 0 else f
                  for key, f in zip(keys, frames)]
        return _TINY_SKIP, compile_program(_TINY_SKIP), None, frames

    @pytest.mark.parametrize("name", ["syn_cookie", "tiny_lru_skip"])
    def test_mixed_paths_match_interpreted(self, name):
        program, pipeline, setup, frames = self._mixed_trace(name)
        (lo, hi), = pipeline.serial_windows
        width = hi - lo + 1
        dropped = set()
        for gap in (1, 2, width - 1, width, width + 1):
            for capacity in (1, 2, 64):
                path, got = _observed(pipeline, program, frames, "codegen",
                                      gap, capacity, setup)
                assert path.startswith("stream ("), path
                _path, want = _observed(pipeline, program, frames,
                                        "interpreted", gap, capacity, setup)
                assert compare_runs(want, got) == []
                dropped.add(want.counters["queue drops"] > 0)
        # the sweep crossed the queue-drop regime and the drop-free one
        assert dropped == {True, False}

    @settings(max_examples=40, deadline=None)
    @given(
        keys=st.lists(st.integers(min_value=1, max_value=9),
                      min_size=0, max_size=40),
        gap=st.integers(min_value=1, max_value=30),
        capacity=st.integers(min_value=1, max_value=8),
    )
    def test_timing_property(self, keys, gap, capacity):
        frames = _key_frames(keys)
        _path, got = _observed(self.TINY_PIPELINE, self.TINY, frames,
                               "codegen", gap, capacity)
        _path, want = _observed(self.TINY_PIPELINE, self.TINY, frames,
                                "interpreted", gap, capacity)
        assert compare_runs(want, got) == []

    def test_run_packets_takes_a_generator(self):
        program, pipeline, setup, frames = self._app("ct_firewall")
        path, got = _observed(pipeline, program, frames, "codegen", 3, 8,
                              setup, stream_input=True)
        assert path.startswith("stream (")
        _path, want = _observed(pipeline, program, frames, "interpreted",
                                3, 8, setup)
        assert compare_runs(want, got) == []

    def test_telemetry_takes_the_cycle_loop_with_equal_numbers(self):
        program, pipeline, setup, frames = self._app("ct_firewall")
        with telemetry.scoped(enabled=True):
            path, loop = _observed(pipeline, program, frames, "codegen",
                                   2, 16, setup)
        assert path == "cycle-loop (telemetry is on)"
        with telemetry.scoped(enabled=False):
            path, stream = _observed(pipeline, program, frames, "codegen",
                                     2, 16, setup)
        assert path.startswith("stream (")
        assert compare_runs(loop, stream) == []

    # leaky_bucket's keyed window: a hot flow's packets stall behind
    # each other at the window, and every packet reads the clock two
    # stages ahead of it, in the cycle it enters that stage
    KEYED = leaky_bucket.build()
    KEYED_PIPELINE = compile_program(KEYED)

    def test_keyed_window_at_the_real_clock(self):
        pipeline = self.KEYED_PIPELINE
        assert pipeline.held_windows[0][3].keyed
        frames = _zipf_frames(flows=12, packets=120)
        stalled = dropped = 0
        for gap in range(1, pipeline.n_stages + 1):
            for capacity in (1, 4, len(frames)):
                path, got = _observed(pipeline, self.KEYED, frames,
                                      "codegen", gap, capacity)
                assert path.startswith("stream ("), path
                _path, want = _observed(pipeline, self.KEYED, frames,
                                        "interpreted", gap, capacity)
                assert compare_runs(want, got) == []
                stalled += any(leave - inject > pipeline.n_stages
                               for _arrival, inject, leave
                               in want.packet_cycles)
                dropped += want.counters["queue drops"] > 0
        assert stalled and dropped

    def test_the_clock_backs_up_behind_the_window(self, monkeypatch):
        # read at injection plus the stages ahead, the clock runs early
        # for a packet backed up behind the window
        def at_injection(emitter, stage):
            emitter.uses_clock = True
            return [f"_hc.time_ns = _t0 + int((_inj + {stage - 1}) * _cns)"]

        monkeypatch.setattr(_Emitter, "_clock_lines", at_injection)
        early = copy.deepcopy(self.KEYED_PIPELINE)
        early.codegen_source = None
        frames = _zipf_frames(flows=2, packets=60)
        for gap, same in ((self.KEYED_PIPELINE.n_stages, True), (1, False)):
            _path, got = _observed(early, self.KEYED, frames, "codegen",
                                   gap)
            _path, want = _observed(early, self.KEYED, frames,
                                    "interpreted", gap)
            # the map items and their order; raw storage alone is not it
            maps_agree = not any(m.what.startswith("map ")
                                 and not m.what.endswith(" storage")
                                 for m in compare_runs(want, got))
            assert maps_agree is same, gap

    def test_stale_stamp_regenerates_with_the_stream(self):
        # a v3 emitter left windowed pipelines on the cycle loop; its
        # cached source must not be trusted under the current stamp
        _program, pipeline, _setup, _frames = self._app("ct_firewall", 1)
        pipeline.codegen_source = pipeline.codegen_source.replace(
            "_STREAM = _stream", "_STREAM = None")
        pipeline.codegen_version = 3
        with telemetry.scoped(enabled=True) as reg:
            sim = PipelineSimulator(
                pipeline, options=SimOptions(engine="codegen"))
            assert _recompiles(reg, pipeline) == 1
        assert pipeline.codegen_version == CODEGEN_VERSION
        with telemetry.scoped(enabled=False):
            assert sim.engine_path() == ("stream (2 of 2 lookups, 1 of 1 "
                                         "writes folded, 0 spill sites, "
                                         "6 stack slots, 2 of 2 value "
                                         "accesses by slot, 2 coalesced runs)")


def _two_atomics(first, second):
    """An array slot updated by the atomic ``first``, then by ``second``
    a stage later: each an operator, after ``fetch`` for a fetch variant
    and ``u32`` for a 32-bit one."""
    def lock(atomic, operand):
        *flags, op = atomic.split()
        fetch = "fetch " if "fetch" in flags else ""
        size = "u32" if "u32" in flags else "u64"
        return f"lock {fetch}*({size} *)(r8 + 0) {op} {operand}"
    return assemble_program(f"""
        r2 = 0
        *(u32 *)(r10 - 4) = r2
        r1 = map[m]
        r2 = r10
        r2 += -4
        call 1
        if r0 == 0 goto out
        r8 = r0
        r2 = 0x0c
        {lock(first, "r2")}
        r3 = 0x21
        {lock(second, "r3")}
    out:
        r0 = 2
        exit
    """, maps={"m": MapSpec("m", "array", key_size=4, value_size=8,
                            max_entries=1)}, name=f"{first}, {second}")


class TestStreamBlockers:
    """Pipelines the proof does not cover say why, and run the cycle
    loop to the same numbers as the reference."""

    def _check_cycle_loop(self, pipeline, program, frames, reason,
                          setup=None):
        assert reason in stream_blocker(pipeline)
        assert "_STREAM = None" in generate_pipeline_source(pipeline)
        path, got = _observed(pipeline, program, frames, "codegen",
                              setup=setup)
        assert path == f"cycle-loop ({stream_blocker(pipeline)})"
        _path, want = _observed(pipeline, program, frames, "interpreted",
                                setup=setup)
        assert compare_runs(want, got) == []

    @pytest.mark.parametrize("app,module,reason", [
        ("leaky_bucket", leaky_bucket,
         "flush plan on map 1 (stages 8-25) not covered by a window"),
        ("dnat", dnat,
         "flush plan on map 1 (stages 8-20) not covered by a window"),
    ])
    def test_flush_plan_without_a_window(self, app, module, reason):
        _build, setup, frames, _flushes = CASES[app]
        program = module.build()
        # leaky_bucket flushes on the §3.3 layout only
        options = PAPER if app == "leaky_bucket" else CompileOptions()
        self._check_cycle_loop(compile_program(program, options), program,
                               frames[:SHORT] * 5, reason, setup)

    def test_order_sensitive_helper(self):
        program = assemble_program("""
            call 7
            r0 = 2
            exit
        """, name="prandom")
        self._check_cycle_loop(compile_program(program), program,
                               _key_frames([1, 2, 3]),
                               "helper 7 is order-sensitive")

    @pytest.mark.parametrize("program,stages", [
        # add, or, and, xor, fetch-add, xchg on one slot, two stages apart
        (load_program(str(Path(__file__).parent / "corpus"
                          / "atomic_variants.ebpf")), "7-17"),
        # plain adds commute, but here the verdict is a value load's
        (assemble_program("""
            r2 = 0
            *(u32 *)(r10 - 4) = r2
            r1 = map[m]
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto out
            r8 = r0
            r6 = *(u64 *)(r8 + 0)
            r6 &= 1
            r6 += 1
            r2 = 1
            lock *(u64 *)(r8 + 0) += r2
            r0 = r6
            exit
        out:
            r0 = 2
            exit
        """, maps={"m": MapSpec("m", "array", key_size=4, value_size=8,
                                max_entries=1)}, name="load_beside_add"),
         "7-9"),
        # an or commutes with an or only, a fetch variant (the ISA's one
        # is fetch-add) with nothing, not even its plain op
        (_two_atomics("|=", "+="), "7-8"),
        (_two_atomics("fetch +=", "+="), "7-8"),
        # an add carries out of its own bytes
        (_two_atomics("u32 +=", "+="), "7-8"),
    ], ids=lambda value: getattr(value, "name", None))
    def test_atomics_that_do_not_commute_unobserved(self, program, stages):
        # in the pipeline a younger packet's shallow access to the slot
        # runs before an older packet's deeper one: at line rate, equal
        # frames leave another map state (another verdict) than they do
        # packet by packet, and the cycle loop's is the reference's
        self._check_cycle_loop(
            compile_program(program), program, [bytes(range(64))] * 12,
            f"atomics on map 1 (stages {stages}) do not commute unobserved")

    def test_atomics_that_commute_stream(self):
        # two ors land alike in either order, and nothing observes the
        # slot between them
        program = _two_atomics("|=", "|=")
        pipeline = compile_program(program)
        assert pipeline.map_hazards[1].atomic_stages == [7, 8]
        assert str(pipeline.map_hazards[1].consistency) == "exact"
        assert stream_blocker(pipeline) is None
        run_differential(program, [bytes(range(64))] * 12,
                         pipeline=pipeline,
                         engines=("vm", "interpreted", "codegen"),
                         ).raise_on_mismatch()

    def test_the_apps_keep_their_verdicts(self):
        # ct_firewall and syn_cookie add to one map at several stages,
        # maglev and router load one map and add to another
        blocked = [
            app for app in TestDigests.APPS
            if stream_blocker(compile_program(getattr(apps, app).build()))
        ]
        assert blocked == ["dnat"]

    def test_access_outside_the_window(self):
        tiny = TestWindowedStream.TINY
        pipeline = TestWindowedStream.TINY_PIPELINE
        fd = next(iter(pipeline.map_hazards))
        (lo, hi), = pipeline.serial_windows
        narrowed = _rewindowed(pipeline, fd, (lo + 1, hi))
        self._check_cycle_loop(
            narrowed, tiny, _key_frames([1, 2, 1, 3, 4, 5, 1]),
            f"flush plan on map {fd} (stages {lo}-{hi}) not covered")

    def test_window_from_stage_one(self):
        tiny = TestWindowedStream.TINY
        pipeline = TestWindowedStream.TINY_PIPELINE
        fd = next(iter(pipeline.map_hazards))
        (_lo, hi), = pipeline.serial_windows
        self._check_cycle_loop(
            _rewindowed(pipeline, fd, (1, hi)), tiny,
            _key_frames([1, 2, 1, 3, 4, 5, 1]),
            "serialization window starts at stage 1")

    def test_two_windows(self):
        program = assemble_program(_TWO_LRU_SRC, maps=_TWO_LRU_MAPS,
                                   name="two_lru")
        pipeline = compile_program(program)
        assert len(pipeline.serial_windows) == 2
        self._check_cycle_loop(
            pipeline, program, _key_frames([1, 2, 9, 3, 1, 1, 2]),
            "2 serialization windows", _seed_two_lru)

    def test_maps_other_than_the_compiled_specs(self):
        # _stream has each MapSpec folded into it (kind, geometry, base
        # address) and binds the maps once per run: a simulator handed
        # any other map says so and runs the cycle loop — asked per run,
        # so putting the compiled-against map back streams again
        program = toy_counter.build()
        pipeline = compile_program(program)
        (fd, spec), = program.maps.items()
        frames = [toy_counter.packet_for_key(k) for k in (1, 2, 1, 3, 1)]

        def observe(sim):
            return engine_run(sim.options.engine, sim.run_packets(frames),
                              sim.maps, len(frames))

        def run(engine, held):
            maps = MapSet(program.maps)
            maps.maps[fd] = held
            sim = PipelineSimulator(pipeline, maps=maps, options=SimOptions(
                engine=engine, keep_records=True))
            return sim.engine_path(), sim, observe(sim)

        def seeded(held):
            bpf_map = create_map(held)
            for key in (1, 2, 3):
                bpf_map.update(key.to_bytes(4, "little"),
                               (10 * key).to_bytes(8, "little"))
            return bpf_map

        reason = (f"map {fd} is not the {spec.map_type} map the pipeline "
                  "was compiled against")
        for other in (
            dataclasses.replace(spec, max_entries=spec.max_entries * 2),
            dataclasses.replace(spec, map_type="hash"),
        ):
            path, sim, got = run("codegen", create_map(other))
            assert path.startswith(f"cycle-loop ({reason}")
            assert compare_runs(run("interpreted", create_map(other))[2],
                                got) == []
            # no engine holds a map past the end of a run: the same
            # simulator's next run reads the Map object now in its set
            sim.maps.maps[fd] = seeded(other)
            assert sim.engine_path().startswith(f"cycle-loop ({reason}")
            assert compare_runs(run("interpreted", seeded(other))[2],
                                observe(sim)) == []
            sim.maps.maps[fd] = create_map(spec)
            assert sim.engine_path().startswith("stream (")
        path, _sim, got = run("codegen", create_map(spec))
        assert path.startswith("stream (")
        assert compare_runs(run("interpreted", create_map(spec))[2],
                            got) == []

    def test_non_codegen_engine(self):
        sim = PipelineSimulator(compile_program(firewall.build()),
                                options=SimOptions(engine="interpreted"))
        assert sim.engine_path() \
            == "cycle-loop (engine 'interpreted' has no stream path)"


def _zipf_frames(flows, exponent=1.0, packets=200, seed=7):
    return make_workload(dataclasses.replace(
        parse_workload_spec("udp-zipf"), flows=flows, zipf_exponent=exponent,
        packets=packets, seed=seed)).materialize()


def _unresolved(pipeline, stage_number, **blanked):
    """A copy of ``pipeline`` in which the op at ``stage_number`` lost
    what the compiler had resolved about it, source regenerated."""
    clone = copy.deepcopy(pipeline)
    stage = clone.stages[stage_number - 1]
    stage.ops[0] = dataclasses.replace(stage.ops[0], **blanked)
    clone.codegen_source = None
    return clone


class TestCycleLoopFlushes:
    """A pipeline that cannot stream runs the simulator's one cycle loop
    on either engine, which differ only in the stage bodies ``_enter``
    dispatches: compiled ``_s<N>`` or the interpreted ops. Under a flush
    plan both snapshot at every map side effect, so a squashed packet
    restarts from the same elastic buffer or input-queue slot, and every
    count below is the ``interpreted`` engine's."""

    # leaky_bucket flushes on the §3.3 layout only
    APPS = {"leaky_bucket": (leaky_bucket, PAPER),
            "dnat": (dnat, CompileOptions())}
    RMW = TestInterleavedRmwRegression()._program()
    # both slots of the two-entry array, touched in every order
    RMW_FRAMES = [bytes([b0]) + bytes(24) + bytes([b25]) + bytes(38)
                  for b0 in range(2) for b25 in range(2)] * 4

    @classmethod
    def _app(cls, name):
        module, options = cls.APPS[name]
        program = module.build()
        return program, compile_program(program, options)

    def _check_parity(self, pipeline, program, frames):
        """Snapshots emitted, the cycle loop taken, the reference's
        numbers at gaps 3, 2 and 1; returns its observations at line
        rate."""
        assert "take_snapshot" in generate_pipeline_source(pipeline)
        for gap in (3, 2, 1):
            path, got = _observed(pipeline, program, frames, "codegen", gap)
            assert path.startswith("cycle-loop ("), path
            _path, want = _observed(pipeline, program, frames,
                                    "interpreted", gap)
            assert compare_runs(want, got) == []
        return want

    def test_restarts_from_elastic_buffers(self):
        # reads at 4/7/13/16 around writes at 9/18: the second lookup's
        # reads postdate the first store's snapshot, which is therefore
        # clean and chosen — packets do restart from elastic buffers
        pipeline = compile_program(self.RMW)
        want = self._check_parity(pipeline, self.RMW, self.RMW_FRAMES)
        flushes, stall_cycles = (want.counters["flush events"],
                                 want.counters["stall cycles"])
        assert flushes > 0 and stall_cycles > 0
        assert any(want.restarts)

    def test_unresolved_access(self):
        program, pipeline = self._app("leaky_bucket")
        blind = _unresolved(pipeline, 19, label=None)
        want = self._check_parity(blind, program, _zipf_frames(flows=6))
        assert want.counters["flush events"] > 0

    def test_unresolved_map_call(self):
        program, pipeline = self._app("leaky_bucket")
        lookup = pipeline.stages[7].ops[0].call
        assert lookup.is_map_read
        blind = _unresolved(pipeline, 8, call=dataclasses.replace(
            lookup, map_fd=None))
        self._check_parity(blind, program, _zipf_frames(flows=6))

    @pytest.mark.parametrize("name", sorted(APPS))
    def test_sweep_matches_interpreted(self, name):
        program, pipeline = self._app(name)
        frames = _zipf_frames(flows=12)
        flushed = dropped = 0
        for gap in (1, 2, 3, 7, pipeline.n_stages + 2):
            for capacity in (1, 4, 64, 4096):
                _path, got = _observed(pipeline, program, frames, "codegen",
                                       gap, capacity)
                _path, want = _observed(pipeline, program, frames,
                                        "interpreted", gap, capacity)
                assert compare_runs(want, got) == []
                flushed += want.counters["flush events"]
                dropped += want.counters["queue drops"]
                assert want.counters["stall cycles"] == 0  # no barrier restart, ever
        # the sweep crossed the flush regime and the drop regime
        assert flushed > 0 and dropped > 0

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(sorted(APPS)),
        flows=st.integers(min_value=1, max_value=64),
        exponent=st.floats(min_value=0.0, max_value=2.0),
        gap=st.integers(min_value=1, max_value=5),
    )
    def test_flush_property(self, name, flows, exponent, gap):
        program, pipeline = self._app(name)
        frames = _zipf_frames(flows, exponent, packets=120, seed=flows)
        _path, got = _observed(pipeline, program, frames, "codegen", gap)
        _path, want = _observed(pipeline, program, frames, "interpreted",
                                gap)
        assert compare_runs(want, got) == []

    @pytest.mark.parametrize("name", sorted(APPS))
    def test_observers_see_the_same_cycles(self, name):
        # a tracer and the telemetry observer read ``slots`` once per
        # cycle: occupancy, never registers — both engines must leave
        # every per-cycle snapshot and counter where the other does
        program, pipeline = self._app(name)
        frames = _zipf_frames(flows=6, packets=150)

        def run(engine, observer=None):
            sim = PipelineSimulator(
                pipeline, maps=MapSet(program.maps),
                options=SimOptions(engine=engine))
            sim.observer = observer
            report = sim.run_packets(frames)
            assert report.flush_events > 0
            return sim.metrics

        traces = {}
        for engine in ("codegen", "interpreted"):
            traces[engine] = OccupancyTracer(max_cycles=100_000)
            run(engine, traces[engine])
        assert traces["codegen"].snapshots \
            == traces["interpreted"].snapshots
        with telemetry.scoped(enabled=True):
            compiled, reference = run("codegen"), run("interpreted")
        assert compiled is not None and compiled == reference
