"""Persistent compile cache: hits skip analysis, keys track inputs."""

import pickle

import pytest

from repro.apps import firewall, toy_counter
from repro.core import CompileOptions, compile_program
from repro.core import compiler as compiler_mod
from repro.core.cache import (
    CompileCache,
    cache_key,
    compile_cached,
    default_cache_dir,
    get_default_cache,
    warm_cache,
)
from repro.ebpf import isa
from repro.ebpf.isa import Instruction, Program
from repro.ebpf.maps import MapSet
from repro.ebpf.verifier import VerifierError
from repro.hwsim import PipelineSimulator, SimOptions


@pytest.fixture()
def cache(tmp_path):
    return CompileCache(tmp_path / "cache")


class TestCacheKey:
    def test_stable(self):
        prog = toy_counter.build()
        assert cache_key(prog) == cache_key(prog)

    def test_tracks_program(self):
        assert cache_key(toy_counter.build()) != cache_key(firewall.build())

    def test_tracks_options(self):
        prog = toy_counter.build()
        assert cache_key(prog, CompileOptions()) != \
               cache_key(prog, CompileOptions(enable_pruning=False))

    def test_tracks_maps(self):
        import dataclasses

        prog_a = toy_counter.build()
        prog_b = toy_counter.build()
        # build() shares module-level MapSpec constants: swap in a copy
        fd, spec = next(iter(prog_b.maps.items()))
        prog_b.maps[fd] = dataclasses.replace(
            spec, max_entries=spec.max_entries + 1
        )
        assert cache_key(prog_a) != cache_key(prog_b)

    def test_tracks_map_banks(self):
        import dataclasses

        from repro.apps import ct_firewall

        banked = ct_firewall.build()
        unbanked = ct_firewall.build()
        (fd, spec), = unbanked.maps.items()
        unbanked.maps[fd] = dataclasses.replace(spec, banks=1)
        assert spec.banks == 16
        assert cache_key(banked) != cache_key(unbanked)


class TestCompileCached:
    def test_miss_then_disk_hit(self, cache):
        prog = toy_counter.build()
        compile_cached(prog, cache=cache)
        assert cache.misses == 1 and cache.stores == 1
        assert cache.stats()["disk_entries"] == 1

        # a fresh cache object over the same directory (a "new process")
        # must satisfy the compile from disk without running any pass
        cold = CompileCache(cache.directory)
        real = compiler_mod.compile_program

        def boom(*args, **kwargs):
            raise AssertionError("analysis passes ran despite a cache hit")

        compiler_mod.compile_program = boom
        try:
            pipeline = compile_cached(prog, cache=cold)
        finally:
            compiler_mod.compile_program = real
        assert cold.hits == 1 and cold.misses == 0
        assert pipeline.n_stages > 0

    def test_memory_hit_skips_unpickling(self, cache):
        prog = toy_counter.build()
        first = compile_cached(prog, cache=cache)
        second = compile_cached(prog, cache=cache)
        assert second is first  # same in-memory object, no disk round-trip
        assert cache.hits == 1

    def test_derived_program_facts_are_not_stored(self, cache):
        from repro.apps import ct_firewall

        prog = ct_firewall.build()
        pipeline = compile_program(prog)
        programs = (pipeline.program, pipeline.original_program)
        # the compile left slot tables and fact tables on both programs
        assert all("_derived" in p.__dict__ for p in programs)
        cache.put(cache_key(prog), pipeline)
        hit = CompileCache(cache.directory).get(cache_key(prog))
        for before, after in zip(programs, (hit.program,
                                            hit.original_program)):
            assert "_derived" not in after.__dict__
            assert after == before
            assert [after.slot_of_index(i) for i in range(len(after))] == \
                [before.slot_of_index(i) for i in range(len(before))]

    def test_cached_pipeline_simulates_identically(self, cache):
        prog = toy_counter.build()
        frames = [toy_counter.packet_for_key(k % 4) for k in range(16)]

        def run(pipeline):
            maps = MapSet(prog.maps)
            sim = PipelineSimulator(pipeline, maps=maps,
                                    options=SimOptions(keep_records=False))
            return sim.run_packets(frames), maps

        ref_rep, ref_maps = run(compile_program(prog))
        compile_cached(prog, cache=cache)
        cold = CompileCache(cache.directory)
        got_rep, got_maps = run(compile_cached(prog, cache=cold))
        assert got_rep.cycles == ref_rep.cycles
        assert got_rep.action_counts == ref_rep.action_counts
        for fd in prog.maps:
            assert bytes(got_maps[fd].storage) == bytes(ref_maps[fd].storage)

    def test_corrupt_entry_recompiles(self, cache):
        prog = toy_counter.build()
        compile_cached(prog, cache=cache)
        key = cache_key(prog)
        path = cache.directory / f"{key}.pipeline.pkl"
        path.write_bytes(b"not a pickle")
        cold = CompileCache(cache.directory)
        pipeline = compile_cached(prog, cache=cold)
        assert pipeline.n_stages > 0
        assert cold.misses == 1
        assert not path.read_bytes() == b"not a pickle"  # rewritten

    def test_wrong_type_entry_is_a_miss(self, cache):
        prog = toy_counter.build()
        key = cache_key(prog)
        cache.directory.mkdir(parents=True)
        (cache.directory / f"{key}.pipeline.pkl").write_bytes(
            pickle.dumps({"not": "a pipeline"})
        )
        compile_cached(prog, cache=cache)
        assert cache.misses == 1

    def test_previous_version_directory_is_a_clean_miss(self, cache,
                                                        monkeypatch):
        """A directory shared by two versions of the code: entries the
        previous version wrote are keyed under its format version, so
        this one never unpickles their (differently shaped) pipelines —
        it misses, recompiles and then hits its own entry."""
        from repro.core import cache as cache_mod

        prog = toy_counter.build()
        current = cache_mod._CACHE_VERSION
        monkeypatch.setattr(cache_mod, "_CACHE_VERSION", current - 1)
        old_path = cache.directory / f"{cache_key(prog)}.pipeline.pkl"
        monkeypatch.setattr(cache_mod, "_CACHE_VERSION", current)
        cache.directory.mkdir(parents=True)
        old_blob = pickle.dumps(_UnpickleTripwire())
        old_path.write_bytes(old_blob)

        compile_cached(prog, cache=cache)
        assert (cache.misses, cache.stores, cache.hits) == (1, 1, 0)
        cold = CompileCache(cache.directory)
        assert compile_cached(prog, cache=cold).n_stages > 0
        assert (cold.misses, cold.hits) == (0, 1)
        assert not _UNPICKLED
        # the other version's entry is still there for it to use
        assert old_path.read_bytes() == old_blob
        assert cache.stats()["disk_entries"] == 2

    def test_previous_version_entry_for_a_now_rejected_program(
            self, cache, monkeypatch):
        """``le128`` compiled on older checkouts; the verifier rejects
        it now. What such a checkout left in a shared directory sits
        under its own versions' key: this one neither unpickles nor
        serves it — it misses, and the compile's verdict stands."""
        from repro.core import cache as cache_mod
        from repro.hwsim import codegen

        le128 = Instruction(isa.BPF_ALU | isa.BPF_K | isa.BPF_END, dst=0,
                            imm=128)
        prog = Program([isa.mov64_imm(0, 2), le128, isa.exit_()])
        with monkeypatch.context() as older:
            older.setattr(cache_mod, "_CACHE_VERSION",
                          cache_mod._CACHE_VERSION - 1)
            older.setattr(codegen, "CODEGEN_VERSION",
                          codegen.CODEGEN_VERSION - 1)
            old_path = cache.directory / f"{cache_key(prog)}.pipeline.pkl"
        cache.directory.mkdir(parents=True)
        old_path.write_bytes(pickle.dumps(_UnpickleTripwire()))

        assert cache.get(cache_key(prog)) is None  # a miss, not an error
        with pytest.raises(VerifierError, match="byte swap width 128"):
            compile_cached(prog, cache=cache)
        assert (cache.hits, cache.stores) == (0, 0)
        assert not _UNPICKLED
        assert cache.stats()["disk_entries"] == 1


_UNPICKLED = []


def _record_unpickle():
    _UNPICKLED.append(True)


class _UnpickleTripwire:
    """Stands in for a pipeline pickled by another code version: loading
    it is observable (``get`` would swallow an exception as a miss)."""

    def __reduce__(self):
        return (_record_unpickle, ())


class TestLru:
    def test_eviction_order(self, cache):
        cache.memory_entries = 2
        progs = [toy_counter.build(), firewall.build()]
        pipes = [compile_cached(p, cache=cache) for p in progs]
        # touch the first so the second is the LRU victim
        assert compile_cached(progs[0], cache=cache) is pipes[0]
        third = compile_cached(
            progs[0], CompileOptions(enable_pruning=False), cache=cache
        )
        assert third is not pipes[0]
        assert len(cache._memory) == 2
        # firewall fell out of memory but still hits from disk
        hits_before = cache.hits
        again = compile_cached(progs[1], cache=cache)
        assert cache.hits == hits_before + 1
        assert again is not pipes[1]  # re-unpickled, not the same object


class TestWarmCache:
    def test_warms_every_program_to_disk_in_order(self, cache):
        progs = [toy_counter.build(), firewall.build()]
        pipelines = warm_cache(progs, cache=cache)
        assert [p.name for p in pipelines] == [p.name for p in progs]
        assert cache.stats()["disk_entries"] == 2

    def test_warmed_cache_satisfies_a_fresh_process_without_compiling(
        self, cache
    ):
        progs = [toy_counter.build(), firewall.build()]
        warm_cache(progs, cache=cache)
        # a fresh cache over the same directory (a "new process") must be
        # fully warm: no analysis pass may run again
        cold = CompileCache(cache.directory)
        real = compiler_mod.compile_program

        def boom(*args, **kwargs):
            raise AssertionError("compile ran despite a warm cache")

        compiler_mod.compile_program = boom
        try:
            pipelines = warm_cache(progs, cache=cold)
        finally:
            compiler_mod.compile_program = real
        assert [p.name for p in pipelines] == [p.name for p in progs]
        assert cold.stores == 0

    def test_pool_failure_names_the_program(self, cache, monkeypatch):
        real = compiler_mod.compile_program

        def picky(program, options=None):
            if program.name == "firewall":
                raise RuntimeError("synthetic compile failure")
            return real(program, options)

        monkeypatch.setattr(compiler_mod, "compile_program", picky)
        with pytest.raises(RuntimeError, match="firewall"):
            warm_cache([toy_counter.build(), firewall.build()], cache=cache)

    def test_warmed_pipeline_simulates_identically(self, cache):
        prog = toy_counter.build()
        frames = [toy_counter.packet_for_key(k % 4) for k in range(16)]

        def run(pipeline):
            maps = MapSet(prog.maps)
            sim = PipelineSimulator(pipeline, maps=maps,
                                    options=SimOptions(keep_records=False))
            return sim.run_packets(frames), maps

        ref_rep, ref_maps = run(compile_program(prog))
        warm_cache([prog], cache=cache)
        cold = CompileCache(cache.directory)
        got_rep, got_maps = run(warm_cache([prog], cache=cold)[0])
        assert got_rep.cycles == ref_rep.cycles
        assert got_rep.action_counts == ref_rep.action_counts
        for fd in prog.maps:
            assert bytes(got_maps[fd].storage) == bytes(ref_maps[fd].storage)


class TestHousekeeping:
    def test_clear(self, cache):
        compile_cached(toy_counter.build(), cache=cache)
        compile_cached(firewall.build(), cache=cache)
        assert cache.clear() == 2
        assert cache.stats()["disk_entries"] == 0
        assert cache.stats()["memory_entries"] == 0

    def test_default_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EHDL_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"
        assert get_default_cache().directory == tmp_path / "override"
        monkeypatch.setenv("EHDL_CACHE_DIR", str(tmp_path / "other"))
        assert get_default_cache().directory == tmp_path / "other"

    def test_atomic_write_leaves_no_temp_files(self, cache):
        compile_cached(toy_counter.build(), cache=cache)
        stray = [p for p in cache.directory.iterdir()
                 if not p.name.endswith(".pipeline.pkl")]
        assert stray == []


class TestConcurrency:
    """Atomic rename-on-write makes the cache safe under concurrent
    readers and writers: a get() racing any number of put()s returns
    either None or a complete, valid Pipeline — never a torn pickle."""

    def test_concurrent_readers_and_writers(self, cache):
        import threading

        prog = toy_counter.build()
        key = cache_key(prog)
        pipeline = compile_program(prog)
        stop = threading.Event()
        failures = []

        def writer():
            while not stop.is_set():
                try:
                    CompileCache(cache.directory).put(key, pipeline)
                except Exception as exc:  # pragma: no cover
                    failures.append(f"writer: {exc!r}")
                    return

        def reader():
            # a private CompileCache per reader: no in-memory LRU hits,
            # every get() really deserialises from disk
            local = CompileCache(cache.directory, memory_entries=0)
            while not stop.is_set():
                try:
                    got = local.get(key)
                except Exception as exc:  # pragma: no cover
                    failures.append(f"reader: {exc!r}")
                    return
                if got is not None and got.n_stages != pipeline.n_stages:
                    failures.append("reader observed a torn pipeline")
                    return

        threads = [threading.Thread(target=writer) for _ in range(3)]
        threads += [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        import time

        time.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert failures == []
        # the entry on disk is whole and loadable afterwards
        final = CompileCache(cache.directory, memory_entries=0).get(key)
        assert final is not None and final.n_stages == pipeline.n_stages

    def test_concurrent_compile_cached_same_program(self, cache):
        from concurrent.futures import ThreadPoolExecutor

        prog = firewall.build()

        def compile_one(_i):
            return compile_cached(prog, cache=CompileCache(cache.directory))

        with ThreadPoolExecutor(max_workers=8) as pool:
            pipelines = list(pool.map(compile_one, range(16)))
        stages = {p.n_stages for p in pipelines}
        assert len(stages) == 1
        # exactly one entry on disk, no stray temp files
        entries = list(cache.directory.glob("*.pipeline.pkl"))
        assert len(entries) == 1
        stray = [p for p in cache.directory.iterdir()
                 if not p.name.endswith(".pipeline.pkl")]
        assert stray == []

    def test_garbage_entry_is_miss_and_unlinked(self, cache):
        prog = toy_counter.build()
        key = cache_key(prog)
        cache.directory.mkdir(parents=True, exist_ok=True)
        path = cache.directory / f"{key}.pipeline.pkl"
        path.write_bytes(b"\x80\x04 definitely not a pipeline")
        fresh = CompileCache(cache.directory, memory_entries=0)
        assert fresh.get(key) is None
        assert not path.exists()
        assert fresh.stats()["misses"] == 1

    def test_wrong_type_pickle_is_miss(self, cache):
        prog = toy_counter.build()
        key = cache_key(prog)
        cache.directory.mkdir(parents=True, exist_ok=True)
        path = cache.directory / f"{key}.pipeline.pkl"
        path.write_bytes(pickle.dumps({"not": "a pipeline"}))
        fresh = CompileCache(cache.directory, memory_entries=0)
        assert fresh.get(key) is None
