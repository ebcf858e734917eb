"""Persistent compile cache.

Compiling a program runs the whole analysis stack — verifier, labeling,
CFG/DDG construction, scheduling, hazard planning — which dominates
start-up time for repeated experiment runs over the same applications
(sweeps, benchmarks, CI). The resulting :class:`~repro.core.pipeline.Pipeline`
is a pure function of the bytecode, the map definitions and the compile
options, so it can be memoised on disk: the cache key is a SHA-256 over
exactly those inputs plus a format version, and the value is the pickled
pipeline, generated execution source included.

Layout: one ``<digest>.pipeline.pkl`` file per entry under
``$EHDL_CACHE_DIR`` (default ``~/.cache/ehdl-repro``). Writes go through
a temp file plus :func:`os.replace`, so a crashed run never leaves a
torn pickle behind; a corrupt or unreadable entry is treated as a miss
and deleted. A small in-process LRU fronts the disk so repeated
compiles inside one process skip even the unpickling.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..ebpf.isa import Program
from .pipeline import Pipeline

# Bump when the Pipeline IR or the compiler's observable output changes
# in a way that makes old pickles stale.
# v3: Pipeline carries codegen_source/codegen_version (hwsim.codegen).
# v5: Stage drops its ``kernel`` field and pickling carve-out.
# v6: the verifier closes the op set — an entry an older checkout wrote
#     for a program it now rejects (``le128``) must not be served. Bump
#     this together with ``hwsim.codegen.CODEGEN_VERSION``: the key
#     carries both, and a checkout that moved only one of them shares
#     neither's guarantees.
# v7: with CODEGEN_VERSION 7 (one access rendering in the cycle loop).
# v8: the path-parallel layout is the default and ``Stage`` drops its
#     ``block_id``; the emitted text formats, and so CODEGEN_VERSION,
#     are unchanged.
# v9: accesses to one LRU map are placed by its window, not by block
#     order (ct_firewall 23 -> 20 stages); formats unchanged.
# v10: each MapHazardPlan carries its consistency class (and its load /
#     store stages), the Pipeline its consistency verdict.
# v11: a windowed MapHazardPlan carries its holder blocks, with
#     CODEGEN_VERSION 8 (path-gated window timing in ``_stream``).
# v12: speculation hoists branch arms' setup on the path-parallel layout
#     (the Pipeline counts it in ``speculated``), and exclusive atomics on
#     one map share a stage (ct_firewall 20 -> 18 stages).
# v13: map specs carry ``banks`` (in the key), and a MapHazardPlan its
#     window's bank key, with CODEGEN_VERSION 9 (per-bank window timing
#     in ``_stream``).
# v14: a plain hash map whose flush blocks would fire gets a keyed window
#     on the path-parallel layout (leaky_bucket streams), with
#     CODEGEN_VERSION 10 (per-key window timing, the clock ahead of the
#     window in ``_stream``).
# v15: with CODEGEN_VERSION 11 (no generated whole-cycle advance or
#     observer: the simulator's one loop runs the stage bodies).
# v16: a keyed window's MapHazardPlan carries its same-key forwarding,
#     with CODEGEN_VERSION 13 (per-arm forward distance in ``_stream``).
# v17: every window whose accesses all touch its own map carries a
#     Forwarding with its per-arm release, with CODEGEN_VERSION 14.
# v18: Forwarding is its release and arms alone, each test of the release
#     carrying its branch; formats unchanged.
# v19: a MapHazardPlan holds its map's access table, its stage lists
#     views of it; two plain atomic adds commute in a window's release.
_CACHE_VERSION = 19

CACHE_ENV = "EHDL_CACHE_DIR"
_MEMORY_ENTRIES = 32


def default_cache_dir() -> Path:
    """``$EHDL_CACHE_DIR`` if set, else ``~/.cache/ehdl-repro``."""
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "ehdl-repro"


def cache_key(program: Program, options=None) -> str:
    """Content hash of everything the compiler's output depends on."""
    from .compiler import CompileOptions  # local: avoid import cycle

    from ..hwsim.codegen import CODEGEN_VERSION  # local: avoid import cycle

    options = options or CompileOptions()
    hasher = hashlib.sha256()
    hasher.update(f"ehdl-cache-v{_CACHE_VERSION}".encode())
    # The pickled pipeline carries its generated execution source; an
    # emitter bump makes that text stale, so it invalidates the entry —
    # otherwise every "hit" would pay a re-emission (and trip the
    # ehdl_codegen_recompile_total counter).
    hasher.update(f"codegen-v{CODEGEN_VERSION}".encode())
    hasher.update(program.name.encode())
    hasher.update(program.encode())
    for fd in sorted(program.maps):
        spec = program.maps[fd]
        hasher.update(
            f"map:{fd}:{spec.name}:{spec.map_type}:{spec.key_size}:"
            f"{spec.value_size}:{spec.max_entries}:{spec.flags}:"
            f"{spec.banks}".encode()
        )
    for field in sorted(dataclasses.fields(options), key=lambda f: f.name):
        hasher.update(f"opt:{field.name}={getattr(options, field.name)!r}".encode())
    return hasher.hexdigest()


class CompileCache:
    """Disk + in-process LRU cache of compiled pipelines."""

    def __init__(
        self,
        directory: Optional[Path] = None,
        memory_entries: int = _MEMORY_ENTRIES,
    ) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.memory_entries = memory_entries
        self._memory: "OrderedDict[str, Pipeline]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- plumbing ----------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pipeline.pkl"

    def _remember(self, key: str, pipeline: Pipeline) -> None:
        self._memory[key] = pipeline
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    # -- cache protocol ----------------------------------------------------------

    def get(self, key: str) -> Optional[Pipeline]:
        """Look up a pipeline; counts a hit or a miss."""
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            return cached
        path = self._path(key)
        try:
            blob = path.read_bytes()
            pipeline = pickle.loads(blob)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # torn/stale entry: drop it and recompile
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        if not isinstance(pipeline, Pipeline):
            self.misses += 1
            return None
        self._remember(key, pipeline)
        self.hits += 1
        return pipeline

    def put(self, key: str, pipeline: Pipeline) -> None:
        """Store a pipeline (atomic rename, never a partial file)."""
        self._remember(key, pipeline)
        self.directory.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps(pipeline, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    # -- side artifacts ----------------------------------------------------------

    def _artifact_path(self, digest: str, kind: str) -> Path:
        return self.directory / f"{digest}.{kind}.py"

    def get_artifact(self, digest: str, kind: str) -> Optional[str]:
        """Fetch a generated-text side artifact (e.g. the compiled RTL
        schedule source) keyed by content digest, or None on a miss."""
        try:
            return self._artifact_path(digest, kind).read_text(
                encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            return None

    def put_artifact(self, digest: str, kind: str, text: str) -> None:
        """Persist a generated-text side artifact (atomic rename, same
        torn-write guarantees as pipeline entries)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".py"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, self._artifact_path(digest, kind))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    def clear(self) -> int:
        """Delete every on-disk entry; returns how many were removed."""
        self._memory.clear()
        removed = 0
        if self.directory.is_dir():
            for pattern in ("*.pipeline.pkl", "*.*.py"):
                for path in self.directory.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed

    def stats(self) -> Dict[str, int]:
        entries = 0
        if self.directory.is_dir():
            entries = sum(1 for _ in self.directory.glob("*.pipeline.pkl"))
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "disk_entries": entries,
            "memory_entries": len(self._memory),
        }


_default_cache: Optional[CompileCache] = None


def get_default_cache() -> CompileCache:
    """Process-wide cache rooted at :func:`default_cache_dir`.

    Re-created when ``$EHDL_CACHE_DIR`` changes, so tests pointing the
    variable at a temp directory see a fresh cache.
    """
    global _default_cache
    wanted = default_cache_dir()
    if _default_cache is None or _default_cache.directory != wanted:
        _default_cache = CompileCache(wanted)
    return _default_cache


def warm_cache(
    programs: Sequence[Program],
    options=None,
    cache: Optional[CompileCache] = None,
) -> List[Pipeline]:
    """Compile ``programs`` into the cache and return their pipelines
    in order. Already-cached programs are not recompiled; a compile
    failure is re-raised naming the offending program.
    """
    pipelines = []
    for program in programs:
        try:
            pipelines.append(compile_cached(program, options, cache=cache))
        except Exception as exc:
            raise RuntimeError(
                f"cache warm-up failed for {program.name!r}: {exc}"
            ) from exc
    return pipelines


def compile_cached(
    program: Program,
    options=None,
    cache: Optional[CompileCache] = None,
) -> Pipeline:
    """:func:`~repro.core.compiler.compile_program` behind the cache.

    On a hit the analysis passes do not run at all. The compiler is
    looked up through its module at call time so test monkeypatching of
    ``repro.core.compiler.compile_program`` is honoured.
    """
    from . import compiler

    if cache is None:
        cache = get_default_cache()
    key = cache_key(program, options)
    pipeline = cache.get(key)
    if pipeline is not None:
        return pipeline
    pipeline = compiler.compile_program(program, options)
    cache.put(key, pipeline)
    return pipeline
