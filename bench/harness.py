"""Timing, tracing and hermeticity primitives for the repo benchmark.

Nothing here knows about a particular workload (see ``cases.py``) and
nothing here touches ``src/``: layers are measured from outside, by
timing calls into their public functions.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

now = time.perf_counter


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def import_repro() -> None:
    """Put this checkout's ``src/`` first on ``sys.path`` and refuse to
    run against any other copy of ``repro`` (an installed one, a stale
    PYTHONPATH): the numbers must describe this tree."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no src/repro under {ROOT}; nothing to measure")
    sys.path.insert(0, str(src))
    import repro

    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        sys.exit(f"bench: repro imports from {origin}, not from {src}")


@contextmanager
def scratch_dir():
    """A private directory inside the checkout (the benchmark may write
    nowhere else), removed on exit. ``EHDL_CACHE_DIR`` points at it so
    the persistent compile cache starts empty in every process."""
    path = OUT_DIR / f"tmp-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    os.environ["EHDL_CACHE_DIR"] = str(path / "cache")
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def fingerprint() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit or "unknown",
    }


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux; RUSAGE_SELF leaves the set-up children out
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# What ``calibrate`` takes on the reference host: normalised figures read
# as if the whole run had been made at that speed.
CALIBRATION_REF_S = 0.0175


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The sandbox's CPU speed shifts by half for seconds at a time (a
    shared host), which moves every host-time figure by far more than
    any bound could allow. The loop below has nothing to do with the
    repo, so timing it next to each sample says how fast the host was
    at that moment; ``host_speed`` turns two such timings into the
    factor a host-time sample is scaled by.
    """
    start = now()
    total = 0
    table = {}
    buf = bytearray(64)
    for i in range(150_000):
        total += i * i
        table[i & 255] = total
        buf[i & 63] = i & 255
    return now() - start


def host_speed(before: float, after: float) -> float:
    """Reference-host seconds per second of this host, between two
    ``calibrate`` timings (1.0 = the reference host, <1 = slower)."""
    return CALIBRATION_REF_S / ((before + after) / 2)


def repeat_for(seconds: float, fn, min_reps: int = 3) -> list:
    """Call ``fn`` back to back (closed loop) until ``seconds`` have
    passed and at least ``min_reps`` results exist; a full collection
    runs between calls so one repetition's garbage is never charged to
    the next."""
    results = []
    deadline = now() + seconds
    while len(results) < min_reps or now() < deadline:
        gc.collect()
        results.append(fn())
    return results


@contextmanager
def null_span(name: str):
    """What repetitions get instead of ``Tracer.span`` in untraced runs."""
    yield


class Tracer:
    """Bench-side spans, kept in memory and written out at exit.

    A span is (name, start, end, parent, thread); the parent is the
    innermost span open on the same thread, so a layer's self time is
    its duration minus its children's.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans = []
        self._open = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        record = {
            "name": name,
            "parent": stack[-1] if stack else None,
            "tid": threading.get_ident(),
            "start": time.perf_counter_ns(),
            "end": None,
        }
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter_ns()
            stack.pop()

    def _root(self, index: int) -> int:
        while self.spans[index]["parent"] is not None:
            index = self.spans[index]["parent"]
        return index

    def per_root(self, name: str, root_name: str) -> list:
        """Seconds spent in spans called ``name``, summed per enclosing
        top-level span called ``root_name`` (one entry per repetition)."""
        sums = {}
        for index, span in enumerate(self.spans):
            root = self._root(index)
            if self.spans[root]["name"] != root_name:
                continue
            sums.setdefault(root, 0)
            if span["name"] == name:
                sums[root] += span["end"] - span["start"]
        return [ns / 1e9 for ns in sums.values()]

    def self_ns(self) -> list:
        """Each span's duration minus the time its children cover."""
        out = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                out[span["parent"]] -= span["end"] - span["start"]
        return out

    def write(self, path: Path) -> None:
        """Chrome ``trace_event`` JSON (load in chrome://tracing)."""
        origin = min((s["start"] for s in self.spans), default=0)
        events = [
            {
                "name": span["name"], "ph": "X", "pid": 0,
                "tid": span["tid"],
                "ts": (span["start"] - origin) / 1e3,
                "dur": (span["end"] - span["start"]) / 1e3,
                "args": {"workload": self.workload, "id": index,
                         "parent": span["parent"],
                         "self_us": self_ns / 1e3},
            }
            for index, (span, self_ns)
            in enumerate(zip(self.spans, self.self_ns()))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
