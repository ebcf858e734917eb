"""The differential matrix: every case of ``tests/cases.py`` in both
schedule layouts, through every engine pair the repo promises agrees.

A cell is one :func:`run_differential` or :func:`run_three_way` call, so
:func:`compare_runs` is its only judge — actions, packet bytes, egress
ports, map contents and LRU recency against the VM; everything the one
cycle model accounts for between the two pipeline engines. The cells:

* ``interpreted-codegen`` — the two pipeline engines back to back (gap
  1), where flushes, stalls and queue drops happen;
* ``vm-<engine>`` — the VM against each pipeline engine back to back,
  held to the program's consistency verdict, and ``vm-<engine>-spaced``
  with one packet in flight (gap ``n_stages + 2``), where every
  observable compares and nothing flushes;
* ``three-way-<rtl engine>`` — the VM, the default pipeline engine and
  an RTL simulation of the emitted VHDL, both hardware legs spaced.

Back to back, a cell runs the case's whole trace. With one packet in
flight packets run one at a time, so a spaced or ``three-way-rtl`` cell
runs the first :data:`SPACED_PACKETS` frames, and the delta-cycle
interpreter (tens of milliseconds a packet) the case's short fixture
(``cases.SHORT``).

Tests in other files that stand for one cell under the name they have
long had (an app's parity, its three-way agreement) run it through
:func:`check_cell`, in the default ``path_parallel`` layout. A cell is
deterministic, so a pass is remembered for the process: a second test of
the same cell does not run it again, and a failing cell runs (and fails)
under every name.

All legs run at the frozen helper clock. On a pipeline-pair mismatch
the generated source is dumped to ``codegen-debug/`` for the CI
artifact upload.
"""

import functools

import pytest

from repro.core.compiler import compile_program
from repro.core.labeling import Region
from repro.hwsim import FROZEN_CLOCK_MHZ, SimOptions, run_differential
from repro.hwsim.codegen import write_debug_source
from repro.hwsim.engines import pipeline_engine_names
from repro.rtl import RTL_ENGINES, run_three_way
from tests.cases import CASES, LAYOUTS, SHORT

SPACED_PACKETS = 60
CELLS = (["interpreted-codegen"]
         + [f"vm-{e}{spaced}" for e in pipeline_engine_names()
            for spaced in ("", "-spaced")]
         + [f"three-way-{e}" for e in RTL_ENGINES])
_FROZEN = SimOptions(clock_mhz=FROZEN_CLOCK_MHZ)
# Cases that load from ctx past the entry block (whose ctx loads are
# entry ops): two ctx loads in a stage each, on every engine.
CTX_IN_A_STAGE = {"nat64", "tunnel", "vxlan_term"}


def ctx_stage_ops(pipeline):
    return sum(1 for stage in pipeline.stages for op in stage.ops
               if op.label is not None and op.label.region is Region.CTX)


@functools.lru_cache(maxsize=None)
def compiled(case, layout):
    program = CASES[case].build()
    return program, compile_program(program, LAYOUTS[layout])


def run_cell(case, layout, cell):
    """The :class:`DiffResult` of one cell."""
    _build, setup, frames, _flushes = CASES[case]
    program, pipeline = compiled(case, layout)
    if cell.startswith("three-way-"):
        engine = cell[len("three-way-"):]
        count = SPACED_PACKETS if engine == "rtl" else SHORT
        return run_three_way(program, frames[:count], pipeline=pipeline,
                             setup=setup, rtl_engine=engine)
    if cell == "interpreted-codegen":
        engines, gap = ("interpreted", "codegen"), 1
    else:
        engines, gap = ("vm", cell.split("-")[1]), 1
    if cell.endswith("-spaced"):
        frames, gap = frames[:SPACED_PACKETS], pipeline.n_stages + 2
    return run_differential(program, frames, pipeline=pipeline,
                            sim_options=_FROZEN, gap=gap, setup=setup,
                            engines=engines)


@functools.lru_cache(maxsize=None)
def check_cell(case, layout, cell):
    """Run one cell and hold it to :func:`compare_runs` and to the
    case's flush claim (a raise is not cached: only a pass is kept)."""
    if case in CTX_IN_A_STAGE:
        assert ctx_stage_ops(compiled(case, layout)[1]) == 2
    result = run_cell(case, layout, cell)
    if not result.ok and cell == "interpreted-codegen":
        path = write_debug_source(compiled(case, layout)[1], "codegen-debug")
        result.mismatches.append(f"generated source dumped to {path}")
    result.raise_on_mismatch()
    flushes = result.hw_report.flush_events
    if cell.endswith("-spaced") or cell.startswith("three-way-"):
        assert flushes == 0  # one packet in flight: nothing to flush
    elif CASES[case].flushes is not None:
        assert (flushes > 0) == CASES[case].flushes, flushes
    if cell.startswith("three-way-"):
        assert result.rtl_report is not None


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_cell(case, layout, cell):
    check_cell(case, layout, cell)
