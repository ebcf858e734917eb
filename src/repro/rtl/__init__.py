"""RTL verification subsystem: parse, elaborate and simulate the VHDL
emitted by :mod:`repro.core.vhdl`.

The paper's shipped artifact is the generated VHDL pipeline; this package
closes the loop by *executing* it. The pipeline entities are parsed and
elaborated into a netlist of combinational assignments and clocked
processes, behavioural blocks (map blocks, helper blocks, the async
FIFOs, the ``ehdl_pkg`` functions) are bound to simulation primitives
backed by the same :class:`repro.ebpf.maps.MapSet` and helper
implementations the VM uses, and a two-phase clock-stepped simulator
drives the top level with real frames. The result is two more engines
(``rtl``, ``rtl-interp``) in :mod:`repro.hwsim.engines`, the repo's one
differential oracle; :func:`run_three_way`, re-exported here, is its
vm / pipeline-simulator / RTL composition.
"""

from .errors import (RtlError, RtlParseError, RtlElabError, RtlSimError,
                     RtlCodegenError)
from .parser import parse_vhdl
from .elab import elaborate
from .codegen import RTL_CODEGEN_VERSION, generate_rtl_source
from .sim import (RTL_ENGINES, CompiledRtlSimulator, RtlSimulator,
                  RtlRunner, dump_schedule_source, load_design)
from ..hwsim.engines import run_three_way

__all__ = [
    "RtlError",
    "RtlParseError",
    "RtlElabError",
    "RtlSimError",
    "RtlCodegenError",
    "RTL_CODEGEN_VERSION",
    "RTL_ENGINES",
    "parse_vhdl",
    "elaborate",
    "generate_rtl_source",
    "CompiledRtlSimulator",
    "RtlSimulator",
    "RtlRunner",
    "load_design",
    "dump_schedule_source",
    "run_three_way",
]
