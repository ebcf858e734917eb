"""Cycle-level simulation of eHDL-generated pipelines + NIC shell model."""

from .codegen import (
    CODEGEN_VERSION,
    ensure_source,
    generate_pipeline_source,
    load_pipeline_module,
)
from .engines import (
    ENGINES,
    FROZEN_CLOCK_MHZ,
    DiffResult,
    EngineRun,
    EngineSpec,
    Mismatch,
    compare_runs,
    engine_names,
    engine_run,
    exempt_observables,
    get_engine,
    pipeline_engine_names,
    run_differential,
    run_engine,
)
from .multi import MultiProgramNic, SlotResult, ethertype_classifier
from .shell import NicSystem
from .sim import PipelineSimulator, SimError, SimOptions
from .stats import PacketRecord, SimMetrics, SimReport, publish_report
from .trace import CycleSnapshot, OccupancyTracer, render_occupancy

__all__ = [
    "CODEGEN_VERSION",
    "DiffResult",
    "ENGINES",
    "EngineRun",
    "EngineSpec",
    "FROZEN_CLOCK_MHZ",
    "compare_runs",
    "engine_names",
    "engine_run",
    "ensure_source",
    "exempt_observables",
    "generate_pipeline_source",
    "get_engine",
    "load_pipeline_module",
    "pipeline_engine_names",
    "run_engine",
    "Mismatch",
    "MultiProgramNic",
    "NicSystem",
    "PacketRecord",
    "PipelineSimulator",
    "SimError",
    "SimMetrics",
    "SimOptions",
    "SimReport",
    "SlotResult",
    "ethertype_classifier",
    "publish_report",
    "CycleSnapshot",
    "OccupancyTracer",
    "render_occupancy",
    "run_differential",
]
