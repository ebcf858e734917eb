"""The eHDL compiler core: analysis passes, scheduler, pipeline IR, backends."""

from .cache import (
    CompileCache,
    cache_key,
    compile_cached,
    default_cache_dir,
    get_default_cache,
    warm_cache,
)
from .cfg import BasicBlock, Cfg, CfgError, build_cfg
from .compiler import CompileError, CompileOptions, compile_program
from .ddg import Ddg, build_ddg, critical_path_length
from .framing import FramingReport, apply_framing
from .hazards import hazard_summary, plan_hazards
from .labeling import CallInfo, LabelError, MemLabel, ProgramLabels, Region, label_program
from .loops import LoopError, UnrollReport, unroll_loops
from .pipeline import (
    FlushBlock,
    MapHazardPlan,
    PipeOp,
    Pipeline,
    Stage,
    StageKind,
)
from .pruning import PruningReport, apply_pruning
from .scheduler import Schedule, ScheduleRow, schedule_program
from .transform import (
    ElisionReport,
    TransformError,
    dead_code_elimination,
    delete_instructions,
    elide_bounds_checks,
    rewrite_program,
)

__all__ = [
    "BasicBlock",
    "CallInfo",
    "Cfg",
    "CfgError",
    "CompileCache",
    "CompileError",
    "CompileOptions",
    "Ddg",
    "ElisionReport",
    "FlushBlock",
    "FramingReport",
    "LabelError",
    "LoopError",
    "MapHazardPlan",
    "MemLabel",
    "PipeOp",
    "Pipeline",
    "ProgramLabels",
    "PruningReport",
    "Region",
    "Schedule",
    "ScheduleRow",
    "Stage",
    "StageKind",
    "TransformError",
    "UnrollReport",
    "apply_framing",
    "apply_pruning",
    "build_cfg",
    "build_ddg",
    "cache_key",
    "compile_cached",
    "compile_program",
    "critical_path_length",
    "default_cache_dir",
    "get_default_cache",
    "dead_code_elimination",
    "delete_instructions",
    "elide_bounds_checks",
    "hazard_summary",
    "label_program",
    "plan_hazards",
    "rewrite_program",
    "schedule_program",
    "unroll_loops",
    "warm_cache",
]
