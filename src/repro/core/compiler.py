"""The eHDL compiler: eBPF bytecode in, hardware pipeline out.

Orchestrates every pass in the order the paper describes (§3, §4):

1. verify the input program (kernel-verifier-style checks),
2. bytecode transforms: bounds-check elision + dead-code elimination,
3. program analysis: memory-region labeling (with, on the path-parallel
   layout, speculation of branch arms' setup above their branch), CFG,
   data-dependency graph,
4. parallelization with instruction fusion (the schedule),
5. stage assembly with helper-latency stages,
6. packet framing (NOP insertion, bypass planning),
7. map hazard planning (WAR buffers, flush blocks, atomics) and each
   map's consistency class, with the program's verdict,
8. state pruning (per-stage live registers/stack).

The result — a :class:`~repro.core.pipeline.Pipeline` — can be simulated
(:mod:`repro.hwsim`), rendered to VHDL (:mod:`repro.core.vhdl`) or costed
(:mod:`repro.core.resources`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Set

from ..ebpf.isa import Program
from ..ebpf.verifier import VerifierError, verify
from ..telemetry import get_registry
from .cfg import build_cfg
from .ddg import build_ddg
from .framing import DEFAULT_FRAME_SIZE, apply_framing
from .hazards import plan_hazards, program_consistency
from .labeling import Region, label_program
from .pipeline import PipeOp, Pipeline, assemble_stages
from .pruning import apply_pruning
from .loops import unroll_loops
from .scheduler import schedule_program
from .transform import dead_code_elimination, elide_bounds_checks, speculate


@dataclass
class CompileOptions:
    """Compiler knobs; defaults match the paper's evaluated configuration.

    The ablation benchmarks flip individual flags: ``enable_pruning=False``
    reproduces §5.4, ``enable_ilp=False`` measures the schedule-depth win,
    ``frame_size`` sweeps the framing trade-off. ``path_parallel=False``
    is the paper's §3.3 layout (one basic block per stage, blocks
    concatenated), which the paper-table benchmarks compile under; the
    default lets mutually exclusive blocks share stages.
    ``max_row_width=2`` is the hXDP baseline's 2-lane VLIW bundle. Fixed
    by the paper, not knobs: loop unrolling, dead-code elimination, ctx
    loads as entry ops, ``scheduler.MAX_FUSE_CHAIN`` and
    ``framing.DEFAULT_DYNAMIC_ACCESS_DEPTH``.
    """

    frame_size: int = DEFAULT_FRAME_SIZE
    enable_ilp: bool = True
    enable_fusion: bool = True
    enable_pruning: bool = True
    elide_bounds_checks: bool = True
    max_row_width: Optional[int] = None
    path_parallel: bool = True


class CompileError(ValueError):
    """Raised when a program cannot be compiled to a pipeline."""


@contextmanager
def _pass_span(name: str, **args):
    """Trace one compiler pass (span + per-pass run/time counters).

    A no-op when telemetry is disabled: the enabled check is the only
    work added to the compile path.
    """
    reg = get_registry()
    if not reg.enabled:
        yield
        return
    with reg.span(f"compile.{name}", cat="compile", **args) as span:
        yield
    labels = {"pass": name}
    reg.counter(
        "ehdl_compile_pass_runs_total", "Compiler pass executions", labels
    ).inc()
    reg.counter(
        "ehdl_compile_pass_ns_total",
        "Cumulative wall time per compiler pass", labels,
    ).inc(span.dur_ns)


def compile_program(
    program: Program, options: Optional[CompileOptions] = None
) -> Pipeline:
    """Compile an eBPF/XDP program into a hardware pipeline."""
    options = options or CompileOptions()
    original = program
    n_input_insns = len(program.instructions)

    # 0. Bounded loops are unrolled so the pipeline is strictly forward
    # feeding (§2.2, §3.5); unbounded loops raise LoopError here.
    with _pass_span("unroll_loops", program=program.name):
        program, loop_report = unroll_loops(program)

    # 1. The input must be a valid (DAG-shaped) eBPF program.
    with _pass_span("verify", program=program.name):
        vres = verify(program)

    # 2. Bytecode transforms.
    elided = 0
    entry_checks = ()
    if options.elide_bounds_checks:
        with _pass_span("elide_bounds_checks", program=program.name):
            program, report = elide_bounds_checks(program, vres)
            elided = len(report.elided_branches)
            entry_checks = tuple(
                (check.min_len, check.action) for check in report.entry_checks
            )
    with _pass_span("dead_code_elimination", program=program.name):
        program, dce_removed = dead_code_elimination(program)

    # 3. Analysis.
    with _pass_span("reverify", program=program.name):
        vres = verify(program)
    speculated = (0, 0)
    with _pass_span("labeling", program=program.name):
        labels = label_program(program, vres)
        # Speculation above branches belongs to the path-parallel layout
        # (the scheduler's own condition); its time counts as labeling's.
        # The re-verify is its safety net: a rewrite the verifier rejects
        # is dropped, and the program compiles as it was.
        if options.path_parallel and options.enable_ilp:
            rewritten, moved, renamed = speculate(program, labels, options)
            try:
                rewritten_vres = verify(rewritten) if moved else None
            except VerifierError:
                rewritten_vres = None
            if rewritten_vres is not None:
                program, vres = rewritten, rewritten_vres
                labels = label_program(program, vres)
                speculated = (moved, renamed)
    with _pass_span("cfg", program=program.name):
        cfg = build_cfg(program)
    with _pass_span("ddg", program=program.name):
        ddg = build_ddg(cfg, labels)

    # Ctx loads in the entry block become "entry ops": the hardware wires
    # packet pointers/metadata directly into the first stage, so they cost
    # no stage (Figure 8 omits Listing 2's instructions 0-1).
    entry_op_indices: Set[int] = set()
    for i in cfg.entry.indices():
        label = labels.label_for(i)
        insn = program.instructions[i]
        if insn.is_mem_load and label is not None and label.region is Region.CTX:
            entry_op_indices.add(i)

    # 4. Parallel schedule.
    with _pass_span("schedule", program=program.name):
        schedule = schedule_program(
            cfg, ddg, labels, options, entry_op_indices
        )

    # 5. Stage assembly.
    with _pass_span("assemble_stages", program=program.name):
        stages = assemble_stages(program, cfg, labels, schedule)

    # 6. Packet framing.
    with _pass_span("framing", program=program.name):
        apply_framing(stages, options.frame_size)

    # 7. Map hazard machinery. Keyed windows belong to the path-parallel
    # layout (the scheduler's own condition); §3.3's keeps its flushes.
    with _pass_span("hazards", program=program.name):
        map_hazards = plan_hazards(
            stages, program, cfg, labels,
            keyed_windows=options.path_parallel and options.enable_ilp)
        consistency = program_consistency(stages, program, cfg, labels,
                                          map_hazards)

    entry_ops = [
        PipeOp(
            insn_index=i,
            insn=program.instructions[i],
            block_id=cfg.entry.block_id,
            label=labels.label_for(i),
            call=labels.call_for(i),
        )
        for i in sorted(entry_op_indices)
    ]

    # 8. State pruning.
    with _pass_span("pruning", program=program.name):
        apply_pruning(
            stages,
            enabled=options.enable_pruning,
            program=program,
            labels=labels,
            entry_ops=entry_ops,
        )

    reg = get_registry()
    if reg.enabled:
        size_labels = {"program": program.name}
        reg.gauge(
            "ehdl_compile_instructions_in",
            "Instructions in the input program", size_labels,
        ).set(n_input_insns)
        reg.gauge(
            "ehdl_compile_instructions_scheduled",
            "Instructions after transforms, as scheduled", size_labels,
        ).set(len(program.instructions))
        reg.gauge(
            "ehdl_compile_stages",
            "Pipeline depth of the compiled program", size_labels,
        ).set(len(stages))

    pipeline = Pipeline(
        program=program,
        original_program=original,
        cfg=cfg,
        labels=labels,
        ddg=ddg,
        schedule=schedule,
        stages=stages,
        entry_ops=entry_ops,
        map_hazards=map_hazards,
        frame_size=options.frame_size,
        name=program.name,
        consistency=consistency,
        elided_bounds_checks=elided,
        dce_removed=dce_removed,
        speculated=speculated,
        entry_checks=entry_checks,
        loops_unrolled=loop_report.loops_unrolled,
    )

    # 9. Codegen-engine source. Attached at compile time — rather than
    # lazily at first codegen run — so the compile cache pickles it with
    # the pipeline and cache hits never regenerate.
    with _pass_span("codegen", program=program.name):
        from ..hwsim.codegen import attach_source

        attach_source(pipeline)

    return pipeline

