"""Analytical model of throughput degradation due to flushing (Appendix A.1).

Implements the paper's equations:

* uniform flows — the birthday-paradox approximation (Eq. 1)::

      P_f^u = 1 - exp(-L^2 / 2N)

* Zipfian flows — P_i = 1/(i ln N); the flushing probability caused by
  flow *i* is the probability of at least two occurrences of *i* in L
  trials::

      P_f^Z(i) ≈ (L(L-1)/2) · P_i^2 · (1 - P_i)^(L-2)
      P_f^Z    = Σ_i P_f^Z(i)

* pipeline throughput under flushing (Eq. 2), with T = 250 Mpps the
  theoretical 1-packet-per-cycle rate::

      T_p = T / ((1 - P_f) + K·P_f)

* the maximum number of flushable stages sustaining a target rate (Eq. 3)::

      K_max = (T/T_p - (1 - P_f)) / P_f

These reproduce Tables 3 and 4. ``K`` carries the 4-cycle reload overhead
the appendix charges ("K has an additional overhead of 4 clock cycles").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..core.hazards import live_flush_blocks
from ..core.pipeline import Pipeline

THEORETICAL_MPPS = 250.0  # one packet per cycle at 250 MHz
LINE_RATE_MPPS = 148.8  # 100 Gbps of minimum-size frames
#: why a pipeline with flush blocks has no flush analysis
WINDOWED = "window, no live flush block"


def uniform_flush_probability(L: int, n_flows: int) -> float:
    """Eq. 1: birthday-paradox flush probability under uniform flows."""
    if L <= 1 or n_flows <= 0:
        return 0.0
    return 1.0 - math.exp(-(L * L) / (2.0 * n_flows))


def zipf_flow_probability(i: int, n_flows: int) -> float:
    """P_i = 1 / (i · ln N) — the paper's normalised Zipf frequency."""
    return 1.0 / (i * math.log(n_flows))


def zipf_flush_probability(L: int, n_flows: int, max_terms: Optional[int] = None) -> float:
    """Flush probability under the Zipfian distribution of Appendix A.1.

    The sum converges quickly (P_i^2 decays as 1/i^2); ``max_terms``
    bounds the summation for very large flow counts.
    """
    if L <= 1 or n_flows <= 1:
        return 0.0
    terms = n_flows if max_terms is None else min(n_flows, max_terms)
    pairs = L * (L - 1) / 2.0
    total = 0.0
    for i in range(1, terms + 1):
        p = zipf_flow_probability(i, n_flows)
        if p >= 1.0:
            p = 1.0 - 1e-12
        total += pairs * p * p * (1.0 - p) ** (L - 2)
    return min(total, 1.0)


def pipeline_throughput(
    K: float, p_flush: float, theoretical_mpps: float = THEORETICAL_MPPS
) -> float:
    """Eq. 2: sustained throughput with K stages flushed at probability p."""
    if p_flush <= 0.0:
        return theoretical_mpps
    return theoretical_mpps / ((1.0 - p_flush) + K * p_flush)


def k_max(
    p_flush: float,
    target_mpps: float = LINE_RATE_MPPS,
    theoretical_mpps: float = THEORETICAL_MPPS,
) -> float:
    """Eq. 3: the largest flushable-stage count sustaining ``target_mpps``."""
    if p_flush <= 0.0:
        return math.inf
    return (theoretical_mpps / target_mpps - (1.0 - p_flush)) / p_flush


@dataclass
class FlushAnalysis:
    """The (K, L, T_p) row of Table 3 for one compiled pipeline."""

    program_name: str
    K: Optional[int]  # stages flushed (incl. reload overhead); None = no hazard
    L: Optional[int]  # read-to-write hazard window
    n_flows: int
    p_flush: Optional[float]
    throughput_mpps: Optional[float]
    # N/A with flush blocks planned: each sits in a serialization window,
    # where one packet at a time never fires it
    windowed: bool = False

    @property
    def applicable(self) -> bool:
        return self.K is not None

    def row(self) -> str:
        if not self.applicable:
            return (f"{self.program_name:16s} N/A    N/A    N/A"
                    + (f" ({WINDOWED})" if self.windowed else ""))
        return (
            f"{self.program_name:16s} K={self.K:<4d} L={self.L:<3d} "
            f"Tp={self.throughput_mpps:6.0f} Mpps (P_f={self.p_flush:.4f})"
        )


def analyze_pipeline(
    pipeline: Pipeline,
    n_flows: int = 50_000,
    distribution: str = "zipf",
) -> FlushAnalysis:
    """Table 3 analysis of one pipeline: derive (K, L) from its flush
    blocks, then apply the analytical model at ``n_flows`` flows.

    Follows the appendix's convention: the dominant hazard is the one
    with the largest window L; K is its flush block's (``FlushBlock.K``:
    the pipeline prefix the cycle loop squashes behind the writer plus
    the reload overhead). Only flush blocks that can fire count: one
    inside a serialization window never does.
    """
    blocks = live_flush_blocks(pipeline.map_hazards)
    if not blocks:
        windowed = any(plan.flush_blocks
                       for plan in pipeline.map_hazards.values())
        return FlushAnalysis(pipeline.name, None, None, n_flows, None, None,
                             windowed)
    worst = max(blocks, key=lambda fb: fb.L)
    L, K = worst.L, worst.K()
    if distribution == "zipf":
        p = zipf_flush_probability(L, n_flows)
    elif distribution == "uniform":
        p = uniform_flush_probability(L, n_flows)
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    return FlushAnalysis(
        pipeline.name, K, L, n_flows, p, pipeline_throughput(K, p)
    )


def table4(
    L_values=(2, 3, 4, 5),
    n_flows: int = 50_000,
    target_mpps: float = LINE_RATE_MPPS,
) -> List[dict]:
    """Reproduce Table 4: P_f^Z and K_max per hazard window length."""
    rows = []
    for L in L_values:
        p = zipf_flush_probability(L, n_flows)
        rows.append({"L": L, "p_flush": p, "k_max": k_max(p, target_mpps)})
    return rows
