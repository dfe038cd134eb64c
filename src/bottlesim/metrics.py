"""Reported statistics: daily group means, window averages, gaps, ratios.

A simulation produces one record per day.  The statistics of interest
are arithmetic means of per-day quantities over two windows of the
run's phases: the baseline window (phase 2, before the fleet is
introduced) and the evaluation window (phase 4, at the end of the run).
Group statistics over an empty group (no fleet, or no surviving human
drivers) are reported as absent (None), never as zero, and absence
propagates through window averages and ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .fleet import STRATEGY_TABLE, fleet_optimize
from .network import TwoRouteNetwork

if TYPE_CHECKING:
    from .engine import SimulationLog

# Two-tailed critical values of Student's t at p = 0.001.  Degrees of
# freedom above 30 conservatively reuse the df = 30 entry.
T_CRITICAL_TWO_TAILED_001: dict[int, float] = {
    1: 636.619, 2: 31.599, 3: 12.924, 4: 8.610, 5: 6.869,
    6: 5.959, 7: 5.408, 8: 5.041, 9: 4.781, 10: 4.587,
    11: 4.437, 12: 4.318, 13: 4.221, 14: 4.140, 15: 4.073,
    16: 4.015, 17: 3.965, 18: 3.922, 19: 3.883, 20: 3.850,
    21: 3.819, 22: 3.792, 23: 3.768, 24: 3.745, 25: 3.725,
    26: 3.707, 27: 3.690, 28: 3.674, 29: 3.659, 30: 3.646,
}


@dataclass(frozen=True)
class WindowAverages:
    """Window-averaged statistics of one scenario run.

    ``tau_b``/``tau`` are mean human travel times over the baseline and
    evaluation windows; ``u_b``/``u`` the corresponding mean perceived
    times over the drivers that stay human for the whole run; ``rho``
    the mean fleet travel time over the evaluation window.  Fractions
    and gaps refer to the evaluation window.  None marks a statistic
    whose group was empty on some day of its window.
    """

    tau_b: float | None
    tau: float | None
    u_b: float | None
    u: float | None
    rho: float | None
    frac_a_hdv: float | None
    frac_a_cav: float | None
    opt_gap: float | None
    equity_gap: float | None


@dataclass(frozen=True)
class RatioReport:
    """Before/after outcome ratios; > 1 means the denominator group fares better."""

    cav_advantage: float | None              # tau / rho
    effect_change_to_cav: float | None       # tau_b / rho
    effect_remaining_hdv: float | None       # tau_b / tau
    perceived_effect_remaining_hdv: float | None  # u_b / u


@dataclass(frozen=True)
class TTestResult:
    """Outcome of a paired two-tailed t-test against the p = 0.001 threshold."""

    t_statistic: float | None
    degrees_of_freedom: int
    significant_at_0_001: bool
    degenerate: bool = False


def day_statistics(
    hdv_routes: np.ndarray,
    survivor_count: int,
    taste_a: np.ndarray,
    taste_b: np.ndarray,
    q_cav_a: int,
    q_cav_b: int,
    t_a: float,
    t_b: float,
) -> tuple[float | None, float | None, float | None]:
    """Per-day group means from one completed day.

    ``hdv_routes`` holds the committed route of every current human
    driver in index order: 0 = A and 1 = B, or a boolean mask with
    True = B (any nonzero entry is route B).  Drivers below
    ``survivor_count`` are the ones that stay human for the whole run.
    Returns (mean human time, mean perceived time over survivors, mean
    fleet time), each None when its group is empty.  Perceived time of a
    driver is the experienced time plus the taste of the route taken.
    """
    q_hdv_b = int(np.count_nonzero(hdv_routes))
    return (
        _flow_mean(len(hdv_routes) - q_hdv_b, q_hdv_b, t_a, t_b),
        survivor_perceived_mean(hdv_routes, survivor_count, taste_a, taste_b, t_a, t_b),
        _flow_mean(q_cav_a, q_cav_b, t_a, t_b),
    )


def survivor_perceived_mean(
    hdv_routes: np.ndarray,
    survivor_count: int,
    taste_a: np.ndarray,
    taste_b: np.ndarray,
    t_a: float,
    t_b: float,
) -> float | None:
    """Mean perceived time of the drivers below ``survivor_count``, or None.

    ``hdv_routes`` is as in :func:`day_statistics`; None means no
    survivor committed a route that day (none left, or fewer current
    drivers than survivors).
    """
    if not 0 < survivor_count <= len(hdv_routes):
        return None
    n_sur = survivor_count
    perceived = np.where(hdv_routes[:n_sur], t_b + taste_b[:n_sur], t_a + taste_a[:n_sur])
    # np.mean's own reduction and division, without its dispatch layers.
    return float(np.add.reduce(perceived)) / n_sur


@lru_cache(maxsize=None)
def system_optimum(network: TwoRouteNetwork, q_total: int) -> tuple[int, float]:
    """Split of ``q_total`` vehicles that minimizes the mean travel time.

    This is the Social fleet split on empty roads: returns (best_q_a,
    minimal mean time), ties resolving to the smallest q_a.  Cached
    because ``compute_window_averages`` asks for it once per
    evaluation-window day, mostly for the same total.
    """
    if q_total < 1:
        raise ValueError(f"q_total must be >= 1, got {q_total}")
    decision = fleet_optimize(STRATEGY_TABLE["Social"], 0, 0, q_total, network)
    return decision.cav_on_a, decision.objective_value / q_total


def _mean(values: list) -> float | None:
    """Mean of per-day values; None for an empty window or an absent day."""
    if not values or any(v is None for v in values):
        return None
    return sum(values) / len(values)


def _flow_mean(q_a: int, q_b: int, t_a: float, t_b: float) -> float | None:
    """Flow-weighted mean of two per-route values; None for no flow."""
    total = q_a + q_b
    return (q_a * t_a + q_b * t_b) / total if total > 0 else None


def _share_a(q_a: int, q_b: int) -> float | None:
    """Fraction of a group on route A; None for an empty group."""
    total = q_a + q_b
    return q_a / total if total > 0 else None


def compute_window_averages(log: "SimulationLog") -> WindowAverages:
    """All window statistics of one run.

    ``tau_b`` and ``u_b`` average the baseline window (phase 2 of the
    run's ``phase_lengths``), every other field the evaluation window
    (phase 4).  Per day the optimality gap is S - S_O, with S the
    flow-weighted mean time of all vehicles and S_O the system optimum
    at that day's total flow; the equity gap is the flow-weighted
    standard deviation of the two route times around S.
    """
    p1, p2, p3, p4 = log.config.phase_lengths
    if len(log.records) < log.config.total_days:
        raise ValueError(
            f"phase windows reach day {log.config.total_days}, "
            f"outside the log (days 1..{len(log.records)})"
        )
    base = log.records[p1 : p1 + p2]
    post = log.records[p1 + p2 + p3 : p1 + p2 + p3 + p4]
    gaps = []
    sigmas = []
    for rec in post:
        q_a = rec.q_hdv_a + rec.q_cav_a
        q_b = rec.q_hdv_b + rec.q_cav_b
        s = _flow_mean(q_a, q_b, rec.t_a, rec.t_b)
        gaps.append(s - system_optimum(log.config.network, q_a + q_b)[1])
        try:
            spread = _flow_mean(q_a, q_b, (rec.t_a - s) ** 2, (rec.t_b - s) ** 2)
        except OverflowError:  # a float ** raises where a product would give inf
            spread = math.inf
        sigmas.append(math.sqrt(spread))
    return WindowAverages(
        tau_b=_mean([rec.mean_hdv_time for rec in base]),
        tau=_mean([rec.mean_hdv_time for rec in post]),
        u_b=_mean([rec.mean_perceived_hdv_time for rec in base]),
        u=_mean([rec.mean_perceived_hdv_time for rec in post]),
        rho=_mean([rec.mean_cav_time for rec in post]),
        frac_a_hdv=_mean([_share_a(rec.q_hdv_a, rec.q_hdv_b) for rec in post]),
        frac_a_cav=_mean([_share_a(rec.q_cav_a, rec.q_cav_b) for rec in post]),
        opt_gap=_mean(gaps),
        equity_gap=_mean(sigmas),
    )


def ratio_report(averages: WindowAverages) -> RatioReport:
    """Before/after ratios from a run's window averages.

    Each ratio is absent when its numerator or denominator window
    statistic is absent (empty group in that window).
    """

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den

    return RatioReport(
        cav_advantage=ratio(averages.tau, averages.rho),
        effect_change_to_cav=ratio(averages.tau_b, averages.rho),
        effect_remaining_hdv=ratio(averages.tau_b, averages.tau),
        perceived_effect_remaining_hdv=ratio(averages.u_b, averages.u),
    )


def paired_t_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> TTestResult:
    """Paired two-tailed t-test of two equal-length samples.

    t = mean(d) / (sd(d) / sqrt(n)) over the differences d = a - b, with
    the n-1 sample standard deviation.  Zero-variance differences are a
    degenerate outcome, reported as such instead of raising.
    Significance is read from a fixed p = 0.001 critical-value table.
    """
    if len(sample_a) != len(sample_b):
        raise ValueError(
            f"paired samples must have equal length, got {len(sample_a)} and {len(sample_b)}"
        )
    n = len(sample_a)
    if n < 2:
        raise ValueError(f"need at least 2 pairs, got {n}")
    d = [a - b for a, b in zip(sample_a, sample_b)]
    mean_d = sum(d) / n
    var_d = sum((x - mean_d) ** 2 for x in d) / (n - 1)
    df = n - 1
    if var_d == 0.0:
        return TTestResult(
            t_statistic=None,
            degrees_of_freedom=df,
            significant_at_0_001=False,
            degenerate=True,
        )
    t = mean_d / math.sqrt(var_d / n)
    critical = T_CRITICAL_TWO_TAILED_001[min(df, 30)]
    return TTestResult(
        t_statistic=t,
        degrees_of_freedom=df,
        significant_at_0_001=abs(t) > critical,
    )
