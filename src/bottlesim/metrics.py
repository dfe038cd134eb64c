"""Reported statistics: daily group means, window averages, gaps, ratios.

A simulation logs per-day columns: the four counts, the two route times
and the survivors' mean perceived time (see ``engine.SimulationLog``).
The statistics of interest are arithmetic means of per-day quantities
over two windows of the run's phases: the baseline window (phase 2,
before the fleet is introduced) and the evaluation window (phase 4, at
the end of the run).
Group statistics over an empty group (no fleet, or no surviving human
drivers) are reported as absent (None), never as zero, and absence
propagates through window averages and ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .fleet import STRATEGY_TABLE, fleet_optimize
from .network import TwoRouteNetwork, network_travel_times

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
    blocks: Iterable[tuple[np.ndarray, Sequence[int]]], divisors: np.ndarray, out: np.ndarray,
) -> np.ndarray:
    """Per-day perceived means of a state's rows, from one completed day of each: ``out``, filled.

    ``blocks`` gives each block of rows as a (rows, n) array with the
    survivor counts its rows log, each at most n.  A row holds the
    perceived time of every current human driver in index order, the
    experienced time plus the taste of the route taken.  ``out`` takes,
    block by block and row by row, the mean over the row's first c drivers
    for each count c.  ``divisors`` holds each entry's c as a float, and
    NaN where c is 0: the sum over no drivers, 0.0, divides to NaN with no
    floating-point warning.
    """
    start = 0
    for perceived, counts in blocks:
        stride = len(counts)
        stop = start + len(perceived) * stride
        for i, c in enumerate(counts):
            # np.mean's own reduction, row by row: each row sums as it would alone.
            np.add.reduce(perceived[:, :c], axis=1, out=out[start + i:stop:stride])
        start = stop
    return np.divide(out, divisors, out=out)


def flow_mean(q: np.ndarray, t) -> np.ndarray:
    """Per day, the flow-weighted mean (q_a * t_a + q_b * t_b) / (q_a + q_b) of two per-route values.

    ``q`` is (days, 2) route counts, and ``t`` (t_a, t_b) per day or for all
    days.  A day without flow gives NaN; its mean is absent.  Each mean has
    the bits of the scalar formula on Python numbers.
    """
    t = np.asarray(t)
    with np.errstate(all="ignore"):  # Python's float arithmetic, which this repeats, warns of nothing
        return (q[:, 0] * t[..., 0] + q[:, 1] * t[..., 1]) / (q[:, 0] + q[:, 1])


@lru_cache(maxsize=None)
def system_optimum(network: TwoRouteNetwork, q_total: int) -> tuple[int, float]:
    """Split of ``q_total`` vehicles that minimizes the mean travel time.

    This is the Social fleet split on empty roads: returns (best_q_a,
    minimal mean time), ties resolving to the smallest q_a.  Cached
    because ``compute_window_averages`` asks for it once per distinct
    total flow of a run's evaluation window, and a sweep's runs share
    their totals.
    """
    if q_total < 1:
        raise ValueError(f"q_total must be >= 1, got {q_total}")
    x = np.arange(q_total + 1.0)
    decision = fleet_optimize(STRATEGY_TABLE["Social"], 0, 0, q_total, network_travel_times(network, x, x))
    return decision.cav_on_a, decision.objective_value / q_total


def sequential_sum(values: Iterable[float]) -> float:
    """The sum of ``values`` added one at a time, left to right.

    Python 3.12's ``sum`` of floats is compensated, so its last bits may
    differ from those of 3.10 and 3.11, which add left to right.  Every
    reported mean sums through this function, so outputs are byte-stable
    across versions: ``[1e16, 1.0, -1e16]`` sums to 0.0.
    """
    total = 0
    for value in values:
        total += value
    return total


def _mean(values: np.ndarray, present=True) -> float | None:
    """Mean of per-day values; None for an empty window or a day not ``present``."""
    if not len(values) or not np.all(present):
        return None
    return sequential_sum(values.tolist()) / len(values)


def daily_means(log: "SimulationLog") -> list[tuple[np.ndarray, np.ndarray]]:
    """The daily CSV's three means (humans', survivors' perceived, fleet's), each with the days it is present on."""
    survivors = np.full(len(log.perceived), log.config.survivor_count > 0)
    hdv, cav = ((flow_mean(q, log.times), q.any(axis=1)) for q in (log.flows[:, :2], log.flows[:, 2:]))
    return [hdv, (log.perceived, survivors), cav]


def compute_window_averages(log: "SimulationLog") -> WindowAverages:
    """All window statistics of one run.

    ``tau_b`` and ``u_b`` average the baseline window (phase 2 of the
    run's ``phase_lengths``), every other field the evaluation window
    (phase 4).  Per day the optimality gap is S - S_O, with S the
    flow-weighted mean time of all vehicles and S_O the system optimum
    at that day's total flow; the equity gap is the flow-weighted
    standard deviation of the two route times around S.
    """
    config = log.config
    p1, p2, p3, _ = config.phase_lengths
    if len(log.flows) < config.total_days:
        raise ValueError(f"phase windows reach day {config.total_days}, outside the log (days 1..{len(log.flows)})")
    base, post = slice(p1, p1 + p2), slice(p1 + p2 + p3, config.total_days)
    (tau, hdv), (u, survivors), (rho, cav) = daily_means(log)
    flows, times = log.flows[post], log.times[post]
    q = flows[:, :2] + flows[:, 2:]  # every vehicle, per route
    s = flow_mean(q, times)
    totals = q.sum(axis=1).tolist()
    optima = {total: system_optimum(config.network, total)[1] for total in set(totals)}
    with np.errstate(all="ignore"):  # as in flow_mean
        gaps = s - [optima[total] for total in totals]
        deviations = times - s[:, None]
        squares = deviations * deviations
        sigmas = np.sqrt(flow_mean(q, squares))
    # A deviation is finite and its square is not: the same spread in closed form.
    for day in np.flatnonzero((np.isfinite(deviations) & np.isinf(squares)).any(axis=1)).tolist():
        (q_a, q_b), (t_a, t_b) = q[day].tolist(), times[day].tolist()
        sigmas[day] = abs(t_a - t_b) * math.sqrt(q_a * q_b) / (q_a + q_b)
    return WindowAverages(
        tau_b=_mean(tau[base], hdv[base]),
        tau=_mean(tau[post], hdv[post]),
        u_b=_mean(u[base], survivors[base]),
        u=_mean(u[post], survivors[post]),
        rho=_mean(rho[post], cav[post]),
        frac_a_hdv=_mean(flow_mean(flows[:, :2], (1.0, 0.0)), hdv[post]),
        frac_a_cav=_mean(flow_mean(flows[:, 2:], (1.0, 0.0)), cav[post]),
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


def _difference_moments(d: list[float]) -> tuple[float, float]:
    """Mean and n-1 sample variance of the differences ``d``, summed left to right; inf if a square overflows."""
    mean_d = sequential_sum(d) / len(d)
    return mean_d, sequential_sum((x - mean_d) * (x - mean_d) for x in d) / (len(d) - 1)


def paired_t_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> TTestResult:
    """Paired two-tailed t-test of two equal-length samples.

    t = mean(d) / (sd(d) / sqrt(n)) over the differences d = a - b, with
    the n-1 sample standard deviation, also where a difference or its
    square overflows, and where the squares underflow.  Zero-variance
    differences are a degenerate outcome, reported as such instead of
    raising.
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
    mean_d, var_d = _difference_moments(d)
    if not (math.isfinite(mean_d) and math.isfinite(var_d)):
        # A difference, a sum or a square overflows.  t does not depend on scale, so the test is
        # made again on both samples times 2**-600: every float is then below 2**424, where none
        # overflows, and every value above 2**-422 scales exactly.  Only here, since a smaller
        # value, or its square, would lose bits.
        scaled_a, scaled_b = ([math.ldexp(x, -600) for x in s] for s in (sample_a, sample_b))
        mean_d, var_d = _difference_moments([a - b for a, b in zip(scaled_a, scaled_b)])
    elif var_d < 2**-900 and all(abs(x) < 2**300 for x in d):
        # The squares fall among the subnormals or to zero, and lose their bits.  Below 2**300 the
        # differences times 2**600 are exact, and neither they nor their sum overflow; their
        # squares are normal.  Larger differences that agree this closely are all equal.
        mean_d, var_d = _difference_moments([math.ldexp(x, 600) for x in d])
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
