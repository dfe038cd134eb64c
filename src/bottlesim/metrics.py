"""Reported statistics: daily group means, window averages, gaps, ratios.

A simulation produces one record per day.  The statistics of interest
are arithmetic means of per-day quantities over two 100-day windows: a
baseline window before the fleet is introduced and an evaluation window
at the end of the run.  Group statistics over an empty group (no fleet,
or no surviving human drivers) are reported as absent (None), never as
zero, and absence propagates through window averages and ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .fleet import fleet_optimize, strategy_weights
from .network import TwoRouteNetwork

if TYPE_CHECKING:
    from .engine import DayRecord, SimulationLog

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
    n_hdv = len(hdv_routes)
    if n_hdv > 0:
        on_a = n_hdv - int(np.count_nonzero(hdv_routes))
        mean_hdv = (on_a * t_a + (n_hdv - on_a) * t_b) / n_hdv
    else:
        mean_hdv = None

    mean_perceived = survivor_perceived_mean(hdv_routes, survivor_count, taste_a, taste_b, t_a, t_b)
    q_cav = q_cav_a + q_cav_b
    mean_cav = (q_cav_a * t_a + q_cav_b * t_b) / q_cav if q_cav > 0 else None
    return mean_hdv, mean_perceived, mean_cav


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


def _check_window(log: "SimulationLog", day_range: tuple[int, int]) -> tuple[int, int]:
    first, last = day_range
    if last < first:
        raise ValueError(f"empty day range {day_range}")
    if first < 1 or last > len(log.records):
        raise ValueError(
            f"day range {day_range} outside the log (days 1..{len(log.records)})"
        )
    return first, last


def window_average(
    log: "SimulationLog",
    day_range: tuple[int, int],
    selector: str | Callable[["DayRecord"], float | None],
) -> float | None:
    """Arithmetic mean of a per-day statistic over an inclusive day range.

    ``selector`` is a DayRecord attribute name or a callable on records.
    A single absent (None) day makes the whole window absent.
    """
    first, last = _check_window(log, day_range)
    if isinstance(selector, str):
        name = selector
        selector = lambda rec: getattr(rec, name)  # noqa: E731
    values = [selector(rec) for rec in log.records[first - 1 : last]]
    if any(v is None for v in values):
        return None
    return sum(values) / len(values)


@lru_cache(maxsize=None)
def system_optimum(network: TwoRouteNetwork, q_total: int) -> tuple[int, float]:
    """Split of ``q_total`` vehicles that minimizes the mean travel time.

    This is the Social fleet split on empty roads: returns (best_q_a,
    minimal mean time), ties resolving to the smallest q_a.  Cached
    because the engine asks for the same total on every day.
    """
    if q_total < 1:
        raise ValueError(f"q_total must be >= 1, got {q_total}")
    decision = fleet_optimize(strategy_weights("Social"), 0, 0, q_total, network)
    return decision.cav_on_a, decision.objective_value / q_total


def _day_mean_and_spread(rec: "DayRecord") -> tuple[int, float, float]:
    """Total flow, realized mean time S and equity spread sigma of one day."""
    q_a = rec.q_hdv_a + rec.q_cav_a
    q_b = rec.q_hdv_b + rec.q_cav_b
    total = q_a + q_b
    s = (q_a * rec.t_a + q_b * rec.t_b) / total
    sigma = math.sqrt((q_a * (rec.t_a - s) ** 2 + q_b * (rec.t_b - s) ** 2) / total)
    return total, s, sigma


def optimality_and_equity(
    log: "SimulationLog",
    network: TwoRouteNetwork,
    day_range: tuple[int, int],
) -> tuple[float, float]:
    """Window-averaged distance from system optimum and travel-time spread.

    Per day the optimality gap is S - S_O, with S the realized mean time
    of all vehicles and S_O the system optimum at that day's total; the
    equity gap is the flow-weighted standard deviation of the two route
    times.  Both are averaged over the window.
    """
    first, last = _check_window(log, day_range)
    gaps = []
    sigmas = []
    for rec in log.records[first - 1 : last]:
        total, s, sigma = _day_mean_and_spread(rec)
        gaps.append(s - system_optimum(network, total)[1])
        sigmas.append(sigma)
    return sum(gaps) / len(gaps), sum(sigmas) / len(sigmas)


def _frac_hdv_on_a(rec: "DayRecord") -> float | None:
    n = rec.q_hdv_a + rec.q_hdv_b
    return rec.q_hdv_a / n if n > 0 else None


def _frac_cav_on_a(rec: "DayRecord") -> float | None:
    n = rec.q_cav_a + rec.q_cav_b
    return rec.q_cav_a / n if n > 0 else None


def baseline_window(phase_lengths: Sequence[int]) -> tuple[int, int]:
    """Inclusive day range of the pre-fleet observation phase."""
    p1, p2 = phase_lengths[0], phase_lengths[1]
    return p1 + 1, p1 + p2


def evaluation_window(phase_lengths: Sequence[int]) -> tuple[int, int]:
    """Inclusive day range of the final observation phase."""
    p1, p2, p3, p4 = phase_lengths
    return p1 + p2 + p3 + 1, p1 + p2 + p3 + p4


def compute_window_averages(log: "SimulationLog") -> WindowAverages:
    """All window statistics of one run, using the run's own phase windows."""
    phases = log.config.phase_lengths
    base = baseline_window(phases)
    post = evaluation_window(phases)

    def averaged(day_range, selector):
        if day_range[1] < day_range[0]:
            return None
        return window_average(log, day_range, selector)

    if post[1] >= post[0]:
        opt_gap, equity_gap = optimality_and_equity(log, log.config.network, post)
    else:
        opt_gap = equity_gap = None
    return WindowAverages(
        tau_b=averaged(base, "mean_hdv_time"),
        tau=averaged(post, "mean_hdv_time"),
        u_b=averaged(base, "mean_perceived_hdv_time"),
        u=averaged(post, "mean_perceived_hdv_time"),
        rho=averaged(post, "mean_cav_time"),
        frac_a_hdv=averaged(post, _frac_hdv_on_a),
        frac_a_cav=averaged(post, _frac_cav_on_a),
        opt_gap=opt_gap,
        equity_gap=equity_gap,
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
