"""Centrally coordinated fleet: strategy weights and daily route split.

The fleet controls ``q_cav`` vehicles and once per day, after the human
drivers have committed their routes, chooses how many of its vehicles to
send via route A.  The split minimizes a weighted objective

    phi(x) = lambda_cav * (fleet vehicle-minutes)
           + lambda_hdv * (human vehicle-minutes)

A strategy is nothing but its weight pair: ``STRATEGY_TABLE`` maps each
name to its ``(lambda_cav, lambda_hdv)`` tuple, which is what
``fleet_optimize`` takes.  The domain of the decision is the integers
0..q_cav, small enough that the minimum is found by exhaustively
evaluating every candidate; ties go to the smallest split so results
are reproducible.  The candidates' route times are slices of a BPR
table, each route's time at every integer flow, which a caller evaluates
once for every decision it asks for: the engine once per state, at set-up,
and reads the day's times from the same table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Strategy name -> (lambda_cav, lambda_hdv).
STRATEGY_TABLE: dict[str, tuple[float, float]] = {
    "Selfish": (1.0, 0.0),
    "Altruistic": (0.0, 1.0),
    "Malicious": (0.0, -1.0),
    "Disruptive": (1.0, -9.0),
    "Social": (1.0, 1.0),
}

STRATEGY_NAMES = tuple(STRATEGY_TABLE)


@dataclass(frozen=True)
class FleetDecision:
    """Chosen daily split of the fleet and its objective value."""

    cav_on_a: int
    cav_on_b: int
    objective_value: float


def fleet_optimize(
    weights: tuple[float, float],
    q_hdv_a: int,
    q_hdv_b: int,
    q_cav: int,
    curves: tuple[np.ndarray, np.ndarray],
) -> FleetDecision:
    """Best fleet split against the committed human counts.

    ``weights`` is a ``(lambda_cav, lambda_hdv)`` pair of
    ``STRATEGY_TABLE``, and ``curves`` is the pair
    ``network_travel_times(network, x, x)`` for ``x = np.arange(n + 1.0)``
    and some n >= max(q_hdv_a, q_hdv_b) + q_cav, such as the population
    q_hdv_a + q_hdv_b + q_cav.  Exhaustively enumerates all q_cav + 1
    integer splits, so the result is the exact global minimizer; among
    equal objective values the smallest number of fleet vehicles on A wins.
    """
    if q_cav < 0:
        raise ValueError(f"q_cav must be nonnegative, got {q_cav}")
    if q_hdv_a < 0 or q_hdv_b < 0:
        raise ValueError("HDV counts must be nonnegative")
    curve_a, curve_b = curves
    if max(q_hdv_a, q_hdv_b) + q_cav >= min(len(curve_a), len(curve_b)):
        raise ValueError(f"route curves end before {max(q_hdv_a, q_hdv_b) + q_cav} vehicles")
    lambda_cav, lambda_hdv = weights
    x = np.arange(q_cav + 1, dtype=np.float64)
    t_a = curve_a[q_hdv_a:q_hdv_a + q_cav + 1]
    t_b = curve_b[q_hdv_b:q_hdv_b + q_cav + 1][::-1]  # x on A leaves q_cav - x on B
    t_cav = x * t_a + (q_cav - x) * t_b
    t_hdv = q_hdv_a * t_a + q_hdv_b * t_b
    # Both terms even at weight 0: 0.0 * inf is nan, so an overflow is not hidden.
    phi = lambda_cav * t_cav + lambda_hdv * t_hdv
    best = int(np.argmin(phi))  # argmin picks the first, i.e. smallest, split on ties
    return FleetDecision(
        cav_on_a=best,
        cav_on_b=q_cav - best,
        objective_value=float(phi[best]),
    )
