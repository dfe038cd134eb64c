"""Centrally coordinated fleet: strategy weights and daily route split.

The fleet controls ``q_cav`` vehicles and once per day, after the human
drivers have committed their routes, chooses how many of its vehicles to
send via route A.  The split minimizes a weighted objective

    phi(x) = lambda_cav * (fleet vehicle-minutes)
           + lambda_hdv * (human vehicle-minutes)

where the weight pair encodes the strategy: Selfish (1, 0), Altruistic
(0, 1), Malicious (0, -1), Disruptive (1, -9), Social (1, 1).  The
domain of the decision is the integers 0..q_cav, small enough that the
minimum is found by exhaustively evaluating every candidate; ties go to
the smallest split so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import TwoRouteNetwork, _bpr

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
class StrategyWeights:
    """Objective weights for the fleet's two cost terms."""

    lambda_cav: float
    lambda_hdv: float
    name: str

    def __post_init__(self) -> None:
        expected = STRATEGY_TABLE.get(self.name)
        if expected is not None and expected != (self.lambda_cav, self.lambda_hdv):
            raise ValueError(
                f"strategy {self.name!r} must carry weights {expected}, "
                f"got ({self.lambda_cav}, {self.lambda_hdv})"
            )


@dataclass(frozen=True)
class FleetDecision:
    """Chosen daily split of the fleet and its objective value."""

    cav_on_a: int
    cav_on_b: int
    objective_value: float


def strategy_weights(name: str) -> StrategyWeights:
    """Look up the weight pair of a named strategy."""
    try:
        lam_cav, lam_hdv = STRATEGY_TABLE[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; expected one of {', '.join(STRATEGY_NAMES)}"
        ) from None
    return StrategyWeights(lambda_cav=lam_cav, lambda_hdv=lam_hdv, name=name)


def _objective_curve(
    weights: StrategyWeights,
    q_hdv_a: int,
    q_hdv_b: int,
    q_cav: int,
    network: TwoRouteNetwork,
) -> np.ndarray:
    """Objective value for every feasible fleet split 0..q_cav."""
    x = np.arange(q_cav + 1, dtype=np.float64)
    q_a = q_hdv_a + x
    q_b = q_hdv_b + (q_cav - x)
    t_a = _bpr(network.route_a, q_a)
    t_b = _bpr(network.route_b, q_b)
    t_cav = x * t_a + (q_cav - x) * t_b
    t_hdv = q_hdv_a * t_a + q_hdv_b * t_b
    return weights.lambda_cav * t_cav + weights.lambda_hdv * t_hdv


def fleet_optimize(
    weights: StrategyWeights,
    q_hdv_a: int,
    q_hdv_b: int,
    q_cav: int,
    network: TwoRouteNetwork,
) -> FleetDecision:
    """Best fleet split against the committed human counts.

    Exhaustively enumerates all q_cav + 1 integer splits, so the result
    is the exact global minimizer; among equal objective values the
    smallest number of fleet vehicles on A wins.
    """
    if q_cav < 0:
        raise ValueError(f"q_cav must be nonnegative, got {q_cav}")
    if q_hdv_a < 0 or q_hdv_b < 0:
        raise ValueError("HDV counts must be nonnegative")
    phi = _objective_curve(weights, q_hdv_a, q_hdv_b, q_cav, network)
    best = int(np.argmin(phi))  # argmin picks the first, i.e. smallest, split on ties
    return FleetDecision(
        cav_on_a=best,
        cav_on_b=q_cav - best,
        objective_value=float(phi[best]),
    )
